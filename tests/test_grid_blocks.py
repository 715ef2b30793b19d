"""Grid scans in blocks: the same reports at any block size, in bounded memory."""

import json
import tracemalloc

import numpy as np
import pytest

from harmonicmaps import (
    DEFAULT_GRID,
    GridSpec,
    HarmonicMap,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
    eval_map,
    from_series,
    gallery_get,
    inverse_wirtinger,
    jacobian_positivity_scan,
    linear_wirtinger,
)
from harmonicmaps import criteria, herglotz
from harmonicmaps.errors import DomainError, InversionError
from harmonicmaps.jsonio import dumps
from harmonicmaps.mappings import AnalyticFunction

GALLERY_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                  "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}
GALLERY = ("identity", "cayley", "koebe", "h0", "f_k", "h1", "h_r", "F_eps", "f_eps")
# Sizes 1 962 and 3 841: neither is a multiple of any block below.
ODD_GRIDS = (GridSpec(37, 53, 0.9), GridSpec(40, 96, 0.95))
# Blocks of one and two seed blocks, and one larger than every grid here.
BLOCKS = (256, 512, 10 ** 6)


def gallery_map(name):
    return gallery_get(name, GALLERY_PARAMS.get(name))


def random_cubic(rng, scale):
    """h = z + a2 z^2 + a3 z^3 and g = b1 z + b2 z^2 + b3 z^3, all but h's 1 scaled."""
    a = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
    b = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / 4.0
    return HarmonicMap(h=from_series([1.0, *a]), g=from_series(b))


def pole_function(poles):
    """A map that is not finite at each of ``poles``."""
    poles = np.asarray(poles)
    return AnalyticFunction(
        eval=lambda z: np.sum(1.0 / (z[..., None] - poles), axis=-1),
        deriv=lambda z: -np.sum(1.0 / (z[..., None] - poles) ** 2, axis=-1))


def scans(f, grid):
    """Every grid scan of f, each as a thunk of its report."""
    cayley = gallery_get("cayley").h
    return {
        "corollary1-inverse": lambda: check_corollary1(f, inverse_wirtinger(f), grid),
        "corollary1-linear": lambda: check_corollary1(f, linear_wirtinger(2.0, -1.0), grid),
        "theorem1-inverse": lambda: check_theorem1(f, inverse_wirtinger(f), grid),
        "theorem1-linear": lambda: check_theorem1(f, linear_wirtinger(2.0, -1.0), grid),
        "theoremA": lambda: check_theoremA(f, grid),
        "theoremB": lambda: check_theoremB(f, cayley, grid),
        "philike": lambda: check_philike(f.h, from_series([np.exp(0.3j)]), grid),
        "jacobian": lambda: jacobian_positivity_scan(f, grid),
    }


def outputs(thunks, monkeypatch, block):
    """Each thunk's report as JSON, or its error's type and text, with GRID_BLOCK = block."""
    monkeypatch.setattr(criteria, "GRID_BLOCK", block)
    result = {}
    with np.errstate(all="ignore"):
        for name, thunk in thunks.items():
            try:
                result[name] = dumps(thunk().to_dict())
            except Exception as exc:  # the error must be the same at every block size
                result[name] = f"{type(exc).__name__}: {exc}"
    return result


def assert_same_at_every_block(thunks, monkeypatch):
    reference = outputs(thunks, monkeypatch, BLOCKS[-1])
    for block in BLOCKS[:-1]:
        assert outputs(thunks, monkeypatch, block) == reference, block
    return reference


def test_grid_samples_are_the_points_bit_for_bit():
    for grid in (DEFAULT_GRID, *ODD_GRIDS, GridSpec(1, 1, 0.5), GridSpec(3, 5000, 0.7)):
        points = grid.points()
        assert grid.size == points.size
        for block in (5, 256, 4096, grid.size):
            parts = [grid.samples(s, min(s + block, grid.size)) for s in range(0, grid.size, block)]
            assert np.concatenate(parts).tobytes() == points.tobytes()
        assert all(grid.point(k) == points[k] for k in range(0, grid.size, 97))


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_reports_bit_for_bit_at_every_block_size(name, monkeypatch):
    f = gallery_map(name)
    thunks = {f"{grid.n_radial}x{grid.n_angular} {scan}": thunk
              for grid in ODD_GRIDS for scan, thunk in scans(f, grid).items()}
    assert_same_at_every_block(thunks, monkeypatch)


def test_random_cubic_reports_bit_for_bit_at_every_block_size(monkeypatch):
    rng = np.random.default_rng(26)
    thunks = {}
    for i in range(20):
        # Up to scale 1.5 Newton fails on many of them, so the inversion
        # failures are compared too.  Each map takes phi = f^-1 in one of the
        # two checks that compose with it, to save time.
        f = random_cubic(rng, 0.3 + 1.2 * i / 19)
        skip = ("corollary1-inverse", "theorem1-inverse")[i // 2 % 2]
        thunks.update({f"{i} {scan}": thunk for scan, thunk in scans(f, ODD_GRIDS[i % 2]).items()
                       if scan != skip})
    reference = assert_same_at_every_block(thunks, monkeypatch)
    assert sum("no convergence" in text for text in reference.values()) >= 4


def test_failure_texts_bit_for_bit_at_every_block_size(monkeypatch):
    # Samples 4094 and 4095 (|z| 0.99901 and 0.99926) already lie outside h1's
    # domain, before the block edge at 4096 and the outer ring (0.9995); the
    # text names the largest |z| on the grid.
    rim = scans(gallery_get("h1"), GridSpec(4096, 1, 0.9995))
    thunks = dict(rim)
    # Poles at samples 300 and 3000 of the default grid, in different blocks.
    poles = HarmonicMap.from_analytic(pole_function(DEFAULT_GRID.points()[[3000, 300]]))
    thunks.update({f"pole {scan}": thunk for scan, thunk in scans(poles, DEFAULT_GRID).items()})
    thunks["W vanishes"] = lambda: check_theorem1(
        HarmonicMap(h=from_series([1.0, 0.5j]), g=from_series([0.5j, 0.5j])),
        linear_wirtinger(1.0, 0.0), GridSpec(20, 48, 0.9), n_epsilon=1024)
    koebe = gallery_get("koebe").h
    w0 = complex(koebe.eval(0.5 + 0.0j))
    zero = AnalyticFunction(eval=lambda w: w - w0, deriv=np.ones_like)
    thunks["Phi vanishes"] = lambda: check_philike(koebe, zero, GridSpec(40, 96, 0.8))
    # G' is 0 at every sample on the positive real axis, one per ring: the
    # first of these ties is the witness.
    G = AnalyticFunction(eval=lambda z: z,
                         deriv=lambda z: np.where((z.imag == 0.0) & (z.real > 0.0), 0.0, 1.0))
    thunks["G' vanishes"] = lambda: check_theoremB(gallery_get("h0"), G, DEFAULT_GRID)
    out = assert_same_at_every_block(thunks, monkeypatch)
    domain = "|z| = 0.9995 outside domain radius 0.999"
    assert out["jacobian"] == f"DomainError: {domain}"
    assert all(f'"failure": "{domain}"' in out[scan] for scan in rim if scan != "jacobian")
    witness = DEFAULT_GRID.points()[300]
    for scan in rim:
        report = json.loads(out[f"pole {scan}"])
        if "inverse" in scan:  # the first target that is not finite, f at sample 300
            assert report["meta"]["failure"].startswith("cannot invert at non-finite target")
        else:
            assert report["meta"]["failure"] == "non-finite evaluation"
            assert report["witness"] == [witness.real, witness.imag]
    assert json.loads(out["W vanishes"])["meta"]["failure"] == "W vanishes"
    assert json.loads(out["Phi vanishes"])["meta"]["failure"] == "Phi(f(z)) vanishes"
    report = json.loads(out["G' vanishes"])
    assert report["meta"]["failure"] == "G' vanishes at a sample"
    assert report["witness"] == [DEFAULT_GRID.points()[1].real, 0.0]


def test_inversion_failure_names_the_whole_grid_target(monkeypatch):
    # Newton fails in several blocks on this map; the report names the target
    # one inversion over the whole grid names, and a non-finite target wins.
    rng = np.random.default_rng(5)
    f = random_cubic(rng, 1.5)
    grid = GridSpec(40, 96, 0.9)
    w = eval_map(f, grid.points())
    with pytest.raises(InversionError) as whole:
        herglotz.invert(f, w)
    assert whole.value.best_residual > whole.value.bound
    failing = set()
    for start in range(0, w.size, 256):
        try:
            herglotz.invert(f, w[start:start + 256])
        except InversionError:
            failing.add(start)
    assert len(failing) > 2
    for block in BLOCKS:
        monkeypatch.setattr(criteria, "GRID_BLOCK", block)
        for check in (check_corollary1, check_theorem1):
            assert check(f, inverse_wirtinger(f), grid).meta["failure"] == str(whole.value)
    # A target that is not finite at a sample after the failed blocks.
    pole = pole_function([grid.points()[3500]])
    broken = HarmonicMap(h=f.h, g=AnalyticFunction(eval=lambda z: f.g.eval(z) + 0.0 * pole.eval(z),
                                                   deriv=f.g.deriv))
    with np.errstate(all="ignore"):
        wb = eval_map(broken, grid.points())
        with pytest.raises(DomainError) as whole:
            herglotz.invert(broken, wb)
        for block in BLOCKS:
            monkeypatch.setattr(criteria, "GRID_BLOCK", block)
            report = check_corollary1(broken, inverse_wirtinger(broken), grid)
            assert report.meta["failure"] == str(whole.value)


@pytest.mark.parametrize("grid", [GridSpec(40, 96, 0.95), GridSpec(80, 192, 0.9)],
                         ids=["40x96", "80x192"])
def test_inversion_in_grid_blocks_matches_one_call_bit_for_bit(grid):
    # The seed ranking takes one matrix product per _SEED_BLOCK targets, and a
    # one-row product can round otherwise than the same row in a larger one:
    # 40x96 has 3 841 targets, so its last seed block is one row.  Blocks that
    # start on multiples of _SEED_BLOCK keep every target in its product.
    assert criteria.GRID_BLOCK % herglotz._SEED_BLOCK == 0
    for name in ("koebe", "h1"):
        f = gallery_get(name)
        w = eval_map(f, grid.points())
        whole = herglotz.invert(f, w)
        for block in (criteria.GRID_BLOCK, herglotz._SEED_BLOCK, 2 * herglotz._SEED_BLOCK):
            parts = [herglotz.invert(f, w[s:s + block]) for s in range(0, w.size, block)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()


def recording(fn, seen):
    """fn with each kernel call's array size added to ``seen``."""
    def wrap(kernel):
        def call(z, *rest):
            seen.append(np.size(z))
            return kernel(z, *rest)
        return call

    return AnalyticFunction(eval=wrap(fn.eval), deriv=wrap(fn.deriv),
                            domain_radius=fn.domain_radius, description=fn.description)


def test_no_map_call_sees_the_whole_grid():
    grid = GridSpec(160, 384, 0.99)
    seen = []
    fk = gallery_get("f_k", {"k": 0.5})
    f = HarmonicMap(h=recording(fk.h, seen), g=recording(fk.g, seen))
    G = recording(gallery_get("cayley").h, seen)
    Phi = recording(from_series([1.0]), seen)
    checks = {
        "corollary1": lambda: check_corollary1(f, inverse_wirtinger(f), grid),
        "theorem1-inverse": lambda: check_theorem1(f, inverse_wirtinger(f), grid),
        "theorem1-linear": lambda: check_theorem1(f, linear_wirtinger(2.0, -1.0), grid),
        "theoremA": lambda: check_theoremA(f, grid),
        "theoremB": lambda: check_theoremB(f, G, grid),
        "philike": lambda: check_philike(f.h, Phi, grid),
        "jacobian": lambda: jacobian_positivity_scan(f, grid),
    }
    for name, check in checks.items():
        seen.clear()
        check()
        assert seen and max(seen) <= criteria.GRID_BLOCK, name


def traced_peak(scan):
    tracemalloc.start()
    try:
        scan()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_scans_keep_memory_per_sample_bounded():
    # Bytes per sample before the scans ran in blocks: 347 (corollary1 and
    # theorem1 with phi = f^-1), 144 (theorem1, linear phi), 104 (theoremA),
    # 120 (theoremB), 80 (philike) and 56 (the Jacobian scan).
    fk, koebe = gallery_get("f_k", {"k": 0.5}), gallery_get("koebe")
    cayley = gallery_get("cayley").h
    reducing = {
        "corollary1": lambda g: check_corollary1(fk, inverse_wirtinger(fk), g),
        "philike": lambda g: check_philike(koebe.h, from_series([1.0]), g),
        "jacobian": lambda g: jacobian_positivity_scan(fk, g),
    }
    per_sample = {
        "theorem1-inverse": (lambda g: check_theorem1(fk, inverse_wirtinger(fk), g), 347 / 2),
        "theorem1-linear": (lambda g: check_theorem1(fk, linear_wirtinger(2.0, -1.0), g), 144),
        "theoremA": (lambda g: check_theoremA(fk, g), 104),
        "theoremB": (lambda g: check_theoremB(koebe, cayley, g), 120),
    }
    for grid in (GridSpec(160, 384, 0.9), GridSpec(320, 768, 0.9)):
        for name, scan in reducing.items():
            assert traced_peak(lambda: scan(grid)) < 3e6, (name, grid)
        for name, (scan, bound) in per_sample.items():
            assert traced_peak(lambda: scan(grid)) / grid.size < bound, (name, grid)
