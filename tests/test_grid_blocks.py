"""Grid scans in blocks: the same reports at any block size, in bounded memory."""

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from harmonicmaps import (
    DEFAULT_GRID,
    DiscreteMeasure,
    GridSpec,
    HarmonicMap,
    Perturbation,
    StructuralParams,
    budget_audit,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
    conjugate_z_perturbation,
    estimate_A,
    estimate_m,
    eval_map,
    from_series,
    gallery_get,
    inverse_wirtinger,
    jacobian_positivity_scan,
    linear_wirtinger,
    verify_structural_identity,
)
from harmonicmaps import cli, criteria, herglotz
from harmonicmaps.construct import A_GRID, _min_slack
from harmonicmaps.errors import DomainError, InapplicableError, InversionError
from harmonicmaps.jsonio import dumps, map_from_spec
from harmonicmaps.mappings import FD_STEP, AnalyticFunction

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
    """Each thunk's report or dictionary as JSON, or its error's type and text, with
    GRID_BLOCK = block."""
    monkeypatch.setattr(criteria, "GRID_BLOCK", block)
    result = {}
    with np.errstate(all="ignore"):
        for name, thunk in thunks.items():
            try:
                value = thunk()
                result[name] = dumps(value if isinstance(value, dict) else value.to_dict())
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


def full_grid_m(f, r, grid):
    """``estimate_m`` as one reduction over the whole grid at radius r: the first
    least sample by ``np.argmin``, then the same two local passes."""
    pts = replace(grid, r_max=r).points() if r else np.zeros(1, complex)
    vals = np.asarray(_min_slack(f, pts), dtype=float)
    k = int(np.argmin(vals))
    best_z, best = pts[k], float(vals[k])
    if r > 0.0:
        d_rho = r / grid.n_radial
        d_ang = 2.0 * np.pi / grid.n_angular
        for level in (4.0, 16.0):
            rho0, ang0 = np.abs(best_z), np.angle(best_z)
            offs = np.arange(-2, 3)
            rho = np.clip(rho0 + offs * d_rho / level, 0.0, r)
            ang = ang0 + offs * d_ang / level
            local = (rho[:, None] * np.exp(1j * ang[None, :])).ravel()
            lv = np.asarray(_min_slack(f, local), dtype=float)
            j = int(np.argmin(lv))
            if lv[j] < best:
                best, best_z = float(lv[j]), local[j]
    return best


def budget_specs():
    """Function specs of the gallery, and of random cubic maps of which some are not
    sense-preserving."""
    rng = np.random.default_rng(30)
    specs = {name: {"type": "named", "name": name, "params": GALLERY_PARAMS.get(name, {})}
             for name in GALLERY}
    for i in range(6):
        scale = 0.2 + 0.2 * i
        a = scale * rng.standard_normal((2, 2)) / 2.0
        b = scale * rng.standard_normal((3, 2)) / 4.0
        specs[f"cubic {i}"] = {"type": "series", "h": [1.0, *a.tolist()], "g": b.tolist()}
    # h' and g' overflow to inf, so |h'| - |g'| is NaN from the origin on.
    specs["overflow"] = {"type": "series", "h": [1.0, 1e308], "g": [0.5, 1e308]}
    return specs


def test_estimate_m_matches_the_full_grid_reduction_bit_for_bit():
    for name, spec in budget_specs().items():
        with np.errstate(all="ignore"):
            f = map_from_spec(spec)
        for grid in (*ODD_GRIDS, GridSpec(160, 384, 0.9)):
            for r in (0.0, 0.3, 0.5, 0.9, 0.95):
                with warnings.catch_warnings(record=True) as got, np.errstate(all="ignore"):
                    warnings.simplefilter("always")
                    value = estimate_m(f, r, grid)
                    expect = full_grid_m(f, r, grid)
                assert np.float64(value).tobytes() == np.float64(expect).tobytes(), (name, grid, r)
                # the warning of a map that is not sense-preserving, and only then
                assert [str(w.message) for w in got] == (
                    [f"map '{f.label or 'f'}' is not sense-preserving on |z| <= {r:g} "
                     f"(min |h'|-|g'| = {expect:.3e})"] if expect < 0.0 else [])


def construct_output(capsys, spec, grid):
    """The CLI ``construct`` of spec at r 0.5 and eps 0 on grid: exit code, stdout, stderr."""
    code = cli.main(["construct", "--spec", json.dumps(spec), "--r", "0.5", "--eps", "0",
                     "--n-radial", str(grid.n_radial), "--n-angular", str(grid.n_angular),
                     "--r-max", str(grid.r_max)])
    captured = capsys.readouterr()
    return {"exit": code, "out": captured.out, "err": captured.err}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_budget_and_construct_bit_for_bit_at_every_block_size(monkeypatch, capsys):
    phi = conjugate_z_perturbation()
    thunks = {}
    for name, spec in budget_specs().items():
        with np.errstate(all="ignore"):
            f = map_from_spec(spec)
        for grid in ODD_GRIDS:
            label = f"{name} {grid.n_radial}x{grid.n_angular}"
            thunks[f"{label} budget"] = lambda f=f, grid=grid: budget_audit(f, phi, 0.5, grid=grid)
            thunks[f"{label} construct"] = lambda spec=spec, grid=grid: construct_output(
                capsys, spec, grid)
    out = assert_same_at_every_block(thunks, monkeypatch)
    refused = [name for name, text in out.items() if text.startswith("InapplicableError")]
    built = [name for name, text in out.items() if '"exit": 0' in text]
    assert "overflow 37x53 budget" in refused and len(refused) >= 4 and len(built) >= 20


def test_budget_and_construct_keep_memory_flat(capsys):
    # Traced peaks before m(r) and the certificate walked the grid in blocks:
    # 11.8 MB (h0) and 13.8 MB (f_k) for budget_audit, 17.7 MB for construct.
    grid = GridSpec(320, 768, 0.95)
    phi = conjugate_z_perturbation()
    for name in ("h0", "f_k"):
        f = gallery_map(name)
        assert traced_peak(lambda: budget_audit(f, phi, 0.5, grid=grid)) < 1e6, name
    spec = {"type": "named", "name": "f_k", "params": GALLERY_PARAMS["f_k"]}
    assert traced_peak(lambda: construct_output(capsys, spec, grid)) < 1e6


def full_grid_identity(f, mu, params, grid):
    """``verify_structural_identity`` as one reduction over the whole grid: the upper
    side inverted over every sample, then the lower side, then ``np.max``."""
    fh = HarmonicMap.from_analytic(f)
    pts = grid.points()
    f_inv = lambda w: herglotz.invert(fh, w, tol=1e-14)
    upper = herglotz.build_phi(f_inv, mu, params, f.eval(pts + FD_STEP))
    lower = herglotz.build_phi(f_inv, mu, params, f.eval(pts - FD_STEP))
    lhs = (upper - lower) / (2.0 * FD_STEP)
    rhs = params.c * herglotz.herglotz_p(mu, pts) - 1j * params.c * params.c1
    return float(np.max(np.abs(lhs - rhs)))


def identity_cases():
    """Analytic gallery maps with random three-atom measures and constants, on odd
    grids and 160x384, and constants so large that the deviation is not finite."""
    rng = np.random.default_rng(31)
    cases = {}
    for name in ("identity", "cayley", "koebe", "h0"):
        for grid in (*ODD_GRIDS, GridSpec(160, 384, 0.9)):
            thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
            weights = rng.uniform(0.2, 1.0, 3)
            mu = DiscreteMeasure(tuple(zip(thetas, weights / weights.sum())))
            params = StructuralParams(c=rng.uniform(0.5, 2.0), c1=rng.standard_normal(),
                                      c0=complex(*rng.standard_normal(2)))
            cases[f"{name} {grid.n_radial}x{grid.n_angular}"] = (gallery_map(name).h, mu,
                                                                 params, grid)
    cases["overflow"] = (gallery_map("koebe").h, DiscreteMeasure.point_mass(0.0),
                         StructuralParams(c=1e308), ODD_GRIDS[0])
    return cases


def test_structural_identity_matches_the_full_grid_reduction_bit_for_bit(monkeypatch):
    nonfinite = 0
    for label, (f, mu, params, grid) in identity_cases().items():
        with np.errstate(all="ignore"):
            expect = full_grid_identity(f, mu, params, grid)
        nonfinite += not np.isfinite(expect)
        for block in BLOCKS:
            monkeypatch.setattr(criteria, "GRID_BLOCK", block)
            with np.errstate(all="ignore"):
                value = verify_structural_identity(f, mu, params, grid)
            if np.isfinite(expect):
                assert np.float64(value).tobytes() == np.float64(expect).tobytes(), (label, block)
            else:  # NaN where any sample is not finite
                assert np.isnan(value), (label, block)
    assert nonfinite == 1


def test_structural_identity_failure_texts_bit_for_bit_at_every_block_size(monkeypatch):
    # Newton fails inverting koebe and h1 near the rim; each block inverts its
    # upper side first, and across blocks the worst miss of its bound is named.
    mu = DiscreteMeasure.point_mass(0.0)
    params = StructuralParams()
    texts = set()
    for name in ("koebe", "h1"):
        f = gallery_map(name).h
        for grid in (GridSpec(40, 96, 0.97), GridSpec(40, 96, 0.99),
                     GridSpec(160, 384, 0.97), GridSpec(160, 384, 0.99)):
            with pytest.raises(InversionError) as whole:
                full_grid_identity(f, mu, params, grid)
            texts.add(str(whole.value))
            for block in BLOCKS:
                monkeypatch.setattr(criteria, "GRID_BLOCK", block)
                with pytest.raises(InversionError) as walked:
                    verify_structural_identity(f, mu, params, grid)
                assert str(walked.value) == str(whole.value), (name, grid, block)
    assert len(texts) == 6


def test_structural_identity_keeps_memory_flat():
    # The whole-grid reduction held about 340 bytes per sample: 72-80 MB here.
    mu = DiscreteMeasure(((0.0, 0.5), (1.0, 0.3), (4.0, 0.2)))
    grid = GridSpec(320, 768, 0.9)
    assert traced_peak(lambda: verify_structural_identity(
        gallery_map("koebe").h, mu, StructuralParams(), grid)) < 2e6


def full_grid_A(phi):
    """The grid maximum of ``estimate_A`` as one reduction over the whole of A_GRID."""
    pts = A_GRID.points()
    vals = np.abs(phi.p.deriv(pts)) + np.abs(phi.q.deriv(pts))
    if not np.all(np.isfinite(vals)):
        raise InapplicableError("|p'| + |q'| is not finite near the boundary")
    return float(np.max(vals))


def test_estimate_A_matches_the_full_grid_reduction_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    perturbations = {name: Perturbation(p=gallery_map(name).h, q=gallery_map(name).g)
                     for name in GALLERY
                     if gallery_map(name).domain_radius > A_GRID.r_max}
    for i in range(8):
        p, q = rng.standard_normal((2, 2 + i, 2)) @ [1.0, 1j] / (2.0 + i)
        perturbations[f"series {i}"] = Perturbation(p=from_series(p), q=from_series(q))
    # p' overflows to inf, and to NaN where it meets a zero.
    with np.errstate(all="ignore"):
        perturbations["overflow"] = Perturbation(p=from_series([1.0, 1e308, 1e308]),
                                                 q=from_series([0.5]))
    values = {}
    for name, phi in perturbations.items():
        with np.errstate(all="ignore"):
            try:
                expect = np.float64(full_grid_A(phi)).tobytes()
            except InapplicableError as exc:
                expect = str(exc)
        values[name] = expect
        for block in BLOCKS:
            monkeypatch.setattr(criteria, "GRID_BLOCK", block)
            with np.errstate(all="ignore"):
                try:
                    value = np.float64(estimate_A(phi)).tobytes()
                except InapplicableError as exc:
                    value = str(exc)
            assert value == expect, (name, block)
    assert values["overflow"] == "|p'| + |q'| is not finite near the boundary"
    assert len(perturbations) >= 15
