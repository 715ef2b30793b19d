"""Kernel sums, the structural comparison formula, and numerical inversion."""

import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harmonicmaps import (
    AnalyticFunction,
    DiscreteMeasure,
    GridSpec,
    HarmonicMap,
    InversionError,
    StructuralParams,
    build_phi,
    big_phi_function,
    check_corollary1,
    check_philike,
    check_theorem1,
    gallery_get,
    herglotz_p,
    invert,
    inverse_wirtinger,
    structural_phi_prime,
    verify_structural_identity,
)
from harmonicmaps import herglotz
from harmonicmaps.errors import DomainError, SingularDerivativeError
from harmonicmaps.mappings import (
    analytic_wirtinger,
    combination,
    composed_wirtinger,
    eval_map,
    from_series,
)


def random_measure(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    thetas = np.unique(thetas)
    weights = rng.random(thetas.size) + 0.05
    weights = weights / weights.sum()
    return DiscreteMeasure(tuple(zip(thetas.tolist(), weights.tolist())))


# ---------------------------------------------------------------------------
# kernel sums


def test_p_is_one_at_origin():
    for mu in (DiscreteMeasure.point_mass(0.0), DiscreteMeasure.uniform(3),
               DiscreteMeasure.uniform(7)):
        assert_allclose(herglotz_p(mu, 0.0 + 0.0j), 1.0, rtol=0, atol=1e-12)


def test_p_point_mass_value():
    mu = DiscreteMeasure.point_mass(0.0)
    assert_allclose(herglotz_p(mu, 0.5 + 0.0j), 3.0, rtol=0, atol=1e-14)


def test_p_two_atoms_value():
    mu = DiscreteMeasure(((0.0, 0.5), (np.pi, 0.5)))
    # 0.5*(1.5/0.5) + 0.5*(0.5/1.5) = 5/3.
    assert_allclose(herglotz_p(mu, 0.5 + 0.0j), 5.0 / 3.0, rtol=0, atol=1e-14)


def test_p_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    mu = random_measure(rng)
    z = 0.8 * (rng.random(40) - 0.5) + 0.8j * (rng.random(40) - 0.5)
    batch = herglotz_p(mu, z)
    singles = np.array([herglotz_p(mu, complex(zi)) for zi in z])
    assert_allclose(batch, singles, rtol=0, atol=1e-14)
    assert isinstance(herglotz_p(mu, 0.1 + 0.0j), complex)


def test_p_positive_real_part_on_disk():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        mu = random_measure(rng)
        r = 0.99 * np.sqrt(rng.random(64))
        z = r * np.exp(2j * np.pi * rng.random(64))
        assert np.min(np.real(herglotz_p(mu, z))) > 0.0


def test_p_rejects_boundary_points():
    mu = DiscreteMeasure.point_mass(0.0)
    with pytest.raises(DomainError):
        herglotz_p(mu, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        herglotz_p(mu, np.array([0.1, 1.2j]))


# ---------------------------------------------------------------------------
# measure and parameter validation


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, 0.4), (1.0, 0.5)))  # sums to 0.9
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, -0.2), (1.0, 1.2)))
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, float("nan")),))
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, 1.0), (1.0, float("nan"))))


def test_measure_rejects_bad_angles():
    with pytest.raises(ValueError):
        DiscreteMeasure(((1.0, 0.5), (1.0, 0.5)))  # not strictly increasing
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, 0.5), (2.0 * np.pi, 0.5)))  # 2pi excluded
    with pytest.raises(ValueError):
        DiscreteMeasure(())


def test_uniform_measure_layout():
    mu = DiscreteMeasure.uniform(4)
    assert_allclose(mu.thetas, [0.0, np.pi / 2, np.pi, 1.5 * np.pi], atol=1e-15)
    assert_allclose(mu.weights.sum(), 1.0, rtol=0, atol=1e-12)


def test_structural_params_require_positive_c():
    with pytest.raises(ValueError):
        StructuralParams(c=0.0)
    with pytest.raises(ValueError):
        StructuralParams(c=-1.0)
    with pytest.raises(ValueError):
        StructuralParams(c1=float("nan"))
    with pytest.raises(ValueError):
        StructuralParams(c0=complex(0.0, float("nan")))
    assert StructuralParams(c0=1.0).c0 == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# the structural comparison function


def identity_inverse(w):
    return np.asarray(w, dtype=complex)


def test_build_phi_hand_values():
    mu = DiscreteMeasure.point_mass(0.0)
    params = StructuralParams()
    assert_allclose(build_phi(identity_inverse, mu, params, 0.0 + 0.0j), 0.0,
                    rtol=0, atol=1e-15)
    # -(0.5 + 2 log 0.5) = 2 log 2 - 0.5
    assert_allclose(build_phi(identity_inverse, mu, params, 0.5 + 0.0j),
                    2.0 * np.log(2.0) - 0.5, rtol=0, atol=1e-14)


def test_build_phi_constant_shifts():
    mu = DiscreteMeasure.uniform(3)
    base = build_phi(identity_inverse, mu, StructuralParams(), 0.3 + 0.2j)
    shifted = build_phi(identity_inverse, mu, StructuralParams(c0=1.0 - 2.0j),
                        0.3 + 0.2j)
    assert_allclose(shifted - base, 1.0 - 2.0j, rtol=0, atol=1e-14)
    doubled = build_phi(identity_inverse, mu, StructuralParams(c=2.0), 0.3 + 0.2j)
    assert_allclose(doubled, 2.0 * base, rtol=0, atol=1e-14)


def test_build_phi_c1_term():
    mu = DiscreteMeasure.point_mass(1.0)
    w = 0.4 - 0.1j
    base = build_phi(identity_inverse, mu, StructuralParams(), w)
    tilted = build_phi(identity_inverse, mu, StructuralParams(c1=0.7), w)
    assert_allclose(tilted - base, -1j * 0.7 * w, rtol=0, atol=1e-14)


def test_build_phi_rejects_points_outside_disk():
    mu = DiscreteMeasure.point_mass(0.0)
    with pytest.raises(DomainError):
        build_phi(identity_inverse, mu, StructuralParams(), 1.2 + 0.0j)


def test_structural_identity_identity_map():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                         description="z")
    grid = GridSpec(15, 36, 0.9)
    for mu in (DiscreteMeasure.point_mass(0.0), DiscreteMeasure.uniform(3)):
        dev = verify_structural_identity(f, mu, StructuralParams(), grid)
        assert dev <= 1e-8


def test_structural_identity_cayley_random_measures():
    f = gallery_get("cayley").h
    grid = GridSpec(12, 24, 0.85)
    rng = np.random.default_rng(99)
    for _ in range(3):
        mu = random_measure(rng, max_atoms=4)
        dev = verify_structural_identity(f, mu, StructuralParams(), grid)
        assert dev <= 1e-5


def test_structural_identity_with_tilt_and_shift():
    f = gallery_get("cayley").h
    mu = DiscreteMeasure(((0.5, 0.25), (2.0, 0.75)))
    params = StructuralParams(c=0.7, c1=0.3, c0=1.0j)
    dev = verify_structural_identity(f, mu, params, GridSpec(12, 24, 0.85))
    assert dev <= 1e-5


def test_phi_prime_closed_form_identity_map():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                         description="z")
    prime = structural_phi_prime(f, DiscreteMeasure.point_mass(0.0),
                                 StructuralParams())
    # phi'(w) = p(w) = (1+w)/(1-w) when f is the identity.
    assert_allclose(prime(0.5 + 0.0j), 3.0, rtol=0, atol=1e-9)


def test_phi_prime_matches_finite_difference():
    fm = gallery_get("cayley")
    f = fm.h
    mu = DiscreteMeasure(((0.3, 0.6), (4.0, 0.4)))
    params = StructuralParams(c=1.2, c1=-0.4)
    prime = structural_phi_prime(f, mu, params)
    f_inv = lambda w: invert(fm, w, tol=1e-14)
    h = 1e-6
    for z0 in (0.3 + 0.0j, -0.2 + 0.4j, 0.1 - 0.5j):
        w0 = complex(f.eval(z0))
        fd = (build_phi(f_inv, mu, params, w0 + h)
              - build_phi(f_inv, mu, params, w0 - h)) / (2.0 * h)
        assert abs(complex(prime(w0)) - fd) <= 1e-6


# ---------------------------------------------------------------------------
# the associated ratio target


def test_big_phi_identity_is_identity():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                         description="z")
    w = 0.3 + 0.2j
    assert_allclose(big_phi_function(f, lambda w: 1.0 + 0.0j, 0.0).eval(w), w,
                    rtol=0, atol=1e-10)
    assert_allclose(big_phi_function(f, lambda w: 2.0 + 0.0j, 0.0).eval(0.4 + 0.0j),
                    0.2, rtol=0, atol=1e-10)
    # A quarter-turn rotation divides the value by i.
    assert_allclose(big_phi_function(f, lambda w: 1.0 + 0.0j, np.pi / 2.0).eval(w),
                    -1j * w, rtol=0, atol=1e-10)


def test_big_phi_rejects_vanishing_phi_prime():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    with pytest.raises(SingularDerivativeError):
        big_phi_function(f, lambda w: 0.0 + 0.0j, 0.0).eval(0.3 + 0.0j)


def test_big_phi_judges_vanishing_phi_prime_against_its_own_scale():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    w = np.array([0.1, 0.2 + 0.1j, 0.3])
    # phi' at about 1e-16 of its largest value vanishes at the scale of phi'.
    with pytest.raises(SingularDerivativeError):
        big_phi_function(f, lambda w: np.array([1.0, 1e-16, 2.0]) + 0.0j, 0.0).eval(w)
    # A phi' that is small everywhere is only a small scale, not a zero.
    assert_allclose(big_phi_function(f, lambda w: 1e-200 + 0.0j, 0.0).eval(w), w * 1e200,
                    rtol=1e-10, atol=0)


def test_big_phi_koebe_closure():
    """The measure behind the Koebe map turns its ratio target into w itself."""
    f = gallery_get("koebe").h
    prime = structural_phi_prime(f, DiscreteMeasure.point_mass(0.0),
                                 StructuralParams())
    Phi = big_phi_function(f, prime, 0.0)
    for z0 in (0.2 + 0.0j, -0.3 + 0.4j, 0.5j):
        w0 = complex(f.eval(z0))
        assert abs(complex(Phi.eval(w0)) - w0) <= 1e-8
    rep = check_philike(f, Phi, GridSpec(10, 24, 0.7))
    assert rep.holds


# ---------------------------------------------------------------------------
# numerical inversion


def test_invert_identity():
    f = gallery_get("identity")
    assert_allclose(invert(f, 0.3 - 0.4j), 0.3 - 0.4j, rtol=0, atol=1e-12)


def test_invert_worked_examples():
    h0 = gallery_get("h0")
    assert_allclose(invert(h0, 0.625 + 0.0j), 0.5, rtol=0, atol=1e-10)
    f_k = gallery_get("f_k", {"k": 0.5})
    assert_allclose(invert(f_k, 0.9375 + 0.0j), 0.5, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name,params,r", [
    ("identity", None, 0.9),
    ("cayley", None, 0.9),
    ("h0", None, 0.9),
    ("f_k", {"k": 0.5}, 0.9),
    ("koebe", None, 0.7),
    ("koebe", None, 0.95),
    ("h1", None, 0.9),
    ("h1", None, 0.95),
])
def test_invert_roundtrip(name, params, r):
    f = gallery_get(name, params)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    rad = r * f.domain_radius * np.sqrt(rng.random(100))
    z = rad * np.exp(2j * np.pi * rng.random(100))
    w = eval_map(f, z)
    back = invert(f, w)
    assert np.max(np.abs(back - z)) <= 1e-10
    assert back.shape == z.shape


def test_invert_preserves_shape():
    f = gallery_get("h0")
    w = eval_map(f, np.array([[0.1 + 0.1j, 0.2j], [0.3, -0.25 + 0.1j]]))
    z = invert(f, w)
    assert z.shape == (2, 2)
    assert_allclose(eval_map(f, z), w, rtol=0, atol=1e-11)
    # A scalar target gives a scalar preimage.
    z0 = invert(f, 0.625 + 0.0j)
    assert isinstance(z0, complex)
    assert_allclose(z0, 0.5, rtol=0, atol=1e-10)


def test_invert_unreachable_target_raises():
    f = gallery_get("identity")
    with pytest.raises(InversionError) as info:
        invert(f, 5.0 + 0.0j)
    err = info.value
    assert err.w == 5.0 + 0.0j
    assert err.best_residual == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("w", [np.inf, np.nan, complex(0.1, np.inf)])
def test_invert_rejects_nonfinite_target(w):
    with pytest.raises(DomainError) as info:
        invert(gallery_get("identity"), np.array([0.1, w, 0.2]))
    assert str(complex(w)) in str(info.value)


@pytest.mark.parametrize("name, params, a", [("koebe", None, 1e-6),
                                             ("f_k", {"k": 0.5}, 1e-6),
                                             ("h1", None, 1e-9)])
def test_invert_small_translated_map(name, params, a):
    # Seeds are ranked from f(0).  Ranked from the origin, every score of
    # a*f + 3 - 2i is about 13 while the seeds differ by about |a|^2, so
    # rounding scrambled the ranking and Newton stalled from poor seeds.
    f = gallery_get(name, params)
    af = HarmonicMap(h=combination([(a, f.h, 1.0)], 3 - 2j),
                     g=combination([(np.conj(a), f.g, 1.0)]), label=f.label)
    grid = GridSpec(10, 24, 0.9)
    assert check_theorem1(af, inverse_wirtinger(af), grid).holds
    assert check_corollary1(af, inverse_wirtinger(af), grid).holds


def scaled_map(name, a):
    """The gallery map times ``a``: ``a h + conj(a g)``, analytic where f is."""
    f = gallery_get(name, {"k": 0.5} if name == "f_k" else None)
    h = combination([(a, f.h, 1.0)])
    if f.analytic:
        return HarmonicMap.from_analytic(h, label=f.label)
    return HarmonicMap(h=h, g=combination([(np.conj(a), f.g, 1.0)]), label=f.label)


@pytest.mark.parametrize("name", ["koebe", "f_k"])
@pytest.mark.parametrize("a", [1e-150, 1e-200])
def test_invert_tiny_map(name, a):
    # |h'|**2 of such a map reaches or underflows past the guard on the
    # Jacobian, unless the step is taken in units of the map's scale.
    f = scaled_map(name, a)
    grid = GridSpec(10, 24, 0.9)
    z = grid.points()
    assert np.max(np.abs(invert(f, eval_map(f, z)) - z)) <= 1e-8
    # The stop bound is tol * max(s, |w|), and s = min(1, ...) is below 1
    # only for a small map, so margins are compared with the map at 1e-10,
    # which inverts without the unit, and with the map at unit scale up to
    # what that looser bound moves them (koebe's corollary1: 1.44e-9).
    small, unit = scaled_map(name, 1e-10), scaled_map(name, 1.0)
    for check in (check_corollary1, check_theorem1):
        rep = check(f, inverse_wirtinger(f), grid)
        assert rep.holds
        assert rep.margin == pytest.approx(check(small, inverse_wirtinger(small), grid).margin,
                                           abs=1e-12)
        assert rep.margin == pytest.approx(check(unit, inverse_wirtinger(unit), grid).margin,
                                           abs=1e-8)


# ---------------------------------------------------------------------------
# the Newton sweep against the one it replaced, bit for bit


def reference_sweep(f, w, z, bound, clamp, stats=None):
    """Newton's sweep as it ran before it held only the moving targets.

    Every iteration gathers and scatters all active targets, each halving
    values all of them, a refused step is retried until the 50th iteration,
    and the starting residual comes from evaluating ``f`` at the seeds.  It
    values g and g' in full, also where g is the zero function, and works at
    the map's own scale.  ``stats`` counts the halving passes and the points
    evaluated.
    """
    def clamped(z):
        mag = np.abs(z)
        return np.where(mag > clamp, z * (clamp / np.maximum(mag, clamp)), z)

    stats = {} if stats is None else stats
    stats.update(halvings=0, evaluations=0)
    z = z.copy()
    r = w - (f.h.eval(z) + np.conj(f.g.eval(z)))
    res = np.abs(r)
    for _ in range(50):
        act = np.flatnonzero(res > bound)
        if act.size == 0:
            break
        za, wa, ra, resa = z[act], w[act], r[act], res[act]
        hp = f.h.deriv(za)
        gp = f.g.deriv(za)
        jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
        safe = np.abs(jac) > 1e-300
        step = np.where(safe, np.conj(hp) * ra - np.conj(gp) * np.conj(ra), 0.0) \
            / np.where(safe, jac, 1.0)
        scale = np.ones_like(jac)
        for _half in range(21):
            cand = clamped(za + scale * step)
            new_r = wa - (f.h.eval(cand) + np.conj(f.g.eval(cand)))
            stats["evaluations"] += cand.size
            new_res = np.abs(new_r)
            worse = new_res > resa
            if _half == 20 or not np.any(worse):
                break
            stats["halvings"] += 1
            scale[worse] /= 2.0
        keep = new_res <= resa
        idx = act[keep]
        z[idx], r[idx], res[idx] = cand[keep], new_r[keep], new_res[keep]
    return z, res


def sweep_inputs(f, w, tol=1e-12):
    """invert's seeds, their images, stop bounds, clamp and unit for the targets ``w``."""
    clamp = f.domain_radius * (1.0 - 1e-9)
    seeds, images = herglotz._seed_cloud(f, clamp)
    scale = min(1.0, float(np.max(np.abs(images - images[0]) / np.max(np.abs(seeds)))))
    k = herglotz._nearest_seeds(images, w)
    return seeds[k], images[k], tol * np.maximum(scale, np.abs(w)), clamp, herglotz._unit(scale)


def assert_sweep_matches_reference(f, w):
    """Bit-identical z and residual from the sweep and its reference.

    Returns the reference's stats, with the count of targets left above their bound.
    """
    z0, fz, bound, clamp, unit = sweep_inputs(f, w)
    stats = {}
    z_ref, res_ref = reference_sweep(f, w, z0, bound, clamp, stats)
    z, res = herglotz._newton_sweep(f, w, z0, fz, bound, clamp, unit)
    assert np.array_equal(z.view(np.uint64), z_ref.view(np.uint64))
    assert np.array_equal(res.view(np.uint64), res_ref.view(np.uint64))
    stats["unconverged"] = int(np.count_nonzero(res > bound))
    return stats


def counting_map(f):
    """``f`` with ``h.eval`` counting the points it is asked for, and the count."""
    count = [0]

    def value(z):
        count[0] += np.size(z)
        return f.h.eval(z)

    return HarmonicMap(h=AnalyticFunction(eval=value, deriv=f.h.deriv,
                                          domain_radius=f.h.domain_radius),
                       g=f.g, label=f.label), count


# The maps of the benchmark's Newton workload.
NEWTON_MAPS = [("identity", None), ("h0", None), ("f_k", {"k": 0.5}),
               ("cayley", None), ("koebe", None), ("h1", None)]


@pytest.mark.parametrize("name, params, grid", [
    *[(name, params, GridSpec(40, 96, 0.9)) for name, params in NEWTON_MAPS],
    ("koebe", None, GridSpec(80, 192, 0.9)),
    ("h1", None, GridSpec(40, 96, 0.95)),
])
def test_newton_sweep_matches_the_reference_bit_for_bit(name, params, grid):
    f = gallery_get(name, params)
    stats = assert_sweep_matches_reference(f, eval_map(f, grid.points()))
    if grid.r_max == 0.95:
        # The premise of this case: steps are halved on several passes.
        assert stats["halvings"] == 4


def test_newton_sweep_matches_the_reference_on_random_maps_bit_for_bit():
    # Some of these maps fold, so some targets stall or land on their own
    # iterate, and leave the sweep early.
    rng = np.random.default_rng(2022)
    pts = GridSpec(6, 16, 0.9).points()
    unconverged = 0
    for _ in range(200):
        scale = rng.uniform(0.0, 1.2)
        a = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
        b = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / 4.0
        f = HarmonicMap(h=from_series([1.0, *a]), g=from_series(b))
        unconverged += assert_sweep_matches_reference(f, eval_map(f, pts))["unconverged"]
    assert unconverged > 0


def test_newton_sweep_matches_the_reference_on_random_analytic_maps_bit_for_bit():
    # Series maps with no g, which the sweep solves without g' and the
    # reference with it.  Some fold; some are scaled below 2**-300, so that
    # the sweep works in a unit other than 1 (yet not so far that the
    # reference, at the map's own scale, meets the guard on the Jacobian).
    rng = np.random.default_rng(2027)
    pts = GridSpec(6, 16, 0.9).points()
    folded = halved = scaled = 0
    for _ in range(200):
        c = np.array([1.0, *(rng.uniform(0.0, 1.2) * (rng.standard_normal(3)
                                                      + 1j * rng.standard_normal(3)) / 2.0)])
        if rng.random() < 0.3:
            c *= 10.0 ** -rng.uniform(95.0, 110.0)
        f = HarmonicMap.from_analytic(from_series(c))
        assert f.analytic
        # h' has a zero inside the grid's disk: the map folds there.
        folded += bool(np.any(np.abs(np.roots(c[::-1] * np.arange(c.size, 0, -1))) < 0.9))
        scaled += sweep_inputs(f, pts)[4] != 1.0
        halved += assert_sweep_matches_reference(f, eval_map(f, pts))["halvings"] > 0
    assert folded > 0 and halved > 0 and scaled > 0


def test_newton_sweep_matches_the_reference_where_iterates_hit_the_clamp_bit_for_bit(monkeypatch):
    hits = []
    real_clamped = herglotz._clamped

    def recording(z, clamp):
        hits.append(int(np.count_nonzero(np.abs(z) > clamp)))
        return real_clamped(z, clamp)

    monkeypatch.setattr(herglotz, "_clamped", recording)
    f = gallery_get("koebe")
    assert_sweep_matches_reference(f, eval_map(f, GridSpec(10, 24, 0.99).points()))
    assert sum(hits) > 0


@pytest.mark.parametrize("name, w, evaluations, reference_evaluations", [
    # The first step lands on the clamp, and the next lands on itself.
    ("identity", 5.0, 2, 50),
    # The first step lands on the clamp, and the next stays worse through
    # all 20 halvings.
    ("h0", 3.0, 22, 1 + 49 * 21),
    # Every step is kept at the same residual, but shrinks the iterate's
    # imaginary part of about 1e-16, so the target is still iterating when
    # the sweep ends after 50 steps.
    ("cayley", -3.0, 50, 50),
])
def test_newton_sweep_retires_an_unreachable_target_bit_for_bit(name, w, evaluations,
                                                                 reference_evaluations):
    f, count = counting_map(gallery_get(name))
    wv = np.array([w + 0j])
    z0, fz, bound, clamp, unit = sweep_inputs(f, wv)
    stats = {}
    z_ref, res_ref = reference_sweep(f, wv, z0, bound, clamp, stats)
    count[0] = 0
    z, res = herglotz._newton_sweep(f, wv, z0, fz, bound, clamp, unit)
    assert (count[0], stats["evaluations"]) == (evaluations, reference_evaluations)
    assert np.array_equal(z.view(np.uint64), z_ref.view(np.uint64))
    assert np.array_equal(res.view(np.uint64), res_ref.view(np.uint64))
    assert res[0] > bound[0]


def test_inverse_wirtinger_composes_to_one():
    f = gallery_get("f_k", {"k": 0.5})
    rng = np.random.default_rng(3)
    z = 0.9 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    psi_z, psi_zb = composed_wirtinger(f, inverse_wirtinger(f), z)
    assert np.max(np.abs(psi_z - 1.0)) <= 1e-8
    assert np.max(np.abs(psi_zb)) <= 1e-8


def test_inverse_wirtinger_solves_once_per_composition(monkeypatch):
    calls = []
    real_invert = herglotz.invert

    def counting_invert(*args, **kwargs):
        calls.append(1)
        return real_invert(*args, **kwargs)

    monkeypatch.setattr(herglotz, "invert", counting_invert)
    f = gallery_get("h1")
    z = GridSpec(10, 24, 0.9).points()
    psi_z, psi_zb = composed_wirtinger(f, inverse_wirtinger(f), z)
    assert len(calls) == 1
    assert np.max(np.abs(psi_z - 1.0)) <= 1e-8
    assert np.max(np.abs(psi_zb)) <= 1e-8


def test_inverse_wirtinger_analytic_case_is_reciprocal_derivative():
    f = gallery_get("h0")
    phi = inverse_wirtinger(f)
    z0 = 0.4 + 0.2j
    w0 = complex(eval_map(f, z0))
    pw, pwb = phi.partials(w0, np.conj(w0))
    assert_allclose(pw, 1.0 / complex(f.h.deriv(z0)), rtol=0, atol=1e-10)
    assert abs(pwb) <= 1e-12


# ---------------------------------------------------------------------------
# closure with the direct criterion


def test_structural_phi_passes_direct_scan():
    """Any structural phi certifies its own map through the direct criterion."""
    fm = gallery_get("cayley")
    f_inv = lambda w: invert(fm, w, tol=1e-13)
    grid = GridSpec(12, 24, 0.85)
    rng = np.random.default_rng(42)
    for _ in range(5):
        mu = random_measure(rng, max_atoms=4)
        params = StructuralParams(c=float(rng.uniform(0.5, 2.0)),
                                  c1=float(rng.uniform(-1.0, 1.0)))
        phi_fn = AnalyticFunction(
            eval=lambda w, mu=mu, params=params: build_phi(f_inv, mu, params, w),
            deriv=structural_phi_prime(fm.h, mu, params),
            description="structural phi")
        rep = check_corollary1(fm, analytic_wirtinger(phi_fn), grid)
        assert rep.holds
        expected = params.c * float(np.min(np.real(herglotz_p(mu, grid.points()))))
        assert rep.margin == pytest.approx(expected, abs=1e-9)
