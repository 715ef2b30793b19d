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
    build_big_phi,
    build_phi,
    big_phi_function,
    check_corollary1,
    check_philike,
    gallery_get,
    herglotz_p,
    invert,
    inverse_wirtinger,
    structural_phi_prime,
    verify_structural_identity,
)
from harmonicmaps import herglotz
from harmonicmaps.errors import DomainError, SingularDerivativeError
from harmonicmaps.mappings import analytic_wirtinger, composed_wirtinger, eval_map


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
    assert_allclose(build_big_phi(f, lambda w: 1.0 + 0.0j, 0.0, w), w,
                    rtol=0, atol=1e-10)
    assert_allclose(build_big_phi(f, lambda w: 2.0 + 0.0j, 0.0, 0.4 + 0.0j),
                    0.2, rtol=0, atol=1e-10)
    # A quarter-turn rotation divides the value by i.
    assert_allclose(build_big_phi(f, lambda w: 1.0 + 0.0j, np.pi / 2.0, w),
                    -1j * w, rtol=0, atol=1e-10)


def test_big_phi_rejects_vanishing_phi_prime():
    f = AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                         deriv=lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    with pytest.raises(SingularDerivativeError):
        build_big_phi(f, lambda w: 0.0 + 0.0j, 0.0, 0.3 + 0.0j)


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


def test_invert_accepts_seed_and_preserves_shape():
    f = gallery_get("h0")
    w = eval_map(f, np.array([[0.1 + 0.1j, 0.2j], [0.3, -0.25 + 0.1j]]))
    z = invert(f, w, seed=0.5 + 0.0j)
    assert z.shape == (2, 2)
    assert_allclose(eval_map(f, z), w, rtol=0, atol=1e-11)
    # A seed outside the domain is pulled back inside rather than rejected.
    assert_allclose(invert(f, 0.625 + 0.0j, seed=5.0 + 0.0j), 0.5,
                    rtol=0, atol=1e-10)


def test_invert_retries_stalled_seed_from_cloud():
    # From 0.99i, Newton on the Koebe map stalls near z = -1, where the image
    # runs off to infinity; the retry from the seed cloud still converges.
    f = gallery_get("koebe")
    w = complex(eval_map(f, 0.95 + 0.0j))
    assert_allclose(invert(f, w, seed=0.99j), 0.95, rtol=0, atol=1e-10)


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
    dw = complex(phi.dw(w0, np.conj(w0)))
    assert_allclose(dw, 1.0 / complex(f.h.deriv(z0)), rtol=0, atol=1e-10)
    assert abs(complex(phi.dwbar(w0, np.conj(w0)))) <= 1e-12


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
