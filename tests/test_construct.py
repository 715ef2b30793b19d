"""Budget estimation, perturbation construction, and affine renormalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harmonicmaps import (
    AnalyticFunction,
    BudgetExceededError,
    ConstructionResult,
    GridSpec,
    HarmonicMap,
    OrderParam,
    Perturbation,
    budget_audit,
    conjugate_z_perturbation,
    construct,
    epsilon_budget,
    estimate_A,
    estimate_m,
    from_series,
    gallery_get,
    normalize,
    undo_normalize,
)
from harmonicmaps.errors import DomainError, InapplicableError
from harmonicmaps.mappings import combination, constant_function, eval_map, identity_function

H0_CONJ_BUDGET_A2 = 0.5 * 80.0 / 2916.0      # (r/A) * m(0) * C(0.5, 2)
H0_CONJ_BUDGET_A3 = 0.5 * 728.0 / 118098.0   # same with the harmonic order


def sample_disk(rng, n, r):
    return r * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def normalization_defect(f):
    """Largest of |h(0)|, |g(0)|, |h'(0) - 1|, |g'(0)|: 0 in the standard family."""
    return max(abs(f.h.eval(0j)), abs(f.g.eval(0j)),
               abs(f.h.deriv(0j) - 1.0), abs(f.g.deriv(0j)))


# ---------------------------------------------------------------------------
# grid estimates


def test_estimate_m_identity():
    f = gallery_get("identity")
    assert estimate_m(f, 0.5) == 1.0
    assert estimate_m(f, 0.0) == 1.0


def test_estimate_m_h0():
    # |h'| = |1 + z| bottoms out at 1 - r on the negative real axis.
    f = gallery_get("h0")
    assert_allclose(estimate_m(f, 0.5), 0.5, rtol=0, atol=1e-12)
    assert_allclose(estimate_m(f, 0.2), 0.8, rtol=0, atol=1e-12)
    assert estimate_m(f, 0.0) == 1.0


def test_estimate_m_f_k():
    f = gallery_get("f_k", {"k": 0.5})
    assert_allclose(estimate_m(f, 0.5), 0.25, rtol=0, atol=1e-12)
    assert_allclose(estimate_m(f, 0.0), 0.5, rtol=0, atol=1e-14)


def test_estimate_m_refinement_beats_coarse_grid():
    # With a deliberately coarse grid the refinement passes must close most
    # of the gap to the true minimum 1 - r.
    f = gallery_get("h0")
    coarse = GridSpec(n_radial=5, n_angular=7, r_max=0.95)
    est = estimate_m(f, 0.9, coarse)
    assert est >= 0.1 - 1e-12          # never below the true minimum
    assert est <= 0.1 + 5e-3           # and the local passes got close


def test_estimate_m_negative_warns():
    f = HarmonicMap(h=identity_function(),
                    g=from_series([2.0], description="2z"))
    with pytest.warns(UserWarning, match="sense-preserving"):
        val = estimate_m(f, 0.5)
    assert_allclose(val, -1.0, rtol=0, atol=1e-12)


def test_estimate_m_rejects_bad_radius():
    with pytest.raises(DomainError):
        estimate_m(gallery_get("identity"), 1.0)
    # h1 is declared (and branch-audited) on |z| < 0.999 only.
    h1 = gallery_get("h1")
    for r in (0.999, 0.9995):
        with pytest.raises(DomainError, match=r"\[0, 0\.999\)"):
            estimate_m(h1, r)
        with pytest.raises(DomainError, match=r"\[0, 0\.999\)"):
            budget_audit(h1, conjugate_z_perturbation(), r)
    assert estimate_m(h1, 0.99) > 0.0


def test_estimate_m_refuses_a_rim_an_ulp_outside_the_domain():
    # The scan's outer ring lies at |z| = r up to rounding.  One ulp below h1's
    # radius a ring sample's |z| reads the radius itself, which the grid walk
    # refuses as every criterion scan does; at the radius the radius check
    # speaks first.
    h1 = gallery_get("h1")
    r = float(np.nextafter(h1.domain_radius, 0.0))
    with pytest.raises(DomainError, match=r"^\|z\| = 0\.999 outside domain radius 0\.999$"):
        estimate_m(h1, r)
    with pytest.raises(DomainError, match=r"\[0, 0\.999\)"):
        estimate_m(h1, h1.domain_radius)


def test_estimate_A_closed_form_and_grid():
    assert estimate_A(conjugate_z_perturbation()) == 1.0
    both = Perturbation(p=identity_function(), q=identity_function())
    assert_allclose(estimate_A(both), 2.0, rtol=0, atol=1e-12)
    # without a closed form the grid maximum under-estimates the boundary sup
    quad = Perturbation(p=from_series([0.0, 1.0], description="z^2"),
                        q=constant_function(0.0))
    a = estimate_A(quad)
    assert 1.98 <= a <= 2.0


def test_estimate_A_validation():
    lying = Perturbation(p=identity_function(), q=identity_function(),
                         A_closed_form=1.5)
    with pytest.raises(ValueError):
        estimate_A(lying)
    with pytest.raises(ValueError):
        Perturbation(p=identity_function(), q=identity_function(),
                     A_closed_form=-1.0)


def test_estimate_A_judges_a_small_claim_relative_to_its_size():
    # 5e-10 lies within 1e-9 of 1e-12, but is 500 times the claimed sup.
    small = Perturbation(p=constant_function(0.0), q=from_series([5e-10]),
                         A_closed_form=1e-12)
    with pytest.raises(ValueError):
        estimate_A(small)


def test_estimate_A_unbounded_perturbation():
    blowup = Perturbation(
        p=AnalyticFunction(eval=lambda z: np.asarray(z, dtype=complex),
                           deriv=lambda z: np.full(np.shape(z), np.inf),
                           description="unbounded"),
        q=constant_function(0.0))
    with pytest.raises(InapplicableError):
        estimate_A(blowup)


def test_estimate_A_refuses_samples_outside_the_perturbation_domain():
    # p is declared on |z| < 0.5 only, and A_GRID reaches |z| = 0.995.
    phi = Perturbation(p=from_series([0.0, 1.0], radius=0.5), q=identity_function())
    with pytest.raises(DomainError, match=r"^\|z\| = 0\.995 outside domain radius 0\.5$"):
        estimate_A(phi)
    with pytest.raises(DomainError, match="outside domain radius 0.5"):
        construct(gallery_get("h0"), phi, 0.5, 1e-4)


# ---------------------------------------------------------------------------
# the budget


def test_budget_h0_conjugate_z():
    f = gallery_get("h0")
    phi = conjugate_z_perturbation()
    assert_allclose(epsilon_budget(f, phi, 0.5, alpha=OrderParam.analytic()),
                    H0_CONJ_BUDGET_A2, rtol=0, atol=1e-6)
    assert_allclose(epsilon_budget(f, phi, 0.5), H0_CONJ_BUDGET_A3,
                    rtol=0, atol=1e-6)


def test_budget_scales_with_A():
    f = gallery_get("h0")
    double = Perturbation(p=identity_function(), q=identity_function())
    assert_allclose(epsilon_budget(f, double, 0.5), H0_CONJ_BUDGET_A3 / 2.0,
                    rtol=0, atol=1e-6)


def test_budget_monotone_in_m():
    phi = conjugate_z_perturbation()
    rich = epsilon_budget(gallery_get("identity"), phi, 0.5)
    poor = epsilon_budget(gallery_get("f_k", {"k": 0.5}), phi, 0.5)
    assert poor < rich


def test_budget_audit_contents():
    audit = budget_audit(gallery_get("h0"), conjugate_z_perturbation(), 0.5,
                         alpha=OrderParam.analytic())
    assert_allclose(audit["m_r"], 0.5, rtol=0, atol=1e-12)
    assert_allclose(audit["m_0"], 1.0, rtol=0, atol=1e-14)
    assert audit["A"] == 1.0
    assert audit["alpha"] == 2.0
    assert_allclose(audit["epsilon0_safe"], 0.99 * audit["epsilon0"],
                    rtol=0, atol=1e-15)
    assert "grid minima" in audit["rigor_note"]
    assert "closed form" in audit["rigor_note"]


def test_budget_rejects_degenerate_inputs():
    phi = conjugate_z_perturbation()
    with pytest.raises(DomainError):
        budget_audit(gallery_get("h0"), phi, 0.0)
    shear = HarmonicMap(h=identity_function(), g=from_series([2.0]))
    with pytest.raises(InapplicableError), pytest.warns(UserWarning):
        budget_audit(shear, phi, 0.5)
    flat = Perturbation(p=constant_function(1.0), q=constant_function(2.0))
    with pytest.raises(InapplicableError):
        budget_audit(gallery_get("h0"), flat, 0.5)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_budget_refuses_a_slack_that_is_not_finite():
    # h' and g' overflow to inf, so |h'| - |g'| is inf - inf = NaN on the
    # disk and at its centre, and no comparison with 0 holds.
    f = HarmonicMap(h=from_series([1.0, 1e308]), g=from_series([0.5, 1e308]))
    phi = conjugate_z_perturbation()
    assert np.isnan(estimate_m(f, 0.5)) and np.isnan(estimate_m(f, 0.0))
    for call in (lambda: budget_audit(f, phi, 0.5), lambda: epsilon_budget(f, phi, 0.5),
                 lambda: construct(f, phi, 0.5, 1e6)):
        with pytest.raises(InapplicableError, match="not finite"):
            call()


# ---------------------------------------------------------------------------
# construction


def test_construct_epsilon_zero_is_plain_shrink():
    f = gallery_get("f_k", {"k": 0.5})
    res = construct(f, conjugate_z_perturbation(), 0.5, 0.0)
    rng = np.random.default_rng(11)
    z = sample_disk(rng, 60, 0.95)
    assert_allclose(eval_map(res.F, z), eval_map(f, 0.5 * z), rtol=0, atol=1e-15)
    assert res.epsilon_used == 0.0


def test_construct_label_and_result_fields():
    res = construct(gallery_get("h0"), conjugate_z_perturbation(), 0.5, 0.0,
                    alpha=OrderParam.analytic())
    assert res.F.label == "h0(0.5z)"
    assert res.r == 0.5 and res.alpha_used == 2.0 and res.A_sup == 1.0
    assert_allclose(res.epsilon_budget, 0.99 * H0_CONJ_BUDGET_A2,
                    rtol=0, atol=1e-6)


def test_construct_enforces_budget():
    f = gallery_get("h0")
    phi = conjugate_z_perturbation()
    safe = 0.99 * H0_CONJ_BUDGET_A2
    with pytest.raises(BudgetExceededError):
        construct(f, phi, 0.5, safe + 1e-9, alpha=OrderParam.analytic())
    with pytest.raises(ValueError):
        construct(f, phi, 0.5, -0.01)


def test_construct_unsafe_override_recorded():
    res = construct(gallery_get("h0"), conjugate_z_perturbation(), 0.5,
                    H0_CONJ_BUDGET_A2, alpha=OrderParam.analytic(), unsafe=True)
    assert "unsafe override" in res.rigor_note
    assert res.epsilon_used > res.epsilon_budget


def test_construct_certificate():
    """The built map keeps |F_z| - |F_zbar| above r*m(r) - eps*A on samples."""
    f = gallery_get("h0")
    phi = conjugate_z_perturbation()
    res = construct(f, phi, 0.5, 0.9 * 0.99 * H0_CONJ_BUDGET_A2,
                    alpha=OrderParam.analytic())
    slack = estimate_m(res.F, 0.95)
    assert slack >= res.r * res.m_r - res.epsilon_used * res.A_sup - 1e-9
    assert slack > 0.0


def test_construction_result_invariants():
    F = gallery_get("identity")
    with pytest.raises(ValueError, match="cannot beat"):
        ConstructionResult(F=F, epsilon_used=0.0, epsilon_budget=1.0,
                           m_r=2.0, m_0=1.0, A_sup=1.0, r=0.5,
                           alpha_used=3.0, rigor_note="")
    with pytest.raises(ValueError, match="unsafe"):
        ConstructionResult(F=F, epsilon_used=1.0, epsilon_budget=1.0,
                           m_r=0.5, m_0=1.0, A_sup=1.0, r=0.5,
                           alpha_used=3.0, rigor_note="")


# ---------------------------------------------------------------------------
# affine renormalization


def test_normalize_passthrough():
    f = gallery_get("identity")  # already in the standard family
    f2, params = normalize(f)
    assert f2 is f
    assert params.is_identity
    assert undo_normalize(f2, params) is f2


def test_normalize_f_k_gives_h0():
    f2, params = normalize(gallery_get("f_k", {"k": 0.5}))
    assert normalization_defect(f2) <= 1e-12
    assert params.g_prime0 == 0.5 + 0.0j
    h0 = gallery_get("h0")
    rng = np.random.default_rng(5)
    z = sample_disk(rng, 80, 0.95)
    assert np.max(np.abs(eval_map(f2, z) - eval_map(h0, z))) <= 1e-12


def test_normalize_strips_scale_and_shift():
    h0 = gallery_get("h0").h
    f = HarmonicMap(
        h=AnalyticFunction(eval=lambda z: 2.0 * h0.eval(z) + 5.0,
                           deriv=lambda z: 2.0 * h0.deriv(z),
                           description="2 h0 + 5"),
        g=constant_function(0.0))
    f2, params = normalize(f)
    assert params.f0 == 5.0 + 0.0j
    assert params.h_prime0 == 2.0 + 0.0j
    rng = np.random.default_rng(6)
    z = sample_disk(rng, 80, 0.9)
    assert np.max(np.abs(eval_map(f2, z) - eval_map(gallery_get("h0"), z))) <= 1e-12


def test_normalize_roundtrip():
    h0 = gallery_get("h0").h
    f = HarmonicMap(
        h=AnalyticFunction(eval=lambda z: (1.0 + 2.0j) * h0.eval(z) + (3.0 - 1.0j),
                           deriv=lambda z: (1.0 + 2.0j) * h0.deriv(z)),
        g=AnalyticFunction(eval=lambda z: 0.3j * h0.eval(z) + 1.0j,
                           deriv=lambda z: 0.3j * h0.deriv(z)),
        label="affine soup")
    f2, params = normalize(f)
    assert normalization_defect(f2) <= 1e-12 and not params.is_identity
    # the renormalized map is itself in standard position
    assert abs(complex(f2.h.eval(0j))) <= 1e-14
    assert_allclose(complex(f2.h.deriv(0j)), 1.0, rtol=0, atol=1e-14)
    assert abs(complex(f2.g.deriv(0j))) <= 1e-14
    back = undo_normalize(f2, params)
    rng = np.random.default_rng(7)
    z = sample_disk(rng, 100, 0.9)
    assert np.max(np.abs(eval_map(back, z) - eval_map(f, z))) <= 1e-10


def test_normalize_rejects_degenerate_maps():
    with pytest.raises(InapplicableError):
        normalize(HarmonicMap.from_analytic(from_series([0.0, 1.0])))  # h'(0)=0
    with pytest.raises(DomainError):
        normalize(HarmonicMap(h=identity_function(), g=identity_function()))


@pytest.mark.parametrize("name, params", [("h0", None), ("f_k", {"k": 0.5}),
                                          ("F_eps", {"r": 0.5, "eps": 0.01})])
def test_normalize_ignores_the_scale_of_the_map(name, params):
    # h'(0) is judged against max(|h'(0)|, |g'(0)|), not against 1e-14.
    f = gallery_get(name, params)
    tiny = HarmonicMap(h=combination([(1e-15, f.h, 1.0)]),
                       g=combination([(1e-15, f.g, 1.0)]), label=f.label)
    z = 0.3 + 0.1j
    assert abs(complex(eval_map(normalize(tiny)[0], z) - eval_map(normalize(f)[0], z))) <= 1e-16


def test_normalize_twice_is_stable():
    f2, _ = normalize(gallery_get("f_k", {"k": 0.5}))
    f3, params = normalize(f2)
    assert f3 is f2
    assert params.is_identity
