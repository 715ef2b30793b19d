"""Decay constant, pointwise lower bounds, and the pairwise separation check."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harmonicmaps import (
    HarmonicMap,
    OrderParam,
    c_of_r,
    check_pairwise_bound,
    from_series,
    gallery_get,
    psi,
    sheil_small_lower,
    star_inequality_check,
)
from harmonicmaps.errors import DomainError


# ---------------------------------------------------------------------------
# the decay constant


def test_c_exact_fractions():
    # q = 1/3 at r = 0.5: (1/4)(1/9)(80/81) and (1/6)(1/27)(728/729).
    assert_allclose(c_of_r(0.5, 2.0), 80.0 / 2916.0, rtol=0, atol=1e-12)
    assert_allclose(c_of_r(0.5, 3.0), 728.0 / 118098.0, rtol=0, atol=1e-12)


def test_c_limits():
    assert c_of_r(0.0, 3.0) == 1.0
    assert_allclose(c_of_r(1e-6, 2.0), 1.0, rtol=0, atol=1e-5)


def test_c_accepts_order_param():
    assert c_of_r(0.5, OrderParam.analytic()) == c_of_r(0.5, 2.0)
    assert c_of_r(0.5, OrderParam.harmonic()) == c_of_r(0.5, 3.0)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
def test_c_strictly_decreasing(alpha):
    r = np.linspace(0.01, 0.99, 99)
    vals = c_of_r(r, alpha)
    assert np.all(np.diff(vals) < 0.0)


def test_c_range():
    r = np.linspace(0.001, 0.999, 200)
    for alpha in (1.0, 2.0, 3.0, 8.0):
        vals = c_of_r(r, alpha)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)


def test_c_vectorized_matches_scalar():
    r = np.array([0.0, 0.2, 0.5, 0.9])
    batch = c_of_r(r, 3.0)
    assert_allclose(batch, [c_of_r(float(x), 3.0) for x in r], rtol=0, atol=1e-15)


def test_c_domain_errors():
    with pytest.raises(DomainError):
        c_of_r(1.0, 3.0)
    with pytest.raises(DomainError):
        c_of_r(-0.1, 3.0)
    with pytest.raises(ValueError):
        c_of_r(0.5, 0.5)
    with pytest.raises(DomainError):
        c_of_r(np.nan, 3.0)
    with pytest.raises(ValueError, match="alpha"):
        c_of_r(0.5, np.nan)
    with pytest.raises(ValueError, match="finite"):
        c_of_r(0.5, np.inf)


# ---------------------------------------------------------------------------
# the ratio psi


def test_psi_values():
    x = np.linspace(0.0, 0.99, 50)
    assert_allclose(psi(x, 1.0), np.ones_like(x), rtol=0, atol=1e-15)
    assert_allclose(psi(0.3, 2.0), 1.3, rtol=0, atol=1e-14)   # 1 + x
    assert_allclose(psi(0.5, 3.0), 1.75, rtol=0, atol=1e-14)  # 1 + x + x^2
    assert psi(1.0, 4.0) == 4.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.0])
def test_psi_nondecreasing(alpha):
    x = np.linspace(0.0, 1.0, 99)
    assert np.all(np.diff(psi(x, alpha)) >= 0.0)


def test_psi_domain_error():
    with pytest.raises(DomainError):
        psi(1.2, 2.0)
    with pytest.raises(DomainError):
        psi(np.nan)
    with pytest.raises(DomainError):
        psi(np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="alpha"):
        psi(0.5, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        psi(0.5, np.nan)


# ---------------------------------------------------------------------------
# pointwise lower bound


def test_sheil_small_values():
    assert sheil_small_lower(0.0, 2.0) == 1.0
    assert_allclose(sheil_small_lower(0.5, 2.0), 0.5 / 1.5 ** 3, rtol=0, atol=1e-14)
    assert_allclose(sheil_small_lower(0.5, 3.0), 0.25 / 1.5 ** 4, rtol=0, atol=1e-14)
    # complex input uses the modulus
    assert_allclose(sheil_small_lower(0.3 + 0.4j, 3.0),
                    sheil_small_lower(0.5, 3.0), rtol=0, atol=1e-12)


def test_sheil_small_domain_error():
    with pytest.raises(DomainError):
        sheil_small_lower(1.0, 3.0)
    with pytest.raises(DomainError):
        sheil_small_lower(np.nan)
    with pytest.raises(DomainError):
        sheil_small_lower(complex(np.nan, 0.0))
    with pytest.raises(ValueError, match="alpha"):
        sheil_small_lower(0.5, 0.5)
    with pytest.raises(ValueError, match="finite"):
        sheil_small_lower(0.5, np.inf)


# ---------------------------------------------------------------------------
# the chord inequality behind C(r)


def test_star_degenerate_pair():
    # nearly coincident points on the 0.5-circle: both sides approach 0
    r = 0.5
    z1 = r + 0.0j
    z2 = r * np.exp(2e-6j)
    assert abs(z2 - z1) == pytest.approx(1e-6, rel=1e-3)
    assert star_inequality_check(z1, z2, r, 3.0) >= -1e-9


def test_star_equality_case():
    # z1 = 0.5, z2 = -0.5, alpha = 2: tau = -0.8, both sides equal 80/81.
    margin = star_inequality_check(0.5 + 0.0j, -0.5 + 0.0j, 0.5, 2.0)
    assert abs(margin) <= 1e-12


@pytest.mark.parametrize("r,alpha", [(0.3, 2.0), (0.7, 3.0)])
def test_star_random_same_radius_pairs(r, alpha):
    rng = np.random.default_rng(int(1000 * r) + int(alpha))
    t1 = 2.0 * np.pi * rng.random(1000)
    t2 = 2.0 * np.pi * rng.random(1000)
    margins = star_inequality_check(r * np.exp(1j * t1), r * np.exp(1j * t2),
                                    r, alpha)
    assert np.min(margins) >= -1e-9


def test_star_radius_mismatch_rejected():
    with pytest.raises(DomainError):
        star_inequality_check(0.5 + 0.0j, 0.3 + 0.0j, 0.5, 3.0)
    with pytest.raises(DomainError):
        star_inequality_check(0.9 + 0.0j, 0.9j, 0.5, 3.0)  # off the r-circle
    with pytest.raises(DomainError):
        star_inequality_check(0.5, -0.5, 1.5, 3.0)


def test_star_alpha_validation():
    # The inequality is stated for alpha >= 1 only.
    with pytest.raises(ValueError, match="alpha"):
        star_inequality_check(0.5, 0.5j, 0.5, alpha=0.5)
    with pytest.raises(ValueError, match="alpha"):
        star_inequality_check(0.5, 0.5j, 0.5, alpha=np.nan)
    assert star_inequality_check(0.5, 0.5j, 0.5, alpha=OrderParam.analytic()) \
        == star_inequality_check(0.5, 0.5j, 0.5, alpha=2.0)


# ---------------------------------------------------------------------------
# pairwise separation scans


def test_pairwise_bound_identity():
    rep = check_pairwise_bound(gallery_get("identity"), 0.5, alpha=3.0)
    assert rep.holds
    assert_allclose(rep.margin, 1.0 - 728.0 / 118098.0, rtol=0, atol=1e-9)
    assert rep.meta["m_0"] == 1.0


def test_pairwise_bound_f_k():
    rep = check_pairwise_bound(gallery_get("f_k", {"k": 0.5}), 0.5, alpha=3.0)
    assert rep.holds
    assert_allclose(rep.meta["bound"], 0.5 * 728.0 / 118098.0, rtol=0, atol=1e-12)


def test_pairwise_bound_koebe_analytic_order():
    rep = check_pairwise_bound(gallery_get("koebe"), 0.5,
                               alpha=OrderParam.analytic(), n=128)
    assert rep.holds
    assert rep.meta["alpha"] == 2.0
    assert_allclose(rep.meta["bound"], 80.0 / 2916.0, rtol=0, atol=1e-12)
    # Koebe keeps circle ratios >= (1-r)/(1+r)^3 ~ 0.148, far above the bound.
    assert rep.margin > 0.1


def test_pairwise_bound_detects_collision():
    # z + 2z^2 identifies the conjugate pair at angle 2pi/3 on the 0.5-circle
    # (z1 + z2 = -1/2); with n = 12 that pair is sampled exactly, the worst
    # ratio collapses to ~0 and the margin drops to -bound.
    f = HarmonicMap.from_analytic(from_series([1.0, 2.0], description="z + 2z^2"))
    rep = check_pairwise_bound(f, 0.5, alpha=3.0, n=12)
    assert not rep.holds
    assert_allclose(rep.margin, -728.0 / 118098.0, rtol=0, atol=1e-9)


def test_pairwise_bound_input_validation():
    f = gallery_get("identity")
    with pytest.raises(DomainError):
        check_pairwise_bound(f, 1.5)
    with pytest.raises(ValueError):
        check_pairwise_bound(f, 0.5, n=4)
    with pytest.raises(ValueError, match="alpha"):
        check_pairwise_bound(gallery_get("h0"), 0.5, alpha=np.nan)
    with pytest.raises(ValueError, match="finite"):
        check_pairwise_bound(gallery_get("h0"), 0.5, alpha=np.inf)


def test_pairwise_bound_report_shape():
    rep = check_pairwise_bound(gallery_get("h0"), 0.3, alpha=3.0, n=16)
    assert rep.grid == {"kind": "circle", "r": 0.3, "n": 16}
    i, j = rep.meta["worst_pair"]
    assert 0 <= i < j < 16


# ---------------------------------------------------------------------------
# order parameter bookkeeping


def test_order_param_validation():
    assert OrderParam.analytic().alpha == 2.0
    assert OrderParam.harmonic().alpha == 3.0
    with pytest.raises(ValueError):
        OrderParam(0.5)
    with pytest.raises(ValueError, match="alpha must be >= 1, got nan"):
        OrderParam(float("nan"))
    with pytest.raises(ValueError, match="alpha must be finite"):
        OrderParam(float("inf"))
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        OrderParam(float("-inf"))
    with pytest.raises(ValueError):
        OrderParam(3.0, "analytic-case")
    with pytest.raises(ValueError):
        OrderParam(2.0, "harmonic-default")
    with pytest.raises(ValueError):
        OrderParam(2.0, "folklore")
    OrderParam(7.5)  # any alpha >= 1 is fine for user-supplied orders
