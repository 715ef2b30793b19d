"""Criterion scans: margins, witnesses, verdicts, and cross-consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from harmonicmaps import (
    DEFAULT_GRID,
    GridSpec,
    HarmonicMap,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
    curve_simplicity,
    from_series,
    gallery_get,
    identity_function,
    injectivity_scan,
    inverse_wirtinger,
    jacobian_positivity_scan,
    linear_wirtinger,
)
from harmonicmaps import gallery
from harmonicmaps.criteria import _wrap_angle, golden_section_max, largest_argument_gap
from harmonicmaps.mappings import AnalyticFunction, combination

GRID_05 = GridSpec(40, 96, 0.5)
GRID_09 = GridSpec(40, 96, 0.9)


def z_squared_map():
    return HarmonicMap.from_analytic(from_series([0.0, 1.0], description="z^2"))


def pole_function(pole):
    """The Moebius map z/(z - pole), which is not finite at ``pole``."""
    return AnalyticFunction(eval=lambda z: z / (z - pole),
                            deriv=lambda z: -pole / (z - pole) ** 2,
                            description="z/(z - pole)")


# ---------------------------------------------------------------------------
# helper machinery


def test_largest_gap_single_value():
    gap, mid, edge = largest_argument_gap(np.array([1.0 + 0.0j]))
    assert gap == 2.0 * np.pi
    assert edge == 0


def test_largest_gap_quarter_plane():
    gap, _, _ = largest_argument_gap(np.array([1.0 + 0.0j, 1.0j]))
    assert_allclose(gap, 1.5 * np.pi, rtol=0, atol=1e-12)


def test_largest_gap_antipodal_is_pi():
    gap, _, _ = largest_argument_gap(np.array([1.0 + 0.0j, -1.0 + 0.0j]))
    assert_allclose(gap, np.pi, rtol=0, atol=1e-12)


def stable_sort_gap(values):
    """Reference: the largest argument gap read off a stable argsort."""
    args = np.angle(values)
    order = np.argsort(args, kind="stable")
    sorted_args = args[order]
    if sorted_args.size == 1:
        return 2.0 * np.pi, sorted_args[0] + np.pi, int(order[0])
    diffs = np.diff(sorted_args)
    wrap = sorted_args[0] + 2.0 * np.pi - sorted_args[-1]
    k = int(np.argmax(diffs))
    if wrap >= diffs[k]:
        gap, lo, edge = wrap, sorted_args[-1], int(order[-1])
    else:
        gap, lo, edge = diffs[k], sorted_args[k], int(order[k])
    return float(gap), float(lo + gap / 2.0), edge


# Values whose arguments tie on purpose: +0.0 and -0.0 imaginary parts
# (arguments 0 and -0, and pi and -pi), the four axis directions (whose
# gaps, the wrap gap included, are all exactly pi/2) and the diagonals.
TIE_VALUES = [complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0),
              complex(-1.0, -0.0), 1j, -1j, complex(2.0, -0.0), complex(-3.0, -0.0),
              1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j, 0.5 + 0.5j]


def test_tie_values_force_a_wrap_tie():
    # Guards the premise of the comparisons below: the wrap gap ties an
    # inner gap on the axis directions.
    args = np.sort(np.angle(np.array([1.0, 1j, -1.0 + 0.0j, -1j])))
    assert np.all(np.diff(args) == args[0] + 2.0 * np.pi - args[-1])


@given(st.lists(st.one_of(st.sampled_from(TIE_VALUES),
                          st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                                             allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_largest_gap_matches_stable_sort(values):
    w = np.array(values, dtype=complex)
    assert largest_argument_gap(w) == stable_sort_gap(w)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_largest_gap_matches_stable_sort_with_forced_ties(n):
    rng = np.random.default_rng(20150 + n)
    pool = np.array(TIE_VALUES)
    for _ in range(400):
        w = np.where(rng.random(n) < 0.7, rng.choice(pool, n),
                     np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        # Repeat a few entries so equal arguments sit at scattered indices.
        w[rng.integers(0, n, n // 3)] = w[rng.integers(0, n)]
        assert largest_argument_gap(w) == stable_sort_gap(w)


def test_golden_section_finds_cosine_peak():
    x, v = golden_section_max(np.cos, -1.0, 1.5, tol=1e-8)
    assert abs(x) < 1e-6 and v > 1.0 - 1e-10


# ---------------------------------------------------------------------------
# corollary-style direct scan


def test_corollary1_identity():
    rep = check_corollary1(gallery_get("identity"), linear_wirtinger(1.0, 0.0))
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 1.0, rtol=0, atol=1e-15)


def test_corollary1_f_k_margin():
    # phi = (1/k) w - wbar gives slack (1/k - k) Re(1 + z), minimized at z = -0.9.
    f = gallery_get("f_k", {"k": 0.5})
    rep = check_corollary1(f, linear_wirtinger(2.0, -1.0), GRID_09)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 0.15, rtol=0, atol=1e-12)
    assert_allclose(rep.witness, -0.9 + 0.0j, atol=1e-12)


def test_corollary1_z_squared_violated():
    rep = check_corollary1(z_squared_map(), linear_wirtinger(1.0, 0.0), GRID_09)
    assert rep.verdict == VERDICT_VIOLATED
    assert_allclose(rep.margin, -1.8, rtol=0, atol=1e-12)


def test_corollary1_inconclusive_on_evaluation_failure():
    def boom(w, wbar):
        raise RuntimeError("no value here")

    phi = linear_wirtinger(1.0, 0.0)
    broken = type(phi)(eval=phi.eval, partials=boom)
    rep = check_corollary1(gallery_get("identity"), broken, GRID_05)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert "failure" in rep.meta


# ---------------------------------------------------------------------------
# directional half-plane scan


def test_theorem1_with_numerical_inverse():
    f = gallery_get("f_k", {"k": 0.5})
    rep = check_theorem1(f, inverse_wirtinger(f), GridSpec(10, 24, 0.9), n_epsilon=8)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.margin >= np.pi / 2.0 - 1e-3
    assert abs(rep.gamma) < 1e-6


def test_theorem1_f_k_arc_margin():
    # With phi = -w/k + wbar the values are -1.5 h0'(z); the arguments of
    # -(1 + z) over |z| <= 0.5 span 2*arcsin(0.5), leaving margin pi/3.
    f = gallery_get("f_k", {"k": 0.5})
    rep = check_theorem1(f, linear_wirtinger(-2.0, 1.0), GRID_05)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, np.pi / 3.0, rtol=0, atol=1e-9)
    assert_allclose(abs(rep.gamma), np.pi, rtol=0, atol=1e-9)


def test_theorem1_full_argument_spread_violated():
    # h' = 1 + 2z winds around 0 on the r = 0.9 ring, so the W values leave
    # no half-plane free even though none of them vanishes.
    f = HarmonicMap.from_analytic(from_series([1.0, 1.0], description="z + z^2"))
    rep = check_theorem1(f, linear_wirtinger(1.0, 0.0), GRID_09)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.margin < 0.0
    assert rep.meta.get("failure") is None


def test_theorem1_vanishing_w_is_violated_with_witness():
    # phi = w - wbar makes W_1(z) = 2i Im h'(z), which vanishes at z = 0.
    rep = check_theorem1(gallery_get("h0"), linear_wirtinger(1.0, -1.0), GRID_05)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.witness == 0j
    assert rep.meta.get("failure") == "W vanishes"
    assert rep.meta["epsilon"] == 0.0


def test_theorem1_requires_four_directions():
    with pytest.raises(ValueError):
        check_theorem1(gallery_get("identity"), linear_wirtinger(1.0, 0.0),
                       GRID_05, n_epsilon=3)


def test_corollary1_implies_theorem1():
    """Whenever the direct scan holds, the directional scan holds too."""
    cases = [
        (gallery_get("identity"), linear_wirtinger(1.0, 0.0)),
        (gallery_get("h0"), linear_wirtinger(1.0, 0.0)),
        (gallery_get("f_k", {"k": 0.5}), linear_wirtinger(2.0, -1.0)),
        (z_squared_map(), linear_wirtinger(1.0, 0.0)),
    ]
    for f, phi in cases:
        c1 = check_corollary1(f, phi, GRID_09)
        t1 = check_theorem1(f, phi, GRID_09)
        if c1.verdict == VERDICT_HOLDS:
            assert t1.verdict == VERDICT_HOLDS


# ---------------------------------------------------------------------------
# rotation-search criteria


def test_theoremA_identity():
    rep = check_theoremA(gallery_get("identity"), GRID_09)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 1.0, rtol=0, atol=1e-12)
    assert rep.gamma == 0.0


def test_theoremA_h0_half_disk():
    rep = check_theoremA(gallery_get("h0"), GRID_05)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 0.5, rtol=0, atol=1e-12)
    assert_allclose(rep.witness, -0.5 + 0.0j, atol=1e-12)


def test_theoremA_f_k_wide_disk_fails():
    rep = check_theoremA(gallery_get("f_k", {"k": 0.5}), GridSpec(40, 96, 0.99))
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.margin < 0.0


def test_theoremA_minimum_candidates():
    with pytest.raises(ValueError):
        check_theoremA(gallery_get("identity"), GRID_05, n_gamma=4)


def test_theoremB_reduces_to_theoremA():
    f = gallery_get("f_k", {"k": 0.5})
    a = check_theoremA(f, GRID_05)
    b = check_theoremB(f, identity_function(), GRID_05)
    assert b.margin == a.margin
    assert b.gamma == a.gamma


def test_theoremB_h_equals_G():
    G = gallery_get("cayley").h
    f = HarmonicMap.from_analytic(G)
    rep = check_theoremB(f, G, GRID_05)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 1.0, rtol=0, atol=1e-12)


def _lifted_h(z):
    # Antiderivative of (1+z)/(1-z) = -1 + 2/(1-z): h(z) = -z - 2 log(1-z).
    return -z - 2.0 * np.log(1.0 - z)


def test_theoremB_overweight_g_is_violated():
    # h' = G'(1+z), |g'| = 0.55|G'| with G = -log(1-z): the slack bottoms out
    # at 0.5 - 0.55 = -0.05 at z = -0.5 and no rotation can rescue it.
    G = AnalyticFunction(eval=lambda z: -np.log(1.0 - z),
                         deriv=lambda z: 1.0 / (1.0 - z),
                         description="-log(1-z)")
    h = AnalyticFunction(eval=_lifted_h,
                         deriv=lambda z: (1.0 + z) / (1.0 - z),
                         description="h with h' = G'(1+z)")
    g = AnalyticFunction(eval=lambda z: -0.55 * np.log(1.0 - z),
                         deriv=lambda z: 0.55 / (1.0 - z),
                         description="0.55 G")
    rep = check_theoremB(HarmonicMap(h=h, g=g), G, GRID_05)
    assert rep.verdict == VERDICT_VIOLATED
    assert_allclose(rep.margin, -0.05, rtol=0, atol=1e-12)


def test_corollary1_zero_margin_does_not_hold():
    # phi_w = phi_wbar = 1 on the identity gives slack exactly 0 everywhere;
    # the verdict must require strict positivity.
    rep = check_corollary1(gallery_get("identity"), linear_wirtinger(1.0, 1.0),
                           GRID_05)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.margin == 0.0


def test_theoremB_inconclusive_when_G_prime_vanishes():
    G = from_series([0.0, 1.0], description="z^2")  # G'(0) = 0
    rep = check_theoremB(gallery_get("identity"), G, GRID_05)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.meta["assumes_G_convex"] is True


def test_theoremB_judges_G_prime_against_its_own_scale():
    koebe, cayley = gallery_get("koebe"), gallery_get("cayley").h
    base = check_theoremB(koebe, cayley)
    tiny = check_theoremB(koebe, combination([(1e-16, cayley, 1.0)]))
    assert tiny.verdict == base.verdict == VERDICT_HOLDS
    assert_allclose(tiny.margin, 1e16 * base.margin, rtol=1e-9)


# ---------------------------------------------------------------------------
# ratio test for analytic maps


def test_philike_identity():
    rep = check_philike(identity_function(), identity_function(), GRID_09)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 1.0, rtol=0, atol=1e-12)


def test_philike_cayley():
    f = gallery_get("cayley").h
    rep = check_philike(f, identity_function(), GRID_09)
    assert rep.verdict == VERDICT_HOLDS
    assert_allclose(rep.margin, 1.0 / 1.9, rtol=0, atol=1e-12)


def test_philike_koebe_starlike():
    f = gallery_get("koebe").h
    rep = check_philike(f, identity_function(), GRID_09)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.margin > 0.0


def test_philike_zero_denominator_is_violated():
    koebe = gallery_get("koebe").h
    w0 = complex(koebe.eval(0.5 + 0.0j))
    Phi = AnalyticFunction(eval=lambda w: w - w0, deriv=np.ones_like)
    rep = check_philike(koebe, Phi, GridSpec(40, 96, 0.8))
    assert rep.verdict == VERDICT_VIOLATED
    assert_allclose(rep.witness, 0.5 + 0.0j, atol=1e-12)


def test_philike_inconclusive_when_Phi_has_a_double_zero_at_f0():
    # Phi(w) = w^2: Phi(f(0)) and Phi'(f(0)) both vanish, so the ratio has no
    # limit at the origin to take.
    rep = check_philike(identity_function(), from_series([0.0, 1.0]), GRID_09)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.witness == 0
    assert rep.meta == {"failure": "Phi'(f(0)) vanishes"}


def test_philike_critical_point_at_origin_is_violated():
    # z f'/f = 2 for z^2, but f'(0) = 0 breaks the hypothesis of the test.
    rep = check_philike(z_squared_map().h, identity_function(), GRID_09)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.margin == 0.0
    assert rep.witness == 0


@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_philike_spiral_case_matches_rotated_ratio(alpha):
    """Phi(w) = e^{i alpha} w reproduces the rotated starlike margin exactly."""
    f = gallery_get("cayley").h
    rot = np.exp(1j * alpha)
    Phi = AnalyticFunction(eval=lambda w: rot * w, deriv=lambda w: np.full_like(w, rot))
    rep = check_philike(f, Phi, GRID_09)
    pts = GRID_09.points()
    z = pts[1:]
    direct = np.real(np.exp(-1j * alpha) * z * f.deriv(z) / f.eval(z))
    direct = np.concatenate(([np.real(np.exp(-1j * alpha) * f.deriv(0j))], direct))
    assert abs(rep.margin - float(np.min(direct))) <= 1e-12


@pytest.mark.parametrize("scan", [
    lambda h: check_theorem1(HarmonicMap.from_analytic(h), linear_wirtinger(1.0, 0.0)),
    lambda h: check_theoremA(HarmonicMap.from_analytic(h)),
    lambda h: check_theoremB(HarmonicMap.from_analytic(h), identity_function()),
    lambda h: check_philike(h, identity_function()),
], ids=["theorem1", "theoremA", "theoremB", "philike"])
def test_nonfinite_sample_is_inconclusive(scan):
    # The pole sits on a default-grid sample, where h and h' are not finite.
    pole = DEFAULT_GRID.points()[5]
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = scan(pole_function(pole))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.witness == pole
    assert rep.meta == {"failure": "non-finite evaluation"}


@pytest.mark.parametrize("scan", [
    lambda f, grid: check_theorem1(f, linear_wirtinger(1.0, 0.0), grid),
    lambda f, grid: check_corollary1(f, linear_wirtinger(1.0, 0.0), grid),
    lambda f, grid: check_theoremA(f, grid),
    lambda f, grid: check_theoremB(f, identity_function(), grid),
    lambda f, grid: check_theoremB(gallery_get("identity"), f.h, grid),
    lambda f, grid: check_philike(f.h, identity_function(), grid),
], ids=["theorem1", "corollary1", "theoremA", "theoremB-f", "theoremB-G", "philike"])
def test_grid_outside_the_domain_is_inconclusive(scan):
    # h1 is defined for |z| < 0.999; no scan may evaluate it beyond.
    rep = scan(gallery_get("h1"), GridSpec(10, 24, 0.9995))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.meta == {"failure": "|z| = 0.9995 outside domain radius 0.999"}


# ---------------------------------------------------------------------------
# sufficiency: where a criterion holds, the oracles find f univalent


SUFFICIENCY_GRID = GridSpec(20, 48, 0.9)
# Ten times finer radially and twenty times angularly, for a map that fails
# between the samples of SUFFICIENCY_GRID.
FINE_GRID = GridSpec(200, 960, 0.9)
COEFFICIENT = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _criteria_that_hold(f, grid, analytic):
    """Names of the criteria, with linear phi, that hold for f on grid; philike when g = 0."""
    phi = linear_wirtinger(1.0, 0.0)
    reports = {"theoremA": check_theoremA(f, grid),
               "theorem1": check_theorem1(f, phi, grid),
               "corollary1": check_corollary1(f, phi, grid)}
    if analytic:
        reports["philike"] = check_philike(f.h, identity_function(), grid)
    return {name for name, rep in reports.items() if rep.holds}


def _oracles_hold(f):
    return (injectivity_scan(f, n_points=400, r_max=0.9).holds
            and curve_simplicity(f, rho=0.9).holds)


# The same maps on every run, so that no draw makes the suite flaky.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.lists(COEFFICIENT, min_size=2, max_size=2),
       b=st.lists(COEFFICIENT, min_size=3, max_size=3),
       scale=st.floats(0.0, 0.9), analytic=st.booleans())
def test_a_criterion_that_holds_is_borne_out_by_the_oracles(a, b, scale, analytic):
    # h = z + a2 z^2 + a3 z^3 and g = b1 z + b2 z^2 + b3 z^3, every
    # coefficient but the 1 of h scaled; g = 0 when the map is analytic.
    f = HarmonicMap(h=from_series([1.0, *(scale * np.array(a))]),
                    g=from_series(np.zeros(3) if analytic else scale * np.array(b)))
    if _criteria_that_hold(f, SUFFICIENCY_GRID, analytic) and not _oracles_hold(f):
        # A sampled criterion can miss f failing between its samples.
        assert not _criteria_that_hold(f, FINE_GRID, analytic)


def test_a_critical_point_between_samples_shows_on_a_finer_grid():
    # h' vanishes at |z| = 0.896, between the two outer circles of the coarse
    # grid (0.855 and 0.9): the ratio test holds there while the image of
    # |z| = 0.9 crosses itself.
    h = from_series([1.0, 0.20011966671331852 - 0.2584279520693443j,
                     -0.18975931113350059 + 0.10538780315336016j])
    f = HarmonicMap.from_analytic(h)
    assert _criteria_that_hold(f, SUFFICIENCY_GRID, True) == {"philike"}
    assert not _oracles_hold(f)
    assert not _criteria_that_hold(f, FINE_GRID, True)


def test_theorem1_fails_where_W_vanishes_between_its_directions():
    # The Jacobian 0.75 - x - 2y changes sign, so f is not univalent.
    # W_eps = h' + eps conj(g') is zero on the chord x + 2y = 0.75 for the
    # one direction eps = e^{-0.927i}, and fits a half-plane for every other.
    f = HarmonicMap(h=from_series([1.0, 0.5j]), g=from_series([0.5j, 0.5j]))
    rep = check_theorem1(f, linear_wirtinger(1.0, 0.0), SUFFICIENCY_GRID, n_epsilon=1024)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.meta["failure"] == "W vanishes"
    assert_allclose(rep.meta["epsilon"], 2.0 * np.pi - np.arctan2(4.0, 3.0), atol=1e-2)


# ---------------------------------------------------------------------------
# scale: a*f is univalent iff f is


GALLERY_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                  "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}
ANALYTIC_MAPS = {"identity", "cayley", "koebe", "h0", "h1", "h_r"}
SCALE_GRID = GridSpec(10, 24, 0.9)


def _scale_scans(f, analytic, a=1.0):
    cayley = gallery_get("cayley").h
    reports = {
        "theoremA": check_theoremA(f, SCALE_GRID),
        "theoremB": check_theoremB(f, cayley, SCALE_GRID),
        # G scaled with the map: h'/G' and g'/G' do not see a at all.
        "theoremB-scaled-G": check_theoremB(f, combination([(a, cayley, 1.0)]), SCALE_GRID),
        "injectivity": injectivity_scan(f, n_points=200, r_max=0.9 * f.domain_radius),
        "jacobian": jacobian_positivity_scan(f, SCALE_GRID),
        "curve": curve_simplicity(f, 0.9 * f.domain_radius),
        "theorem1": check_theorem1(f, inverse_wirtinger(f), SCALE_GRID),
        "corollary1": check_corollary1(f, inverse_wirtinger(f), SCALE_GRID),
    }
    if analytic:
        reports["philike"] = check_philike(f.h, identity_function(), SCALE_GRID)
    return reports


@pytest.mark.parametrize("a", [1e-12, 1e6])
@pytest.mark.parametrize("name", gallery.names())
def test_verdicts_ignore_the_scale_of_the_map(name, a):
    f = gallery_get(name, GALLERY_PARAMS.get(name))
    af = HarmonicMap(h=combination([(a, f.h, 1.0)]), g=combination([(a, f.g, 1.0)]),
                     label=f.label)
    base = _scale_scans(f, name in ANALYTIC_MAPS)
    scaled = _scale_scans(af, name in ANALYTIC_MAPS, a)
    assert {k: rep.verdict for k, rep in scaled.items()} == \
        {k: rep.verdict for k, rep in base.items()}
    # philike's ratio and the compositions with f^{-1} do not see a at all.
    for key in ("philike", "theorem1", "corollary1", "theoremB-scaled-G"):
        if key in base:
            assert abs(scaled[key].margin - base[key].margin) <= 1e-6, key
    for key in ("curve", "injectivity"):
        assert_allclose(scaled[key].margin, a * base[key].margin, rtol=1e-6, err_msg=key)


@pytest.mark.parametrize("b", [0, 3 - 2j])
@pytest.mark.parametrize("a", [1e-6, np.exp(0.7j)])
@pytest.mark.parametrize("name", gallery.names())
def test_criteria_follow_an_affine_change_of_the_map(name, a, b):
    # a*f + b is univalent iff f is; h -> a h + b and g -> conj(a) g.
    f = gallery_get(name, GALLERY_PARAMS.get(name))
    af = HarmonicMap(h=combination([(a, f.h, 1.0)], b),
                     g=combination([(np.conj(a), f.g, 1.0)]), label=f.label)
    # philike's ratio z f'/Phi(f) with Phi the identity sees a shift b.
    analytic = name in ANALYTIC_MAPS and b == 0
    base, moved = _scale_scans(f, analytic), _scale_scans(af, analytic, a)
    assert {k: rep.verdict for k, rep in moved.items()} == \
        {k: rep.verdict for k, rep in base.items()}
    for key in ("theoremA", "theoremB"):
        assert_allclose(moved[key].margin, abs(a) * base[key].margin, rtol=1e-5, err_msg=key)
    assert_allclose(moved["jacobian"].margin, abs(a) ** 2 * base["jacobian"].margin,
                    rtol=1e-12)
    # Where theoremA fails on koebe and h1 its best rotation is not unique.
    turned = ["theoremB"] + (["theoremA"] if base["theoremA"].holds else [])
    for key in turned:
        assert abs(_wrap_angle(moved[key].gamma - base[key].gamma + np.angle(a))) <= 1e-5, key
    # With b != 0 the compositions with f^{-1} drift by up to 1e-3: Newton's
    # stop bound grows with |b| (ROADMAP item 6).
    same = ["theoremB-scaled-G"] + (["theorem1", "corollary1", "philike"] if b == 0 else [])
    for key in same:
        if key in base:
            assert abs(moved[key].margin - base[key].margin) <= 1e-6, key


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_bitwise_deterministic():
    f = gallery_get("f_k", {"k": 0.5})
    a = check_theorem1(f, linear_wirtinger(-2.0, 1.0), GRID_05)
    b = check_theorem1(f, linear_wirtinger(-2.0, 1.0), GRID_05)
    assert a.to_dict() == b.to_dict()
    ra = check_theoremA(f, GRID_09)
    rb = check_theoremA(f, GRID_09)
    assert ra.to_dict() == rb.to_dict()
