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
from harmonicmaps import criteria, gallery
from harmonicmaps.criteria import (
    DEFAULT_N_EPSILON,
    DEFAULT_N_GAMMA,
    _GAP_BAND,
    _widest_gap,
    _wrap_angle,
    golden_section_max,
)
from harmonicmaps.jsonio import dumps
from harmonicmaps.mappings import AnalyticFunction, combination, composed_wirtinger

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


def widest_gap(values):
    """``(gap, mid, edge)`` as check_theorem1 reads a sorted direction: the gap and
    its opening argument ``lo`` from ``_widest_gap``, and the last index holding ``lo``."""
    args = np.angle(values)
    gap, lo = _widest_gap(args)
    return float(gap), float(lo + gap / 2.0), int(np.flatnonzero(args == lo)[-1])


def wrap_reads(rows):
    """``(wrap, greatest)`` per row of arguments, as check_theorem1 reads them: the
    gap across the cut at pi, off the row's least and greatest argument, which opens it."""
    least, greatest = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
    return [lo + 2.0 * np.pi - top for lo, top in zip(least, greatest)], greatest


def stable_sort_gap(values):
    """Reference: the largest argument gap among two or more values, read off a
    stable argsort."""
    args = np.angle(values)
    order = np.argsort(args, kind="stable")
    sorted_args = args[order]
    diffs = np.diff(sorted_args)
    wrap = sorted_args[0] + 2.0 * np.pi - sorted_args[-1]
    k = int(np.argmax(diffs))
    if wrap >= diffs[k]:
        gap, lo, edge = wrap, sorted_args[-1], int(order[-1])
    else:
        gap, lo, edge = diffs[k], sorted_args[k], int(order[k])
    return float(gap), float(lo + gap / 2.0), edge


def test_largest_gap_quarter_plane():
    w = np.array([1.0 + 0.0j, 1.0j])
    assert widest_gap(w) == stable_sort_gap(w)
    assert_allclose(widest_gap(w)[0], 1.5 * np.pi, rtol=0, atol=1e-12)


def test_largest_gap_antipodal_is_pi():
    w = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    assert widest_gap(w) == stable_sort_gap(w)
    assert_allclose(widest_gap(w)[0], np.pi, rtol=0, atol=1e-12)


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
                min_size=2, max_size=40))
@settings(max_examples=300, deadline=None)
def test_largest_gap_matches_stable_sort(values):
    w = np.array(values, dtype=complex)
    assert widest_gap(w) == stable_sort_gap(w)


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
def test_largest_gap_matches_stable_sort_with_forced_ties(n):
    rng = np.random.default_rng(20150 + n)
    pool = np.array(TIE_VALUES)
    for _ in range(400):
        w = np.where(rng.random(n) < 0.7, rng.choice(pool, n),
                     np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        # Repeat a few entries so equal arguments sit at scattered indices.
        w[rng.integers(0, n, n // 3)] = w[rng.integers(0, n)]
        assert widest_gap(w) == stable_sort_gap(w)


# _widest_gap's tie rule on exact arguments: (arguments, gap, lo, the index
# opening the gap).
@pytest.mark.parametrize("args, gap, lo, edge", [
    # Every gap is pi/2, the wrap gap included: the wrap gap wins, opened at pi.
    pytest.param(np.angle(np.array([1.0, 1j, complex(-1.0, 0.0), -1j])), np.pi / 2.0, np.pi, 2,
                 id="the wrap gap wins a tie"),
    # Three inner gaps of exactly 2 beat the wrap gap 2pi - 6: the first in
    # angle order wins.
    pytest.param(np.array([1.0, -3.0, 3.0, -1.0]), 2.0, -3.0, 1,
                 id="the first of equal inner gaps wins"),
    # -3 is held twice, closing a gap of 0 and opening one of 2.
    pytest.param(np.array([-3.0, 3.0, -1.0, -3.0, 1.0]), 2.0, -3.0, 3,
                 id="the last sample holding lo opens the gap"),
])
def test_widest_gap_tie_rule(args, gap, lo, edge):
    assert _widest_gap(args) == (gap, lo)
    # In a stable sort the last index holding lo closes lo's run.
    run_end = np.searchsorted(np.sort(args), lo, side="right") - 1
    assert np.flatnonzero(args == lo)[-1] == np.argsort(args, kind="stable")[run_end] == edge


def cone(n, center, width, rng):
    """``n`` unit values, in shuffled order, whose arguments fill the closed
    arc of ``width`` around ``center``, both ends included."""
    return rng.permutation(np.exp(1j * (center + width * np.linspace(-0.5, 0.5, n))))


# (label, values of size n, whether the wrap gap read off the extreme
# arguments answers without a sort)
FAST_PATH_CASES = [
    ("cone around 0", lambda n, rng: cone(n, 0.0, 2.0, rng), True),
    ("cone around pi across the cut", lambda n, rng: cone(n, np.pi, 2.0, rng), False),
    ("cone around 0, width pi - 1e-8", lambda n, rng: cone(n, 0.0, np.pi - 1e-8, rng), True),
    ("cone around pi, width pi - 1e-8", lambda n, rng: cone(n, np.pi, np.pi - 1e-8, rng), False),
    ("cone around 0, width pi - 1e-12", lambda n, rng: cone(n, 0.0, np.pi - 1e-12, rng), False),
    ("cone around pi, width pi - 1e-12", lambda n, rng: cone(n, np.pi, np.pi - 1e-12, rng), False),
    ("cone around 0, width pi + 1e-12", lambda n, rng: cone(n, 0.0, np.pi + 1e-12, rng), False),
    ("cone around 0, width pi + 1e-8", lambda n, rng: cone(n, 0.0, np.pi + 1e-8, rng), False),
    ("cone around pi, width pi + 1e-8", lambda n, rng: cone(n, np.pi, np.pi + 1e-8, rng), False),
    ("full circle", lambda n, rng: cone(n, 1.0, 2.0 * np.pi, rng), False),
    ("all equal", lambda n, rng: np.full(n, 2.0 + 3.0j), True),
    ("all +0.0", lambda n, rng: np.full(n, complex(1.0, 0.0)), True),
    ("all -0.0", lambda n, rng: np.full(n, complex(1.0, -0.0)), True),
    ("+0.0 and -0.0", lambda n, rng: rng.choice([complex(1.0, 0.0), complex(1.0, -0.0)], n), True),
    ("all pi", lambda n, rng: np.full(n, complex(-1.0, 0.0)), True),
    ("all -pi", lambda n, rng: np.full(n, complex(-1.0, -0.0)), True),
    ("pi and -pi", lambda n, rng: rng.choice([complex(-1.0, 0.0), complex(-1.0, -0.0)], n), False),
]


@pytest.mark.parametrize("n", [3841, 61441])
@pytest.mark.parametrize("values, fast", [pytest.param(values, fast, id=label)
                                          for label, values, fast in FAST_PATH_CASES])
def test_largest_gap_extremes_match_stable_sort(n, values, fast):
    w = values(n, np.random.default_rng(n))
    ref_gap, _, ref_edge = stable_sort_gap(w)
    # check_theorem1's wrap read of a one-row block answers exactly in the fast
    # cases, with the sorted scan's gap and opening argument; the sort answers
    # everywhere.
    wrap, greatest = wrap_reads(np.angle(w)[None, :])
    assert bool(wrap[0] > np.pi + _GAP_BAND) is fast
    if fast:
        assert (wrap[0], greatest[0]) == (ref_gap, np.angle(w[ref_edge]))
    assert widest_gap(w) == stable_sort_gap(w)


def test_contiguous_arctan2_matches_angle_bit_for_bit():
    # check_theorem1 takes its arguments from np.arctan2 on contiguous copies
    # of W's parts; the gap rule keeps np.angle's bits only while the two agree.
    rng = np.random.default_rng(2015)
    n = 200_000
    mags = 10.0 ** rng.uniform(-320, 308, n)
    broad = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    pairs = np.array([complex(x, y) for x in specials for y in specials])
    for values in (np.array(TIE_VALUES), broad, pairs,
                   rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        args = np.empty(values.shape)
        np.arctan2(np.ascontiguousarray(values.imag), np.ascontiguousarray(values.real),
                   out=args)
        assert np.array_equal(args.view(np.uint64), np.angle(values).view(np.uint64))


def directional_arguments(psi_z, psi_zb, ang):
    """The arguments of ``W = psi_z + e^{i ang} psi_zb`` by check_theorem1's kernels."""
    w = np.multiply(np.exp(1j * ang), psi_zb)
    np.add(psi_z, w, out=w)
    return np.arctan2(np.ascontiguousarray(w.imag), np.ascontiguousarray(w.real))


def block_arguments(psi_z, psi_zb, angles):
    """The arguments of W for each direction in ``angles``, one row each, by
    check_theorem1's kernels for a block of directions."""
    rows = np.empty((angles.size, psi_z.size), dtype=complex)
    np.multiply(np.exp(1j * angles)[:, None], psi_zb[None], out=rows)
    np.add(psi_z[None], rows, out=rows)
    return np.arctan2(np.ascontiguousarray(rows.imag), np.ascontiguousarray(rows.real))


def test_gathered_arctan2_matches_the_full_array_bit_for_bit():
    # check_theorem1 reads each direction's wrap gap off contiguous copies of
    # the kept samples only; it has the full array's bits only while each
    # kernel on the way gives an element the same bits wherever it sits.
    rng = np.random.default_rng(2021)
    n = 61441
    mags = 10.0 ** rng.uniform(-320, 308, n)
    broad = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    normal = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    subsets = [np.flatnonzero(rng.random(n) < share) for share in (0.001, 0.05, 0.36, 0.9)]
    subsets += [np.arange(1, n, 3), np.arange(n - 5, n), np.array([0, n - 1])]
    for values in (broad, normal):
        full = np.arctan2(np.ascontiguousarray(values.imag), np.ascontiguousarray(values.real))
        for kept in subsets:
            part = np.arctan2(values.imag[kept], values.real[kept])
            assert np.array_equal(part.view(np.uint64), full[kept].view(np.uint64))
    psi_zb = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for ang in 2.0 * np.pi * np.arange(0, 64, 7) / 64:
        full = directional_arguments(normal, psi_zb, ang)
        for kept in subsets:
            part = directional_arguments(normal[kept], psi_zb[kept], ang)
            assert np.array_equal(part.view(np.uint64), full[kept].view(np.uint64))
    # Blocks of directions: check_theorem1 values several directions at the
    # kept samples with one exp, one broadcast product and sum, and one arctan2.
    angles = 2.0 * np.pi * np.arange(100) / 100
    for kept in subsets[:3] + subsets[-2:]:
        z, zb = normal[kept], psi_zb[kept]
        single = [directional_arguments(z, zb, ang) for ang in angles]
        for size in (1, 2, 7, 100):
            for lo in range(0, angles.size, size):
                block = block_arguments(z, zb, angles[lo:lo + size])
                for row, ang_args in zip(block, single[lo:lo + size]):
                    assert np.array_equal(row.view(np.uint64), ang_args.view(np.uint64))
    # Where no sample is dropped, check_theorem1 values a direction as a block
    # of one row over every sample, in place of the one direction's product.
    for values in (broad, normal):
        for ang in angles:
            row = block_arguments(values, psi_zb, np.array([ang]))[0]
            scalar = directional_arguments(values, psi_zb, ang)
            assert np.array_equal(row.view(np.uint64), scalar.view(np.uint64))


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


def reference_theorem1(f, phi, grid, n_epsilon=DEFAULT_N_EPSILON):
    """(margin, witness, gamma, worst epsilon) from a stable sort per direction."""
    pts = grid.points()
    psi_z, psi_zb = composed_wirtinger(f, phi, pts)
    angles = 2.0 * np.pi * np.arange(n_epsilon) / n_epsilon
    gaps = [stable_sort_gap(psi_z + np.exp(1j * ang) * psi_zb) for ang in angles]
    margins = [(gap - np.pi) / 2.0 for gap, _, _ in gaps]
    j = int(np.argmin(margins))
    _, mid, edge = gaps[j]
    return float(margins[j]), complex(pts[edge]), _wrap_angle(-(mid + np.pi)), float(angles[j])


def crossing_map():
    # h' = -(1 + 0.6 z) and conj(g') = 0.4 conj(z): with phi = w every W_eps
    # straddles the negative real axis, where arguments wrap from pi to -pi.
    return HarmonicMap(h=from_series([-1.0, -0.3]), g=from_series([0.0, 0.2]))


GRID_FINE = GridSpec(160, 384, 0.99)
THEOREM1_REFERENCE_CASES = [
    *[(name, (a, b), GRID_09) for name in ("f_k", "h0", "koebe", "cayley")
      for a, b in ((2.0, -1.0), (-2.0, 1.0), (2.0j, -1.0j))],
    # phi = f^{-1}, the benchmark's most frequent path: on the identity every
    # argument is equal and the gap is the whole 2pi wrap.
    ("identity", "inverse", GRID_09),
    ("h1", "inverse", GRID_09),
    ("crossing", (1.0, 0.0), GRID_09),
    # |Psi_zbar| > |Psi_z| at every sample, so every sample is valued.
    ("identity", (0.3, 1.0), GRID_09),
    ("koebe", (0.3, 1.0), GRID_09),
    # The benchmark's resolution: (-2, 1) sorts in every direction, (2, -1)
    # values 36 % of h0's samples and 2 of f_k's.
    *[(name, (a, b), GRID_FINE) for name in ("f_k", "h0") for a, b in ((2.0, -1.0), (-2.0, 1.0))],
]


@pytest.mark.parametrize("name, phi_spec, grid, n_epsilon", [
    *[(*case, DEFAULT_N_EPSILON) for case in THEOREM1_REFERENCE_CASES],
    # Other direction counts.  Where few samples are kept, one block holds
    # every direction; on h0 with (2, -1) at the fine grid a block holds two,
    # so 7 directions leave the last block half full.
    *[(*case, n) for case in THEOREM1_REFERENCE_CASES if case[2] is GRID_09 for n in (7, 100)],
    ("h0", (2.0, -1.0), GRID_FINE, 7),
])
def test_theorem1_matches_stable_sort_per_direction(name, phi_spec, grid, n_epsilon):
    f = crossing_map() if name == "crossing" else \
        gallery_get(name, {"k": 0.5} if name == "f_k" else None)
    phi = inverse_wirtinger(f) if phi_spec == "inverse" else linear_wirtinger(*phi_spec)
    rep = check_theorem1(f, phi, grid, n_epsilon)
    margin, witness, gamma, eps = reference_theorem1(f, phi, grid, n_epsilon)
    assert rep.meta.get("failure") is None
    assert rep.verdict == (VERDICT_HOLDS if margin > 0.0 else VERDICT_VIOLATED)
    assert (rep.margin, rep.witness, rep.gamma, rep.meta["worst_epsilon"]) == \
        (margin, witness, gamma, eps)


def kept_samples(f, phi, grid):
    """The samples check_theorem1 values in every direction, from its private helper."""
    psi_z, psi_zb = composed_wirtinger(f, phi, grid.points())
    size_z, size_zb = np.abs(psi_z), np.abs(psi_zb)
    return criteria._argument_candidates(psi_z, size_z, size_zb, size_z - size_zb)


def random_cubic(rng, scale):
    """h = z + a2 z^2 + a3 z^3 and g = b1 z + b2 z^2 + b3 z^3, all but h's 1 scaled."""
    a = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
    b = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / 4.0
    return HarmonicMap(h=from_series([1.0, *a]), g=from_series(b))


def test_theorem1_prune_matches_stable_sort_on_random_maps():
    # Random cubic maps, rotated phi, grids and direction counts: the report
    # equals a stable sort of every direction, on many maps the prune thins.
    rng = np.random.default_rng(2021)
    grids = [GridSpec(6, 16, 0.5), GridSpec(12, 32, 0.9), GridSpec(20, 48, 0.9)]
    compared = pruned = 0
    for _ in range(400):
        # Larger coefficients put a zero of h' on the grid, where W vanishes.
        f = random_cubic(rng, rng.uniform(0.0, 0.6))
        # |b/a| below 0.8 or above 1.25, so that W vanishes on few maps, and
        # often small, so that the prune keeps few samples.
        ratio = rng.uniform(0.0, 0.8) ** (4 * rng.choice([1, -1], p=[0.7, 0.3]))
        a = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        phi = linear_wirtinger(a, a * ratio * np.exp(2j * np.pi * rng.random()))
        grid, n_epsilon = grids[rng.integers(3)], int(rng.integers(4, 80))
        rep = check_theorem1(f, phi, grid, n_epsilon=n_epsilon)
        if rep.meta.get("failure") is not None:
            continue
        compared += 1
        pruned += kept_samples(f, phi, grid) is not None
        assert (rep.margin, rep.witness, rep.gamma, rep.meta["worst_epsilon"]) == \
            reference_theorem1(f, phi, grid, n_epsilon)
    assert compared >= 250 and pruned >= 100


def test_kept_samples_hold_every_directions_extremes():
    # Partials drawn directly: arguments in an arc of random centre and width,
    # some near the cut at pi, and |Psi_zbar|/|Psi_z| up to 0.95, so that some
    # intervals reach +-pi; 256 directions each.
    rng = np.random.default_rng(2023)
    pruned = 0
    for _ in range(700):
        n = int(rng.integers(2, 40))
        arc = rng.uniform(-np.pi, np.pi) + rng.uniform(0.0, 3.0) * rng.uniform(-0.5, 0.5, n)
        psi_z = rng.uniform(0.5, 2.0, n) * np.exp(1j * arc)
        q = rng.uniform(0.0, 0.95, n) ** rng.uniform(1.0, 4.0)
        psi_zb = q * np.abs(psi_z) * np.exp(2j * np.pi * rng.random(n))
        size_z, size_zb = np.abs(psi_z), np.abs(psi_zb)
        kept = criteria._argument_candidates(psi_z, size_z, size_zb, size_z - size_zb)
        if kept is None:
            continue
        pruned += 1
        for ang in 2.0 * np.pi * np.arange(256) / 256:
            args = directional_arguments(psi_z, psi_zb, ang)
            assert (args[kept].min(), args[kept].max()) == (args.min(), args.max())
    assert pruned >= 200


def test_theorem1_values_few_samples_per_direction():
    # Guards the prune against keeping every sample where it should keep few.
    koebe = gallery_get("koebe")
    assert kept_samples(koebe, inverse_wirtinger(koebe), GRID_09).size <= 4
    n = GRID_FINE.n_radial * GRID_FINE.n_angular + 1
    kept = kept_samples(gallery_get("f_k", {"k": 0.5}), linear_wirtinger(2.0, -1.0), GRID_FINE)
    assert kept.size < 0.01 * n
    # Where |Psi_zbar| > |Psi_z|, arg W turns with eps and every sample would be
    # kept; where the arguments spread beyond pi every direction sorts anyway.
    assert kept_samples(koebe, linear_wirtinger(0.3, 1.0), GRID_09) is None
    assert kept_samples(koebe, linear_wirtinger(2.0, -1.0), GRID_09) is None


N_EPS = DEFAULT_N_EPSILON


@pytest.mark.parametrize("name, phi_spec, failed_reads, sorts, valued", [
    ("koebe", (2.0, -1.0), N_EPS, N_EPS, N_EPS),
    # Psi_zbar = 0 at every sample (f_k's g' = k h' with k = 1/2 cancels the
    # -conj(h') of phi; the others are analytic with phi analytic in w), so
    # direction 0 alone is valued, at every sample, its gap is every
    # direction's, and that read is the witness's: cayley's arguments spread
    # beyond pi, so it sorts once.
    ("f_k", (2.0, -1.0), 0, 0, 0),
    ("koebe", "inverse", 0, 0, 0),
    ("identity", (1.0, 0.0), 0, 0, 0),
    ("identity", "inverse", 0, 0, 0),
    ("h1", "inverse", 0, 0, 0),
    ("cayley", (2.0, 0.0), N_EPS, 1, 0),
    # Psi_z = -1 at every sample: on the negative real axis the sign of a
    # zero part can move an argument between pi and -pi, so every direction
    # is valued.
    ("identity", (-1.0, 0.0), 0, 0, N_EPS),
    ("crossing", (1.0, 0.0), N_EPS, N_EPS, N_EPS),
    # |Psi_zbar| > |Psi_z| at every sample, so nothing can be dropped.
    ("koebe", (0.3, 1.0), N_EPS, N_EPS, N_EPS),
    # Samples dropped: most of h0's; h_r's all but 440 of 3841, so 8
    # directions share a block and each of them sorts; some of h0's
    # directions with (2i, -1) sort and the rest answer.
    ("h0", (2.0, -1.0), 0, 0, 0),
    ("h_r", (-2.0, 0.5), N_EPS, N_EPS, N_EPS),
    ("h0", (2.0j, -1.0), 10, 10, 10),
])
def test_theorem1_sorts_only_directions_whose_wrap_read_fails(monkeypatch, name, phi_spec,
                                                               failed_reads, sorts, valued):
    # Guards the work: ``failed_reads`` of the directions fail their wrap
    # read, and every sample is sorted ``sorts`` times (once per such
    # direction, or once in all where direction 0 is read for every one) and
    # never passed to np.angle; W is valued at every sample ``valued`` times
    # (each direction where nothing is dropped, else each sorted direction),
    # and once more for the witness, which is direction 0's one read where
    # that read serves every direction.
    f = crossing_map() if name == "crossing" else gallery_get(name, GALLERY_PARAMS.get(name))
    phi = inverse_wirtinger(f) if phi_spec == "inverse" else linear_wirtinger(*phi_spec)
    psi_z, psi_zb = composed_wirtinger(f, phi, GRID_09.points())
    angles = 2.0 * np.pi * np.arange(DEFAULT_N_EPSILON) / DEFAULT_N_EPSILON
    wrap, _ = wrap_reads(block_arguments(psi_z, psi_zb, angles))
    assert sum(gap <= np.pi + _GAP_BAND for gap in wrap) == failed_reads
    calls = []

    def counted(label, fn):
        def call(a, *args, **kwargs):
            # W is valued into the ``out`` it is given.
            if np.size(kwargs.get("out", a)) == psi_z.size:
                calls.append(label)
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "sort", counted("sort", np.sort))
    monkeypatch.setattr(np, "angle", counted("angle", np.angle))
    monkeypatch.setattr(np, "multiply", counted("value", np.multiply))
    assert check_theorem1(f, phi, GRID_09).meta.get("failure") is None
    assert (calls.count("sort"), calls.count("angle"), calls.count("value")) == \
        (sorts, 0, valued + 1)


# Psi_zbar is zero at every sample of these.  Direction 0 is read for all
# directions except where some Psi_z lies on the negative real axis: h1' is
# negative on (-1, 0), and on the identity (-1, 0) puts every Psi_z there.
ONE_DIRECTION_CASES = [
    *[(name, phi_spec, name != "h1" or phi_spec == "inverse")
      for name in ("identity", "h0", "koebe", "h1", "cayley")
      for phi_spec in ("inverse", (1.0, 0.0), (2.0, 0.0))],
    ("f_k", (2.0, -1.0), True),
    ("identity", (-1.0, 0.0), False),
]


@pytest.mark.parametrize("name, phi_spec, one", ONE_DIRECTION_CASES)
@pytest.mark.parametrize("n_epsilon", [DEFAULT_N_EPSILON, 7])
def test_theorem1_one_direction_read_bit_for_bit(monkeypatch, name, phi_spec, one, n_epsilon):
    # The report's bytes with direction 0 read for all, and with every
    # direction read.
    f = gallery_get(name, GALLERY_PARAMS.get(name))
    phi = inverse_wirtinger(f) if phi_spec == "inverse" else linear_wirtinger(*phi_spec)
    psi_z, psi_zb = composed_wirtinger(f, phi, GRID_09.points())
    assert not psi_zb.any()
    assert criteria._one_direction(psi_z, psi_zb) == one
    report = dumps(check_theorem1(f, phi, GRID_09, n_epsilon).to_dict())
    monkeypatch.setattr(criteria, "_one_direction", lambda psi_z, psi_zb: False)
    assert report == dumps(check_theorem1(f, phi, GRID_09, n_epsilon).to_dict())


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


def reference_rotation(f, G, grid, n_gamma=DEFAULT_N_GAMMA):
    """(margin, gamma, witness) of a rotation search that values every coarse
    angle and polishes over every sample."""
    pts = grid.points()
    hp, gp = f.h.deriv(pts), f.g.deriv(pts)
    if G is not None:
        hp, gp = hp / G.deriv(pts), gp / G.deriv(pts)

    def worst(gamma):
        return float(np.min(np.real(np.exp(1j * gamma) * hp) - np.abs(gp)))

    candidates = 2.0 * np.pi * np.arange(n_gamma) / n_gamma
    vals = [worst(g) for g in candidates]
    k = int(np.argmax(vals))
    half = 2.0 * np.pi / n_gamma
    gamma, margin = golden_section_max(worst, candidates[k] - half, candidates[k] + half)
    if vals[k] > margin:
        gamma, margin = candidates[k], vals[k]
    gamma = _wrap_angle(gamma)
    witness = int(np.argmin(np.real(np.exp(1j * gamma) * hp) - np.abs(gp)))
    return margin, gamma, complex(pts[witness])


def cubic_map():
    # A fixed random cubic h = z + a2 z^2 + a3 z^3 with a nonzero cubic g.
    rng = np.random.default_rng(19)
    a = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return HarmonicMap(h=from_series([1.0, *a]), g=from_series(b))


def tied_map(grid):
    """Derivative values on ``grid`` that tie every coarse angle at slack -3.

    At one inner sample h' = 0 and |g'| = 3, so the slack is -3 at every angle.
    At one rim sample h' = -1 and |g'| = 2, so the outer ring's bound,
    -2 - cos(gamma), equals that best value at gamma = 0 only; elsewhere
    h' = 1 and g' = 0.  So the scan reaches angle 0, the lowest index of the
    tie, last, and must value it although its bound does not exceed the best.
    """
    pts = grid.points()
    inner, rim = pts[1], pts[-1]

    def values(at_inner, at_rim, elsewhere):
        return lambda z: np.where(z == inner, at_inner, np.where(z == rim, at_rim, elsewhere)) + 0j

    return HarmonicMap(h=AnalyticFunction(eval=values(0.0, -1.0, 1.0), deriv=values(0.0, -1.0, 1.0)),
                       g=AnalyticFunction(eval=values(3.0, 2.0, 0.0), deriv=values(3.0, 2.0, 0.0)))


def test_tied_map_ties_every_coarse_angle():
    # Guards the premise of the "tied" case below.
    pts = GRID_09.points()
    f = tied_map(GRID_09)
    hp, gp = f.h.deriv(pts), f.g.deriv(pts)
    candidates = 2.0 * np.pi * np.arange(DEFAULT_N_GAMMA) / DEFAULT_N_GAMMA
    slack = [np.real(np.exp(1j * g) * hp) - np.abs(gp) for g in candidates]
    ring = pts.size - GRID_09.n_angular
    assert all(np.min(s) == -3.0 for s in slack)
    assert np.min(slack[0][ring:]) == -3.0
    assert all(np.min(s[ring:]) > -3.0 for s in slack[1:])


ROTATION_REFERENCE_CASES = [
    # The identity ties every sample at every rotation, so none is pruned.
    ("identity", None, GRID_09),
    ("h0", None, GRID_09),
    ("f_k", None, GRID_09),
    ("cubic", None, GRID_09),
    ("tied", None, GRID_09),
    ("koebe", "cayley", GRID_09),
    ("f_k", "cayley", GRID_09),
    ("identity", None, GridSpec(160, 384, 0.99)),
    ("f_k", None, GridSpec(160, 384, 0.99)),
    ("h0", None, GridSpec(160, 384, 0.99)),
    ("koebe", "cayley", GridSpec(160, 384, 0.99)),
]


@pytest.mark.parametrize("name, G_name, grid", ROTATION_REFERENCE_CASES)
def test_rotation_polish_matches_a_full_grid_reference(name, G_name, grid):
    if name in ("cubic", "tied"):
        f = cubic_map() if name == "cubic" else tied_map(grid)
    else:
        f = gallery_get(name, {"k": 0.5} if name == "f_k" else None)
    if G_name is None:
        rep, G = check_theoremA(f, grid), None
    else:
        G = gallery_get(G_name).h
        rep = check_theoremB(f, G, grid)
    assert (rep.margin, rep.gamma, rep.witness) == reference_rotation(f, G, grid)


def test_rotation_search_matches_a_full_grid_reference_on_random_maps():
    rng = np.random.default_rng(2022)
    cayley = gallery_get("cayley").h
    for _ in range(300):
        f = random_cubic(rng, rng.uniform(0.0, 1.2))
        G = cayley if rng.random() < 0.3 else None
        grid = GridSpec(int(rng.integers(2, 16)), int(rng.integers(8, 48)), 0.9)
        n_gamma = int(rng.integers(8, 64))
        rep = check_theoremA(f, grid, n_gamma) if G is None else check_theoremB(f, G, grid, n_gamma)
        assert (rep.margin, rep.gamma, rep.witness) == reference_rotation(f, G, grid, n_gamma)


def test_rotation_search_keeps_the_coarse_winner_when_the_polish_drifts_lower(monkeypatch):
    # A polish that returns a bracket end lands on a coarse neighbour, which
    # the winner beats, so the report keeps the winner's angle and margin.
    ends = []

    def bracket_end(fn, lo, hi, tol=1e-6):
        ends.append(fn(lo))
        return lo, ends[-1]

    monkeypatch.setattr(criteria, "golden_section_max", bracket_end)
    f = gallery_get("f_k", {"k": 0.5})
    rep = check_theoremA(f, GRID_09)
    pts = GRID_09.points()
    hp, gp = f.h.deriv(pts), f.g.deriv(pts)
    candidates = 2.0 * np.pi * np.arange(DEFAULT_N_GAMMA) / DEFAULT_N_GAMMA
    vals = [float(np.min(np.real(np.exp(1j * g) * hp) - np.abs(gp))) for g in candidates]
    k = int(np.argmax(vals))
    assert len(ends) == 1 and ends[0] < vals[k]
    assert (rep.gamma, rep.margin) == (_wrap_angle(candidates[k]), vals[k])


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
