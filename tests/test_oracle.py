"""Direct injectivity/orientation oracles: layouts, scans, and curve tests."""

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from harmonicmaps import (
    GridSpec,
    HarmonicMap,
    check_pairwise_bound,
    curve_simplicity,
    from_series,
    gallery_get,
    injectivity_scan,
    jacobian_positivity_scan,
    sunflower_points,
)
from harmonicmaps import gallery, oracle
from harmonicmaps.errors import DomainError
from harmonicmaps.mappings import AnalyticFunction, combination, constant_function, eval_map


def z_plus_2z2():
    return HarmonicMap.from_analytic(from_series([1.0, 2.0], description="z + 2z^2"))


def pole_map(pole):
    """The Moebius map z/(z - pole); its value at ``pole`` is not finite."""
    def ev(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return z / (z - pole)

    def dv(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -pole / (z - pole) ** 2

    return HarmonicMap.from_analytic(AnalyticFunction(eval=ev, deriv=dv,
                                                      description="z/(z - pole)"))


# ---------------------------------------------------------------------------
# sample layout


def test_sunflower_layout():
    pts = sunflower_points(500, r_max=0.9)
    assert pts.shape == (500,)
    radii = np.abs(pts)
    assert np.all(radii <= 0.9 + 1e-15)
    assert np.all(np.diff(radii) > 0.0)
    assert radii[0] == pytest.approx(0.9 * np.sqrt(0.5 / 500))
    # quasi-uniform: nearest-neighbour separation stays near the ideal spacing
    d = np.abs(pts[:, None] - pts[None, :]) + np.eye(500)
    assert d.min() > 0.25 * 0.9 / np.sqrt(500)


def test_sunflower_needs_points():
    with pytest.raises(ValueError):
        sunflower_points(0)


@pytest.mark.parametrize("n, r_max", [
    (60.5, 0.95), (np.nan, 0.95), (np.inf, 0.95),
    (400, -0.5), (400, 0.0), (400, np.nan), (400, np.inf),
])
def test_sunflower_rejects_sizes_that_make_no_sample(n, r_max):
    # A negative radius made the sample of -r_max turned by pi, a zero one an
    # empty-reduction error, and 60.5 points a sample of 61 reported as 60.
    before = oracle._sunflower_layout.cache_info().currsize
    with pytest.raises(ValueError, match="whole number|r_max"):
        sunflower_points(n, r_max)
    with pytest.raises(ValueError, match="whole number|r_max"):
        injectivity_scan(gallery_get("koebe"), n_points=max(n, 50), r_max=r_max)
    assert oracle._sunflower_layout.cache_info().currsize == before


def test_sunflower_beyond_the_domain_is_a_domain_error():
    with pytest.raises(DomainError):
        injectivity_scan(gallery_get("koebe"), n_points=50, r_max=1.5)


@pytest.mark.parametrize("n, r_max", [
    (50, 0.95), (400, 0.95), (2000, 0.95), (2048, 0.95), (1000, 0.37),
    (8000, 0.95), (8000.0, 0.95), (np.int64(8000), np.float64(0.95)),
])
def test_sunflower_layout_bit_for_bit(n, r_max):
    # The cached layout is the sample and run order built afresh, to the bit,
    # whatever type the size comes in.
    pts, order = oracle._sunflower_layout(n, r_max)
    fresh = sunflower_points(int(n), float(r_max))
    assert pts.dtype == fresh.dtype and pts.tobytes() == fresh.tobytes()
    expect = oracle._run_order(fresh)
    assert order.dtype == expect.dtype and order.tobytes() == expect.tobytes()


def test_sunflower_layout_is_read_only():
    for a in oracle._sunflower_layout(400, 0.95):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]


def test_scan_builds_each_layout_once(monkeypatch):
    built = []

    def counted(n, r_max=0.95):
        built.append((n, r_max))
        return sunflower_points(n, r_max)

    oracle._sunflower_layout.cache_clear()
    monkeypatch.setattr(oracle, "sunflower_points", counted)
    first = injectivity_scan(gallery_get("koebe"), n_points=500, r_max=0.9)
    injectivity_scan(gallery_get("h0"), n_points=500, r_max=0.9)
    again = injectivity_scan(gallery_get("koebe"), n_points=500.0, r_max=np.float64(0.9))
    assert built == [(500, 0.9)]
    assert again.to_dict() == first.to_dict()


def test_explicit_points_skip_the_layout_cache(monkeypatch):
    ordered = []

    def counted(pts):
        ordered.append(pts.size)
        return order(pts)

    order = oracle._run_order
    monkeypatch.setattr(oracle, "_run_order", counted)
    monkeypatch.setattr(oracle, "_sunflower_layout", mock.Mock(side_effect=AssertionError))
    pts = sunflower_points(300, 0.8)
    for _ in range(2):
        rep = injectivity_scan(gallery_get("koebe"), points=pts)
        assert rep.grid == {"kind": "explicit", "n": 300}
    assert ordered == [300, 300]
    assert pts.flags.writeable


def test_layout_cache_stays_bounded():
    identity = gallery_get("identity")
    for n in range(50, 70):
        injectivity_scan(identity, n_points=n, r_max=0.5)
    info = oracle._sunflower_layout.cache_info()
    assert 0 < info.currsize <= info.maxsize <= 8


def test_threads_share_a_new_layout():
    # Two scans at a size not yet built race to build and read its layout.
    maps = [gallery_get("koebe"), gallery_get("h0")]
    serial = [injectivity_scan(f, n_points=1500, r_max=0.9).to_dict() for f in maps]
    for _ in range(3):
        oracle._sunflower_layout.cache_clear()
        start, reports = threading.Barrier(len(maps)), [None] * len(maps)

        def scan(k):
            start.wait()
            reports[k] = injectivity_scan(maps[k], n_points=1500, r_max=0.9).to_dict()

        threads = [threading.Thread(target=scan, args=(k,)) for k in range(len(maps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reports == serial


# ---------------------------------------------------------------------------
# pairwise injectivity


def test_injectivity_identity():
    rep = injectivity_scan(gallery_get("identity"), n_points=120)
    assert rep.holds
    assert rep.margin == 1.0
    # Every ratio is exactly 1: the tie goes to the lowest pair.
    assert rep.meta["worst_pair"] == [0, 1]


def test_injectivity_explicit_collision():
    # z^2 glues +-z0; placing the pair explicitly forces ratio ~ 0.
    f = HarmonicMap.from_analytic(from_series([0.0, 1.0], description="z^2"))
    pts = np.array([0.5 + 0.0j, -0.5 + 0.0j, 0.3 + 0.1j, -0.2 + 0.4j])
    rep = injectivity_scan(f, points=pts)
    assert not rep.holds
    assert rep.margin <= 1e-12
    assert rep.meta["worst_pair"] == [0, 1]
    assert rep.grid == {"kind": "explicit", "n": 4}


def test_injectivity_input_validation():
    f = gallery_get("identity")
    with pytest.raises(ValueError):
        injectivity_scan(f, n_points=20)
    with pytest.raises(ValueError):
        injectivity_scan(f, points=np.array([0.1 + 0.0j]))
    with pytest.raises(ValueError, match="distinct"):
        injectivity_scan(f, points=np.array([0.1, 0.2j, 0.1]))
    for tol in (np.nan, np.inf, -1e-6):
        with pytest.raises(ValueError, match="tol"):
            injectivity_scan(f, n_points=50, tol=tol)


@pytest.mark.parametrize("scan", [
    lambda f: injectivity_scan(f, points=np.array([0.1, 0.5, -0.3, 0.5j])),
    lambda f: check_pairwise_bound(f, 0.5, n=16),
    lambda f: curve_simplicity(f, 0.5, n=64),
    lambda f: jacobian_positivity_scan(f, GridSpec(n_radial=1, n_angular=4, r_max=0.5)),
], ids=["injectivity", "pairwise-bound", "curve-simplicity", "jacobian-positivity"])
def test_nonfinite_image_is_inconclusive(scan):
    rep = scan(pole_map(0.5))
    assert rep.verdict == "inconclusive"
    assert rep.witness == 0.5
    assert rep.meta == {"failure": "non-finite evaluation"}


# ---------------------------------------------------------------------------
# jacobian scan


def test_jacobian_scan_f_k():
    rep = jacobian_positivity_scan(gallery_get("f_k", {"k": 0.5}))
    assert rep.holds
    # J = (1 - k^2)|1+z|^2, minimized at z = -0.95 on the default grid.
    assert_allclose(rep.margin, 0.75 * 0.05 ** 2, rtol=0, atol=1e-12)
    assert_allclose(rep.witness, -0.95 + 0.0j, atol=1e-12)


def test_jacobian_scan_flags_folding():
    f = HarmonicMap(h=from_series([1.0]), g=from_series([2.0]))  # J = 1 - 4
    rep = jacobian_positivity_scan(f)
    assert not rep.holds
    assert_allclose(rep.margin, -3.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# circle image simplicity


def test_curve_identity_simple():
    rep = curve_simplicity(gallery_get("identity"), 0.9)
    assert rep.holds
    assert rep.meta["winding"] == 1
    assert rep.margin > 0.0


def test_curve_double_winding_violated():
    rep = curve_simplicity(z_plus_2z2(), 0.9)
    assert not rep.holds
    assert rep.margin == 0.0
    assert rep.meta["winding"] == 2


def test_curve_degenerate_image():
    f = HarmonicMap(h=constant_function(1.0), g=constant_function(0.0))
    rep = curve_simplicity(f, 0.5)
    assert not rep.holds
    assert rep.meta["failure"] == "image polyline degenerate"


def test_curve_three_vertex_image_is_degenerate():
    # Each third of the circle maps to one cube root of unity, so the image
    # polyline has three vertices and its one non-adjacent pair is the wrap pair.
    def ev(z):
        third = np.floor(3.0 * (np.angle(z) % (2.0 * np.pi)) / (2.0 * np.pi) + 1e-9)
        return np.exp(2j * np.pi * third / 3.0)

    f = HarmonicMap.from_analytic(AnalyticFunction(
        eval=ev, deriv=lambda z: np.zeros_like(z), description="three levels"))
    rep = curve_simplicity(f, 0.5, n=66)
    assert not rep.holds
    assert rep.meta["failure"] == "image polyline degenerate"


def test_curve_wrap_vertex_equal_to_first_is_dropped():
    # Circle point k maps to the (n-1)-gon vertex k mod (n-1): the last image
    # vertex repeats the first, and the polyline closes on n - 1 segments.
    n = 64

    def ev(z):
        k = np.round((np.angle(z) % (2.0 * np.pi)) * n / (2.0 * np.pi))
        return 0.5 * np.exp(2j * np.pi * (k % (n - 1)) / (n - 1))

    f = HarmonicMap.from_analytic(AnalyticFunction(
        eval=ev, deriv=lambda z: np.zeros_like(z), description="(n-1)-gon"))
    rep = curve_simplicity(f, 0.5, n=n)
    assert rep.meta["segments"] == n - 1
    assert rep.holds


def test_curve_needs_resolution():
    with pytest.raises(ValueError):
        curve_simplicity(gallery_get("identity"), 0.5, n=32)
    # A zero, NaN or infinite radius is bad input, not a degenerate image;
    # an infinite one is refused before its samples warn of NaN.
    for rho in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho"):
            curve_simplicity(gallery_get("identity"), rho)


# ---------------------------------------------------------------------------
# univalent gallery members clear all three oracles


@pytest.mark.parametrize("name,params", [
    ("identity", None),
    ("cayley", None),
    ("koebe", None),
    ("h0", None),
    ("f_k", {"k": 0.5}),
    ("h1", None),
])
def test_univalent_maps_pass_oracles(name, params):
    f = gallery_get(name, params)
    inj = injectivity_scan(f, n_points=200, r_max=0.9 * f.domain_radius)
    assert inj.holds, f"{name}: {inj.margin}"
    jac = jacobian_positivity_scan(f)
    assert jac.holds, f"{name}: {jac.margin}"
    curve = curve_simplicity(f, 0.9 * f.domain_radius)
    assert curve.holds, f"{name}: {curve.margin}"
    assert curve.meta["winding"] == 1


def test_scan_reports_are_deterministic():
    f = gallery_get("h0")
    a = injectivity_scan(f, n_points=100)
    b = injectivity_scan(f, n_points=100)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# the run-pair kernel against brute force over all pairs


def _pair_min(m, pair_value, gap=1):
    """Least ``pair_value(i, j)`` over ``i + gap <= j < m``, as ``(value, i, j)``.

    Blocks of whole rows hold at most about PAIR_BLOCK pairs, so memory stays
    bounded at any m.  ``pair_value`` gets index arrays ``i`` of shape (rows, 1)
    and ``j`` of shape (1, cols) and must not return NaN on pairs in range;
    the pairs of a block with ``j < i + gap`` are dropped whatever it returns.
    Ties go to the lowest (i, j).
    """
    best = (np.inf, -1, -1)
    i0 = 0
    while i0 + gap < m:
        cols = m - i0 - gap
        rows = max(1, min(cols, oracle.PAIR_BLOCK // cols))
        i = np.arange(i0, i0 + rows)[:, None]
        j = np.arange(i0 + gap, m)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.asarray(pair_value(i, j), dtype=float)
        # Column c of row r is the pair (i0 + r, i0 + gap + c): out of range iff c < r.
        v[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
        k = int(np.argmin(v))
        r, c = divmod(k, cols)
        if v[r, c] < best[0]:
            best = (float(v[r, c]), i0 + r, i0 + gap + c)
        i0 += rows
    return best


def _brute_ratio(vals, pts):
    iu, ju = np.triu_indices(pts.size, k=1)
    ratio = np.abs(vals[ju] - vals[iu]) / np.abs(pts[ju] - pts[iu])
    k = int(np.argmin(ratio))
    return float(ratio[k]), int(iu[k]), int(ju[k])


# The reference segment test: an orientation predicate and a point-to-segment
# distance, each called once for each of the four (end, other segment) pairs.


def _orient(u, v, w):
    """Sign of the normalized orientation of w relative to segment u->v."""
    s = v - u
    t = w - u
    d = np.imag(np.conj(s) * t) / np.maximum(np.abs(s) * np.abs(t), 1e-300)
    return np.where(np.abs(d) <= oracle.ORIENT_SLACK, 0.0, np.sign(d))


def _point_segment_distance(p, a, b):
    """Distance from points p to segments [a, b] (all arrays, elementwise)."""
    u = b - a
    denom = np.maximum(np.abs(u) ** 2, 1e-300)
    t = np.minimum(np.maximum(np.real(np.conj(u) * (p - a)) / denom, 0.0), 1.0)
    return np.abs(p - (a + t * u))


def _separate_segment_tests(a1, b1, a2, b2):
    proper = ((_orient(a1, b1, a2) * _orient(a1, b1, b2) < 0)
              & (_orient(a2, b2, a1) * _orient(a2, b2, b1) < 0))
    dist = _point_segment_distance(a2, a1, b1)
    for end, u, v in ((b2, a1, b1), (a1, a2, b2), (b1, a2, b2)):
        np.minimum(dist, _point_segment_distance(end, u, v), out=dist)
    dist[proper] = 0.0
    return dist


def _brute_curve(f, rho, n):
    """Margin, witness and worst pair of the segment-pair test, over all pairs at once."""
    circle = rho * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.asarray(eval_map(f, circle), dtype=complex)
    scale = float(np.max(np.abs(vals - np.mean(vals))))
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(vals)) > 1e-15 * scale
    if np.abs(vals[-1] - vals[0]) <= 1e-15 * scale and keep[-1]:
        keep[-1] = False
    p, zsrc = vals[keep], circle[keep]
    m = p.size
    a, b = p, np.roll(p, -1)
    iu, ju = np.triu_indices(m, k=2)
    wrap_adjacent = (iu == 0) & (ju == m - 1)
    iu, ju = iu[~wrap_adjacent], ju[~wrap_adjacent]
    dist = _separate_segment_tests(a[iu], b[iu], a[ju], b[ju])
    k = int(np.argmin(dist))
    margin = float(dist[k])
    if margin <= oracle.ORIENT_SLACK * scale:
        margin = 0.0
    return margin, complex(zsrc[iu[k]]), [int(iu[k]), int(ju[k])]


def _segment_ends(rng, size):
    """Ends a1, b1, a2, b2 of segment pairs: random floats, then integer
    coordinates in a small range, where collinear and touching pairs are
    common, then those again as a segment against itself, reversed, joined end
    to end, and shrunk to a point."""
    ends = rng.standard_normal((4, size)) + 1j * rng.standard_normal((4, size))
    a1, b1, a2, b2 = rng.integers(-2, 3, (4, size)) + 1j * rng.integers(-2, 3, (4, size))
    pairs = [(a1, b1, a2, b2), (a1, b1, a1, b1), (a1, b1, b1, a1), (a1, b1, b1, b2),
             (a1, a1, a2, b2)]
    return np.concatenate([ends, *map(np.stack, pairs)], axis=1)


@pytest.mark.parametrize("size", [1, 96, 1024, 8192])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -600, 2.0 ** 600])
def test_segment_distance_bit_for_bit(size, scale):
    # The segment test gives the reference's bits on every pair, also where
    # the squares underflow or overflow.
    a1, b1, a2, b2 = _segment_ends(np.random.default_rng(size), size) * scale
    with np.errstate(all="ignore"):
        got = oracle._segment_distance(a1, b1, a2, b2)
        want = _separate_segment_tests(a1, b1, a2, b2)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


GALLERY_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                  "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}
PAIR_MAPS = [*gallery.names(), "z + 2z^2"]
# Batch sizes: the kernel values one run pair per batch at 1 and 97 and 32
# at 2**15; the reference takes one row, several rows and all pairs.
BLOCKS = [1, 97, 2 ** 15]


def _pair_map(name):
    if name == "z + 2z^2":
        return z_plus_2z2()
    return gallery_get(name, GALLERY_PARAMS.get(name))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", PAIR_MAPS)
def test_pair_scans_match_brute_force(monkeypatch, name, block):
    monkeypatch.setattr(oracle, "PAIR_BLOCK", block)
    f = _pair_map(name)
    radius = f.domain_radius

    inj = injectivity_scan(f, n_points=120, r_max=0.9 * radius)
    pts = sunflower_points(120, 0.9 * radius)
    ratio, i, j = _brute_ratio(np.asarray(eval_map(f, pts), dtype=complex), pts)
    assert (inj.margin, inj.witness, inj.meta["worst_pair"]) == (ratio, pts[i], [i, j])

    r, n = 0.5 * radius, 60
    pw = check_pairwise_bound(f, r, n=n)
    pts = r * np.exp(2j * np.pi * np.arange(n) / n)
    ratio, i, j = _brute_ratio(np.asarray(eval_map(f, pts), dtype=complex), pts)
    assert (pw.margin, pw.witness, pw.meta["worst_pair"]) == (
        ratio - pw.meta["bound"], pts[i], [i, j])

    curve = curve_simplicity(f, 0.9 * radius, n=128)
    assert (curve.margin, curve.witness, curve.meta["worst_pair"]) == \
        _brute_curve(f, 0.9 * radius, 128)


@pytest.mark.parametrize("block", BLOCKS)
def test_pairwise_ties_go_to_lowest_pair(monkeypatch, block):
    monkeypatch.setattr(oracle, "PAIR_BLOCK", block)
    rep = check_pairwise_bound(gallery_get("identity"), 0.5, n=40)
    assert rep.meta["worst_pair"] == [0, 1]
    assert rep.witness == 0.5


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 30), gap=st.integers(1, 3), block=st.integers(1, 200),
       seed=st.integers(0, 2 ** 16))
def test_pair_min_matches_sorted_pairs(m, gap, block, seed):
    # The reference itself, with few distinct values, so ties are common.
    table = np.random.default_rng(seed).integers(0, 4, size=(m, m)).astype(float)
    pairs = [(i, j) for i in range(m) for j in range(i + gap, m)]
    expect = min(((table[i, j], i, j) for i, j in pairs), default=(np.inf, -1, -1))
    with mock.patch.object(oracle, "PAIR_BLOCK", block):
        assert _pair_min(m, lambda i, j: table[i, j], gap=gap) == expect


# ---------------------------------------------------------------------------
# the run-pair kernel against the reference scan over every pair


PRUNE_MAPS = [*PAIR_MAPS, "z + z^3"]


def _every_pair(pair_value, order, lo, hi, pts=None, gap=1):
    return _pair_min(order.size, pair_value, gap)


def _both_paths(monkeypatch, scan):
    """``scan()`` on the run-pair kernel and on the reference scan over every
    pair, as (margin, witness, worst_pair, verdict)."""
    pruned = scan()
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_run_pair_min", _every_pair)
        every = scan()
    return [(rep.margin, rep.witness, rep.meta["worst_pair"], rep.verdict)
            for rep in (pruned, every)]


def _prune_map(name):
    if name == "z + z^3":
        return HarmonicMap.from_analytic(from_series([1.0, 0.0, 1.0], description="z + z^3"))
    return _pair_map(name)


@pytest.mark.parametrize("name", PRUNE_MAPS)
def test_pruned_scans_match_all_pairs(monkeypatch, name):
    f = _prune_map(name)
    radius = f.domain_radius
    scans = [lambda n=n: curve_simplicity(f, 0.9 * radius, n=n) for n in (1024, 2048)]
    scans.append(lambda: injectivity_scan(f, n_points=2000, r_max=0.95 * radius))
    scans += [lambda r=r: check_pairwise_bound(f, r * radius, n=2048) for r in (0.5, 0.9)]
    for scan in scans:
        pruned, every = _both_paths(monkeypatch, scan)
        assert pruned == every


@pytest.mark.parametrize("name", ["koebe", "f_k", "h0", "h1", "z + 2z^2", "z + z^3"])
def test_pruned_injectivity_matches_all_pairs_at_scale(monkeypatch, name):
    f = _prune_map(name)
    pruned, every = _both_paths(monkeypatch, lambda: injectivity_scan(f, n_points=8000))
    assert pruned == every


@pytest.mark.parametrize("name", ["identity", "h1", "z + 2z^2"])
def test_pruned_curve_matches_all_pairs_at_scale(monkeypatch, name):
    f = _prune_map(name)
    pruned, every = _both_paths(monkeypatch, lambda: curve_simplicity(f, 0.9, n=8192))
    assert pruned == every


@pytest.mark.parametrize("n", [256, 1024, 8192])
@pytest.mark.parametrize("name", ["koebe", "h1", "identity", "z + 2z^2"])
def test_curve_values_few_segment_pairs(monkeypatch, name, n):
    # The segment boxes rule out all but a few pairs per segment.
    distance, pairs = oracle._segment_distance, []

    def counting(a1, b1, a2, b2):
        pairs.append(np.broadcast(a1, b1, a2, b2).size)
        return distance(a1, b1, a2, b2)

    monkeypatch.setattr(oracle, "_segment_distance", counting)
    f = _prune_map(name)
    rep = curve_simplicity(f, 0.9 * f.domain_radius, n=n)
    assert sum(pairs) <= 8 * rep.meta["segments"]


@pytest.mark.parametrize("b", [0, 3 - 2j])
@pytest.mark.parametrize("a", [1e-6, np.exp(0.7j), 1e-200, 1e200])
@pytest.mark.parametrize("name", gallery.names())
def test_pair_scans_follow_an_affine_change_of_the_image(name, a, b):
    # a*f + b has the pairs of f at |a| times the distance, so no bound may
    # lean on where the image lies or how it is turned, nor square its
    # coordinates at 1e-200 or 1e200.  The shift stays within about 4e6
    # times the image's size, as at a = 1e-6, so that the image resolves.
    b *= min(1.0, 1e6 * abs(a))
    f = _pair_map(name)
    af = HarmonicMap(h=combination([(a, f.h, 1.0)], b),
                     g=combination([(np.conj(a), f.g, 1.0)]), label=f.label)
    radius = f.domain_radius
    scans = [lambda f: injectivity_scan(f, n_points=200, r_max=0.9 * radius),
             lambda f: curve_simplicity(f, 0.9 * radius)]
    if radius == 1.0:
        scans.append(lambda f: check_pairwise_bound(f, 0.5, n=256))
    for scan in scans:
        base, moved = scan(f), scan(af)
        assert moved.verdict == base.verdict, base.criterion
        assert_allclose(moved.margin, abs(a) * base.margin, rtol=1e-6, err_msg=base.criterion)


def _only_up_to(value):
    """The worst pair function the kernel allows: inf for every pair above at_most."""
    def pair_value(i, j, at_most=np.inf):
        v = value(i, j)
        return np.where(v > at_most, np.inf, v)

    return pair_value


def test_near_pair_min_hands_on_the_least_value_so_far():
    # The starting pairs of this order give (1, 2) at 1.  A kernel that
    # passed less than that as at_most would get inf for the tied (0, 1).
    p = np.arange(4.0) + 0j
    pair_value = _only_up_to(lambda i, j: np.abs(p[j] - p[i]))
    assert oracle._run_pair_min(pair_value, np.array([0, 2, 1, 3]), p, p) == (1.0, 0, 1)


@pytest.mark.parametrize("block", BLOCKS)
def test_near_pair_min_keeps_a_tie_at_the_best_i(block):
    # Every pair ties at 1.  The starting pairs of this order give (0, 4) as
    # the lowest; runs of two are [0, 5], [1, 2], [3, 4].  The tie (0, 1)
    # lies only in the run pair of the first two runs: its least item is the
    # best i, 0, and the larger of the runs' least items, 1, is below the
    # best j, 4.
    def pair_value(i, j, at_most=np.inf):
        return np.ones(np.broadcast(i, j).shape)

    p = np.zeros(6, complex)
    with mock.patch.object(oracle, "PAIR_BLOCK", block), mock.patch.object(oracle, "RUN", 2):
        assert oracle._run_pair_min(pair_value, np.array([0, 5, 1, 2, 3, 4]), p, p) == (1.0, 0, 1)


def test_identity_scan_skips_ties_that_cannot_win(monkeypatch):
    # Every pair of the identity ties at 1, and the starting pairs already
    # hold (0, 1).  Valuing the ties of every run pair that holds item 0
    # would take dozens of calls.
    least, calls = oracle._least, []

    def counting(*args):
        calls.append(args)
        return least(*args)

    monkeypatch.setattr(oracle, "_least", counting)
    rep = injectivity_scan(gallery_get("identity"), n_points=2000)
    assert rep.meta["worst_pair"] == [0, 1]
    assert len(calls) <= 4


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -600, 2.0 ** 600])
def test_pair_ratio_batches_bit_for_bit(monkeypatch, scale):
    # The pair ratio values a batch as vals[i] - vals[j] over whole rows of
    # its scratch; IEEE rounding is sign-symmetric, so its bits are those of
    # the textbook ratio.  h1's image lies about 9.9 off the origin.
    pts = sunflower_points(2000)
    captured = []
    monkeypatch.setattr(oracle, "_run_pair_min", lambda ratio, *args: captured.append(ratio))
    rng = np.random.default_rng(24)
    for name in ("koebe", "h1"):
        vals = np.asarray(eval_map(gallery_get(name), pts), dtype=complex) * scale
        oracle._ratio_min(vals, pts, np.arange(pts.size))
        ratio = captured.pop()
        for k in (1, 5, 28):
            # Even items against odd ones, so no pair repeats an item.
            i = 2 * rng.integers(0, pts.size // 2, (oracle.RUN, k, 1))
            j = 2 * rng.integers(0, pts.size // 2, (1, k, oracle.RUN)) + 1
            want = np.abs(vals[j] - vals[i]) / np.abs(pts[j] - pts[i])
            got = ratio(i, j, np.inf)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, k)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 80), gap=st.integers(1, 2),
       kind=st.sampled_from(["points", "segments", "ratios"]),
       run=st.sampled_from([3, oracle.RUN]), block=st.sampled_from(BLOCKS),
       scale=st.sampled_from([2.0 ** -600, 1.0, 2.0 ** 600]), data=st.data())
def test_near_pair_min_matches_sorted_pairs(m, gap, kind, run, block, scale, data):
    # Integer coordinates in a small range, so duplicate points, touching
    # segments (a bound of 0) and tied pair values are common; m is seldom a
    # multiple of the run length, so the last run is padded.  The kernel
    # sees them times a power of two whose squares underflow or overflow, and
    # the values are the exact multiples of those at scale 1.
    coords = st.lists(st.integers(0, 5), min_size=m, max_size=m)
    p = np.array(data.draw(coords)) + 1j * np.array(data.draw(coords))
    lo = hi = p
    z = None
    if kind == "segments":
        q = np.array(data.draw(coords)) + 1j * np.array(data.draw(coords))
        lo = np.minimum(p.real, q.real) + 1j * np.minimum(p.imag, q.imag)
        hi = np.maximum(p.real, q.real) + 1j * np.maximum(p.imag, q.imag)

        def unscaled(i, j):
            return np.minimum.reduce([_point_segment_distance(p[j], p[i], q[i]),
                                      _point_segment_distance(q[j], p[i], q[i]),
                                      _point_segment_distance(p[i], p[j], q[j]),
                                      _point_segment_distance(q[i], p[j], q[j])])
    elif kind == "ratios":
        cells = np.array(data.draw(st.lists(st.integers(0, 99), min_size=m, max_size=m,
                                            unique=True)))
        z = cells % 10 + 1j * (cells // 10)

        def unscaled(i, j):
            return np.abs(p[j] - p[i]) / np.abs(z[j] - z[i])
    else:
        def unscaled(i, j):
            return np.abs(p[j] - p[i])

    def value(i, j, at_most=np.inf):
        return scale * unscaled(i, j)

    lo, hi = lo * scale, hi * scale
    pair_value = _only_up_to(value) if data.draw(st.booleans()) else value
    order = np.array(data.draw(st.permutations(range(m))))
    with np.errstate(divide="ignore", invalid="ignore"):
        table = value(np.arange(m)[:, None], np.arange(m)[None, :])
    expect = min(((table[i, j], i, j) for i in range(m) for j in range(i + gap, m)),
                 default=(np.inf, -1, -1))
    with mock.patch.object(oracle, "PAIR_BLOCK", block), \
            mock.patch.object(oracle, "RUN", run):
        assert oracle._run_pair_min(pair_value, order, lo, hi, z, gap=gap) == expect


@pytest.mark.parametrize("scan", [
    lambda f: injectivity_scan(f, n_points=2000),
    lambda f: check_pairwise_bound(f, 0.5, n=2048),
    lambda f: curve_simplicity(f, 0.9, n=2048),
], ids=["injectivity", "pairwise", "curve"])
def test_pair_batches_share_one_scratch(monkeypatch, scan):
    # Each scan allocates its scratch once: the values of every batch, and
    # of the starting pairs, lie in the same memory.
    returned = []
    run_pair_min = oracle._run_pair_min

    def recording(pair_value, *args, **kwargs):
        def record(i, j, at_most):
            returned.append(pair_value(i, j, at_most))
            return returned[-1]

        return run_pair_min(record, *args, **kwargs)

    monkeypatch.setattr(oracle, "_run_pair_min", recording)
    scan(gallery_get("identity"))
    assert len(returned) > 2
    assert all(np.shares_memory(returned[0], v) for v in returned[1:])


def test_pruned_scans_keep_memory_flat():
    # Run pairs are valued in batches, so the peak stays a few MB at any n,
    # also on the identity, where every run pair is kept.
    koebe, identity = gallery_get("koebe"), gallery_get("identity")
    for scan in (lambda: injectivity_scan(koebe, n_points=8000),
                 lambda: injectivity_scan(identity, n_points=8000),
                 lambda: curve_simplicity(koebe, 0.9, n=8192)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def test_curve_segment_test_peak():
    # The starting pairs, where every segment is near the one two places on,
    # set the peak of an n-8192 curve.  The reference segment test reads
    # 2 585 KiB there; the bound is that plus 12 %.
    koebe = gallery_get("koebe")
    curve_simplicity(koebe, 0.9, n=8192)
    tracemalloc.start()
    try:
        curve_simplicity(koebe, 0.9, n=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2895 * 1024
