"""Direct injectivity/orientation oracles: layouts, scans, and curve tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from harmonicmaps import (
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
from harmonicmaps.mappings import AnalyticFunction, constant_function, eval_map


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


@pytest.mark.parametrize("scan", [
    lambda f: injectivity_scan(f, points=np.array([0.1, 0.5, -0.3, 0.5j])),
    lambda f: check_pairwise_bound(f, 0.5, n=16),
    lambda f: curve_simplicity(f, 0.5, n=64),
], ids=["injectivity", "pairwise-bound", "curve-simplicity"])
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


def test_curve_needs_resolution():
    with pytest.raises(ValueError):
        curve_simplicity(gallery_get("identity"), 0.5, n=32)


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
# the blocked pair-minimum kernel against brute force over all pairs


def _brute_ratio(vals, pts):
    iu, ju = np.triu_indices(pts.size, k=1)
    ratio = np.abs(vals[ju] - vals[iu]) / np.abs(pts[ju] - pts[iu])
    k = int(np.argmin(ratio))
    return float(ratio[k]), int(iu[k]), int(ju[k])


def _brute_curve(f, rho, n):
    """Margin, witness and worst pair of the segment-pair test, over all pairs at once."""
    circle = rho * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.asarray(eval_map(f, circle), dtype=complex)
    scale = float(np.max(np.abs(vals - np.mean(vals))))
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(vals)) > 1e-15 * max(scale, 1.0)
    if np.abs(vals[-1] - vals[0]) <= 1e-15 * max(scale, 1.0) and keep[-1]:
        keep[-1] = False
    p, zsrc = vals[keep], circle[keep]
    m = p.size
    a, b = p, np.roll(p, -1)
    iu, ju = np.triu_indices(m, k=2)
    wrap_adjacent = (iu == 0) & (ju == m - 1)
    iu, ju = iu[~wrap_adjacent], ju[~wrap_adjacent]
    a1, b1, a2, b2 = a[iu], b[iu], a[ju], b[ju]

    def sign(u, v, w):
        s, t = v - u, w - u
        d = np.imag(np.conj(s) * t) / np.maximum(np.abs(s) * np.abs(t), 1e-300)
        return np.where(np.abs(d) <= oracle.ORIENT_SLACK, 0.0, np.sign(d))

    def seg_dist(q, u, v):
        w = v - u
        t = np.clip(np.real(np.conj(w) * (q - u)) / np.maximum(np.abs(w) ** 2, 1e-300),
                    0.0, 1.0)
        return np.abs(q - (u + t * w))

    proper = (sign(a1, b1, a2) * sign(a1, b1, b2) < 0) & (sign(a2, b2, a1) * sign(a2, b2, b1) < 0)
    dist = np.minimum.reduce([seg_dist(a2, a1, b1), seg_dist(b2, a1, b1),
                              seg_dist(a1, a2, b2), seg_dist(b1, a2, b2)])
    dist = np.where(proper, 0.0, dist)
    k = int(np.argmin(dist))
    margin = float(dist[k])
    if proper[k] or margin <= oracle.ORIENT_SLACK * max(scale, 1.0):
        margin = 0.0
    return margin, complex(zsrc[iu[k]]), [int(iu[k]), int(ju[k])]


GALLERY_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                  "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}
PAIR_MAPS = [*gallery.names(), "z + 2z^2"]
# One row per block, several rows per block, and all pairs in one block.
BLOCKS = [1, 97, oracle.PAIR_BLOCK]


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
    # Few distinct values, so ties are common.
    table = np.random.default_rng(seed).integers(0, 4, size=(m, m)).astype(float)
    pairs = [(i, j) for i in range(m) for j in range(i + gap, m)]
    expect = min(((table[i, j], i, j) for i, j in pairs), default=(np.inf, -1, -1))
    with mock.patch.object(oracle, "PAIR_BLOCK", block):
        assert oracle._pair_min(m, lambda i, j: table[i, j], gap=gap) == expect
