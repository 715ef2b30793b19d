"""Brute-force verification oracles, independent of every criterion.

Criterion checkers certify inequalities that merely imply univalence; the
oracles attack the conclusion directly at fixed resolution:

* :func:`injectivity_scan` -- O(n^2) pairwise separation of image points on a
  quasi-uniform (sunflower) sample of the disk,
* :func:`jacobian_positivity_scan` -- local sense-preservation on a grid,
* :func:`curve_simplicity` -- does the image of a circle self-intersect?
  (polyline segment-pair test with orientation predicates, plus the winding
  number of the image curve about its centroid).

Verdicts are evidence at the recorded resolution, nothing more.  The pair
scans (and :func:`distortion.check_pairwise_bound`) share one blocked
pair-minimum kernel with a fixed memory ceiling; it breaks ties on
(value, i, j), so the report does not depend on how the pairs were blocked.
"""

from __future__ import annotations

import numpy as np

from .criteria import (
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    CheckReport,
    _nonfinite_report,
    _verdict_from_margin,
)
from .mappings import GridSpec, HarmonicMap, DEFAULT_GRID, eval_map, jacobian

# Collinearity slack for the normalized orientation predicate.
ORIENT_SLACK = 1e-12

# Pairs per block of the pair-minimum kernel (one whole row when a row is longer).
PAIR_BLOCK = 2 ** 15


def sunflower_points(n: int, r_max: float = 0.95) -> np.ndarray:
    """Golden-angle spiral filling the disk ``|z| <= r_max`` quasi-uniformly.

    The k-th point sits at radius ``r_max*sqrt((k+0.5)/n)`` and angle
    ``k*pi*(3-sqrt(5))``; density is nearly constant with no grid anisotropy.
    """
    if n < 1:
        raise ValueError("need at least one point")
    k = np.arange(n)
    radii = r_max * np.sqrt((k + 0.5) / n)
    angles = k * np.pi * (3.0 - np.sqrt(5.0))
    return radii * np.exp(1j * angles)


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
        rows = max(1, min(cols, PAIR_BLOCK // cols))
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


def _ratio(vals, pts):
    """Pair value ``|f(z_j) - f(z_i)| / |z_j - z_i|`` for :func:`_pair_min`."""
    return lambda i, j: np.abs(vals[j] - vals[i]) / np.abs(pts[j] - pts[i])


def injectivity_scan(f: HarmonicMap, n_points: int = 400, r_max: float = 0.95,
                     tol: float = 1e-6, points=None) -> CheckReport:
    """All-pairs injectivity evidence on a disk sample.

    The margin is the worst ratio ``|f(z_i)-f(z_j)| / |z_i-z_j|`` over all
    pairs; the verdict is violated iff that ratio drops to ``tol`` or below
    (two sample points essentially sharing an image), and inconclusive when
    the image of a sample is not finite.

    Parameters
    ----------
    f : HarmonicMap
    n_points : int
        Sample count (>= 50) for the default sunflower layout.
    r_max : float
        Sample disk radius.
    tol : float
        Collision threshold on the ratio (default 1e-6).
    points : ndarray of complex, optional
        Explicit, distinct sample locations overriding the sunflower layout
        (used to place known-colliding pairs exactly).
    """
    if points is None:
        if n_points < 50:
            raise ValueError("need at least 50 sample points")
        pts = sunflower_points(n_points, r_max)
        layout = {"kind": "sunflower", "n": int(n_points), "r_max": float(r_max)}
    else:
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size < 2:
            raise ValueError("need at least two sample points")
        if np.unique(pts).size < pts.size:
            raise ValueError("explicit sample points must be distinct")
        layout = {"kind": "explicit", "n": int(pts.size)}
    vals = np.asarray(eval_map(f, pts), dtype=complex)
    if (fail := _nonfinite_report("injectivity", vals, pts, layout)) is not None:
        return fail
    ratio, i, j = _pair_min(pts.size, _ratio(vals, pts))
    verdict = VERDICT_HOLDS if ratio > tol else VERDICT_VIOLATED
    return CheckReport("injectivity", verdict, ratio,
                       witness=complex(pts[i]), grid=layout,
                       meta={"tol": float(tol), "worst_pair": [i, j]})


def jacobian_positivity_scan(f: HarmonicMap, grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Minimum Jacobian over the grid; positive margin = sense-preserving on samples."""
    pts = grid.points()
    jac = np.asarray(jacobian(f, pts), dtype=float)
    k = int(np.argmin(jac))
    return CheckReport("jacobian-positivity", _verdict_from_margin(float(jac[k])),
                       float(jac[k]), witness=complex(pts[k]), grid=grid)


def _point_segment_distance(p, a, b):
    """Distance from points p to segments [a, b] (all arrays, elementwise)."""
    u = b - a
    denom = np.maximum(np.abs(u) ** 2, 1e-300)
    t = np.clip(np.real(np.conj(u) * (p - a)) / denom, 0.0, 1.0)
    return np.abs(p - (a + t * u))


def curve_simplicity(f: HarmonicMap, rho: float, n: int = 256) -> CheckReport:
    """Does f map the circle ``|z| = rho`` onto a simple closed polyline?

    Builds the closed image polyline on n circle points, collapses duplicate
    consecutive vertices, and tests every non-adjacent segment pair: a proper
    crossing (strict opposite orientations both ways) or a pair at distance
    ~0 (touching or collinear overlap) makes the verdict violated.  The
    margin is the minimum distance between non-adjacent segments (0 when they
    intersect), and the winding number of the polyline about its centroid is
    reported alongside (1 for a simple positively-oriented image).  A
    polyline of fewer than four vertices is degenerate (violated), and a
    non-finite image makes the verdict inconclusive.
    """
    if n < 64:
        raise ValueError("need at least 64 circle points")
    grid = {"kind": "circle", "rho": float(rho), "n": int(n)}
    circle = rho * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.asarray(eval_map(f, circle), dtype=complex)
    if (fail := _nonfinite_report("curve-simplicity", vals, circle, grid)) is not None:
        return fail
    scale = float(np.max(np.abs(vals - np.mean(vals))))
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(vals)) > 1e-15 * max(scale, 1.0)
    if np.abs(vals[-1] - vals[0]) <= 1e-15 * max(scale, 1.0) and keep[-1]:
        keep[-1] = False
    p = vals[keep]
    zsrc = circle[keep]
    m = p.size
    # Below four segments the only non-adjacent pair, if any, is the wrap pair.
    if m < 4:
        return CheckReport("curve-simplicity", VERDICT_VIOLATED, 0.0,
                           witness=complex(circle[0]), grid=grid,
                           meta={"failure": "image polyline degenerate"})
    a, b = p, np.roll(p, -1)

    def orient(u, v, w):
        """Sign of the normalized orientation of w relative to segment u->v."""
        s = v - u
        t = w - u
        d = np.imag(np.conj(s) * t) / np.maximum(np.abs(s) * np.abs(t), 1e-300)
        return np.where(np.abs(d) <= ORIENT_SLACK, 0.0, np.sign(d))

    def separation(i, j):
        """Distance between segments i and j; 0 for a proper crossing."""
        a1, b1, a2, b2 = a[i], b[i], a[j], b[j]
        proper = ((orient(a1, b1, a2) * orient(a1, b1, b2) < 0)
                  & (orient(a2, b2, a1) * orient(a2, b2, b1) < 0))
        dist = np.minimum.reduce([
            _point_segment_distance(a2, a1, b1),
            _point_segment_distance(b2, a1, b1),
            _point_segment_distance(a1, a2, b2),
            _point_segment_distance(b1, a2, b2),
        ])
        wrap_adjacent = (i == 0) & (j == m - 1)
        return np.where(wrap_adjacent, np.inf, np.where(proper, 0.0, dist))

    margin, i, j = _pair_min(m, separation, gap=2)
    crossing = margin <= ORIENT_SLACK * max(scale, 1.0)
    # Winding of the polyline about its centroid.
    rel = p - np.mean(p)
    dang = np.angle(np.roll(rel, -1) / rel)
    winding = int(np.round(np.sum(dang) / (2.0 * np.pi)))
    verdict = VERDICT_VIOLATED if crossing else VERDICT_HOLDS
    return CheckReport("curve-simplicity", verdict,
                       0.0 if crossing else margin,
                       witness=complex(zsrc[i]), grid=grid,
                       meta={"winding": winding,
                             "segments": int(m),
                             "worst_pair": [i, j]})
