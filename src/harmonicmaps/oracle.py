"""Brute-force verification oracles, independent of every criterion.

Criterion checkers certify inequalities that merely imply univalence; the
oracles attack the conclusion directly at fixed resolution:

* :func:`injectivity_scan` -- O(n^2) pairwise separation of image points on a
  quasi-uniform (sunflower) sample of the disk, built once per size and
  shared read-only (:func:`_sunflower_layout`),
* :func:`jacobian_positivity_scan` -- local sense-preservation on a grid,
* :func:`curve_simplicity` -- does the image of a circle self-intersect?
  (an exact segment-pair test, :func:`_segment_distance`, which reads each
  segment end against the other segment once for both its side and its
  distance, plus the winding number of the image curve about its centroid).

Verdicts are evidence at the recorded resolution, nothing more.  The pair
scans (and :func:`distortion.check_pairwise_bound`) share one exact kernel,
:func:`_run_pair_min`.  It starts from the least value of each item against
the next item it may pair with, then values each run of RUN consecutive
items against itself and, of the other run pairs, only those whose image
boxes lie close enough to beat the least value so far.  The runs' boxes are
found once per scan; the run pairs are bounded a chunk at a time, and only
those of a chunk that can still be valued are sorted.  It hands that value, with
its slack, to the pair function as ``at_most``: a pair above it may come
back as inf, so :func:`curve_simplicity` runs the full segment test only on
the pairs whose own boxes lie that close.  A batch of run pairs is laid out
so that the pair ratio subtracts over whole rows of its scratch, and a run
pair that ties the least value is searched only if it may hold a lower
pair.  Its report is that of the scan
over every pair, ties included, at flat memory.  Every batch is valued into scratch that
:func:`_scratch` allocates once per scan, so a pair function's result holds
only until its next call, and no batch allocates an array of its own size.
"""

from __future__ import annotations

import functools

import numpy as np

from .criteria import (
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    CheckReport,
    _failure_report,
    _nonfinite_report,
    _worst_sample,
)
from .mappings import GridSpec, HarmonicMap, DEFAULT_GRID, _whole_count, eval_map, jacobian

# Collinearity slack for the normalized orientation predicate.
ORIENT_SLACK = 1e-12

# Pairs per batch of the pair kernel, rounded down to whole run pairs (at least one).
PAIR_BLOCK = 2 ** 14

# Items per run of the pair kernel: a pair of runs is valued, or skipped, as one block.
RUN = 24

# Slack of the run-pair bound, relative to the least value and additive at the
# scale of the boxes' coordinates, so that rounding never drops a pair that
# reaches the minimum.
PRUNE_SLACK = 1e-9


def _sunflower_size(n, r_max):
    """``(n, r_max)`` as an int of at least 1 and a finite positive float.

    Raises ValueError for any other count or radius, such as ``60.5`` points
    or a radius of 0, -0.5 or NaN, none of which makes a sample of that size.
    """
    n = _whole_count(n, 1, "need at least one point")
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
    return n, float(r_max)


def sunflower_points(n: int, r_max: float = 0.95) -> np.ndarray:
    """Golden-angle spiral filling the disk ``|z| <= r_max`` quasi-uniformly.

    The k-th point sits at radius ``r_max*sqrt((k+0.5)/n)`` and angle
    ``k*pi*(3-sqrt(5))``; density is nearly constant with no grid anisotropy.
    ``n`` must be a whole number of at least 1 and ``r_max`` finite and
    positive (ValueError otherwise).
    """
    n, r_max = _sunflower_size(n, r_max)
    k = np.arange(n)
    radii = r_max * np.sqrt((k + 0.5) / n)
    angles = k * np.pi * (3.0 - np.sqrt(5.0))
    return radii * np.exp(1j * angles)


def _run_order(pts):
    """The order in which the pair kernel cuts the sample ``pts`` into runs.

    Runs follow the points row by row over a domain grid, in alternate
    directions; sqrt(m / RUN) rows make a run about as wide as it is tall.
    """
    rows = max(1, int(round(np.sqrt(pts.size / RUN))))
    y = pts.imag - pts.imag.min()
    row = np.minimum((y * (rows / (np.max(y) or 1.0))).astype(int), rows - 1)
    return np.lexsort((np.where(row % 2, -pts.real, pts.real), row))


@functools.lru_cache(maxsize=8)
def _sunflower_layout(n, r_max):
    """``sunflower_points(n, r_max)`` and its :func:`_run_order`, both read-only.

    A layout depends on nothing but its size, so the scans of many maps at one
    size share it: the cache keeps the last 8 sizes, 24 bytes per point each.
    """
    pts = sunflower_points(n, r_max)
    order = _run_order(pts)
    pts.flags.writeable = order.flags.writeable = False
    return pts, order


def _box_slack(lo, hi):
    """PRUNE_SLACK at the scale of the boxes' coordinates, where rounding happens.

    The boxes have ``lo <= hi`` on both axes, so the largest coordinate is
    ``hi``'s largest or ``lo``'s least, negated.
    """
    return PRUNE_SLACK * max(float(hi.view(float).max()), -float(lo.view(float).min()))


def _run_boxes(lo, hi, runs):
    """Centres and half-widths of the boxes of the runs (rows of ``runs``) over
    the item boxes ``lo <= hi``, both axes in one complex number.

    Each box is grown on both axes by the slack of :func:`_box_slack`, so that
    rounding never makes a gap between two boxes too large, nor the largest
    distance between their points too small.
    """
    lo_runs = lo[runs]
    hi_runs = lo_runs if hi is lo else hi[runs]
    low, high = np.empty(len(runs), complex), np.empty(len(runs), complex)
    lo_runs.real.min(axis=1, out=low.real)
    lo_runs.imag.min(axis=1, out=low.imag)
    hi_runs.real.max(axis=1, out=high.real)
    hi_runs.imag.max(axis=1, out=high.imag)
    # The runs hold every item, so their boxes give the items' slack.
    return (low + high) / 2, (high - low) / 2 + _box_slack(low, high) * (1 + 1j)


def _run_distance(boxes, a, b, gaps, out, far=False):
    """Distance between the boxes (from :func:`_run_boxes`) of runs ``a`` and
    ``b``, index tuples that broadcast to the shape of ``gaps``, into ``out``;
    with ``far``, the largest distance between points of the two boxes.

    ``gaps`` is complex scratch that holds both axes at once.  On an axis the
    gap is the distance of the centres less both half-widths, at least 0, and
    the largest distance is that of the centres plus both.  Rounding moves
    them by a few units in the last place of the coordinates, far less than
    the boxes were grown by.  ``np.abs`` of the complex gaps scales as
    ``hypot`` does, so it neither overflows nor flushes to zero at any finite
    scale.
    """
    mid, half = boxes
    np.subtract(mid[b], mid[a], out=gaps)
    axes = gaps.view(float)
    np.abs(axes, out=axes)
    if far:
        gaps += half[b]
        gaps += half[a]
    else:
        gaps -= half[b]
        gaps -= half[a]
        np.maximum(axes, 0.0, out=axes)
    return np.abs(gaps, out=out)


def _aligned(size, dtype):
    """An empty array of ``size`` items that starts on a 64-byte boundary.

    NumPy's allocator aligns to 16 bytes.  On a 2-vCPU AVX-512 Xeon the pair
    ratio ran 12-14 % slower over complex scratch that starts 16, 32 or 48
    bytes past a boundary, so a scan's speed hung on where its scratch fell.
    """
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype)


def _scratch(m, *dtypes):
    """Scratch for the pair values of one scan of :func:`_run_pair_min` on m items.

    Allocates one array per dtype (a complex one on a 64-byte boundary),
    large enough for the m starting pairs or one batch, and returns
    ``view(i, j)``: the arrays' leading items, shaped as ``i`` and ``j``
    broadcast together.
    """
    size = max(m, PAIR_BLOCK, RUN ** 2)
    arrays = [_aligned(size, dtype) if dtype is complex else np.empty(size, dtype)
              for dtype in dtypes]

    def view(i, j):
        pairs = np.broadcast(i, j)
        return [a[:pairs.size].reshape(pairs.shape) for a in arrays]

    return view


def _least(v, i, j, m):
    """Least of the values ``v`` of pairs (i, j) as ``(value, i, j)``, ``i < j``;
    ties go to the lowest pair."""
    vmin = float(v.min(initial=np.inf))
    if vmin == np.inf:
        return np.inf, -1, -1
    x, y = (np.broadcast_to(k, v.shape)[v == vmin] for k in (i, j))
    key = int(np.min(np.minimum(x, y) * m + np.maximum(x, y)))
    return vmin, key // m, key % m


def _run_pair_min(pair_value, order, lo, hi, pts=None, gap=1):
    """Least ``pair_value(i, j)`` over ``|i - j| >= gap`` as ``(value, i, j)``, ``i < j``.

    A pair's value is at least the gap between its items' boxes (corners
    ``lo_k <= hi_k``), over ``|pts_j - pts_i|`` when ``pts`` is given.  The
    least value starts as that of each item of ``order`` against the item
    ``gap`` places after it, cyclically.  Runs of RUN items of ``order`` (the
    last padded with its own last item) are then paired: a run with itself is
    always valued, two runs only while their bound is at most the least value
    so far (with PRUNE_SLACK).  The runs' boxes are found once per scan, and
    the run pairs are bounded in chunks of whole rows of about PAIR_BLOCK;
    of a chunk, only the run pairs whose bound is at most the least value so
    far are sorted by bound and valued.  ``pair_value(i, j, at_most)`` gets
    index arrays that broadcast together (the m starting pairs, then shapes
    (RUN, k, 1) and (1, k, RUN) for k run pairs, so that ``j`` is contiguous
    over its last two axes) and ``at_most``, the least value so far with
    PRUNE_SLACK.  It must return the exact value of every pair whose value is
    at most ``at_most``; for any other pair it may return anything above
    ``at_most``, such as inf.  It must be symmetric and not NaN in range;
    pairs with ``|i - j| < gap`` are dropped.  The returned array need stay
    valid only until the next call, so a pair function may value every batch
    into one scratch (see :func:`_scratch`).  Ties go to the lowest (i, j), as
    in the scan over every pair: a run pair that ties the least value so far
    is searched only if the lowest pair it can hold is below the best (i, j).
    That pair is the least item of the two runs, partnered with the larger of
    the runs' least items: a pair's lower item is at least the run pair's
    least item, and if it is that item, its partner lies in the other run, or
    above it in the same run.
    """
    m = order.size
    runs = np.concatenate([order, np.repeat(order[-1], -m % RUN)]).reshape(-1, RUN)
    n, first = len(runs), runs.min(axis=1)
    per = max(1, PAIR_BLOCK // RUN ** 2)
    apart = _scratch(m, bool, bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        i, j = order, np.roll(order, -gap)
        v = np.asarray(pair_value(i, j, np.inf), dtype=float)
        v[np.abs(i - j) < gap] = np.inf
        best = _least(v, i, j, m)
        image = _run_boxes(lo, hi, runs)
        domain = None if pts is None else _run_boxes(pts, pts, runs)
        # Chunk c bounds the run pairs (a, b) of rows a in [c, c + rows), b in [c, n).
        size = min(n * n, max(PAIR_BLOCK, n))
        gaps, spare = np.empty(size, complex), np.empty(2 * size)
        c = 0
        while c < n:
            cols = n - c
            rows = min(cols, max(1, PAIR_BLOCK // cols))
            shape, a, b = (rows, cols), (slice(c, c + rows), None), (None, slice(c, None))
            count = rows * cols
            chunk, bound = gaps[:count].reshape(shape), spare[:count].reshape(shape)
            _run_distance(image, a, b, chunk, bound)
            if domain is not None:
                far = spare[count:2 * count].reshape(shape)
                bound /= _run_distance(domain, a, b, chunk, far, far=True)
            # A run against itself is always valued, and first; b < a never.
            square = np.arange(rows)
            bound[:, :rows][np.greater.outer(square, square)] = np.nan
            bound = bound.ravel()
            bound[::cols + 1] = -np.inf
            near = (bound <= best[0] * (1.0 + PRUNE_SLACK)).nonzero()[0]
            # The sorted bounds, and the run pairs, go to the free scratch.
            keys = gaps.view(float)[:near.size]
            near = near[bound.take(near, out=keys).argsort(kind="stable")]
            bound = bound.take(near, out=keys)
            b = np.remainder(near, cols, out=spare.view(near.dtype)[:near.size])
            a = np.floor_divide(near, cols, out=near)
            if c:
                a += c
                b += c
            lowest, start, valued = None, 0, None
            while True:
                if valued is not best:  # the least value so far fell
                    valued, at_most = best, best[0] * (1.0 + PRUNE_SLACK)
                    end = int(np.searchsorted(bound, at_most, side="right"))
                stop = min(start + per, end)
                if stop <= start:
                    break
                batch = slice(start, stop)
                ra, rb = a[batch], b[batch]
                # Only a run against itself, one of the first rows, repeats an item.
                repeats = gap > 1 or start < rows
                start = stop
                i, j = runs[ra].T[:, :, None], runs[rb][None]
                v = np.asarray(pair_value(i, j, at_most), dtype=float)
                if repeats:
                    # |i - j| < gap, as i < j + gap and j < i + gap.
                    close, other = apart(i, j)
                    np.less(i, j + gap, out=close)
                    close &= np.less(j, i + gap, out=other)
                    np.copyto(v, np.inf, where=close)
                vmin = float(v.min())
                if vmin > best[0] or vmin == np.inf:
                    continue
                can = True
                if vmin == best[0]:
                    if lowest is None:
                        # The lowest pair each run pair can hold, as i * m + j,
                        # in the free halves of the scratch.
                        low = first.take(a, out=spare.view(a.dtype)[size:size + a.size])
                        lowest = gaps.view(a.dtype)[size:size + a.size]
                        np.maximum(low, first[b], out=lowest)
                        np.minimum(low, first[b], out=low)
                        lowest += np.multiply(low, m, out=low)
                    # A tie wins only with a lower pair.
                    can = lowest[batch] < best[1] * m + best[2]
                    if not can.any():
                        continue
                # Over axis 0 first: whole rows, not strided items.
                won = can & (v.min(axis=0).min(axis=1) == vmin)
                best = min(best, _least(v[:, won], i[:, won], j[:, won], m))
            c += rows
    return best


def _ratio_min(vals, pts, order):
    """Least ``|f(z_j) - f(z_i)| / |z_j - z_i|`` over all pairs, as ``(value, i, j)``."""
    # A point's box is the point itself: a bound per pair would cost as much
    # as the ratio, so ``at_most`` is not used.  vals[i] is copied across the
    # scratch and vals[j] subtracted from it, an inner loop over the k * RUN
    # contiguous items of a batch's rows, not RUN against a broadcast operand;
    # vals[i] - vals[j] is exactly -(vals[j] - vals[i]), so np.abs gives the
    # same bits.
    scratch = _scratch(order.size, complex, float, float)

    def ratio(i, j, at_most=np.inf):
        diff, num, den = scratch(i, j)
        for z, out in ((vals, num), (pts, den)):
            np.copyto(diff, z[i])
            np.abs(np.subtract(diff, z[j], out=diff), out=out)
        return np.divide(num, den, out=num)

    return _run_pair_min(ratio, order, vals, vals, pts)


def injectivity_scan(f: HarmonicMap, n_points: int = 400, r_max: float = 0.95,
                     tol: float = 1e-6, points=None) -> CheckReport:
    """All-pairs injectivity evidence on a disk sample.

    The margin is the worst ratio ``|f(z_i)-f(z_j)| / |z_i-z_j|`` over all
    pairs; the verdict is violated iff that ratio drops to ``tol * s`` or
    below (two sample points essentially sharing an image), where ``s`` is
    the image radius ``max |f(z_k) - mean f|`` over the sample radius
    ``max |z_k|``, and inconclusive when the image of a sample is not finite.

    Parameters
    ----------
    f : HarmonicMap
    n_points : int
        Sample count (a whole number >= 50) for the default sunflower layout,
        which is built once per ``(n_points, r_max)`` and shared read-only
        (see :func:`_sunflower_layout`).
    r_max : float
        Sample disk radius, finite and positive.
    tol : float
        Collision threshold on the ratio, relative to ``s`` (default 1e-6);
        finite and >= 0.
    points : ndarray of complex, optional
        Explicit, distinct sample locations overriding the sunflower layout
        (used to place known-colliding pairs exactly).
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if points is None:
        n_points = _whole_count(n_points, 50, "need at least 50 sample points")
        n_points, r_max = _sunflower_size(n_points, r_max)
        pts, order = _sunflower_layout(n_points, r_max)
        layout = {"kind": "sunflower", "n": n_points, "r_max": r_max}
    else:
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size < 2:
            raise ValueError("need at least two sample points")
        if np.unique(pts).size < pts.size:
            raise ValueError("explicit sample points must be distinct")
        layout, order = {"kind": "explicit", "n": int(pts.size)}, None
    vals = eval_map(f, pts)
    if (fail := _nonfinite_report("injectivity", vals, pts, layout)) is not None:
        return fail
    if order is None:
        order = _run_order(pts)
    ratio, i, j = _ratio_min(vals, pts, order)
    # The image radius over the sample radius: the ratio's own scale.
    scale = float(np.max(np.abs(vals - np.mean(vals)))) / float(np.max(np.abs(pts)))
    verdict = VERDICT_HOLDS if ratio > tol * scale else VERDICT_VIOLATED
    return CheckReport("injectivity", verdict, ratio,
                       witness=complex(pts[i]), grid=layout,
                       meta={"tol": float(tol), "worst_pair": [i, j]})


def jacobian_positivity_scan(f: HarmonicMap, grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Minimum Jacobian over the grid; positive margin = sense-preserving on samples.

    A non-finite Jacobian makes the scan inconclusive.
    """
    return _worst_sample("jacobian-positivity", grid, (f,), lambda pts: jacobian(f, pts))


def _segment_distance(a1, b1, a2, b2):
    """Distance between segments [a1, b1] and [a2, b2] (arrays, elementwise),
    0 for a proper crossing.

    For each end p of one segment against the other, [a, b], it forms
    ``c = conj(b - a) * (p - a)`` once: ``imag(c)`` over ``|b - a| |p - a|``
    is p's normalized orientation, within ORIENT_SLACK of 0 for collinear, and
    ``real(c)`` over ``|b - a|**2``, clipped to [0, 1], is the foot of p on
    [a, b].  A crossing is proper when each segment's ends lie strictly on
    opposite sides of the other.
    """
    dist, proper = np.inf, True
    for a, b, ends in ((a1, b1, (a2, b2)), (a2, b2, (a1, b1))):
        u = b - a
        norm = np.abs(u)
        side = 1.0
        for p in ends:
            c = np.conj(u) * (p - a)
            d = np.imag(c) / np.maximum(norm * np.abs(p - a), 1e-300)
            side = side * np.where(np.abs(d) <= ORIENT_SLACK, 0.0, np.sign(d))
            # Clipped to [0, 1]; two ufuncs cost less than np.clip's wrapper.
            foot = np.minimum(np.maximum(np.real(c) / np.maximum(norm ** 2, 1e-300), 0.0), 1.0)
            del c, d  # before the gap's temporaries, which would raise the peak
            dist = np.minimum(dist, np.abs(p - (a + foot * u)))
        proper = proper & (side < 0)
    return np.where(proper, 0.0, dist)


def curve_simplicity(f: HarmonicMap, rho: float, n: int = 256) -> CheckReport:
    """Does f map the circle ``|z| = rho`` onto a simple closed polyline?

    Builds the closed image polyline on n circle points, collapses duplicate
    consecutive vertices, and tests every non-adjacent segment pair: a proper
    crossing (strict opposite orientations both ways) or a pair at distance
    ~0 (touching or collinear overlap) makes the verdict violated; "duplicate"
    and "~0" are relative to the radius of the image.  The
    margin is the minimum distance between non-adjacent segments (0 when they
    intersect), and the winding number of the polyline about its centroid is
    reported alongside (1 for a simple positively-oriented image).  Scaling
    the image by a power of two scales the margin by it and changes nothing
    else.  A polyline of fewer than four vertices is degenerate (violated), and a
    non-finite image makes the verdict inconclusive.  ``n`` must be a whole
    number of at least 64 and ``rho`` finite and positive (ValueError
    otherwise); a circle outside the domain raises :class:`DomainError`.
    """
    n = _whole_count(n, 64, "need at least 64 circle points")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    grid = {"kind": "circle", "rho": float(rho), "n": n}
    circle = rho * np.exp(2j * np.pi * np.arange(n) / n)
    vals = eval_map(f, circle)
    if (fail := _nonfinite_report("curve-simplicity", vals, circle, grid)) is not None:
        return fail
    scale = float(np.max(np.abs(vals - np.mean(vals))))
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(vals)) > 1e-15 * scale
    if np.abs(vals[-1] - vals[0]) <= 1e-15 * scale and keep[-1]:
        keep[-1] = False
    zsrc = circle[keep]
    m = zsrc.size
    # Below four segments the only non-adjacent pair, if any, is the wrap pair.
    if m < 4:
        return _failure_report("curve-simplicity", grid, "image polyline degenerate",
                               circle[0], VERDICT_VIOLATED)
    # The segment test runs on the polyline times a power of two that brings
    # its radius into [0.5, 1): exact at any scale where it neither overflows
    # nor underflows, so the absolute floors below and the squares in
    # _segment_distance act alike whatever the image's scale.
    unit = np.ldexp(1.0, -int(np.frexp(scale)[1]))
    p = vals[keep] * unit
    a, b = p, np.roll(p, -1)

    lo = np.minimum(a.real, b.real) + 1j * np.minimum(a.imag, b.imag)
    hi = np.maximum(a.real, b.real) + 1j * np.maximum(a.imag, b.imag)
    slack = _box_slack(lo, hi)
    scratch = _scratch(m, bool, bool, float)

    def separation(i, j, at_most=np.inf):
        """Distance between segments i and j, 0 for a proper crossing; inf for
        a pair whose boxes lie more than ``at_most`` (with slack) apart on an axis."""
        reach = at_most + slack
        near, on_axis, out = scratch(i, j)
        near.fill(True)
        for low, high in ((lo.real, hi.real), (lo.imag, hi.imag)):
            for u, w in ((i, j), (j, i)):
                near &= np.less_equal(low[w], high[u] + reach, out=on_axis)
        i, j = (np.broadcast_to(k, near.shape)[near] for k in (i, j))
        dist = _segment_distance(a[i], b[i], a[j], b[j])
        dist[np.abs(i - j) == m - 1] = np.inf  # the wrap pair is adjacent
        out.fill(np.inf)
        out[near] = dist
        return out

    margin, i, j = _run_pair_min(separation, np.arange(m), lo, hi, gap=2)
    margin /= unit
    crossing = margin <= ORIENT_SLACK * scale
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
