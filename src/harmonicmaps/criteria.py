"""Sampled univalence and close-to-convexity criteria.

Every checker scans a finite grid and reports evidence, not proof: a verdict
of ``holds-on-samples`` certifies the strict inequality at the sampled points
only.  Reports carry the margin (minimum slack over the grid), the witness
point achieving it, and the grid, so callers can refine.

The checks
----------
* :func:`check_corollary1` -- ``Re Psi_z > |Psi_zbar|`` for a user-supplied
  C^1 comparison function ``phi``.
* :func:`check_theorem1` -- for every unimodular direction ``eps`` the values
  ``W_eps = Psi_z + eps*Psi_zbar`` must lie in an open half-plane through 0
  (equivalently some rotation ``e^{i gamma}W_eps`` has positive real part).
* :func:`check_theoremA` -- ``Re(e^{i gamma} h'(z)) > |g'(z)|`` for some
  fixed gamma (close-to-convexity sufficient condition).
* :func:`check_theoremB` -- the same with both derivatives divided by the
  derivative of a convex univalent comparison function G.
* :func:`check_philike` -- ``Re(z f'(z) / Phi(f(z))) > 0`` for analytic f.

Every scan walks its grid in blocks of ``GRID_BLOCK`` samples
(:func:`_grid_blocks`), so no map call sees more than one block and the full
grid is never built.  corollary1, philike and the Jacobian scan keep only a
running worst sample, so their memory stays flat as the resolution grows;
theorem1 keeps the two partials it reads in every direction (32 bytes per
sample), and the rotation search h' and ``|g'|``.  The block is a multiple of
Newton's seed-ranking block (``herglotz._SEED_BLOCK``): a one-row matrix
product can round otherwise than the same row inside a larger one, and blocks
that start on multiples of it put every target of an inversion with
``phi = f^{-1}`` in the same product as one inversion over the whole grid.
Every report, failures included, is the same at any block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InversionError
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    WirtingerFunction,
    DEFAULT_GRID,
    _check_domain,
    _vanishes,
    composed_wirtinger,
)

VERDICT_HOLDS = "holds-on-samples"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

# Default number of unimodular directions for the directional criterion.
DEFAULT_N_EPSILON = 64
# Default number of coarse rotation candidates before golden-section refinement.
DEFAULT_N_GAMMA = 32
# A wrap gap read off the extreme arguments must exceed pi by this much: far
# above the few-ulp rounding of a float64 gap near pi, far below any margin
# reported.
_GAP_BAND = 1e-9
# Samples per block of a grid scan: a multiple of herglotz._SEED_BLOCK, so
# that Newton ranks each target's seeds in the same matrix product as over
# the whole grid, and small enough that a block's complex arrays (64 KiB)
# are reused from the heap instead of being mapped afresh.
GRID_BLOCK = 4096


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one criterion scan.

    ``margin`` is the exact minimum slack over the sampled set (positive iff
    the criterion holds on samples); ``witness`` is a point achieving it.
    ``gamma`` carries the rotation angle found, when the criterion involves
    one.  ``meta`` holds checker-specific extras (resolution, assumptions).
    """

    criterion: str
    verdict: str
    margin: float
    witness: complex | None = None
    gamma: float | None = None
    grid: GridSpec | dict | None = None
    meta: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == VERDICT_HOLDS

    def to_dict(self):
        from .jsonio import report_to_dict

        return report_to_dict(self)


def _verdict_from_margin(margin: float) -> str:
    return VERDICT_HOLDS if margin > 0.0 else VERDICT_VIOLATED


def _failure_report(criterion, grid, failure, witness=None,
                    verdict=VERDICT_INCONCLUSIVE, **meta):
    """The report of a scan stopped by ``failure``: margin NaN when inconclusive, else 0."""
    margin = float("nan") if verdict == VERDICT_INCONCLUSIVE else 0.0
    return CheckReport(criterion, verdict, margin,
                       witness=None if witness is None else complex(witness), grid=grid,
                       meta={"failure": failure, **meta})


def _grid_blocks(grid, evaluate, first=0):
    """The walk of every scan: ``(start, points, evaluate(points))`` for each block of
    GRID_BLOCK samples of ``grid`` from sample ``first`` on, in grid order, the origin
    first and then radii-major.

    It raises what one evaluation over the whole grid would: any error but a failed
    inversion as it comes, and else, once every block is valued, the failed inversion
    whose target misses its bound by the largest factor, the first on ties.  Blocks
    valued after a failed one are not handed on.
    """
    failed = None
    for lo in range(0, grid.size, GRID_BLOCK):
        start = max(lo, first)
        pts = grid.samples(start, min(lo + GRID_BLOCK, grid.size))
        try:
            value = evaluate(pts)
        except InversionError as exc:
            if failed is None or (exc.best_residual / exc.bound
                                  > failed.best_residual / failed.bound):
                failed = exc
            continue
        if failed is None:
            yield start, pts, value
    if failed is not None:
        raise failed


def _check_grid_domain(maps, grid):
    """Raise the DomainError ``_check_domain`` would raise over the whole grid, where
    ``|z|`` peaks on the outer ring."""
    ring = grid.samples(grid.size - grid.n_angular, grid.size)
    for fn in maps:
        _check_domain(fn, ring)


def _domain_report(criterion, maps, grid):
    """Inconclusive report if a sample lies outside the domain of one of ``maps``, or None."""
    try:
        _check_grid_domain(maps, grid)
    except DomainError as exc:
        return _failure_report(criterion, grid, str(exc))
    return None


def _first_nonfinite(values):
    """Index of the first value that is not finite, or None."""
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite))


def _nonfinite_report(criterion, values, pts, grid):
    """Inconclusive report at the first sample whose value is not finite, or None."""
    k = _first_nonfinite(values)
    return None if k is None else _failure_report(criterion, grid, "non-finite evaluation", pts[k])


def _nonfinite_at(criterion, grid, k):
    """Inconclusive report at grid sample ``k``, whose value is not finite."""
    return _failure_report(criterion, grid, "non-finite evaluation", grid.point(k))


class _WorstSample:
    """A scan's least value and its sample, as ``np.argmin`` picks it over the whole
    grid (the first on ties), and its first sample whose value is not finite.

    Samples are keyed by grid index, so blocks may come in any order.
    """

    def __init__(self):
        self.least, self.bad = (np.inf, 0), None

    def add(self, start, values):
        """Take in the values of samples ``start, start + 1, ...``."""
        if (k := _first_nonfinite(values)) is not None:
            self.bad = start + k if self.bad is None else min(self.bad, start + k)
        elif self.bad is None:
            k = int(np.argmin(values))
            self.least = min(self.least, (float(values[k]), start + k))

    def report(self, criterion, grid):
        """The least value (holds iff positive); inconclusive if a value is not finite."""
        if self.bad is not None:
            return _nonfinite_at(criterion, grid, self.bad)
        value, k = self.least
        return CheckReport(criterion, _verdict_from_margin(value), value,
                           witness=grid.point(k), grid=grid)


def _worst_sample(criterion, grid, maps, value):
    """Report the least of ``value(points)`` over the grid (holds iff positive).

    A sample outside the domain of one of ``maps`` raises DomainError first.
    """
    _check_grid_domain(maps, grid)
    worst = _WorstSample()
    for start, _, values in _grid_blocks(grid, value):
        worst.add(start, values)
    return worst.report(criterion, grid)


class _LeastModulus:
    """``_vanishes(v, v)`` over a scan's blocks, which come in grid order: the first
    least ``|v|`` (a NaN first, as with ``np.argmin``) and the largest finite one."""

    def __init__(self):
        self.size, self.index, self.scale = np.inf, None, 0.0

    def add(self, start, values):
        size = np.abs(values)
        k = int(size.argmin())
        if self.size == self.size and not size[k] >= self.size:
            self.size, self.index = size[k], start + k
        self.scale = max(self.scale, size.max(where=size < np.inf, initial=0.0))

    def vanishes(self):
        """The grid index where v vanishes so far, or None."""
        return None if _vanishes(self.size, self.scale) is None else self.index


def _quietly(quiet, compute):
    """``compute()``, with NumPy's floating-point warnings off when ``quiet``.

    A scan divides by a value that may vanish only where it does not vanish on
    the samples so far, as one pass over the whole grid divides only where it
    does not vanish at all; it still divides there, quietly, since a NaN in a
    later block can clear the vanishing after all.
    """
    if not quiet:
        return compute()
    with np.errstate(all="ignore"):
        return compute()


def golden_section_max(fn, lo, hi, tol=1e-6):
    """Deterministic golden-section maximization of ``fn`` on [lo, hi].

    Returns ``(x, fn(x))``.  Assumes unimodality on the bracket; used only to
    polish a coarse scan, so mild multimodality merely returns a local optimum.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def _widest_gap(args):
    """``(gap, lo)``: the widest gap among two or more arguments and the argument opening it.

    Ties: the wrap gap wins, then the first of equal gaps in angle order.  ``lo``
    closes its run of equal arguments, so the sample opening the gap is the last
    index holding ``lo``.
    """
    sorted_args = np.sort(args)
    diffs = np.diff(sorted_args)
    wrap = sorted_args[0] + 2.0 * np.pi - sorted_args[-1]
    k = int(np.argmax(diffs))
    return (wrap, sorted_args[-1]) if wrap >= diffs[k] else (diffs[k], sorted_args[k])


def _wrap_angle(a):
    """Map an angle to (-pi, pi]."""
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a == -np.pi else a


def _argument_candidates(psi_z, size_z, size_zb, diff):
    """Indices of the samples that can hold the least or greatest argument of some W_eps,
    or None where valuing only those would save nothing.

    ``size_z``, ``size_zb`` and ``diff`` are ``|Psi_z|``, ``|Psi_zbar|`` and their
    difference, of one sign and never 0; they are overwritten as scratch.  When
    ``q = |Psi_zbar|/|Psi_z| < 1``, ``W_eps = Psi_z (1 + eps Psi_zbar/Psi_z)`` has its
    argument within ``arcsin(q)`` of ``arg Psi_z`` for every unimodular ``eps``.  With
    ``q > 1`` (or a non-finite ``q``) the argument can be anywhere: None.

    The slop: with ``u = 2**-53`` and ``R = (|Psi_z| + |Psi_zbar|)/(|Psi_z| - |Psi_zbar|)``,
    ``fl(e^{it})`` is off by at most 2u, the complex multiply by 3u of ``|Psi_zbar|``
    and the add by u of ``|Psi_z| + |Psi_zbar|``.  So W is off by at most
    ``6u (|Psi_z| + |Psi_zbar|)``, which turns it by at most ``(pi/2) 6u R`` since
    ``|W| >= |Psi_z| - |Psi_zbar|``.  ``q`` is off by 3u of itself, which moves
    ``arcsin(q)`` by at most ``3u R``.  That is below ``13u R``; the slop takes
    ``128u |Psi_z| / diff``, at least ``64u R``, which also covers the rounding of
    ``diff``.  The two ``arctan2``, the ``arcsin`` and the sums add a few ulps of pi,
    and the slop takes 16.

    Each sample's computed argument thus lies in ``[lo, hi] = arg Psi_z -+ (arcsin(q) +
    slop)`` in every direction, when that interval stays inside (-pi, pi).  Among
    those samples let L be the greatest ``lo`` and H the least ``hi``.  A sample is
    kept if its interval reaches +-pi or is NaN, if ``hi >= L``, or if ``lo <= H``.
    Any other sample's argument is strictly below that of the sample setting L and
    strictly above that of the sample setting H, in every direction.  Those two
    also bound every wrap gap by ``H + 2pi - L``; when that is not beyond pi by
    ``_GAP_BAND``, every direction sorts all samples anyway: None, as when every
    sample is kept.
    """
    if not diff.min() > 0.0:
        return None
    half = np.arcsin(np.divide(size_zb, size_z, out=size_zb), out=size_zb)
    slop = np.divide(size_z, diff, out=diff)
    slop *= 128.0 * 2.0 ** -53
    slop += 16.0 * np.spacing(np.pi)
    half += slop
    center = np.arctan2(psi_z.imag, psi_z.real, out=size_z)
    lo = np.subtract(center, half, out=diff)
    hi = np.add(center, half, out=half)
    inside = lo > -np.pi
    inside &= hi < np.pi
    greatest_lo = lo.max(where=inside, initial=-np.inf)
    least_hi = hi.min(where=inside, initial=np.inf)
    if least_hi + 2.0 * np.pi - greatest_lo <= np.pi + _GAP_BAND:
        return None
    keep = ~inside
    keep |= hi >= greatest_lo
    keep |= lo <= least_hi
    kept = np.flatnonzero(keep)
    return None if kept.size == keep.size else kept


def _one_direction(psi_z, psi_zb):
    """Whether direction 0's gap is every direction's: ``Psi_zbar`` is zero at every
    sample, so each ``W_eps`` is ``Psi_z`` up to the sign of a zero part, and no
    ``Psi_z`` lies on the negative real axis, the one place where that sign moves
    an argument (between pi and -pi)."""
    return not psi_zb.any() and not np.any((psi_z.imag == 0.0) & (psi_z.real < 0.0))


def _composed_partials(criterion, f, phi, grid, take):
    """Hand ``take`` each block's ``(start, Psi_z, Psi_zbar)``; a failed scan's report, or None.

    The scan fails as one evaluation over the whole grid would: a sample outside
    f's domain first, then an evaluation error (see :func:`_grid_blocks`), and
    last the first sample with a non-finite partial.  No block is taken after that
    sample, though every block is valued.
    """
    bad = None
    try:
        _check_grid_domain((f,), grid)
        partials = _grid_blocks(grid, lambda pts: composed_wirtinger(f, phi, pts))
        for start, _, (psi_z, psi_zb) in partials:
            if bad is None:
                if (k := _first_nonfinite(psi_z + psi_zb)) is None:
                    take(start, psi_z, psi_zb)
                else:
                    bad = start + k
    except Exception as exc:  # evaluation failure anywhere -> inconclusive
        return _failure_report(criterion, grid, str(exc))
    return None if bad is None else _nonfinite_at(criterion, grid, bad)


def check_corollary1(f: HarmonicMap, phi: WirtingerFunction,
                     grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Scan ``Re Psi_z - |Psi_zbar|`` for ``Psi = phi(f, conj f)`` over the grid.

    A positive margin certifies, on the samples, the sufficient condition for
    injectivity of ``f`` through the comparison function ``phi``.  The grid is
    valued block by block, keeping only the worst sample.
    """
    worst = _WorstSample()
    fail = _composed_partials("corollary1", f, phi, grid,
                              lambda start, z, zb: worst.add(start, np.real(z) - np.abs(zb)))
    return worst.report("corollary1", grid) if fail is None else fail


def check_theorem1(f: HarmonicMap, phi: WirtingerFunction,
                   grid: GridSpec = DEFAULT_GRID,
                   n_epsilon: int = DEFAULT_N_EPSILON) -> CheckReport:
    """Directional half-plane criterion over every unimodular direction ``eps``.

    ``W_eps(z) = Psi_z + eps*Psi_zbar`` must avoid 0 for every ``eps``: it vanishes for
    some ``eps`` iff ``|Psi_z| = |Psi_zbar|``, so a zero of that difference at a sample,
    or both of its signs on the grid, is violated ("W vanishes") at the sample nearest a
    zero, ``epsilon`` being the direction that kills W there.  W must also fit in an open
    half-plane for each of ``n_epsilon`` sampled ``eps``: the largest circular gap among
    its arguments must exceed pi.  The margin is the worst slack ``(gap - pi)/2``,
    and ``gamma`` the rotation for the worst direction (from the gap midpoint, no search).

    Where ``Psi_zbar`` is zero at every sample (``Psi`` analytic, as when f is
    analytic and phi is ``f^{-1}`` or linear in w alone), ``W_eps`` is ``Psi_z`` in
    every direction up to the sign of a zero part, and that sign moves an
    argument only at +-pi.  So unless some ``Psi_z`` lies on the negative real
    axis with a zero imaginary part, direction 0 alone is valued, at every
    sample, its gap is every direction's, and its arguments give the witness.

    Otherwise every direction is read one way.  Only a few samples can hold its least or
    greatest argument: when ``|Psi_zbar| < |Psi_z|``, ``arg W_eps`` stays within
    ``arcsin(|Psi_zbar|/|Psi_z|)`` (plus rounding) of ``arg Psi_z`` for every ``eps``
    (:func:`_argument_candidates`); where that thins nothing, every sample is kept.
    Directions are valued at the kept samples in blocks, one row each, that fill the
    scratch one direction over all samples needs; each reads its wrap gap off its
    row's least and greatest argument, which are those of all samples, with their
    bits.  A direction whose wrap read fails values every sample and sorts.  The
    witness is the last sample whose argument, among the worst direction's own
    arguments at every sample, opens its gap.
    """
    if n_epsilon < 4:
        raise ValueError("need at least 4 unimodular directions")
    blocks = []
    if (fail := _composed_partials("theorem1", f, phi, grid,
                                   lambda start, z, zb: blocks.append((z, zb)))) is not None:
        return fail
    # The partials over the whole grid; a grid of one block needs no copy.
    psi_z, psi_zb = (np.concatenate(p) if len(p) > 1 else p[0] for p in zip(*blocks))
    del blocks
    # The directions' scratch; until they are valued it holds the sizes below.
    w = np.empty_like(psi_z)
    re, im, args = np.empty(w.shape), np.empty(w.shape), np.empty(w.shape)
    # |W_eps| >= ||Psi_z| - |Psi_zbar||, with equality at one eps, and
    # |W_eps| <= |Psi_z| + |Psi_zbar|, the scale "vanishes" is judged against.
    size_z, size_zb = np.abs(psi_z, out=re), np.abs(psi_zb, out=im)
    diff = np.subtract(size_z, size_zb, out=args)
    scale = np.add(size_z, size_zb, out=w.view(float)[:w.size])
    if _vanishes(diff, scale) is not None or (diff.max() > 0.0 > diff.min()):
        k = int(np.abs(diff).argmin())
        eps = float(np.angle(-psi_z[k] * np.conj(psi_zb[k])) % (2.0 * np.pi))
        return _failure_report("theorem1", grid, "W vanishes", grid.point(k), VERDICT_VIOLATED,
                               n_epsilon=n_epsilon, epsilon=eps)
    one = _one_direction(psi_z, psi_zb)
    kept = None if one else _argument_candidates(psi_z, size_z, size_zb, diff)
    # One-row views, so that a one-row block (each where none is dropped) meets no broadcast.
    rows_z, rows_zb = psi_z[None], psi_zb[None]
    z_kept, zb_kept = (rows_z, rows_zb) if kept is None else (rows_z[:, kept], rows_zb[:, kept])
    del size_z, size_zb, diff, scale
    eps_angles = 2.0 * np.pi * np.arange(n_epsilon) / n_epsilon
    units = np.exp(1j * eps_angles)[:, None]
    views = {}  # the scratch's first n items by n: a lookup costs less than slicing

    def arguments(eps, z, zb):
        """The arguments of W at the sample rows ``z``, ``zb``, one row per direction in ``eps``."""
        rows = w[:eps.size * z.size].reshape(eps.size, z.size)
        np.multiply(eps, zb, out=rows)
        np.add(z, rows, out=rows)
        # np.angle's arctan2 over contiguous copies of W's parts: the same
        # bits in half the time of the strided views.
        n = rows.size
        if n not in views:
            views[n] = re[:n], im[:n], w[:n].real, w[:n].imag, args[:n]
        re_n, im_n, w_re, w_im, args_n = views[n]
        np.copyto(re_n, w_re)
        np.copyto(im_n, w_im)
        return np.arctan2(im_n, re_n, out=args_n).reshape(rows.shape)

    # Each row's wrap gap is read off its least and greatest argument, which
    # opens it; beyond pi by _GAP_BAND it is the widest gap, with the sorted
    # scan's bits (as Python floats, which round alike and cost less).  A
    # direction whose read fails values every sample, which overwrites the
    # block, so every row's extremes are taken first; where nothing was
    # dropped the block is that direction at every sample.
    gaps = []
    read = units[:1] if one else units
    # A block fills at most half the scratch: two directions over h0's
    # 22 442 kept samples at 160x384, with the partials, spill a 2 MiB L2.
    per_block = max(1, w.size // 2 // z_kept.size)
    for start in range(0, read.shape[0], per_block):
        eps = read[start:start + per_block]
        block = arguments(eps, z_kept, zb_kept)
        least, greatest = block.min(axis=1).tolist(), block.max(axis=1).tolist()
        for i, top in enumerate(greatest):
            wrap = least[i] + 2.0 * np.pi - top
            if wrap > np.pi + _GAP_BAND:
                gaps.append((wrap, top))
            else:
                full = block[0] if kept is None else arguments(eps[i:i + 1], rows_z, rows_zb)[0]
                gaps.append(_widest_gap(full))
    del z_kept, zb_kept, kept  # so the worst direction's read below peaks no higher
    # Read off direction 0 alone, every direction's gap is that one, and the
    # first of equal margins is the worst; its block is still direction 0 at
    # every sample (a sort takes a copy), so the witness needs no read.
    margins = [(gap - np.pi) / 2.0 for gap, _ in gaps]
    j = int(np.argmin(margins))
    gap, lo = gaps[j]
    row = block[0] if one else arguments(units[j:j + 1], rows_z, rows_zb)[0]
    edge = int(np.flatnonzero(row == lo)[-1])
    mid = float(lo + gap / 2.0)
    return CheckReport("theorem1", _verdict_from_margin(margins[j]), float(margins[j]),
                       witness=grid.point(edge), gamma=_wrap_angle(-(mid + np.pi)),
                       grid=grid, meta={"n_epsilon": n_epsilon,
                                        "worst_epsilon": float(eps_angles[j])})


def _rotation_search(criterion, f, G, grid, n_gamma, meta):
    """Best rotation gamma for ``Re(e^{i gamma} h'/G') > |g'/G'|`` on the grid.

    Without a comparison map ``G``, ``G' = 1`` and nothing is divided.  A
    coarse scan of ``n_gamma`` angles over [0, 2pi) picks a winner, and a
    golden-section search polishes it within ``half = 2pi/n_gamma``.

    The least slack over the outer ring (the last ``n_angular`` samples) is at
    least the grid's at each angle, so the coarse scan values the ring at every
    angle and the whole grid only in falling order of that bound, stopping at
    the first angle whose bound is strictly below the best whole-grid value: it
    can neither beat nor tie it.  Equal values go to the lowest angle index, as
    with ``np.argmax`` over all of them.  The slack is superharmonic, so on the
    closed disk it is least on the rim, and the bound is nearly tight.  On that
    bracket a sample's slack ``s`` moves by at most ``reach = |h'|*half`` from
    its value ``s0`` at the winner, since ``|d/dgamma Re(e^{i gamma} h')| <=
    |h'|``.  A sample with ``s0 - reach > min(s0 + reach)`` therefore never
    holds the minimum there (``reach`` also covers rounding), and the polish
    and the witness value only the others.

    h' and ``|g'|`` are filled in one block of the grid at a time, G' is
    tested for vanishing as the blocks come, and the passes after the coarse
    scan work in its scratch.
    """
    if n_gamma < 8:
        raise ValueError("need at least 8 rotation candidates")
    if (fail := _domain_report(criterion, (f,) if G is None else (f, G), grid)) is not None:
        return fail
    n = grid.size
    hp, gp_abs = np.empty(n, dtype=complex), np.empty(n)
    least = _LeastModulus()
    bad = None

    def derivatives(pts):
        return f.h.deriv(pts), f.g.deriv(pts), None if G is None else G.deriv(pts)

    for start, pts, (h_b, g_b, Gp) in _grid_blocks(grid, derivatives):
        stop = start + pts.size
        if Gp is not None:
            least.add(start, Gp)
            h_b, g_b = _quietly(least.vanishes() is not None, lambda: (h_b / Gp, g_b / Gp))
        hp[start:stop] = h_b
        g_b = np.abs(g_b, out=gp_abs[start:stop])
        if bad is None and (k := _first_nonfinite(h_b + g_b)) is not None:
            bad = start + k
    if (kz := least.vanishes()) is not None:
        return _failure_report(criterion, grid, "G' vanishes at a sample", grid.point(kz), **meta)
    if bad is not None:
        return _nonfinite_at(criterion, grid, bad)
    rotated, slack = np.empty_like(hp), np.empty(n)

    def slack_at(gamma, hp, gp_abs):
        """``Re(e^{i gamma} h') - |g'|`` per sample, written into scratch."""
        n = hp.size
        np.multiply(np.exp(1j * gamma), hp, out=rotated[:n])
        return np.subtract(rotated[:n].real, gp_abs, out=slack[:n])

    candidates = 2.0 * np.pi * np.arange(n_gamma) / n_gamma
    ring = n - grid.n_angular  # the outer circle's samples come last
    bounds = [float(np.min(slack_at(g, hp[ring:], gp_abs[ring:]))) for g in candidates]
    k, best = 0, -np.inf
    for i in sorted(range(n_gamma), key=bounds.__getitem__, reverse=True):
        if bounds[i] < best:
            break
        value = float(np.min(slack_at(candidates[i], hp, gp_abs)))
        if value > best or (value == best and i < k):
            k, best = i, value
    half = 2.0 * np.pi / n_gamma
    s0 = slack_at(candidates[k], hp, gp_abs)
    # reach and s0 -+ reach go in the complex scratch, free until the polish.
    reach, spread = rotated.view(float)[:n], rotated.view(float)[n:]
    np.abs(hp, out=reach)
    # Rounding moves a slack by a few ulps of |h'| + |g'|; 1e-12 of the
    # largest of each covers it.
    slop = 1e-12 * (reach.max() + gp_abs.max())
    reach *= half
    reach += slop
    top = np.min(np.add(s0, reach, out=spread))
    kept = np.flatnonzero(np.subtract(s0, reach, out=spread) <= top)
    if kept.size < n:  # where every sample ties, as on the identity, all are kept
        hp, gp_abs = hp[kept], gp_abs[kept]
    gamma, margin = golden_section_max(lambda g: float(np.min(slack_at(g, hp, gp_abs))),
                                       candidates[k] - half, candidates[k] + half)
    # Keep the coarse winner if polishing drifted into a worse spot.
    if best > margin:
        gamma, margin = candidates[k], best
    gamma = _wrap_angle(gamma)
    witness = kept[int(np.argmin(slack_at(gamma, hp, gp_abs)))]
    return CheckReport(criterion, _verdict_from_margin(margin), margin,
                       witness=grid.point(witness), gamma=gamma, grid=grid,
                       meta={"n_gamma": n_gamma, **meta})


def check_theoremA(f: HarmonicMap, grid: GridSpec = DEFAULT_GRID,
                   n_gamma: int = DEFAULT_N_GAMMA) -> CheckReport:
    """Search a rotation gamma with ``Re(e^{i gamma} h'(z)) > |g'(z)|`` on samples.

    The margin reported is ``max_gamma min_z`` of the slack as far as a
    golden-section polish of the best of ``n_gamma`` coarse angles finds it,
    and the gamma found is recorded.  A negative margin means no rotation
    works on this grid, and a non-finite derivative makes the scan
    inconclusive.  In the violated region ``min_z`` is the least of many
    sinusoids in gamma, and the polished best of the coarse angles can fall
    short of the maximum: on 73 of 4 000 random cubic maps (20x48 grid,
    r_max 0.9) it was below a scan of 8 192 angles, by up to 9.1e-3, with no
    verdict changed.  The coarse scan values the whole grid only at angles
    whose outer-ring bound can still win, and the polish only the samples that
    the Lipschitz bound ``|d/dgamma Re(e^{i gamma} h')| <= |h'|`` leaves able
    to hold the minimum; neither skip changes the margin or the witness (see
    ``_rotation_search``).
    """
    return _rotation_search("theoremA", f, None, grid, n_gamma, {})


def check_theoremB(f: HarmonicMap, G: AnalyticFunction,
                   grid: GridSpec = DEFAULT_GRID,
                   n_gamma: int = DEFAULT_N_GAMMA) -> CheckReport:
    """Variant of :func:`check_theoremA` with derivatives taken relative to G.

    Convexity of G is the caller's responsibility and recorded as an
    assumption in the report, not checked.  Vanishing ``G'`` at a sample,
    judged against the largest finite ``|G'|`` on the grid (see
    :func:`harmonicmaps.mappings._vanishes`), makes the scan inconclusive.
    """
    return _rotation_search("theoremB", f, G, grid, n_gamma, {"assumes_G_convex": True})


def check_philike(f: AnalyticFunction, Phi: AnalyticFunction,
                  grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Scan ``Re(z f'(z) / Phi(f(z)))`` over the grid (limit value at z=0).

    ``Phi(f(z))`` vanishes where :func:`harmonicmaps.mappings._vanishes`
    says so against the largest finite ``|Phi(f(z))|`` away from the origin.
    A zero away from the origin is reported as violated with that witness.
    At the origin the ratio is taken as its limit ``1/Phi'(f(0))`` when
    ``Phi(f(0))`` vanishes and ``f'(0)`` does not, else as 0; when
    ``Phi(f(0))`` and ``Phi'(f(0))`` both vanish there is no limit to take,
    and the scan is inconclusive at the origin.  A non-finite ratio makes
    the scan inconclusive.
    """
    if (fail := _domain_report("philike", (f,), grid)) is not None:
        return fail
    least, worst = _LeastModulus(), _WorstSample()
    # The grid puts the origin first; it is valued apart, below.
    for start, z, denom in _grid_blocks(grid, lambda z: Phi.eval(f.eval(z)), first=1):
        least.add(start, denom)
        ratio = _quietly(least.vanishes() is not None, lambda: np.real(z * f.deriv(z) / denom))
        worst.add(start, ratio)
    if (kz := least.vanishes()) is not None:
        return _failure_report("philike", grid, "Phi(f(z)) vanishes", grid.point(kz),
                               VERDICT_VIOLATED)
    # z f'(z)/Phi(f(z)) tends to 1/Phi'(f(0)) when f'(0) != 0 = Phi(f(0)); a
    # map with f'(0) = 0 is not univalent and, like Phi(f(0)) != 0, gets 0.
    f0 = f.eval(0j)
    origin = 0.0
    if _vanishes(Phi.eval(f0), least.scale) is not None:
        if (dphi := Phi.deriv(f0)) == 0:
            return _failure_report("philike", grid, "Phi'(f(0)) vanishes", 0j)
        if f.deriv(0j) != 0:
            origin = np.real(1.0 / dphi)
    worst.add(0, np.array([origin]))
    return worst.report("philike", grid)
