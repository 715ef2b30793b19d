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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    WirtingerFunction,
    DEFAULT_GRID,
    SINGULAR_TOL,
    composed_wirtinger,
)

VERDICT_HOLDS = "holds-on-samples"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

# Default number of unimodular directions for the directional criterion.
DEFAULT_N_EPSILON = 64
# Default number of coarse rotation candidates before golden-section refinement.
DEFAULT_N_GAMMA = 32


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


def _nonfinite_report(criterion, values, pts, grid):
    """Inconclusive report at the first sample whose value is not finite, or None."""
    bad = ~np.isfinite(values)
    if not np.any(bad):
        return None
    return CheckReport(criterion, VERDICT_INCONCLUSIVE, float("nan"),
                       witness=complex(pts[int(np.argmax(bad))]), grid=grid,
                       meta={"failure": "non-finite evaluation"})


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


def largest_argument_gap(values):
    """Largest circular gap among the arguments of nonzero complex values.

    Returns ``(gap, mid, edge_index)`` where ``gap`` is the angular width of
    the widest empty arc, ``mid`` its midpoint direction, and ``edge_index``
    the index (into ``values``) of the sample whose argument opens the gap.
    All values lie in an open half-plane through 0 iff ``gap > pi``.
    """
    args = np.angle(values)
    order = np.argsort(args, kind="stable")
    sorted_args = args[order]
    if sorted_args.size == 1:
        return 2.0 * np.pi, sorted_args[0] + np.pi, int(order[0])
    diffs = np.diff(sorted_args)
    wrap = sorted_args[0] + 2.0 * np.pi - sorted_args[-1]
    k = int(np.argmax(diffs))
    if wrap >= diffs[k]:
        gap = wrap
        lo = sorted_args[-1]
        edge = int(order[-1])
    else:
        gap = diffs[k]
        lo = sorted_args[k]
        edge = int(order[k])
    return float(gap), float(lo + gap / 2.0), edge


def _wrap_angle(a):
    """Map an angle to (-pi, pi]."""
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a == -np.pi else a


def _composed_partials(f, phi, pts, criterion, grid):
    """Evaluate (Psi_z, Psi_zbar) on the grid, or an inconclusive report."""
    try:
        psi_z, psi_zb = composed_wirtinger(f, phi, pts)
        psi_z = np.asarray(psi_z, dtype=complex)
        psi_zb = np.asarray(psi_zb, dtype=complex)
    except Exception as exc:  # evaluation failure anywhere -> inconclusive
        return None, CheckReport(criterion, VERDICT_INCONCLUSIVE, float("nan"),
                                 witness=None, grid=grid, meta={"failure": str(exc)})
    fail = _nonfinite_report(criterion, psi_z + psi_zb, pts, grid)
    return ((psi_z, psi_zb) if fail is None else None), fail


def check_corollary1(f: HarmonicMap, phi: WirtingerFunction,
                     grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Scan ``Re Psi_z - |Psi_zbar|`` for ``Psi = phi(f, conj f)`` over the grid.

    A positive margin certifies, on the samples, the sufficient condition for
    injectivity of ``f`` through the comparison function ``phi``.
    """
    pts = grid.points()
    partials, fail = _composed_partials(f, phi, pts, "corollary1", grid)
    if fail is not None:
        return fail
    psi_z, psi_zb = partials
    slack = np.real(psi_z) - np.abs(psi_zb)
    k = int(np.argmin(slack))
    return CheckReport("corollary1", _verdict_from_margin(float(slack[k])),
                       float(slack[k]), witness=complex(pts[k]), grid=grid)


def check_theorem1(f: HarmonicMap, phi: WirtingerFunction,
                   grid: GridSpec = DEFAULT_GRID,
                   n_epsilon: int = DEFAULT_N_EPSILON) -> CheckReport:
    """Directional half-plane criterion over ``n_epsilon`` unimodular directions.

    For each direction ``eps`` the values ``W_eps(z) = Psi_z + eps*Psi_zbar``
    must avoid 0 and fit in an open half-plane through the origin.  The
    half-plane test is the discrete one: sort arguments and require the
    largest circular gap to exceed pi.  The margin is the worst angular slack
    ``(gap - pi)/2`` over all directions, and ``gamma`` is the admissible
    rotation for the worst direction (computed from the gap midpoint, no
    search).
    """
    if n_epsilon < 4:
        raise ValueError("need at least 4 unimodular directions")
    pts = grid.points()
    partials, fail = _composed_partials(f, phi, pts, "theorem1", grid)
    if fail is not None:
        return fail
    psi_z, psi_zb = partials
    eps_angles = 2.0 * np.pi * np.arange(n_epsilon) / n_epsilon
    worst = None  # (margin, gamma, witness_idx, eps_angle)
    for ang in eps_angles:
        w = psi_z + np.exp(1j * ang) * psi_zb
        absw = np.abs(w)
        kz = int(np.argmin(absw))
        if absw[kz] <= SINGULAR_TOL:
            return CheckReport("theorem1", VERDICT_VIOLATED, 0.0,
                               witness=complex(pts[kz]), grid=grid,
                               meta={"n_epsilon": n_epsilon, "epsilon": float(ang),
                                     "failure": "W vanishes"})
        gap, mid, edge = largest_argument_gap(w)
        margin = (gap - np.pi) / 2.0
        gamma = _wrap_angle(-(mid + np.pi))
        if worst is None or margin < worst[0]:
            worst = (margin, gamma, edge, float(ang))
    margin, gamma, edge, ang = worst
    return CheckReport("theorem1", _verdict_from_margin(margin), float(margin),
                       witness=complex(pts[edge]), gamma=gamma, grid=grid,
                       meta={"n_epsilon": n_epsilon, "worst_epsilon": ang})


def _best_rotation(slack_of_gamma, n_gamma, tol=1e-6):
    """Coarse scan over [0, 2pi) then golden-section polish of the best candidate."""
    candidates = 2.0 * np.pi * np.arange(n_gamma) / n_gamma
    vals = [slack_of_gamma(g) for g in candidates]
    k = int(np.argmax(vals))
    half = 2.0 * np.pi / n_gamma
    gamma, margin = golden_section_max(slack_of_gamma, candidates[k] - half,
                                       candidates[k] + half, tol=tol)
    # Keep the coarse winner if polishing drifted into a worse spot.
    if vals[k] > margin:
        gamma, margin = candidates[k], vals[k]
    return _wrap_angle(gamma), margin


def check_theoremA(f: HarmonicMap, grid: GridSpec = DEFAULT_GRID,
                   n_gamma: int = DEFAULT_N_GAMMA) -> CheckReport:
    """Search a rotation gamma with ``Re(e^{i gamma} h'(z)) > |g'(z)|`` on samples.

    The margin reported is ``max_gamma min_z`` of the slack; the maximizing
    gamma is recorded.  A negative margin means no rotation works on this grid.
    """
    if n_gamma < 8:
        raise ValueError("need at least 8 rotation candidates")
    pts = grid.points()
    hp = np.asarray(f.h.deriv(pts), dtype=complex)
    gp_abs = np.abs(np.asarray(f.g.deriv(pts), dtype=complex))

    def slack(gamma):
        return float(np.min(np.real(np.exp(1j * gamma) * hp) - gp_abs))

    gamma, margin = _best_rotation(slack, n_gamma)
    per_point = np.real(np.exp(1j * gamma) * hp) - gp_abs
    k = int(np.argmin(per_point))
    return CheckReport("theoremA", _verdict_from_margin(margin), margin,
                       witness=complex(pts[k]), gamma=gamma, grid=grid,
                       meta={"n_gamma": n_gamma})


def check_theoremB(f: HarmonicMap, G: AnalyticFunction,
                   grid: GridSpec = DEFAULT_GRID,
                   n_gamma: int = DEFAULT_N_GAMMA) -> CheckReport:
    """Variant of :func:`check_theoremA` with derivatives taken relative to G.

    Convexity of G is the caller's responsibility and recorded as an
    assumption in the report, not checked.  Vanishing ``G'`` at a sample
    makes the scan inconclusive.
    """
    if n_gamma < 8:
        raise ValueError("need at least 8 rotation candidates")
    pts = grid.points()
    Gp = np.asarray(G.deriv(pts), dtype=complex)
    kz = int(np.argmin(np.abs(Gp)))
    if np.abs(Gp[kz]) <= SINGULAR_TOL:
        return CheckReport("theoremB", VERDICT_INCONCLUSIVE, float("nan"),
                           witness=complex(pts[kz]), grid=grid,
                           meta={"failure": "G' vanishes at a sample",
                                 "assumes_G_convex": True})
    hp = np.asarray(f.h.deriv(pts), dtype=complex) / Gp
    gp_abs = np.abs(np.asarray(f.g.deriv(pts), dtype=complex) / Gp)

    def slack(gamma):
        return float(np.min(np.real(np.exp(1j * gamma) * hp) - gp_abs))

    gamma, margin = _best_rotation(slack, n_gamma)
    per_point = np.real(np.exp(1j * gamma) * hp) - gp_abs
    k = int(np.argmin(per_point))
    return CheckReport("theoremB", _verdict_from_margin(margin), margin,
                       witness=complex(pts[k]), gamma=gamma, grid=grid,
                       meta={"n_gamma": n_gamma, "assumes_G_convex": True})


def check_philike(f: AnalyticFunction, Phi: AnalyticFunction,
                  grid: GridSpec = DEFAULT_GRID) -> CheckReport:
    """Scan ``Re(z f'(z) / Phi(f(z)))`` over the grid (limit value at z=0).

    At the origin the ratio is taken as ``f'(0)/Phi'(0)``.  A (numerical)
    zero of ``Phi(f(z))`` away from the origin is reported as violated with
    that witness.
    """
    pts = grid.points()
    z = pts[1:]  # grid puts the origin first
    denom = np.asarray(Phi.eval(f.eval(z)), dtype=complex)
    kz = int(np.argmin(np.abs(denom)))
    if np.abs(denom[kz]) <= SINGULAR_TOL:
        return CheckReport("philike", VERDICT_VIOLATED, 0.0,
                           witness=complex(z[kz]), grid=grid,
                           meta={"failure": "Phi(f(z)) vanishes"})
    ratio = np.real(z * np.asarray(f.deriv(z), dtype=complex) / denom)
    origin = np.real(complex(f.deriv(0j)) / complex(Phi.deriv(0j)))
    values = np.concatenate(([origin], ratio))
    k = int(np.argmin(values))
    return CheckReport("philike", _verdict_from_margin(float(values[k])),
                       float(values[k]), witness=complex(pts[k]), grid=grid)
