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

from .errors import DomainError
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


def _domain_report(criterion, maps, pts, grid):
    """Inconclusive report if a sample lies outside the domain of one of ``maps``, or None."""
    try:
        for fn in maps:
            _check_domain(fn, pts)
    except DomainError as exc:
        return CheckReport(criterion, VERDICT_INCONCLUSIVE, float("nan"), grid=grid,
                           meta={"failure": str(exc)})
    return None


def _worst_sample(criterion, values, pts, grid):
    """Report the least sampled value (holds iff positive); inconclusive if one is not finite."""
    if (fail := _nonfinite_report(criterion, values, pts, grid)) is not None:
        return fail
    k = int(np.argmin(values))
    return CheckReport(criterion, _verdict_from_margin(float(values[k])),
                       float(values[k]), witness=complex(pts[k]), grid=grid)


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

    Ties: the wrap gap wins, then the first of equal gaps in angle order; the
    edge is the highest index among equal arguments.
    """
    args = np.angle(values)
    sorted_args = np.sort(args)
    if sorted_args.size == 1:
        return 2.0 * np.pi, sorted_args[0] + np.pi, 0
    diffs = np.diff(sorted_args)
    wrap = sorted_args[0] + 2.0 * np.pi - sorted_args[-1]
    k = int(np.argmax(diffs))
    # Either way ``lo`` closes its run of equal arguments, so the opening
    # sample is the last index holding that value.
    gap, lo = (wrap, sorted_args[-1]) if wrap >= diffs[k] else (diffs[k], sorted_args[k])
    edge = int(np.flatnonzero(args == lo)[-1])
    return float(gap), float(lo + gap / 2.0), edge


def _wrap_angle(a):
    """Map an angle to (-pi, pi]."""
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a == -np.pi else a


def _composed_partials(f, phi, pts, criterion, grid):
    """Evaluate (Psi_z, Psi_zbar) on the grid, or an inconclusive report."""
    try:
        psi_z, psi_zb = composed_wirtinger(f, phi, pts)
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
    return _worst_sample("corollary1", np.real(psi_z) - np.abs(psi_zb), pts, grid)


def check_theorem1(f: HarmonicMap, phi: WirtingerFunction,
                   grid: GridSpec = DEFAULT_GRID,
                   n_epsilon: int = DEFAULT_N_EPSILON) -> CheckReport:
    """Directional half-plane criterion over every unimodular direction ``eps``.

    ``W_eps(z) = Psi_z + eps*Psi_zbar`` must avoid 0 for every ``eps``: it vanishes for
    some ``eps`` iff ``|Psi_z| = |Psi_zbar|``, so a zero of that difference at a sample,
    or both of its signs on the grid, is violated ("W vanishes") at the sample nearest a
    zero, ``epsilon`` being the direction that kills W there.  W must also fit in an open
    half-plane for each of ``n_epsilon`` sampled ``eps``: the largest circular gap among
    its sorted arguments must exceed pi.  The margin is the worst slack ``(gap - pi)/2``,
    and ``gamma`` the rotation for the worst direction (from the gap midpoint, no search).
    """
    if n_epsilon < 4:
        raise ValueError("need at least 4 unimodular directions")
    pts = grid.points()
    partials, fail = _composed_partials(f, phi, pts, "theorem1", grid)
    if fail is not None:
        return fail
    psi_z, psi_zb = partials
    # |W_eps| >= ||Psi_z| - |Psi_zbar||, with equality at one eps, and
    # |W_eps| <= |Psi_z| + |Psi_zbar|, the scale "vanishes" is judged against.
    size_z, size_zb = np.abs(psi_z), np.abs(psi_zb)
    diff = size_z - size_zb
    if _vanishes(diff, size_z + size_zb) is not None or (diff.max() > 0.0 > diff.min()):
        k = int(np.abs(diff).argmin())
        eps = float(np.angle(-psi_z[k] * np.conj(psi_zb[k])) % (2.0 * np.pi))
        return CheckReport("theorem1", VERDICT_VIOLATED, 0.0, witness=complex(pts[k]), grid=grid,
                           meta={"n_epsilon": n_epsilon, "epsilon": eps, "failure": "W vanishes"})
    del size_z, size_zb, diff
    eps_angles = 2.0 * np.pi * np.arange(n_epsilon) / n_epsilon
    gaps = [largest_argument_gap(psi_z + np.exp(1j * ang) * psi_zb) for ang in eps_angles]
    margins = [(gap - np.pi) / 2.0 for gap, _, _ in gaps]
    j = int(np.argmin(margins))
    _, mid, edge = gaps[j]
    return CheckReport("theorem1", _verdict_from_margin(margins[j]), float(margins[j]),
                       witness=complex(pts[edge]), gamma=_wrap_angle(-(mid + np.pi)),
                       grid=grid, meta={"n_epsilon": n_epsilon,
                                        "worst_epsilon": float(eps_angles[j])})


def _best_rotation(slack_of_gamma, n_gamma):
    """Coarse scan over [0, 2pi) then golden-section polish of the best candidate."""
    candidates = 2.0 * np.pi * np.arange(n_gamma) / n_gamma
    vals = [slack_of_gamma(g) for g in candidates]
    k = int(np.argmax(vals))
    half = 2.0 * np.pi / n_gamma
    gamma, margin = golden_section_max(slack_of_gamma, candidates[k] - half,
                                       candidates[k] + half)
    # Keep the coarse winner if polishing drifted into a worse spot.
    if vals[k] > margin:
        gamma, margin = candidates[k], vals[k]
    return _wrap_angle(gamma), margin


def _rotation_search(criterion, f, G, grid, n_gamma, meta):
    """Best rotation gamma for ``Re(e^{i gamma} h'/G') > |g'/G'|`` on the grid.

    Without a comparison map ``G``, ``G' = 1`` and nothing is divided.
    """
    if n_gamma < 8:
        raise ValueError("need at least 8 rotation candidates")
    pts = grid.points()
    if (fail := _domain_report(criterion, (f,) if G is None else (f, G), pts, grid)) is not None:
        return fail
    hp, gp = f.h.deriv(pts), f.g.deriv(pts)
    if G is not None:
        Gp = G.deriv(pts)
        if (kz := _vanishes(Gp, Gp)) is not None:
            return CheckReport(criterion, VERDICT_INCONCLUSIVE, float("nan"),
                               witness=complex(pts[kz]), grid=grid,
                               meta={"failure": "G' vanishes at a sample", **meta})
        hp, gp = hp / Gp, gp / Gp
    gp_abs = np.abs(gp)
    if (fail := _nonfinite_report(criterion, hp + gp_abs, pts, grid)) is not None:
        return fail

    def slack(gamma):
        return np.real(np.exp(1j * gamma) * hp) - gp_abs

    gamma, margin = _best_rotation(lambda g: float(np.min(slack(g))), n_gamma)
    k = int(np.argmin(slack(gamma)))
    return CheckReport(criterion, _verdict_from_margin(margin), margin,
                       witness=complex(pts[k]), gamma=gamma, grid=grid,
                       meta={"n_gamma": n_gamma, **meta})


def check_theoremA(f: HarmonicMap, grid: GridSpec = DEFAULT_GRID,
                   n_gamma: int = DEFAULT_N_GAMMA) -> CheckReport:
    """Search a rotation gamma with ``Re(e^{i gamma} h'(z)) > |g'(z)|`` on samples.

    The margin reported is ``max_gamma min_z`` of the slack; the maximizing
    gamma is recorded.  A negative margin means no rotation works on this
    grid, and a non-finite derivative makes the scan inconclusive.
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
    pts = grid.points()
    if (fail := _domain_report("philike", (f,), pts, grid)) is not None:
        return fail
    z = pts[1:]  # grid puts the origin first
    denom = Phi.eval(f.eval(z))
    if (kz := _vanishes(denom, denom)) is not None:
        return CheckReport("philike", VERDICT_VIOLATED, 0.0,
                           witness=complex(z[kz]), grid=grid,
                           meta={"failure": "Phi(f(z)) vanishes"})
    # z f'(z)/Phi(f(z)) tends to 1/Phi'(f(0)) when f'(0) != 0 = Phi(f(0)); a
    # map with f'(0) = 0 is not univalent and, like Phi(f(0)) != 0, gets 0.
    f0 = f.eval(0j)
    origin = 0.0
    if _vanishes(Phi.eval(f0), denom) is not None:
        if (dphi := Phi.deriv(f0)) == 0:
            return CheckReport("philike", VERDICT_INCONCLUSIVE, float("nan"),
                               witness=0j, grid=grid,
                               meta={"failure": "Phi'(f(0)) vanishes"})
        if f.deriv(0j) != 0:
            origin = np.real(1.0 / dphi)
    values = np.concatenate(([origin], np.real(z * f.deriv(z) / denom)))
    return _worst_sample("philike", values, pts, grid)
