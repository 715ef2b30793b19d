"""Distortion bounds for univalent maps of bounded valence order.

The central object is the decay constant

    C(r) = (1 / (4 alpha r)) * ((1-r)/(1+r))**alpha * [1 - ((1-r)/(1+r))**(2 alpha)]

attached to a convexity/valence order ``alpha >= 1`` (analytic univalent maps
take ``alpha = 2``; sense-preserving harmonic univalent maps are covered by
``alpha = 3``).  ``C`` extends continuously to ``C(0) = 1``, decreases in
``r``, and controls how far apart a univalent map must keep pairs of points:

    |f(z2) - f(z1)| >= m * C(r) * |z2 - z1|     for |z1|, |z2| <= r,

where ``m`` is the infimum of ``|f'|`` (or of ``|h'| - |g'|`` in the harmonic
case) on the disk of radius r.  The pairwise check, the lower derivative
bound, and the sharper hyperbolic-midpoint inequality behind the constant are
all implemented against sample grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import VERDICT_HOLDS, VERDICT_VIOLATED, CheckReport, _nonfinite_report
from .errors import DomainError
from .mappings import HarmonicMap, eval_map
from .oracle import _ratio_min


@dataclass(frozen=True)
class OrderParam:
    """Valence/convexity order ``alpha`` together with where it came from.

    ``provenance`` is one of ``"analytic-case"`` (alpha == 2),
    ``"harmonic-default"`` (alpha >= 3) or ``"user"`` (any finite alpha >= 1).
    """

    alpha: float
    provenance: str = "user"

    def __post_init__(self):
        if self.provenance not in ("analytic-case", "harmonic-default", "user"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.alpha == np.inf:
            raise ValueError("alpha must be finite, got inf")
        if self.provenance == "analytic-case" and self.alpha != 2.0:
            raise ValueError("analytic-case order is exactly 2")
        if self.provenance == "harmonic-default" and self.alpha < 3.0:
            raise ValueError("harmonic-default order must be >= 3")

    @classmethod
    def analytic(cls):
        return cls(2.0, "analytic-case")

    @classmethod
    def harmonic(cls):
        return cls(3.0, "harmonic-default")


def _coerce_alpha(alpha) -> OrderParam:
    """``alpha`` as an :class:`OrderParam`: None is the harmonic default."""
    if alpha is None:
        return OrderParam.harmonic()
    if isinstance(alpha, OrderParam):
        return alpha
    return OrderParam(float(alpha), "user")


def c_of_r(r, alpha=3.0):
    """Pairwise-separation decay constant ``C(r)`` for order ``alpha``.

    Accepts a scalar or ndarray ``r`` with ``0 <= r < 1``; ``C(0) = 1`` is the
    continuous extension of the removable singularity.  Strictly decreasing
    from 1 toward 0 as ``r`` approaches 1.  ``alpha`` may be a plain number
    or an :class:`OrderParam`.
    """
    a = _coerce_alpha(alpha).alpha
    rv = np.asarray(r, dtype=float)
    if not np.all((rv >= 0.0) & (rv < 1.0)):
        raise DomainError("radius must satisfy 0 <= r < 1")
    q = (1.0 - rv) / (1.0 + rv)
    safe_r = np.where(rv > 0.0, rv, 1.0)
    val = q ** a * (1.0 - q ** (2.0 * a)) / (4.0 * a * safe_r)
    out = np.where(rv > 0.0, val, 1.0)
    return out if np.ndim(r) else float(out)


def psi(x, alpha=3.0):
    """The ratio ``(1 - x**alpha) / (1 - x)`` extended by its limit at x = 1.

    Increasing on [0, 1] for ``alpha >= 1`` with ``psi(0) = 1`` and
    ``psi(1) = alpha``; this monotonicity is what makes the separation
    constant worst at the hyperbolic midpoint.
    """
    a = _coerce_alpha(alpha).alpha
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise DomainError("psi is defined on [0, 1]")
    safe = np.where(xv < 1.0, xv, 0.5)
    val = (1.0 - safe ** a) / (1.0 - safe)
    out = np.where(xv < 1.0, val, a)
    return out if np.ndim(x) else float(out)


def sheil_small_lower(z, alpha=3.0):
    """Pointwise lower distortion bound ``(1-|z|)**(alpha-1) / (1+|z|)**(alpha+1)``.

    For a normalized univalent map of order ``alpha`` this bounds ``|f'(z)|``
    (or ``|h'| - |g'|``) from below; it is the integrand whose integration
    along hyperbolic geodesics produces :func:`c_of_r`.
    """
    a = _coerce_alpha(alpha).alpha
    rho = np.abs(np.asarray(z))
    if not np.all(rho < 1.0):
        raise DomainError("bound applies inside the unit disk")
    out = (1.0 - rho) ** (a - 1.0) / (1.0 + rho) ** (a + 1.0)
    return out if np.ndim(z) else float(out)


def star_inequality_check(z1, z2, r, alpha=3.0):
    """Margin of the hyperbolic-chord inequality behind the constant C(r).

    For a pair on the common circle ``|z1| = |z2| = r`` let
    ``tau = (z2 - z1) / (1 - conj(z1) * z2)`` be the Moebius displacement.
    The inequality

        1 - ((1-|tau|)/(1+|tau|))**alpha
            >= (|z2 - z1| / (2 r)) * [1 - ((1-r)/(1+r))**(2 alpha)]

    holds for every such pair; the returned margin is left side minus right
    side (broadcast over array inputs), nonnegative when the inequality holds.
    The equal-modulus precondition is enforced to 1e-12: off-circle pairs are
    outside the inequality's domain of validity, not merely untested.
    """
    alpha = _coerce_alpha(alpha).alpha
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if not 0.0 < r < 1.0:
        raise DomainError("r must lie in (0, 1)")
    if np.any(np.abs(np.abs(z1) - np.abs(z2)) > 1e-12):
        raise DomainError("points must share a common modulus |z1| = |z2|")
    if np.any(np.abs(z1) > r + 1e-12) or np.any(np.abs(z2) > r + 1e-12):
        raise DomainError("points must lie in |z| <= r")
    tau = np.abs((z2 - z1) / (1.0 - np.conj(z1) * z2))
    lhs = 1.0 - ((1.0 - tau) / (1.0 + tau)) ** alpha
    qr = (1.0 - r) / (1.0 + r)
    rhs = (np.abs(z2 - z1) / (2.0 * r)) * (1.0 - qr ** (2.0 * alpha))
    out = lhs - rhs
    return out if out.ndim else float(out)


def check_pairwise_bound(f: HarmonicMap, r: float, alpha=3.0, n: int = 128) -> CheckReport:
    """Pairwise separation check ``|f(z2)-f(z1)| >= (|h'(0)|-|g'(0)|)*C(r)*|z2-z1|``.

    Samples n equispaced points on the circle ``|z| = r`` and reports

        margin = min over pairs of |f(z_i)-f(z_j)| / |z_i-z_j|  -  bound,

    with ``bound = (|h'(0)| - |g'(0)|) * C(r)``.  The verdict is
    holds-on-samples iff the margin is nonnegative (equality is allowed: the
    underlying inequality is not strict), and inconclusive when the image of
    a sample is not finite.

    Parameters
    ----------
    f : HarmonicMap
        Assumed univalent and sense-preserving; the check does not verify it.
    r : float
        Circle radius, in (0, 1).
    alpha : float or OrderParam
        Valence order used for ``C(r)``.
    n : int
        Number of circle points, at least 8.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if n < 8:
        raise ValueError("need at least 8 circle points")
    a = _coerce_alpha(alpha).alpha
    grid = {"kind": "circle", "r": r, "n": n}
    pts = r * np.exp(2j * np.pi * np.arange(n) / n)
    vals = eval_map(f, pts)
    if (fail := _nonfinite_report("pairwise-bound", vals, pts, grid)) is not None:
        return fail
    m0 = abs(f.h.deriv(0j)) - abs(f.g.deriv(0j))
    bound = m0 * c_of_r(r, a)
    ratio, i, j = _ratio_min(vals, pts, np.arange(n))
    margin = ratio - bound
    verdict = VERDICT_HOLDS if margin >= 0.0 else VERDICT_VIOLATED
    return CheckReport("pairwise-bound", verdict, margin,
                       witness=complex(pts[i]), grid=grid,
                       meta={"bound": bound, "alpha": a, "m_0": m0,
                             "worst_pair": [i, j]})
