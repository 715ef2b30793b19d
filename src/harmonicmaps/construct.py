"""Manufacture of new univalent harmonic maps by bounded perturbation.

Given a univalent sense-preserving ``f = h + conj(g)`` and a harmonic
perturbation ``phi = p + conj(q)``, the map

    F(z) = f(r z) + epsilon * phi(z)

stays univalent on the disk whenever

    0 <= epsilon < (r / A) * min{ m(r), m(0) * C(r) } =: epsilon_0

with ``m(rho) = min_{|z| <= rho} (|h'| - |g'|)``, ``A = sup_D (|p'| + |q'|)``
and ``C(r)`` the distortion constant from :mod:`harmonicmaps.distortion`.
This module estimates the two quantities on grids, computes the budget, and
builds ``F`` with the audit attached.  The affine renormalization of a map
into the standard family ``h(0) = g(0) = 0``, ``h'(0) = 1``, ``g'(0) = 0``,
and its inverse, live here too.

Estimates are honest about their direction: grid minimization over-estimates
``m`` and grid maximization under-estimates ``A``, both of which inflate the
budget, so :func:`construct` applies a documented 1% haircut before agreeing
to build anything.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distortion import OrderParam, _coerce_alpha, c_of_r
from .errors import BudgetExceededError, DomainError, InapplicableError
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    DEFAULT_GRID,
    _vanishes,
    combination,
    constant_function,
    identity_function,
)

# Sup estimates need samples close to the boundary.
A_GRID = GridSpec(n_radial=40, n_angular=96, r_max=0.995)

# Fraction of the raw budget construct() is willing to spend; the rest
# absorbs grid discretization error in the m and A estimates.
SAFETY_FACTOR = 0.99


@dataclass(frozen=True)
class Perturbation:
    """Harmonic perturbation ``phi = p + conj(q)``.

    ``A_closed_form`` optionally supplies the exact boundary sup of
    ``|p'| + |q'|``; when given it is cross-checked against the grid estimate
    (which can never exceed a true sup).
    """

    p: AnalyticFunction
    q: AnalyticFunction
    A_closed_form: Optional[float] = None

    def __post_init__(self):
        if self.A_closed_form is not None and not self.A_closed_form > 0.0:
            raise ValueError("A_closed_form must be positive when supplied")


def conjugate_z_perturbation():
    """The simplest nontrivial perturbation ``phi(z) = conj(z)`` (A = 1)."""
    return Perturbation(p=constant_function(0.0, "0"), q=identity_function(),
                        A_closed_form=1.0)


@dataclass(frozen=True)
class AffineParams:
    """Data of the affine renormalization: ``f(0)``, ``h'(0)``, ``g'(0)``."""

    f0: complex
    h_prime0: complex
    g_prime0: complex

    @property
    def is_identity(self) -> bool:
        return (abs(self.f0) <= 1e-12 and abs(self.h_prime0 - 1.0) <= 1e-12
                and abs(self.g_prime0) <= 1e-12)


@dataclass(frozen=True)
class ConstructionResult:
    """A built map ``F`` together with its full budget audit.

    ``epsilon_budget`` is the enforceable bound (raw budget times the safety
    factor); ``rigor_note`` spells out every estimate that went into it.
    """

    F: HarmonicMap
    epsilon_used: float
    epsilon_budget: float
    m_r: float
    m_0: float
    A_sup: float
    r: float
    alpha_used: float
    rigor_note: str

    def __post_init__(self):
        if self.m_r > self.m_0 + 1e-12:
            raise ValueError(f"m(r)={self.m_r} exceeds m(0)={self.m_0}; "
                             "minimum over a disk cannot beat its center value")
        if self.epsilon_used >= self.epsilon_budget and "unsafe" not in self.rigor_note:
            raise ValueError("epsilon_used at or above budget without unsafe note")


def _min_slack(f: HarmonicMap, z):
    return np.abs(f.h.deriv(z)) - np.abs(f.g.deriv(z))


def estimate_m(f: HarmonicMap, r: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """Grid minimum of ``|h'| - |g'|`` over the closed disk ``|z| <= r``.

    The coarse polar scan is refined by two local passes around the best
    point, each shrinking the sample spacing by a factor 4.  The result is an
    upper estimate of the true minimum (sampling can only miss lower values);
    a negative value means f is not sense-preserving on the disk and is
    returned with a warning.

    Parameters
    ----------
    f : HarmonicMap
    r : float
        Disk radius, ``0 <= r < f.domain_radius`` (r=0 degenerates to the
        center value).
    grid : GridSpec
        Resolution reused on the smaller disk via its r_max override.
    """
    if not 0.0 <= r < f.domain_radius:
        raise DomainError(f"radius must lie in [0, {f.domain_radius:g}), got {r}")
    pts = grid.points(r_max=r)
    vals = np.asarray(_min_slack(f, pts), dtype=float)
    k = int(np.argmin(vals))
    best_z, best = pts[k], float(vals[k])
    if r > 0.0:
        d_rho = r / grid.n_radial
        d_ang = 2.0 * np.pi / grid.n_angular
        for level in (4.0, 16.0):
            rho0, ang0 = np.abs(best_z), np.angle(best_z)
            offs = np.arange(-2, 3)
            rho = np.clip(rho0 + offs * d_rho / level, 0.0, r)
            ang = ang0 + offs * d_ang / level
            local = (rho[:, None] * np.exp(1j * ang[None, :])).ravel()
            lv = np.asarray(_min_slack(f, local), dtype=float)
            j = int(np.argmin(lv))
            if lv[j] < best:
                best, best_z = float(lv[j]), local[j]
    if best < 0.0:
        warnings.warn(f"map '{f.label or 'f'}' is not sense-preserving on |z| <= {r:g} "
                      f"(min |h'|-|g'| = {best:.3e})", stacklevel=2)
    return best


def estimate_A(phi: Perturbation) -> float:
    """Estimate ``A = sup over the disk of |p'| + |q'|`` on :data:`A_GRID`.

    Returns the caller's closed form when supplied (after checking it
    dominates the grid maximum); otherwise the grid maximum, which is an
    under-estimate since the sup may live on the boundary.

    Raises
    ------
    InapplicableError
        If the derivative sum is non-finite near the boundary (A = infinity;
        the perturbation theorem gives nothing).
    """
    pts = A_GRID.points()
    vals = np.abs(phi.p.deriv(pts)) + np.abs(phi.q.deriv(pts))
    if not np.all(np.isfinite(vals)):
        raise InapplicableError("|p'| + |q'| is not finite near the boundary")
    a_grid = float(np.max(vals))
    if phi.A_closed_form is not None:
        if a_grid > phi.A_closed_form * (1.0 + 1e-9):
            raise ValueError(f"claimed sup {phi.A_closed_form} is below the "
                             f"grid evidence {a_grid}")
        return float(phi.A_closed_form)
    return a_grid


def budget_audit(f: HarmonicMap, phi: Perturbation, r: float,
                 alpha: OrderParam | float | None = None,
                 grid: GridSpec = DEFAULT_GRID) -> dict:
    """All the numbers of the perturbation budget in one dictionary.

    Keys: ``m_r``, ``m_0``, ``A``, ``C_r``, ``alpha``, ``epsilon0`` (the raw
    budget), ``epsilon0_safe`` (after the 1% haircut), ``rigor_note``.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1) for a positive budget, got {r}")
    order = _coerce_alpha(alpha)
    m_r = estimate_m(f, r, grid)
    m_0 = estimate_m(f, 0.0, grid)
    if min(m_r, m_0) <= 0.0:
        raise InapplicableError("f is not sense-preserving on the disk of "
                                f"radius {r:g}; no univalence budget exists")
    a_sup = estimate_A(phi)
    if a_sup <= 0.0:
        raise InapplicableError("perturbation has zero derivative sup; "
                                "any epsilon works but the budget is undefined")
    cr = c_of_r(r, order)
    eps0 = (r / a_sup) * min(m_r, m_0 * cr)
    notes = [
        f"m(r)={m_r:.9g} and m(0)={m_0:.9g} are grid minima (upper estimates "
        "of the true minima)",
        f"A={a_sup:.9g} is "
        + ("a caller-supplied closed form" if phi.A_closed_form is not None
           else "a grid maximum (under-estimate; sup may live on the boundary)"),
        f"alpha={order.alpha:g} ({order.provenance})",
        f"safety factor {SAFETY_FACTOR} applied to the raw budget",
    ]
    return {
        "m_r": m_r,
        "m_0": m_0,
        "A": a_sup,
        "C_r": cr,
        "alpha": order.alpha,
        "epsilon0": eps0,
        "epsilon0_safe": SAFETY_FACTOR * eps0,
        "rigor_note": "; ".join(notes),
    }


def epsilon_budget(f: HarmonicMap, phi: Perturbation, r: float,
                   alpha: OrderParam | float | None = None) -> float:
    """Raw perturbation budget ``(r/A) * min{m(r), m(0)*C(r)}``.

    The default order is the conservative harmonic one (alpha = 3); pass
    ``OrderParam.analytic()`` when f has no co-analytic part.  Callers who
    build maps should leave headroom below this number; :func:`construct`
    enforces a 1% haircut itself.
    """
    return budget_audit(f, phi, r, alpha)["epsilon0"]


def construct(f: HarmonicMap, phi: Perturbation, r: float, epsilon: float,
              alpha: OrderParam | float | None = None,
              grid: GridSpec = DEFAULT_GRID,
              unsafe: bool = False) -> ConstructionResult:
    """Build ``F(z) = f(r z) + epsilon * phi(z)`` inside the verified budget.

    Refuses epsilon at or above the haircut budget unless ``unsafe=True``,
    in which case the override is recorded in the rigor note and the caller
    owns the univalence claim.

    Parameters
    ----------
    f : HarmonicMap
        Univalent sense-preserving base map (caller-asserted).
    phi : Perturbation
    r : float
        Shrink factor in (0, 1).
    epsilon : float
        Finite nonnegative perturbation size.
    alpha : OrderParam or float, optional
        Valence order for C(r); defaults to the harmonic value 3.
    unsafe : bool
        Permit epsilon at or beyond the budget (recorded, never silent).
    """
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    audit = budget_audit(f, phi, r, alpha, grid)
    allowed = audit["epsilon0_safe"]
    note = audit["rigor_note"]
    if epsilon >= allowed:
        if not unsafe:
            raise BudgetExceededError(
                f"epsilon = {epsilon:g} is not below the safe budget {allowed:.9g} "
                f"(raw {audit['epsilon0']:.9g}); pass unsafe=True to force")
        note += "; unsafe override: epsilon exceeds the verified budget"
    label = f"{f.label or 'f'}({r:g}z)" + (f" + {epsilon:g}*phi" if epsilon else "")
    F = HarmonicMap(
        h=combination([(1.0, f.h, r), (epsilon, phi.p, 1.0)],
                      description=f"{label}: analytic part"),
        g=combination([(1.0, f.g, r), (epsilon, phi.q, 1.0)],
                      description=f"{label}: co-analytic part"),
        label=label,
    )
    return ConstructionResult(F=F, epsilon_used=float(epsilon),
                              epsilon_budget=float(allowed),
                              m_r=audit["m_r"], m_0=audit["m_0"],
                              A_sup=audit["A"], r=float(r),
                              alpha_used=audit["alpha"], rigor_note=note)


# ---------------------------------------------------------------------------
# Affine renormalization into the standard family.

def _affine(f: HarmonicMap, A, B, shift_h, shift_g, label) -> HarmonicMap:
    """``A*f + B*conj(f)``: parts ``A*h + B*g + shift_h``, ``conj(A)*g + conj(B)*h + shift_g``."""
    return HarmonicMap(
        h=combination([(A, f.h, 1.0), (B, f.g, 1.0)], shift_h, f"{label}: analytic part"),
        g=combination([(np.conj(A), f.g, 1.0), (np.conj(B), f.h, 1.0)], shift_g,
                      f"{label}: co-analytic part"),
        label=label,
    )


def normalize(f: HarmonicMap):
    """Affine renormalization of f into the standard family.

    Two steps: translate and rescale so ``h(0)=0, h'(0)=1``, then kill the
    co-analytic derivative at 0 with the shear

        f2 = (f1 - a * conj(f1)) / (1 - |a|^2),    a = conj(g'(0)) / h'(0).

    Univalence and sense-preservation are affine-invariant, so f2 inherits
    them; the returned :class:`AffineParams` invert the transform.

    Returns
    -------
    (HarmonicMap, AffineParams)
        The renormalized map and the undo data; f itself when it is
        already in the standard family.

    Raises
    ------
    SingularDerivativeError-like ValueError when ``h'(0) = 0``;
    DomainError when ``|g'(0)| >= |h'(0)|`` (not sense-preserving at 0).
    """
    h0 = f.h.eval(0j)
    g0 = f.g.eval(0j)
    hp0 = f.h.deriv(0j)
    gp0 = f.g.deriv(0j)
    if _vanishes(hp0, [hp0, gp0]) is not None:
        raise InapplicableError("h'(0) = 0; no affine renormalization exists")
    if abs(gp0) >= abs(hp0):
        raise DomainError(f"|g'(0)| = {abs(gp0):.6g} >= |h'(0)| = {abs(hp0):.6g}; "
                          "f is not sense-preserving at the origin")
    params = AffineParams(f0=h0 + np.conj(g0), h_prime0=hp0, g_prime0=gp0)
    if params.is_identity:
        return f, params
    # First stage: h1 = (h - h(0))/h'(0), g1 = (g - g(0))/conj(h'(0)); the
    # shear then gives h2 = (h1 - a*g1)/d, g2 = (g1 - conj(a)*h1)/d.
    a = np.conj(gp0) / hp0
    d = 1.0 - abs(a) ** 2
    A = 1.0 / (hp0 * d)
    B = -a / (np.conj(hp0) * d)
    return _affine(f, A, B, -(A * h0 + B * g0), -(np.conj(A) * g0 + np.conj(B) * h0),
                   f"{f.label or 'f'} renormalized"), params


def undo_normalize(f2: HarmonicMap, params: AffineParams) -> HarmonicMap:
    """Invert :func:`normalize`: rebuild a map equal to the original pointwise.

    The analytic/co-analytic split of constants is not recoverable (only the
    sum is observable), so the translation lands entirely in the analytic
    part; values of the returned map match the original to rounding.
    """
    if params.is_identity:
        return f2
    a = np.conj(params.g_prime0) / params.h_prime0
    # f1 = f2 + a*conj(f2), then f = h'(0)*f1 + f(0).
    bh = params.h_prime0
    return _affine(f2, bh, bh * a, params.f0, 0.0, f"{f2.label or 'f2'} denormalized")
