"""Positive-real-part machinery and the structural comparison formula.

Functions analytic on the disk with ``p(0) = 1`` and ``Re p > 0`` are exactly
the integrals of the Poisson-type kernel ``(1 + z e^{i theta})/(1 - z e^{i theta})``
against a probability measure on the circle.  This module works with finite
(discrete) measures and builds, from a univalent analytic ``f`` and such a
measure, the full family of analytic comparison functions ``phi`` whose
composition with ``f`` has derivative of positive real part:

    phi(w) = -c[(1 + i c1) f^{-1}(w)
               + 2 * sum_k lambda_k e^{-i theta_k} log(1 - f^{-1}(w) e^{i theta_k})] + c0

with ``c > 0``, ``c1`` real, ``c0`` complex.  Differentiating the composition
gives the identity ``d/dz phi(f(z)) = c*p(z) - i*c*c1``, which
:func:`verify_structural_identity` checks by central finite differences.

Also here: the numerical inverse of a harmonic map (damped Newton on the
two-real-variable system) and its exact Wirtinger partials, used by the
criteria checkers as the canonical converse witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, SingularDerivativeError
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    WirtingerFunction,
    DEFAULT_GRID,
    FD_STEP,
    eval_map,
)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite nonnegative measure on [0, 2pi) with unit total mass.

    ``atoms`` is a tuple of ``(theta, weight)`` pairs with strictly increasing
    angles; weights must be nonnegative and sum to 1 within 1e-12.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        thetas = [t for t, _ in atoms]
        weights = [w for _, w in atoms]
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
        if any(not 0.0 <= t < 2.0 * np.pi for t in thetas):
            raise ValueError("atom angles must lie in [0, 2pi)")
        if any(t2 <= t1 for t1, t2 in zip(thetas, thetas[1:])):
            raise ValueError("atom angles must be strictly increasing")

    @property
    def thetas(self):
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms])

    @classmethod
    def point_mass(cls, theta=0.0):
        return cls(((theta, 1.0),))

    @classmethod
    def uniform(cls, n):
        """n equal atoms at the n-th roots of unity directions."""
        return cls(tuple((2.0 * np.pi * k / n, 1.0 / n) for k in range(n)))

    def to_dict(self):
        return {"atoms": [[t, w] for t, w in self.atoms]}


@dataclass(frozen=True)
class StructuralParams:
    """Free constants of the structural formula: ``c > 0``, ``c1`` real, ``c0`` complex."""

    c: float = 1.0
    c1: float = 0.0
    c0: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"c must be strictly positive, got {self.c}")
        object.__setattr__(self, "c0", complex(self.c0))


def herglotz_p(mu: DiscreteMeasure, z):
    """Kernel sum ``sum_k w_k (1 + z e^{i th_k})/(1 - z e^{i th_k})``.

    Satisfies ``p(0) = 1`` and ``Re p(z) > 0`` on the open disk.  Accepts a
    scalar or ndarray of points with ``|z| < 1``.
    """
    if np.max(np.abs(z)) >= 1.0:
        raise DomainError("herglotz_p requires |z| < 1")
    zs = np.asarray(z, dtype=complex)
    rot = np.exp(1j * mu.thetas)
    terms = (1.0 + zs[..., None] * rot) / (1.0 - zs[..., None] * rot)
    out = np.sum(mu.weights * terms, axis=-1)
    return out if zs.ndim else complex(out)


def build_phi(f_inv, mu: DiscreteMeasure, params: StructuralParams, w):
    """Structural comparison function at ``w`` (scalar or ndarray).

    ``f_inv`` maps image points back into the unit disk; logs are principal,
    which is single-valued here because ``1 - zeta e^{i theta}`` stays in the
    open disk of radius ``|zeta| < 1`` around 1 and so never meets the cut.
    """
    zeta = np.asarray(f_inv(w), dtype=complex)
    if np.max(np.abs(zeta)) >= 1.0:
        raise DomainError("f_inv(w) left the unit disk")
    rot = np.exp(1j * mu.thetas)
    logs = np.log(1.0 - zeta[..., None] * rot)
    series = 2.0 * np.sum(mu.weights * np.conj(rot) * logs, axis=-1)
    out = -params.c * ((1.0 + 1j * params.c1) * zeta + series) + params.c0
    return out if np.ndim(w) else complex(out)


def structural_phi_prime(f: AnalyticFunction, mu: DiscreteMeasure,
                         params: StructuralParams, inversion_tol=1e-12):
    """Derivative ``phi'(w)`` of the structural function, as a callable.

    Uses ``phi'(w) = (c*p(zeta) - i*c*c1) / f'(zeta)`` at ``zeta = f^{-1}(w)``
    (chain rule applied to the derivative identity of the composition).
    """
    fh = HarmonicMap.from_analytic(f)

    def prime(w):
        zeta = invert(fh, w, tol=inversion_tol)
        return (params.c * herglotz_p(mu, zeta) - 1j * params.c * params.c1) / f.deriv(zeta)

    return prime


def verify_structural_identity(f: AnalyticFunction, mu: DiscreteMeasure,
                               params: StructuralParams,
                               grid: GridSpec = DEFAULT_GRID,
                               fd_step=FD_STEP) -> float:
    """Max deviation of ``d/dz phi(f(z))`` from ``c*p(z) - i*c*c1`` over the grid.

    The derivative on the left is a central finite difference of the composed
    map, with the inverse computed by Newton iteration; the right side is the
    kernel sum.  For valid inputs the deviation is at the finite-difference
    noise floor (well under 1e-5).
    """
    fh = HarmonicMap.from_analytic(f)
    pts = grid.points()
    # Tight inversion bound |f(z) - w| <= 1e-14 * max(1, |w|): the error of
    # the inverse is amplified by 1/(2*fd_step) in the difference quotient.
    f_inv = lambda w: invert(fh, w, tol=1e-14)
    upper = build_phi(f_inv, mu, params, f.eval(pts + fd_step))
    lower = build_phi(f_inv, mu, params, f.eval(pts - fd_step))
    lhs = (upper - lower) / (2.0 * fd_step)
    rhs = params.c * herglotz_p(mu, pts) - 1j * params.c * params.c1
    return float(np.max(np.abs(lhs - rhs)))


def build_big_phi(f: AnalyticFunction, phi_prime, gamma: float, w):
    """Associated analytic ``Phi(w) = f^{-1}(w) / (e^{i gamma} phi'(w))``.

    Feeding this ``Phi`` into the ratio test ``Re(z f'(z)/Phi(f(z))) > 0``
    reproduces the positive-derivative condition on ``phi(f(z))``.
    """
    fh = HarmonicMap.from_analytic(f)
    zeta = invert(fh, w)
    pp = np.asarray(phi_prime(w), dtype=complex)
    if np.min(np.abs(pp)) <= 1e-300:
        raise SingularDerivativeError("phi'(w) vanishes")
    out = zeta / (np.exp(1j * gamma) * pp)
    return out if np.ndim(w) else complex(out)


def big_phi_function(f: AnalyticFunction, phi_prime, gamma: float,
                     fd_step=FD_STEP) -> AnalyticFunction:
    """Wrap :func:`build_big_phi` as an evaluator bundle.

    The derivative is a central finite difference of the wrapped value; that
    is accurate to far better than the 1e-4 validation bar and is only needed
    at the origin by the ratio test.
    """
    def value(w):
        return build_big_phi(f, phi_prime, gamma, w)

    def deriv(w):
        return (value(np.asarray(w) + fd_step) - value(np.asarray(w) - fd_step)) / (2.0 * fd_step)

    return AnalyticFunction(eval=value, deriv=deriv,
                            description=f"{f.description or 'f'}-associated ratio target")


# ---------------------------------------------------------------------------
# Numerical inversion of harmonic maps.

# Starting values: an origin plus _SEED_RINGS x _SEED_RAYS polar points.  Each
# target starts from the point whose image lies nearest to it; the search runs
# over blocks of at most _SEED_BLOCK targets so its memory stays bounded.
_SEED_RINGS, _SEED_RAYS = 12, 32
_SEED_BLOCK = 256


def _clamped(z, clamp):
    """Pull points with ``|z| > clamp`` radially back onto ``|z| = clamp``."""
    mag = np.abs(z)
    return np.where(mag > clamp, z * (clamp / np.maximum(mag, clamp)), z)


def _newton_sweep(f: HarmonicMap, w, z, bound, max_iter, clamp):
    """Damped Newton iterations from the given seeds; returns (z, residual).

    Only targets whose residual still exceeds ``bound`` are iterated.
    """
    z = z.copy()
    r = w - eval_map(f, z)
    res = np.abs(r)
    for _ in range(max_iter):
        act = np.flatnonzero(res > bound)
        if act.size == 0:
            break
        za, wa, ra, resa = z[act], w[act], r[act], res[act]
        hp = np.asarray(f.h.deriv(za), dtype=complex)
        gp = np.asarray(f.g.deriv(za), dtype=complex)
        jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
        safe = np.abs(jac) > 1e-300
        # Solve f_z*dz + f_zbar*conj(dz) = r with f_z = h', f_zbar = conj(g').
        step = np.where(safe, np.conj(hp) * ra - np.conj(gp) * np.conj(ra), 0.0) \
            / np.where(safe, jac, 1.0)
        scale = np.ones_like(jac)
        for _half in range(21):
            cand = _clamped(za + scale * step, clamp)
            new_r = wa - (f.h.eval(cand) + np.conj(f.g.eval(cand)))
            new_res = np.abs(new_r)
            worse = new_res > resa
            if _half == 20 or not np.any(worse):
                break
            scale[worse] /= 2.0
        # Targets still worse after 20 halvings keep their current iterate.
        keep = new_res <= resa
        idx = act[keep]
        z[idx], r[idx], res[idx] = cand[keep], new_r[keep], new_res[keep]
    return z, res


def _seed_cloud(f: HarmonicMap, radius):
    """Deterministic polar seed cloud inside ``|z| <= radius`` and its image."""
    radii = radius * np.arange(1, _SEED_RINGS + 1) / (_SEED_RINGS + 1.0)
    angles = 2.0 * np.pi * np.arange(_SEED_RAYS) / _SEED_RAYS
    seeds = np.concatenate(([0.0 + 0.0j], np.outer(radii, np.exp(1j * angles)).ravel()))
    return seeds, eval_map(f, seeds)


def _nearest_seeds(cloud, w):
    """For each target, the cloud point whose image lies nearest to it."""
    seeds, images = cloud
    # |w - v|^2 = |w|^2 - (2 Re(w conj v) - |v|^2): the first term is the same
    # for every seed, so the bracket, one real matrix product, ranks them.
    basis = np.stack([2.0 * images.real, 2.0 * images.imag, -np.abs(images) ** 2])
    targets = np.stack([w.real, w.imag, np.ones(w.size)], axis=1)
    out = np.empty_like(w)
    for lo in range(0, w.size, _SEED_BLOCK):
        score = targets[lo:lo + _SEED_BLOCK] @ basis
        out[lo:lo + _SEED_BLOCK] = seeds[np.argmax(score, axis=1)]
    return out


def invert(f: HarmonicMap, w, seed=None, tol=1e-12, max_iter=50):
    """Solve ``f(z) = w`` for z by damped Newton iteration.

    The harmonic map is treated as two real unknowns; the update solves the
    linearized system through the Wirtinger differentials ``f_z = h'`` and
    ``f_zbar = conj(g')`` (plain complex Newton would be wrong for ``g != 0``).
    Steps are halved while they increase the residual, and iterates are
    clamped inside the domain.  Without a ``seed``, each target starts from
    the point of a fixed polar seed cloud whose image is nearest to it, so a
    few steps usually suffice; with a ``seed``, targets that fail to converge
    from it are retried from that cloud before giving up.

    Parameters
    ----------
    f : HarmonicMap
        Must be sense-preserving near the solution.
    w : complex scalar or ndarray
        Target value(s).
    seed : complex scalar or ndarray, optional
        Starting point(s); seeds outside the domain are pulled back inside.
        Defaults to the nearest point of the seed cloud.
    tol : float
        Relative residual bound ``|f(z) - w| <= tol * max(1, |w|)``
        (default 1e-12).  Scaling by the image size keeps the bound above
        the rounding error of evaluating ``f`` where ``|w|`` is large.

    Raises
    ------
    DomainError
        If a target is not finite.
    InversionError
        If some target still exceeds its bound after the retry.
    """
    scalar = np.ndim(w) == 0
    wv = np.atleast_1d(np.asarray(w, dtype=complex)).ravel()
    if not np.all(np.isfinite(wv)):
        raise DomainError(f"cannot invert at non-finite target w = {wv[~np.isfinite(wv)][0]}")
    clamp = f.domain_radius * (1.0 - 1e-9)
    bound = tol * np.maximum(1.0, np.abs(wv))
    if seed is None:
        z0 = _nearest_seeds(_seed_cloud(f, clamp), wv)
    else:
        z0 = _clamped(np.broadcast_to(np.asarray(seed, dtype=complex), wv.shape), clamp)
    z, res = _newton_sweep(f, wv, z0, bound, max_iter, clamp)
    stuck = np.flatnonzero(res > bound)
    if seed is not None and stuck.size:
        z2, res2 = _newton_sweep(f, wv[stuck], _nearest_seeds(_seed_cloud(f, clamp), wv[stuck]),
                                 bound[stuck], max_iter, clamp)
        better = res2 < res[stuck]
        z[stuck[better]] = z2[better]
        res[stuck[better]] = res2[better]
    if np.any(res > bound):
        k = int(np.argmax(res / bound))
        raise InversionError(
            f"no convergence inverting '{f.label or 'map'}' at w = {wv[k]}: "
            f"residual {res[k]:.3g} exceeds {bound[k]:.3g}",
            w=complex(wv[k]), best_residual=float(res[k]),
        )
    shaped = z.reshape(np.shape(w)) if not scalar else complex(z[0])
    return shaped


def inverse_wirtinger(f: HarmonicMap, tol=1e-12) -> WirtingerFunction:
    """The inverse of a univalent harmonic map as a Wirtinger bundle.

    Partials come from inverting the differential at ``z = f^{-1}(w)``:

        d(f^{-1})/dw       =  conj(h'(z)) / J_f(z)
        d(f^{-1})/d(conj w) = -conj(g'(z)) / J_f(z)

    so composing back with ``f`` returns exactly (1, 0).  The bundle keeps
    the latest target array and its preimage, so ``eval``, ``dw`` and
    ``dwbar`` called on the same targets share one Newton solve.
    """
    last = [None]  # (targets, preimages) of the latest solve

    def _z(w):
        key = np.asarray(w, dtype=complex)
        hit = last[0]
        if hit is not None and np.array_equal(hit[0], key):
            return hit[1]
        z = invert(f, w, tol=tol)
        last[0] = (key.copy(), z)
        return z

    def _dw(w, wbar):
        z = _z(w)
        hp, gp = f.h.deriv(z), f.g.deriv(z)
        return np.conj(hp) / (np.abs(hp) ** 2 - np.abs(gp) ** 2)

    def _dwbar(w, wbar):
        z = _z(w)
        hp, gp = f.h.deriv(z), f.g.deriv(z)
        return -np.conj(gp) / (np.abs(hp) ** 2 - np.abs(gp) ** 2)

    def _eval(w, wbar):
        z = _z(w)
        return z.copy() if isinstance(z, np.ndarray) else z

    return WirtingerFunction(eval=_eval, dw=_dw, dwbar=_dwbar,
                             domain=f"image of |z| < {f.domain_radius:g}")
