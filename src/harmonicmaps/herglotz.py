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
:func:`verify_structural_identity` checks by central finite differences,
walking the grid in blocks as the criterion scans do.

Also here: the numerical inverse of a harmonic map (damped Newton on the
two-real-variable system, seeded from a fixed cloud ranked relative to
``f(0)``) and its exact Wirtinger partials, both from one solve, used by the
criteria checkers as the canonical converse witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _worst_sample
from .errors import DomainError, InversionError, SingularDerivativeError
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    WirtingerFunction,
    DEFAULT_GRID,
    FD_STEP,
    _value,
    _vanishes,
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
        if not all(w >= 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(weights) - 1.0) <= 1e-12:
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
    """Finite constants of the structural formula: ``c > 0``, ``c1`` real, ``c0`` complex."""

    c: float = 1.0
    c1: float = 0.0
    c0: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"c must be strictly positive and finite, got {self.c}")
        object.__setattr__(self, "c0", complex(self.c0))
        if not np.isfinite([self.c1, self.c0]).all():
            raise ValueError(f"c1 and c0 must be finite, got {self.c1}, {self.c0}")


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
                         params: StructuralParams):
    """Derivative ``phi'(w)`` of the structural function, as a callable.

    Uses ``phi'(w) = (c*p(zeta) - i*c*c1) / f'(zeta)`` at ``zeta = f^{-1}(w)``
    (chain rule applied to the derivative identity of the composition).
    """
    fh = HarmonicMap.from_analytic(f)

    def prime(w):
        zeta = invert(fh, w)
        return (params.c * herglotz_p(mu, zeta) - 1j * params.c * params.c1) / f.deriv(zeta)

    return prime


def verify_structural_identity(f: AnalyticFunction, mu: DiscreteMeasure,
                               params: StructuralParams,
                               grid: GridSpec = DEFAULT_GRID) -> float:
    """Max deviation of ``d/dz phi(f(z))`` from ``c*p(z) - i*c*c1`` over the grid.

    The derivative on the left is a central finite difference of the composed
    map, with the inverse computed by Newton iteration; the right side is the
    kernel sum.  For valid inputs the deviation is at the finite-difference
    noise floor (well under 1e-5).

    The grid is walked in blocks, as the criterion scans walk it, after a
    DomainError for any sample outside f's domain.  The result is NaN if any
    sample's deviation is not finite.  Each block inverts its upper side,
    then its lower side; a failed inversion names, over all blocks, the
    target that misses its bound by the largest factor.
    """
    fh = HarmonicMap.from_analytic(f)
    # Tight inversion bound |f(z) - w| <= 1e-14 * max(s, |w|): the error of
    # the inverse is amplified by 1/(2*FD_STEP) in the difference quotient.
    f_inv = lambda w: invert(fh, w, tol=1e-14)

    def deviation(pts):
        upper = build_phi(f_inv, mu, params, f.eval(pts + FD_STEP))
        lower = build_phi(f_inv, mu, params, f.eval(pts - FD_STEP))
        lhs = (upper - lower) / (2.0 * FD_STEP)
        rhs = params.c * herglotz_p(mu, pts) - 1j * params.c * params.c1
        return -np.abs(lhs - rhs)

    return -_worst_sample("structural identity", grid, (f,), deviation).margin


def big_phi_function(f: AnalyticFunction, phi_prime, gamma: float) -> AnalyticFunction:
    """Associated analytic ``Phi(w) = f^{-1}(w) / (e^{i gamma} phi'(w))``, as a bundle.

    Feeding this ``Phi`` into the ratio test ``Re(z f'(z)/Phi(f(z))) > 0``
    reproduces the positive-derivative condition on ``phi(f(z))``.  The
    derivative is a central finite difference of the value; that is accurate
    to far better than the 1e-4 validation bar and is only needed at the
    origin by the ratio test.
    """
    fh = HarmonicMap.from_analytic(f)

    def value(w):
        pp = np.asarray(phi_prime(w), dtype=complex)
        if _vanishes(pp, pp) is not None:
            raise SingularDerivativeError("phi'(w) vanishes")
        return invert(fh, w) / (np.exp(1j * gamma) * pp)

    def deriv(w):
        return (value(w + FD_STEP) - value(w - FD_STEP)) / (2.0 * FD_STEP)

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
    outside = mag > clamp
    if not outside.any():
        return z
    return np.where(outside, z * (clamp / np.maximum(mag, clamp)), z)


def _same_bits(a, b):
    """Per element, whether two complex arrays hold the same bits."""
    return (a.view(np.uint64) == b.view(np.uint64)).reshape(-1, 2).all(axis=1)


def _newton_sweep(f: HarmonicMap, w, z, fz, bound, clamp, unit):
    """Damped Newton iterations from the seeds ``z``, whose images are ``fz``.

    Returns ``(z, residual)``, with the iterates written into ``z``.  Only
    targets whose residual still exceeds ``bound`` are iterated, and the sweep
    holds their state in compact arrays, writing it back when a target
    leaves: when it converges, or when its next iteration would repeat this
    one bit for bit, because its step stayed worse through 20 halvings or
    landed on the iterate itself.  A halving values only the targets whose
    candidate is still worse.  Each kernel gives an element the same bits
    wherever it sits in the array, so every target takes the arithmetic it
    would take if all of them ran every pass.

    ``unit``, a power of two (:func:`_unit`), multiplies h', g' and the
    residual in the step, so that ``|h'|**2`` of a tiny map stays clear of the
    guard on the Jacobian; it is 1 for every map of ordinary size, and a
    power of two changes no bits of the step.  An analytic map
    (``f.analytic``) solves ``h' dz = r``: its zero g' terms are not valued.
    An iterate never has a -0 part, so the first try adds the step itself
    with the bits of adding ``1.0 * step``.
    """
    res = np.abs(w - fz)
    act = np.flatnonzero(res > bound)
    za, wa, resa, ba = z[act], w[act], res[act], bound[act]
    ra = wa - fz[act]
    for _ in range(50):
        if act.size == 0:
            break
        # Solve f_z*dz + f_zbar*conj(dz) = r with f_z = h', f_zbar = conj(g').
        hp, r = f.h.deriv(za), ra
        if unit != 1.0:
            hp, r = hp * unit, ra * unit
        # Out of place: NumPy's complex multiply in place (num *= r) can round a
        # one-item array otherwise.
        if f.analytic:  # |h'|**2 is never negative
            jac = np.abs(hp) ** 2
            num = np.conj(hp) * r
            solvable = jac > 1e-300
        else:
            gp = f.g.deriv(za)
            if unit != 1.0:
                gp = gp * unit
            jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
            num = np.conj(hp) * r - np.conj(gp) * np.conj(r)
            solvable = np.abs(jac) > 1e-300
        step = np.divide(num, jac, out=np.zeros_like(num), where=solvable)
        cand = _clamped(za + step, clamp)
        new_r = wa - _value(f, cand)
        new_res = np.abs(new_r)
        worse = np.flatnonzero(new_res > resa)
        scale = None
        for _half in range(20):
            if worse.size == 0:
                break
            if scale is None:
                scale = np.ones(za.size)
            scale[worse] /= 2.0
            c = _clamped(za[worse] + scale[worse] * step[worse], clamp)
            cand[worse] = c
            new_r[worse] = nr = wa[worse] - _value(f, c)
            new_res[worse] = nres = np.abs(nr)
            worse = worse[nres > resa[worse]]
        keep = new_res <= resa
        # A refused step, or a kept one that lands on its own iterate, would
        # repeat bit for bit, so its target leaves with the converged ones.
        going = new_res > ba
        going &= keep
        if (tie := np.flatnonzero(new_res == resa)).size:
            going[tie[_same_bits(cand[tie], za[tie])]] = False
        np.copyto(za, cand, where=keep)
        np.copyto(ra, new_r, where=keep)
        np.copyto(resa, new_res, where=keep)
        if not going.all():
            done = ~going
            z[act[done]], res[act[done]] = za[done], resa[done]
            act = act[going]
            za, wa, ra, resa, ba = za[going], wa[going], ra[going], resa[going], ba[going]
    z[act], res[act] = za, resa
    return z, res


def _seed_cloud(f: HarmonicMap, radius):
    """Deterministic polar seed cloud inside ``|z| <= radius`` and its image."""
    radii = radius * np.arange(1, _SEED_RINGS + 1) / (_SEED_RINGS + 1.0)
    angles = 2.0 * np.pi * np.arange(_SEED_RAYS) / _SEED_RAYS
    seeds = np.concatenate(([0.0 + 0.0j], np.outer(radii, np.exp(1j * angles)).ravel()))
    return seeds, eval_map(f, seeds)


def _nearest_seeds(images, w):
    """For each target, the index of the seed whose image lies nearest to it."""
    # Measured from f(0), the first image, so that the scores of a translated
    # map do not drown the gaps between them: with w and v taken from f(0),
    # |w - v|^2 = |w|^2 - (2 Re(w conj v) - |v|^2).  The first term is the same
    # for every seed, so the bracket, one real matrix product, ranks them.
    w, images = w - images[0], images - images[0]
    basis = np.stack([2.0 * images.real, 2.0 * images.imag, -np.abs(images) ** 2])
    targets = np.stack([w.real, w.imag, np.ones(w.size)], axis=1)
    out = np.empty(w.size, dtype=np.intp)
    score = np.empty((min(w.size, _SEED_BLOCK), images.size))
    for lo in range(0, w.size, _SEED_BLOCK):
        block = np.matmul(targets[lo:lo + _SEED_BLOCK], basis, out=score[:w.size - lo])
        np.argmax(block, axis=1, out=out[lo:lo + _SEED_BLOCK])
    return out


def invert(f: HarmonicMap, w, tol=1e-12):
    """Solve ``f(z) = w`` for z by damped Newton iteration.

    The harmonic map is treated as two real unknowns; the update solves the
    linearized system through the Wirtinger differentials ``f_z = h'`` and
    ``f_zbar = conj(g')`` (plain complex Newton would be wrong for ``g != 0``).
    Steps are halved while they increase the residual, and iterates are
    clamped inside the domain.  Each target starts from the point of a fixed
    polar seed cloud whose image is nearest to it, with that image as its
    first value of ``f``, so a few steps usually suffice; at most 50 are
    taken.  A target stops when it meets its bound, or when its step stays
    worse through 20 halvings or lands on the iterate itself, since every
    later step would repeat that one (see :func:`_newton_sweep`).  Where the
    scale ``s`` below is under ``2**-300``, the seeds are ranked and the steps
    taken in units of the power of two that brings ``s`` into [1, 2), so a map
    scaled far below 1 inverts like one of unit size; above it nothing is
    multiplied, and a power of two changes no bits in any case.  An analytic
    map (``f.analytic``) takes the step ``conj(h') r / |h'|**2`` without the
    terms of its zero g', and never values g.

    Parameters
    ----------
    f : HarmonicMap
        Must be sense-preserving near the solution.
    w : complex scalar or ndarray
        Target value(s).
    tol : float
        Relative residual bound ``|f(z) - w| <= tol * max(s, |w|)``
        (default 1e-12), where ``s = min(1, max |f(z_k) - f(0)| / max |z_k|)``
        over the seed cloud is the map's own scale.  Scaling by the image
        size keeps the bound above the rounding error of evaluating ``f``
        where ``|w|`` is large, and makes it relative for a small map.

    Raises
    ------
    DomainError
        If a target is not finite.
    InversionError
        If some target still exceeds its bound after the last step.
    """
    wv = np.atleast_1d(np.asarray(w, dtype=complex)).ravel()
    if not np.all(np.isfinite(wv)):
        raise DomainError(f"cannot invert at non-finite target w = {wv[~np.isfinite(wv)][0]}")
    clamp = f.domain_radius * (1.0 - 1e-9)
    seeds, images = _seed_cloud(f, clamp)
    scale = min(1.0, float(np.max(np.abs(images - images[0]) / np.max(np.abs(seeds)))))
    unit = _unit(scale)
    bound = tol * np.maximum(scale, np.abs(wv))
    # Ranked in units of the scale too, so that squares of a tiny map's
    # images do not underflow; a power of two changes no ranking.
    nearest = _nearest_seeds(images, wv) if unit == 1.0 else \
        _nearest_seeds(images * unit, wv * unit)
    z, res = _newton_sweep(f, wv, seeds[nearest], images[nearest], bound, clamp, unit)
    if np.any(res > bound):
        k = int(np.argmax(res / bound))
        raise InversionError(
            f"no convergence inverting '{f.label or 'map'}' at w = {wv[k]}: "
            f"residual {res[k]:.3g} exceeds {bound[k]:.3g}",
            w=complex(wv[k]), best_residual=float(res[k]), bound=float(bound[k]),
        )
    return z.reshape(np.shape(w)) if np.ndim(w) else complex(z[0])


# Below this scale a map's Newton steps and inverse partials are taken in a
# power of two of it: the guard on the Jacobian is 1e-300, which |h'|**2
# reaches at |h'| = 1e-150, about 2**-498.
_TINY_SCALE = 2.0 ** -300


def _unit(scale):
    """1 for a scale of at least ``_TINY_SCALE``; below it, the power of two that brings
    the scale into [1, 2), at most 2**1000."""
    if scale >= _TINY_SCALE:
        return 1.0
    return math.ldexp(1.0, min(1 - math.frexp(scale)[1], 1000))


def inverse_wirtinger(f: HarmonicMap) -> WirtingerFunction:
    """The inverse of a univalent harmonic map as a Wirtinger bundle.

    Partials come from inverting the differential at ``z = f^{-1}(w)``:

        d(f^{-1})/dw       =  conj(h'(z)) / J_f(z)
        d(f^{-1})/d(conj w) = -conj(g'(z)) / J_f(z)

    so composing back with ``f`` returns exactly (1, 0).  ``partials`` runs
    one Newton solve for both, and the bundle keeps no state between calls.
    Where the largest ``|h'|`` is below ``2**-300``, the derivatives are taken
    in the power of two that brings it into [1, 2) and the quotients scaled back,
    so that ``J_f`` of a tiny map does not underflow; a power of two changes
    no bits.
    """
    def partials(w, wbar):
        z = invert(f, w)
        hp, gp = f.h.deriv(z), f.g.deriv(z)
        size = np.abs(hp)
        unit = _unit(float(np.max(size, initial=0.0)))
        if unit != 1.0:
            hp, gp, size = hp * unit, gp * unit, size * unit
        jac = size ** 2 - np.abs(gp) ** 2
        pw, pwb = np.conj(hp) / jac, -np.conj(gp) / jac
        return (pw, pwb) if unit == 1.0 else (pw * unit, pwb * unit)

    return WirtingerFunction(eval=lambda w, wbar: invert(f, w), partials=partials)
