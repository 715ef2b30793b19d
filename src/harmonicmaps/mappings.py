"""Pointwise analytic data for planar harmonic mappings.

A harmonic mapping of the unit disk splits as ``f = h + conj(g)`` with ``h``
and ``g`` analytic.  This module holds the small evaluator bundles everything
else is built from:

* :class:`AnalyticFunction` -- value + derivative of a single-valued analytic
  function (closed form or truncated power series),
* :class:`HarmonicMap` -- the pair ``(h, g)``,
* :class:`WirtingerFunction` -- a C^1 function ``phi(w, conj w)`` with both
  Wirtinger partials,
* :class:`GridSpec` -- the polar sample grid used by every criterion scan,

together with the pointwise operations: evaluation, Jacobian, dilatation and
the Wirtinger chain rule for compositions ``phi(f(z), conj f(z))``.

Evaluator bundles own the scalar/array convention.  Their kernels are
array-only: each argument reaches a kernel as a complex ndarray (0-d for a
scalar), and a kernel returns an array of the shape of its first argument,
or a tuple of such arrays.  The bundle returns ``complex`` for a scalar first
argument and a complex ndarray otherwise, element by element for a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, SingularDerivativeError

# Central finite-difference step used by every consistency validation.
# 1e-6 balances truncation against double-precision roundoff.
FD_STEP = 1e-6

# A value is (numerically) zero at or below this fraction of its scale.
SINGULAR_TOL = 1e-14


def _vanishes(values, scale):
    """Index of the least ``|values|`` (flattened) if it is at most SINGULAR_TOL times
    the largest finite ``|scale|``, else None: zero at the scale of the map, not absolute."""
    size, scale = np.abs(values).ravel(), np.abs(scale)
    k = int(size.argmin())
    return k if size[k] <= SINGULAR_TOL * scale.max(where=scale < np.inf, initial=0.0) else None


def _array_kernel(kernel):
    """Hand ``kernel`` complex ndarrays; return ``complex`` for a scalar first argument."""
    def call(z, *rest):
        z = np.asarray(z, dtype=complex)
        out = kernel(z, *(np.asarray(a, dtype=complex) for a in rest))
        convert = (lambda v: np.asarray(v, dtype=complex)) if z.ndim else complex
        return tuple(map(convert, out)) if isinstance(out, tuple) else convert(out)

    return call


@dataclass(frozen=True)
class AnalyticFunction:
    """Evaluator bundle for a single-valued analytic function.

    Parameters
    ----------
    eval : callable
        Array-only kernel ``z -> f(z)`` (see the module docstring).
    deriv : callable
        Array-only kernel ``z -> f'(z)``.
    domain_radius : float
        Radius of validity inside the unit disk, in (0, 1].  Branch choices
        are fixed at construction; ``eval`` must be single-valued for
        ``|z| < domain_radius``.
    description : str
        Human-readable label used in reports and rendered output.
    """

    eval: Callable
    deriv: Callable
    domain_radius: float = 1.0
    description: str = ""
    # Set only by constant_function(0): the zero function, whose value and
    # derivative are +0 at every point.
    zero: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.domain_radius <= 1.0:
            raise ValueError(f"domain_radius must lie in (0, 1], got {self.domain_radius}")
        for name in ("eval", "deriv"):
            object.__setattr__(self, name, _array_kernel(getattr(self, name)))


def constant_function(value=0.0, description="constant"):
    """Analytic function with constant value (derivative identically zero).

    With the value ``0`` (both parts +0) the bundle is marked ``zero``, so a
    harmonic map with it as ``g`` is known to be analytic.
    """
    c = complex(value)
    fn = AnalyticFunction(
        eval=lambda z: np.full_like(z, c),
        deriv=np.zeros_like,
        description=description,
    )
    if c == 0 and not (np.signbit(c.real) or np.signbit(c.imag)):
        object.__setattr__(fn, "zero", True)
    return fn


def identity_function():
    """The identity map ``z -> z``."""
    return AnalyticFunction(
        eval=lambda z: z,
        deriv=np.ones_like,
        description="z",
    )


def from_series(coeffs, radius=1.0, description=None):
    """Analytic function from power-series coefficients ``[c1, c2, ...]``.

    The constant term is zero: ``f(z) = c1*z + c2*z**2 + ...``.  Evaluation
    uses Horner form; the derivative series is differentiated termwise.

    Parameters
    ----------
    coeffs : sequence of complex
        Coefficients of z, z**2, ... in order.
    radius : float
        Declared radius of validity (default 1; caller override for series
        with smaller convergence radius).
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0:
        return constant_function(0.0, description or "0")
    dc = c * np.arange(1, c.size + 1)

    def _horner(coeffs, z):
        acc = np.zeros_like(z)
        for ck in coeffs[::-1]:
            acc = acc * z + ck
        return acc

    label = description or f"series[{c.size} coeffs]"
    return AnalyticFunction(eval=lambda z: _horner(c, z) * z, deriv=lambda z: _horner(dc, z),
                            domain_radius=radius, description=label)


def combination(terms, shift=0.0, description=""):
    """Analytic function ``z -> sum(c * fn(s*z)) + shift`` over ``(c, fn, s)`` terms.

    Its derivative is ``sum(c * s * fn'(s*z))``.  Each term needs
    ``|s z| < fn.domain_radius``, so the domain radius is the minimum of 1 and
    every ``fn.domain_radius / s``.
    """
    terms = tuple(terms)
    radius = min([1.0] + [fn.domain_radius / s for _, fn, s in terms])
    return AnalyticFunction(
        eval=lambda z: sum(c * fn.eval(s * z) for c, fn, s in terms) + shift,
        deriv=lambda z: sum(c * s * fn.deriv(s * z) for c, fn, s in terms),
        domain_radius=radius, description=description)


@dataclass(frozen=True)
class HarmonicMap:
    """Harmonic mapping ``f = h + conj(g)`` on a disk domain.

    The shared domain radius is the minimum of the two parts' radii.  No
    normalization is assumed: :func:`harmonicmaps.construct.normalize` maps
    f into the standard family.
    """

    h: AnalyticFunction
    g: AnalyticFunction
    label: str = ""

    @property
    def domain_radius(self) -> float:
        return min(self.h.domain_radius, self.g.domain_radius)

    @property
    def analytic(self) -> bool:
        """Whether g is the zero function :func:`constant_function` builds for 0 (as in
        :meth:`from_analytic`): known from how g was built, never from its values."""
        return self.g.zero

    @classmethod
    def from_analytic(cls, fn: AnalyticFunction, label=None):
        """The harmonic map ``fn + conj(0)``, labelled by fn's description by default."""
        return cls(h=fn, g=constant_function(0.0, "0"),
                   label=label if label is not None else fn.description)


@dataclass(frozen=True)
class WirtingerFunction:
    """C^1 function ``phi(w, conj w)`` with both Wirtinger partials.

    ``eval`` and ``partials`` are array-only kernels of ``(w, wbar)`` (see the
    module docstring); ``partials`` returns the pair ``(d/dw, d/d(conj w))``.
    """

    eval: Callable
    partials: Callable

    def __post_init__(self):
        for name in ("eval", "partials"):
            object.__setattr__(self, name, _array_kernel(getattr(self, name)))


def linear_wirtinger(a, b):
    """The function ``phi(w, wbar) = a*w + b*wbar`` with constant partials."""
    a, b = complex(a), complex(b)
    return WirtingerFunction(
        eval=lambda w, wbar: a * w + b * wbar,
        partials=lambda w, wbar: (np.full_like(w, a), np.full_like(w, b)),
    )


def analytic_wirtinger(fn: AnalyticFunction):
    """View an analytic ``phi(w)`` as a Wirtinger function (d/d(conj w) = 0)."""
    return WirtingerFunction(
        eval=lambda w, wbar: fn.eval(w),
        partials=lambda w, wbar: (fn.deriv(w), np.zeros_like(w)),
    )


@dataclass(frozen=True)
class GridSpec:
    """Polar sample grid on the closed disk ``|z| <= r_max`` including z=0.

    The sample count is ``size = n_radial * n_angular + 1``; radii are
    ``r_max * i/n_radial`` (i = 1..n_radial), the last exactly ``r_max``, and
    angles ``2*pi*j/n_angular``.

    The criterion scans and ``construct.estimate_m`` walk the grid in blocks of
    ``criteria.GRID_BLOCK`` samples through :meth:`samples`, which multiplies
    out only the rings a block falls on, so their memory does not grow with
    the resolution.  The block is a multiple of Newton's seed-ranking block
    (``herglotz._SEED_BLOCK``), so an inversion over the blocks ranks every
    target in the same matrix product as one over the whole grid.
    """

    n_radial: int = 40
    n_angular: int = 96
    r_max: float = 0.95

    def __post_init__(self):
        if self.n_radial < 1 or self.n_angular < 1:
            raise ValueError("grid needs at least one radial and one angular sample")
        if not 0.0 < self.r_max < 1.0:
            raise ValueError(f"r_max must lie in (0, 1), got {self.r_max}")

    @property
    def size(self) -> int:
        return self.n_radial * self.n_angular + 1

    @cached_property
    def _rings(self):
        """The ring radii and the unit angles, once per grid for every block of every scan."""
        radii = self.r_max * np.arange(1, self.n_radial + 1) / self.n_radial
        radii[-1] = self.r_max  # (rmax*n)/n can miss rmax by an ulp
        angles = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return radii, np.exp(1j * angles)

    def points(self) -> np.ndarray:
        """All sample points, z=0 first, then radii-major order."""
        return self.samples(0, self.size)

    def samples(self, start, stop) -> np.ndarray:
        """Samples ``start`` to ``stop - 1`` of :meth:`points`, with their bits.

        Only the rings they fall on are multiplied out, each ring as the row
        ``np.outer`` makes of it.  A radius has no imaginary part, so a
        point's bits do not depend on where the product loop meets it.
        """
        radii, units = self._rings
        n = self.n_angular
        lo, hi = max(start, 1) - 1, stop - 1  # offsets past the origin
        first, last = lo // n, -(-hi // n)
        zs = np.multiply(radii[first:last, None], units).ravel()[lo - first * n:hi - first * n]
        return np.concatenate(([0.0 + 0.0j], zs)) if start == 0 else zs

    def point(self, k) -> complex:
        """Sample ``k`` of :meth:`points`, with its bits."""
        return complex(self.samples(k, k + 1)[0])

    def to_dict(self):
        return {"kind": "polar", "n_radial": self.n_radial,
                "n_angular": self.n_angular, "r_max": self.r_max}


DEFAULT_GRID = GridSpec()


def _check_domain(f, z):
    zmax = np.max(np.abs(z))
    if zmax >= f.domain_radius:
        raise DomainError(f"|z| = {zmax:.6g} outside domain radius {f.domain_radius:.6g}")


# conj(g(z)) of the zero function g, +0 - 0i: adding it to h(z) gives the bits
# of adding conj of g's +0 values.
_CONJ_ZERO = complex(0.0, -0.0)


def _value(f: HarmonicMap, z):
    """``h(z) + conj(g(z))`` at points in f's domain; an analytic map's ``g`` is not
    valued, and the scalar ``+0 - 0i`` stands in for ``conj(g(z))`` (through
    ``np.add``, so a scalar sum is a NumPy complex, as with ``np.conj``)."""
    if f.analytic:
        return np.add(f.h.eval(z), _CONJ_ZERO)
    return f.h.eval(z) + np.conj(f.g.eval(z))


def eval_map(f: HarmonicMap, z):
    """Value ``h(z) + conj(g(z))`` of the harmonic map at z (scalar or array).

    An analytic map (``f.analytic``) does not value its zero ``g``: the scalar
    ``+0 - 0i`` is added instead, which gives the same bits.
    """
    _check_domain(f, z)
    return _value(f, z)


def jacobian(f: HarmonicMap, z):
    """Jacobian ``|h'(z)|**2 - |g'(z)|**2``; positive iff sense-preserving at z."""
    _check_domain(f, z)
    if f.analytic:  # |h'|**2 - 0.0 has the bits of |h'|**2
        return np.abs(f.h.deriv(z)) ** 2
    return np.abs(f.h.deriv(z)) ** 2 - np.abs(f.g.deriv(z)) ** 2


def dilatation(f: HarmonicMap, z):
    """Second complex dilatation ``g'(z)/h'(z)``.

    Raises
    ------
    SingularDerivativeError
        If ``h'`` vanishes at a requested point against the largest finite
        ``|h'|`` and ``|g'|`` there (see :func:`_vanishes`).
    """
    _check_domain(f, z)
    hp, gp = f.h.deriv(z), f.g.deriv(z)
    if (k := _vanishes(hp, [hp, gp])) is not None:
        raise SingularDerivativeError(f"h'(z) vanishes at z = {np.ravel(z)[k]}")
    return gp / hp


def composed_wirtinger(f: HarmonicMap, phi: WirtingerFunction, z):
    """Wirtinger partials of ``Psi(z) = phi(f(z), conj f(z))``.

    Chain rule for non-analytic compositions:

        Psi_z    = phi_w * h'(z) + phi_wbar * g'(z)
        Psi_zbar = phi_w * conj(g'(z)) + phi_wbar * conj(h'(z))

    Returns the pair ``(Psi_z, Psi_zbar)``.
    """
    _check_domain(f, z)
    w = _value(f, z)
    pw, pwb = phi.partials(w, np.conj(w))
    hp, gp = f.h.deriv(z), f.g.deriv(z)
    return pw * hp + pwb * gp, pw * np.conj(gp) + pwb * np.conj(hp)


# ---------------------------------------------------------------------------
# Finite-difference consistency checks (the validation oracle for evaluator
# bundles; all reported errors are relative).

def derivative_consistency(fn: AnalyticFunction, points):
    """Max relative deviation of ``fn.deriv`` from a central difference of ``fn.eval``."""
    z = np.asarray(points, dtype=complex)
    fd = (fn.eval(z + FD_STEP) - fn.eval(z - FD_STEP)) / (2.0 * FD_STEP)
    an = fn.deriv(z)
    scale = np.maximum(np.abs(an), 1.0)
    return float(np.max(np.abs(fd - an) / scale))

