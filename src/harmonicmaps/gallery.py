"""Named closed-form example maps with fixed branch conventions.

The registry holds the worked examples every test and CLI command leans on:

* plain analytic maps: ``identity``, ``cayley`` (half-plane map z/(1-z)),
  ``koebe`` (z/(1-z)^2), ``h0`` (z + z^2/2),
* the sheared family ``f_k = h0 + conj(k*h0)`` for k in [0, 1),
* ``h1``: a conformal map of the disk onto the region outside the closed unit
  disk with the ray (-infinity, -1] removed, built from two nested principal
  square roots (see :func:`_h1_parts`),
* its dilations ``h_r(z) = h1(r z)`` and the perturbed maps
  ``F_eps = h_r + eps*conj(z)`` and ``f_eps = (1+eps)*h_r + eps*conj(z)``.

Every lookup is validated: the derivatives of both parts are checked
against central finite differences, and (once per process) the two
square-root arguments of h1 are sampled across the disk to prove they stay
clear of the branch cut (a silent branch flip would corrupt every downstream
check).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GalleryLookupError
from .mappings import (
    AnalyticFunction,
    HarmonicMap,
    combination,
    derivative_consistency,
    from_series,
    identity_function,
)
from .oracle import sunflower_points

# Relative finite-difference tolerance for build-time validation.
_FD_TOL = 1e-4


@dataclass(frozen=True)
class GalleryEntry:
    """Registry row: builder plus the parameter names it requires."""

    name: str
    required_params: tuple
    notes: str
    builder: Callable


def _validate(fn: AnalyticFunction) -> None:
    """Check fn.deriv against finite differences on a fixed disk sample."""
    pts = sunflower_points(60, 0.9 * fn.domain_radius)
    err = derivative_consistency(fn, pts)
    if err > _FD_TOL:
        raise ValueError(f"derivative of '{fn.description}' disagrees with "
                         f"finite differences (rel. err {err:.2e})")


def _h0_function() -> AnalyticFunction:
    return from_series([1.0, 0.5], description="z + z^2/2")


def _f_k(k: float) -> HarmonicMap:
    if not 0.0 <= k < 1.0:
        raise GalleryLookupError(f"f_k needs k in [0, 1), got {k}")
    g = from_series([k, 0.5 * k], description=f"{k:g}*(z + z^2/2)")
    return HarmonicMap(h=_h0_function(), g=g, label=f"f_k(k={k:g})")


# ---------------------------------------------------------------------------
# h1 and its derived family.

def _h1_parts(z):
    """The nested surds of h1: returns (inner_arg, s, t, g).

    inner_arg = 3 - 8z/(1+z)^2, s = sqrt(inner_arg), t = 1 - 2/(1+s),
    g = sqrt(t); both roots principal.  h1 = ((1+g)/(1-g))^2.
    """
    inner = 3.0 - 8.0 * z / (1.0 + z) ** 2
    s = np.sqrt(inner)
    t = 1.0 - 2.0 / (1.0 + s)
    g = np.sqrt(t)
    return inner, s, t, g


def _h1_eval(z):
    _, _, _, g = _h1_parts(z)
    return ((1.0 + g) / (1.0 - g)) ** 2


def _h1_deriv(z):
    _, s, _, g = _h1_parts(z)
    du = 8.0 * (1.0 - z) / (1.0 + z) ** 3
    ds = -du / (2.0 * s)
    dt = 2.0 * ds / (1.0 + s) ** 2
    dg = dt / (2.0 * g)
    return 4.0 * (1.0 + g) / (1.0 - g) ** 3 * dg


def _assert_off_cut(values, what):
    """Fail loudly if any value sits on (or hugs) the cut (-inf, 0]."""
    v = np.asarray(values, dtype=complex).ravel()
    bad = (np.real(v) <= 0.0) & (np.abs(np.imag(v)) <= 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"{what} touches the branch cut at value {v[k]}; "
                         "principal square root would flip sheets")


@functools.cache
def _h1_function() -> AnalyticFunction:
    """h1, built once, after a branch-cut audit over the disk."""
    pts = np.concatenate([
        sunflower_points(2000, 0.999),
        0.999 * np.exp(2j * np.pi * np.arange(720) / 720),
    ])
    inner, _, t, _ = _h1_parts(pts)
    _assert_off_cut(inner, "inner square-root argument of h1")
    _assert_off_cut(t, "outer square-root argument of h1")
    return AnalyticFunction(eval=_h1_eval, deriv=_h1_deriv, domain_radius=0.999,
                            description="((1+g)/(1-g))^2 with nested principal roots")


def _h_r_function(r: float) -> AnalyticFunction:
    if not 0.0 < r < 1.0:
        raise GalleryLookupError(f"h_r needs r in (0, 1), got {r}")
    return combination([(1.0, _h1_function(), r)], description=f"h1({r:g}z)")


def _eps_z(eps: float) -> AnalyticFunction:
    return from_series([eps], description=f"{eps:g}*z")


_REGISTRY = (
    GalleryEntry("identity", (), "the identity map of the disk",
                 lambda: HarmonicMap.from_analytic(identity_function(), label="identity")),
    GalleryEntry("cayley", (), "half-plane map z/(1-z); convex image",
                 lambda: HarmonicMap.from_analytic(AnalyticFunction(
                     eval=lambda z: z / (1.0 - z),
                     deriv=lambda z: 1.0 / (1.0 - z) ** 2,
                     description="z/(1-z)"), label="cayley")),
    GalleryEntry("koebe", (), "extremal map z/(1-z)^2 onto a slit plane",
                 lambda: HarmonicMap.from_analytic(AnalyticFunction(
                     eval=lambda z: z / (1.0 - z) ** 2,
                     deriv=lambda z: (1.0 + z) / (1.0 - z) ** 3,
                     description="z/(1-z)^2"), label="koebe")),
    GalleryEntry("h0", (), "z + z^2/2; derivative 1+z has positive real part",
                 lambda: HarmonicMap.from_analytic(_h0_function(), label="h0")),
    GalleryEntry("f_k", ("k",),
                 "shear h0 + conj(k*h0); univalent (close-to-convex) for k in [0,1)",
                 _f_k),
    GalleryEntry("h1", (),
                 "conformal map onto the outside of the closed unit disk minus "
                 "the ray (-inf, -1]; nested principal square roots",
                 lambda: HarmonicMap.from_analytic(_h1_function(), label="h1")),
    GalleryEntry("h_r", ("r",), "dilation h1(rz), analytic on the closed disk",
                 lambda r: HarmonicMap.from_analytic(_h_r_function(r),
                                                     label=f"h_r(r={r:g})")),
    GalleryEntry("F_eps", ("r", "eps"),
                 "perturbed dilation h1(rz) + eps*conj(z)",
                 lambda r, eps: HarmonicMap(h=_h_r_function(r), g=_eps_z(eps),
                                            label=f"F_eps(r={r:g}, eps={eps:g})")),
    GalleryEntry("f_eps", ("r", "eps"),
                 "(1+eps)*h1(rz) + eps*conj(z); affine shear of F_eps",
                 lambda r, eps: HarmonicMap(
                     h=combination([(1.0 + eps, _h_r_function(r), 1.0)],
                                   description=f"{1.0 + eps:g}*h1({r:g}z)"),
                     g=_eps_z(eps), label=f"f_eps(r={r:g}, eps={eps:g})")),
)

_BY_NAME = {e.name: e for e in _REGISTRY}


def names() -> tuple:
    """Registry names in their stable documented order."""
    return tuple(e.name for e in _REGISTRY)


def list_entries() -> list:
    """Descriptors (name, required params, notes) for every gallery map."""
    return [{"name": e.name, "params": list(e.required_params), "notes": e.notes}
            for e in _REGISTRY]


def get(name: str, params: dict | None = None) -> HarmonicMap:
    """Build a gallery map by name.

    Parameters
    ----------
    name : str
        One of :func:`names`.
    params : dict, optional
        Real-valued parameters; exactly the entry's required set.

    Raises
    ------
    GalleryLookupError
        Unknown name, missing or unexpected parameters, or non-finite or
        out-of-range values.
    ValueError
        A part whose derivative disagrees with finite differences.
    """
    entry = _BY_NAME.get(name)
    if entry is None:
        raise GalleryLookupError(f"unknown gallery map {name!r}; "
                                 f"known: {', '.join(names())}")
    given = dict(params or {})
    missing = [p for p in entry.required_params if p not in given]
    extra = [p for p in given if p not in entry.required_params]
    if missing or extra:
        raise GalleryLookupError(
            f"map {name!r} takes parameters {list(entry.required_params)}; "
            f"missing {missing}, unexpected {extra}")
    try:
        args = [float(given[p]) for p in entry.required_params]
    except (TypeError, ValueError):
        args = [math.nan]  # not a real number: fails the finiteness test below
    if not all(map(math.isfinite, args)):
        raise GalleryLookupError(f"map {name!r} takes finite real parameters, got {given}")
    f = entry.builder(*args)
    _validate(f.h)
    _validate(f.g)
    return f
