"""Deterministic vector rendering of disk images under harmonic maps.

Draws the images of concentric circles and radial rays under a map as SVG
paths, with the unit circle (and optionally the reference slit along
(-infinity, -1]) for orientation.  Output is a plain string with fixed
6-decimal coordinates, fixed element ordering, and no timestamps, so the same
invocation always produces byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .mappings import HarmonicMap, eval_map

# Default outer radius 11/12 puts the eleven default circles at j/12.
DEFAULT_RHO_MAX = 11.0 / 12.0
N_CIRCLES = 11
N_RAYS = 24
CIRCLE_SAMPLES = 512
RAY_SAMPLES = 160

# The closed unit circle, first vertex repeated: scaled for the image circles
# and drawn as the reference outline.
_UNIT_CIRCLE = np.exp(1j * (2.0 * np.pi * np.arange(CIRCLE_SAMPLES + 1) / CIRCLE_SAMPLES))


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _escape(text: str) -> str:
    """XML character data: ``&``, ``>`` and ``<`` as entities, in that order."""
    # xml.sax.saxutils.escape does the same, but importing it loads the HTTP stack.
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _path(points, stroke, width, dashed=False) -> str:
    # SVG's y axis points down; flip so the upper half-plane renders on top.
    # Every number has six decimals and only a "-" starts one, so the replace
    # changes exactly the numbers that _fmt changes.
    xy = np.column_stack((points.real, -points.imag)).ravel().tolist()
    coords = " L ".join(["%.6f %.6f"] * len(points)) % tuple(xy)
    coords = coords.replace("-0.000000", "0.000000")
    dash = ' stroke-dasharray="{0} {0}"'.format(_fmt(width * 4)) if dashed else ""
    return (f'<path d="M {coords}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" fill="none"{dash}/>')


def disk_image_curves(f: HarmonicMap, rho_max: float = DEFAULT_RHO_MAX):
    """Image polylines of concentric circles and radial rays under f.

    Returns ``(circles, rays)``: lists of complex ndarrays.  Circle radii are
    ``rho_max * j / N_CIRCLES`` (j = 1..N_CIRCLES); rays run from the origin
    to radius rho_max along ``N_RAYS`` equispaced directions.
    """
    if not 0.0 < rho_max < f.domain_radius:
        raise ValueError(f"rho_max must lie in (0, {f.domain_radius:g}), got {rho_max}")
    circles = [eval_map(f, rho_max * (j / N_CIRCLES) * _UNIT_CIRCLE)
               for j in range(1, N_CIRCLES + 1)]
    radii = rho_max * np.arange(RAY_SAMPLES + 1) / RAY_SAMPLES
    rays = [eval_map(f, radii * np.exp(2j * np.pi * k / N_RAYS))
            for k in range(N_RAYS)]
    return circles, rays


def svg_document(f: HarmonicMap, rho_max: float = DEFAULT_RHO_MAX,
                 draw_slit: bool = False) -> str:
    """Self-contained SVG of the disk image under f (deterministic bytes).

    ``draw_slit`` adds the reference ray (-infinity, -1] clipped to the
    viewport, for maps whose image is known to avoid it.
    """
    circles, rays = disk_image_curves(f, rho_max)
    pts = np.concatenate(circles + rays)
    xs = np.concatenate([np.real(pts), [-1.0, 1.0]])
    ys = np.concatenate([-np.imag(pts), [-1.0, 1.0]])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-6)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    diag = float(np.hypot(x1 - x0, y1 - y0))
    thin, thick = diag * 0.0012, diag * 0.0025
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f"<title>{_escape(f.label or 'harmonic map image')}</title>",
        '<g stroke-linejoin="round" stroke-linecap="round">',
        _path(_UNIT_CIRCLE, "#555555", thin, dashed=True),
    ]
    if draw_slit:
        parts.append(_path(np.array([complex(x0, 0.0), -1.0 + 0.0j]),
                           "#000000", thick))
    for curve in circles:
        parts.append(_path(curve, "#1f77b4", thin))
    for curve in rays:
        parts.append(_path(curve, "#d62728", thin * 0.8))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
