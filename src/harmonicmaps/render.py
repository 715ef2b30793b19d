"""Deterministic vector rendering of disk images under harmonic maps.

Draws the images of concentric circles and radial rays under a map as SVG
paths, with the unit circle (and optionally the reference slit along
(-infinity, -1]) for orientation.  Output is a plain string with fixed
6-decimal coordinates, fixed element ordering, and no timestamps, so the same
invocation always produces byte-identical files.  Every coordinate reads as
``"%.6f"`` prints it, though all paths are formatted by array arithmetic, and
an image that is not finite at some sample is refused.
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
# Each ray direction is one scalar exp, as the rays were always sampled.
_RAY_DIRECTIONS = np.array([np.exp(2j * np.pi * k / N_RAYS) for k in range(N_RAYS)])

# Points formatted per block: whole paths, so about this many.  Larger
# blocks would fault in fresh pages for their arrays on every document.
_BLOCK = 2048


# Lookup words of four ASCII bytes, NUL where a byte is padding.  They are
# built as bytes and only copied, so their byte order is the text's.
def _words(chars) -> np.ndarray:
    return np.ascontiguousarray(chars, np.uint8).reshape(-1, 4).view(np.uint32).ravel()


_DIGITS3 = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
_NDIGITS = 1 + (np.arange(1000) >= 10) + (np.arange(1000) >= 100)
_NUL = np.zeros((1000, 1), np.uint8)
# The leading group of integer digits, right-aligned: "\0\0\0d" to "\0ddd",
# then from index 1000 the same behind a "-".
_LEAD = np.zeros((2, 1000, 4), np.uint8)
_LEAD[:, :, 1:] = np.where(np.arange(3) >= 3 - _NDIGITS[:, None], _DIGITS3, 0)
_LEAD[1, np.arange(1000), 3 - _NDIGITS] = ord("-")
_LEAD = _words(_LEAD)
# The fraction's two halves: ".ddd", then "ddd " after an x and, from index
# 1000, "ddd\0" after a y.
_HIGH = _words(np.hstack((_NUL + ord("."), _DIGITS3)))
_LOW = _words([np.hstack((_DIGITS3, _NUL + ord(" "))), np.hstack((_DIGITS3, _NUL))])
# What follows a y: " L " within a path, "\n" at its end.
_TAIL = _words(np.frombuffer(b" L \0\n\0\0\0", np.uint8))
# The three words of a number that _fmt prints: a marker byte where its text
# goes, NUL, then " " after an x (row 0) or NUL after a y (row 1).
_SLOW = _words([[1, 0, 0, 0] + [0] * 4 + [ord(" "), 0, 0, 0], [1] + [0] * 11]).reshape(2, 3)


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _escape(text: str) -> str:
    """XML character data: ``&``, ``>`` and ``<`` as entities, in that order."""
    # xml.sax.saxutils.escape does the same, but importing it loads the HTTP stack.
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _path_data(curves) -> list[str]:
    """The ``x y L x y ...`` text of each curve of finite points.

    Every number reads as ``_fmt`` prints it.  Whole curves are formatted
    together, a block of about ``_BLOCK`` points at a time.
    """
    texts, block = [], []
    for i, curve in enumerate(curves):
        block.append(curve)
        if sum(map(len, block)) >= _BLOCK or i == len(curves) - 1:
            texts += _block_text(np.concatenate(block), [len(c) for c in block])
            block = []
    return texts


def _block_text(points, counts) -> list[str]:
    """The text of consecutive runs of ``counts`` points, in one pass of array
    arithmetic.

    ``_fmt`` rounds the exact product ``|x| * 1e6`` half to even, and
    ``rint(t)`` rounds ``t = fl(|x| * 1e6)``, which lies within half a
    spacing of it.  Below ``2**52`` every half-integer is a double, so the
    product lies on ``t``'s side of each one unless ``t`` is one itself, and
    then both round alike.  The few numbers whose ``t`` is a half-integer or
    at least ``999_999_999`` (an integer part of 1000 or more after rounding)
    go through ``_fmt`` one at a time, so every other one is a ``_LEAD`` word.
    """
    # x and y per point.  SVG's y axis points down; flip so the upper
    # half-plane renders on top.
    xy = points.view(np.float64).reshape(-1, 2) * (1.0, -1.0)
    t = np.abs(xy) * 1e6
    slow = (t - np.floor(t) == 0.5) | (t >= 999_999_999.0)
    q = np.rint(np.where(slow, 0.0, t)).astype(np.int64)
    ip = q // 1_000_000
    frac = q - ip * 1_000_000
    high = frac // 1000
    sign = ((xy < 0) & (q != 0)) * 1000  # "-0.000000" prints as "0.000000"
    # A point is x then y, each as three words (integer part and the fraction's
    # two halves), then the tail.  Its bytes without the NULs are its text.
    words = np.empty((len(xy), 7), np.uint32)
    num = words[:, :-1].reshape(len(xy), 2, 3)
    num[..., 0] = _LEAD[ip + sign]
    num[..., 1] = _HIGH[high]
    num[..., 2] = _LOW[frac - high * 1000 + (0, 1000)]
    texts = [_fmt(x) for x in xy[slow].tolist()]
    if texts:
        num[slow] = _SLOW[np.nonzero(slow)[1]]
    words[:, -1] = _TAIL[0]
    words[np.cumsum(counts) - 1, -1] = _TAIL[1]
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if texts:  # each at its marker: xy's order is the text's
        text = "".join(p + s for p, s in zip(text.split("\1"), texts + [""]))
    return text.split("\n")[:-1]


def _path(coords: str, stroke, width, dashed=False) -> str:
    dash = ' stroke-dasharray="{0} {0}"'.format(_fmt(width * 4)) if dashed else ""
    return (f'<path d="M {coords}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" fill="none"{dash}/>')


def _disk_image(f: HarmonicMap, rho_max: float):
    """The circle samples then the ray samples, and their images under f."""
    if not 0.0 < rho_max < f.domain_radius:
        raise ValueError(f"rho_max must lie in (0, {f.domain_radius:g}), got {rho_max}")
    circles = (rho_max * (np.arange(1, N_CIRCLES + 1) / N_CIRCLES))[:, None] * _UNIT_CIRCLE
    radii = rho_max * np.arange(RAY_SAMPLES + 1) / RAY_SAMPLES
    z = np.concatenate((circles.ravel(), (radii * _RAY_DIRECTIONS[:, None]).ravel()))
    return z, eval_map(f, z)


def _curves(w):
    """The circles' and the rays' images, as views of ``_disk_image``'s."""
    split = N_CIRCLES * _UNIT_CIRCLE.size
    return list(w[:split].reshape(N_CIRCLES, -1)), list(w[split:].reshape(N_RAYS, -1))


def disk_image_curves(f: HarmonicMap, rho_max: float = DEFAULT_RHO_MAX):
    """Image polylines of concentric circles and radial rays under f.

    Returns ``(circles, rays)``: lists of complex ndarrays.  Circle radii are
    ``rho_max * j / N_CIRCLES`` (j = 1..N_CIRCLES); rays run from the origin
    to radius rho_max along ``N_RAYS`` equispaced directions.  All curves are
    valued in one ``eval_map`` call.
    """
    return _curves(_disk_image(f, rho_max)[1])


def svg_document(f: HarmonicMap, rho_max: float = DEFAULT_RHO_MAX,
                 draw_slit: bool = False) -> str:
    """Self-contained SVG of the disk image under f (deterministic bytes).

    ``draw_slit`` adds the reference ray (-infinity, -1] clipped to the
    viewport, for maps whose image is known to avoid it.  Raises
    ``ValueError`` when the image is not finite at some sample.
    """
    z, pts = _disk_image(f, rho_max)
    bad = np.flatnonzero(~np.isfinite(pts))
    if bad.size:
        k = bad[0]
        raise ValueError(f"cannot render: the image {complex(pts[k])} of "
                         f"z = {complex(z[k])} is not finite")
    # The viewport holds the image and the unit square; y is flipped below.
    x0, x1 = min(pts.real.min(), -1.0), max(pts.real.max(), 1.0)
    y0, y1 = min(-pts.imag.max(), -1.0), max(-pts.imag.min(), 1.0)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-6)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    diag = float(np.hypot(x1 - x0, y1 - y0))
    thin, thick = diag * 0.0012, diag * 0.0025
    circles, rays = _curves(pts)
    curves = [_UNIT_CIRCLE] + circles + rays
    styles = [("#555555", thin, True)] + [("#1f77b4", thin, False)] * N_CIRCLES \
        + [("#d62728", thin * 0.8, False)] * N_RAYS
    if draw_slit:
        curves.insert(1, np.array([complex(x0, 0.0), -1.0 + 0.0j]))
        styles.insert(1, ("#000000", thick, False))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f"<title>{_escape(f.label or 'harmonic map image')}</title>",
        '<g stroke-linejoin="round" stroke-linecap="round">',
    ]
    parts += [_path(text, *style) for text, style in zip(_path_data(curves), styles)]
    parts += ["</g>", "</svg>", ""]  # the empty part ends the file with a newline
    return "\n".join(parts)
