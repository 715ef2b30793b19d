"""JSON (de)serialization for maps, measures, parameters and reports.

Wire conventions, shared by the CLI and by anything persisting reports:

* complex numbers travel as two-element arrays ``[re, im]``;
* function specs are ``{"type": "named", "name": ..., "params": {...}}`` or
  ``{"type": "series", "h": [c1, c2, ...], "g": [d1, ...], "radius": r}``
  (series coefficients start at z^1; either part may be omitted or empty);
* perturbation specs are ``{"p": [...], "q": [...], "A": sup}``, with series
  parts as above and an optional closed-form sup of ``|p'| + |q'|``;
* measures are ``{"atoms": [[theta, weight], ...]}``;
* structural parameters are ``{"c": ..., "c1": ..., "c0": [re, im]}``;
* reports carry a ``schema_version`` so downstream parsers can pin layout.

NaN margins (inconclusive scans) serialize as null: strict JSON has no NaN.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .construct import Perturbation
from .gallery import get as gallery_get
from .herglotz import DiscreteMeasure, StructuralParams
from .mappings import GridSpec, HarmonicMap, constant_function, from_series

SCHEMA_VERSION = 1


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _finite_real(value, what: str) -> float:
    """``value`` as a finite float; ValueError for null, lists, objects and NaN/inf."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return x


def pair_to_complex(v) -> complex:
    """Accept finite ``[re, im]`` or a bare finite real; ValueError for anything else."""
    re_im = v if isinstance(v, (list, tuple)) else (v, 0.0)
    if len(re_im) == 2:
        try:
            return complex(*(_finite_real(x, "part") for x in re_im))
        except ValueError:
            pass
    raise ValueError(f"complex values serialize as [re, im] or a real number, got {v!r}")


def _plain(value):
    """Recursively coerce numpy scalars/containers into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, (complex, np.complexfloating)):
        return complex_to_pair(value)
    return value


def report_to_dict(report) -> dict:
    """CheckReport as a stable, versioned, JSON-safe dictionary."""
    grid = report.grid
    if isinstance(grid, GridSpec):
        grid = grid.to_dict()
    return _plain({
        "schema_version": SCHEMA_VERSION,
        "criterion": report.criterion,
        "verdict": report.verdict,
        "margin": report.margin,
        "witness": report.witness,
        "gamma": report.gamma,
        "grid": grid,
        "meta": report.meta,
    })


def dumps(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, no NaN."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False)


def map_from_spec(spec: dict) -> HarmonicMap:
    """Build a HarmonicMap from a function-spec dictionary."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("function spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "named":
        name = spec.get("name")
        if not isinstance(name, str):
            raise ValueError("named spec needs a string 'name'")
        params = spec.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object of real values")
        return gallery_get(name, {k: _finite_real(v, f"parameter {k!r}")
                                  for k, v in params.items()})
    if kind == "series":
        radius = _finite_real(spec.get("radius", 1.0), "'radius'")
        label = spec.get("label", "series map")
        return HarmonicMap(h=_series_part(spec, "h", radius), g=_series_part(spec, "g", radius),
                           label=str(label))
    raise ValueError(f"unknown function-spec type {kind!r}")


def _series_part(spec: dict, key: str, radius=1.0):
    """The series ``spec[key]`` (coefficients of z, z^2, ...); zero when absent or empty."""
    coeffs = spec.get(key, [])
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError(f"'{key}' must be a list of coefficients, got {coeffs!r}")
    if not coeffs:
        return constant_function(0.0, "0")
    return from_series([pair_to_complex(c) for c in coeffs], radius=radius)


def perturbation_from_spec(spec: dict) -> Perturbation:
    """Build a Perturbation ``p + conj(q)`` from a perturbation-spec dictionary."""
    if not isinstance(spec, dict):
        raise ValueError("perturbation spec must be an object with 'p', 'q' and 'A' fields")
    a_closed = spec.get("A")
    return Perturbation(p=_series_part(spec, "p"), q=_series_part(spec, "q"),
                        A_closed_form=None if a_closed is None
                        else _finite_real(a_closed, "'A'"))


def measure_from_dict(data: dict) -> DiscreteMeasure:
    if not isinstance(data, dict) or "atoms" not in data:
        raise ValueError("measure JSON must be an object with an 'atoms' list")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms):
        raise ValueError("'atoms' must be a list of [theta, weight] pairs")
    return DiscreteMeasure(tuple((_finite_real(t, "atom angle"),
                                  _finite_real(w, "atom weight")) for t, w in atoms))


def structural_params_from_dict(data: dict) -> StructuralParams:
    if not isinstance(data, dict):
        raise ValueError("structural params must be a JSON object")
    return StructuralParams(
        c=_finite_real(data.get("c", 1.0), "'c'"),
        c1=_finite_real(data.get("c1", 0.0), "'c1'"),
        c0=pair_to_complex(data.get("c0", 0.0)),
    )
