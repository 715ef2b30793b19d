"""JSON wire format and deterministic SVG output."""

import hashlib
import json

import numpy as np
import pytest

from harmonicmaps import check_theoremA, gallery_get
from harmonicmaps.jsonio import (
    SCHEMA_VERSION,
    complex_to_pair,
    dumps,
    map_from_spec,
    measure_from_dict,
    pair_to_complex,
    report_to_dict,
    structural_params_from_dict,
)
from harmonicmaps.mappings import GridSpec, eval_map
from harmonicmaps.render import _path, disk_image_curves, svg_document


# ---------------------------------------------------------------------------
# JSON conventions


def test_complex_pair_roundtrip():
    assert complex_to_pair(1.5 - 2.0j) == [1.5, -2.0]
    assert pair_to_complex([1.5, -2.0]) == 1.5 - 2.0j
    assert pair_to_complex(3) == 3.0 + 0.0j
    with pytest.raises(ValueError):
        pair_to_complex([1.0, 2.0, 3.0])


def test_report_serialization_layout():
    rep = check_theoremA(gallery_get("h0"), GridSpec(10, 24, 0.5))
    d = report_to_dict(rep)
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["criterion"] == "theoremA"
    assert d["verdict"] == "holds-on-samples"
    assert isinstance(d["margin"], float)
    assert isinstance(d["witness"], list) and len(d["witness"]) == 2
    assert d["grid"] == {"kind": "polar", "n_radial": 10, "n_angular": 24,
                         "r_max": 0.5}
    json.loads(dumps(d))  # must be strict JSON


def test_dumps_is_deterministic_and_nan_safe():
    payload = {"b": np.float64(1.0), "a": complex(2, 3),
               "bad": float("nan"), "arr": np.array([1.0, 2.0])}
    text = dumps(payload)
    assert text == dumps({"a": 2 + 3j, "arr": [1.0, 2.0],
                          "b": 1.0, "bad": float("nan")})
    decoded = json.loads(text)
    assert decoded["bad"] is None
    assert decoded["a"] == [2.0, 3.0]
    assert list(decoded) == sorted(decoded)  # keys sorted


def test_map_from_named_spec():
    f = map_from_spec({"type": "named", "name": "f_k", "params": {"k": 0.5}})
    assert f.label == "f_k(k=0.5)"
    with pytest.raises(ValueError):
        map_from_spec({"name": "h0"})  # missing type
    with pytest.raises(ValueError):
        map_from_spec({"type": "mystery"})
    with pytest.raises(ValueError):
        map_from_spec({"type": "named", "name": 7})


def test_map_from_series_spec():
    f = map_from_spec({"type": "series", "h": [1.0, [0.0, 0.5]], "g": [0.25],
                       "label": "custom"})
    # h = z + 0.5i z^2, g = 0.25 z
    z = 0.4 + 0.0j
    expected = (0.4 + 0.5j * 0.16) + np.conj(0.25 * 0.4)
    assert complex(eval_map(f, z)) == pytest.approx(expected, abs=1e-15)
    assert f.label == "custom"
    # empty parts degrade to the zero function
    g_only = map_from_spec({"type": "series", "g": [1.0]})
    assert complex(eval_map(g_only, 0.3 + 0.1j)) == pytest.approx(0.3 - 0.1j,
                                                                  abs=1e-15)


def test_measure_and_params_from_dict():
    mu = measure_from_dict({"atoms": [[0.0, 0.25], [3.0, 0.75]]})
    assert mu.atoms == ((0.0, 0.25), (3.0, 0.75))
    with pytest.raises(ValueError):
        measure_from_dict({"atoms": [[0.0, 0.5, 0.2]]})
    with pytest.raises(ValueError):
        measure_from_dict({})
    sp = structural_params_from_dict({"c": 2.0, "c0": [1.0, -1.0]})
    assert sp.c == 2.0 and sp.c1 == 0.0 and sp.c0 == 1.0 - 1.0j
    assert structural_params_from_dict({}).c == 1.0


# ---------------------------------------------------------------------------
# rendering


def test_disk_image_curves_shapes():
    circles, rays = disk_image_curves(gallery_get("identity"), rho_max=0.9)
    assert len(circles) == 11 and len(rays) == 24
    # identity: outermost circle image has radius 0.9
    assert np.max(np.abs(circles[-1])) == pytest.approx(0.9, abs=1e-12)
    assert np.max(np.abs(rays[0])) == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError):
        disk_image_curves(gallery_get("identity"), rho_max=1.5)


def test_svg_document_structure():
    text = svg_document(gallery_get("h0"))
    assert text.startswith('<?xml version="1.0"')
    assert text.endswith("</svg>\n")
    assert "<title>h0</title>" in text
    assert text.count("<path") == 1 + 11 + 24  # unit circle + circles + rays
    assert "stroke-dasharray" in text  # unit circle is dashed
    assert "NaN" not in text and "nan" not in text


def test_svg_slit_toggle():
    base = svg_document(gallery_get("h1"))
    with_slit = svg_document(gallery_get("h1"), draw_slit=True)
    assert with_slit.count("<path") == base.count("<path") + 1
    assert '#000000' in with_slit and '#000000' not in base


def test_svg_bytes_are_reproducible():
    a = svg_document(gallery_get("h_r", {"r": 0.5}), draw_slit=True)
    b = svg_document(gallery_get("h_r", {"r": 0.5}), draw_slit=True)
    assert a == b


def test_svg_title_is_escaped():
    f = map_from_spec({"type": "series", "h": [1.0], "label": "<&evil>"})
    text = svg_document(f)
    assert "<title>&lt;&amp;evil&gt;</title>" in text


@pytest.mark.parametrize("name, params, slit, digest", [
    ("h1", None, True, "93b5d04edaa63ebcf9524df76588703fd809437d22992fc9bf710b08f3166462"),
    ("f_k", {"k": 0.5}, False, "05516f4411427de980c702af1afd2d43a039523281baa7af477ea5ae6ca3d866"),
])
def test_svg_document_bytes_are_pinned(name, params, slit, digest):
    text = svg_document(gallery_get(name, params), draw_slit=slit)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _per_vertex_coords(points):
    """Path coordinates as formatted one number at a time, the reference."""
    def fmt(x):
        s = f"{x:.6f}"
        return "0.000000" if s == "-0.000000" else s

    return " L ".join(f"{fmt(p.real)} {fmt(-p.imag)}" for p in points)


def test_path_formats_every_number_as_one_at_a_time():
    # -0.0 and -4e-7 print as "-0.000000" and become "0.000000"; -10.0 keeps
    # its sign, and nan and inf keep their names.
    values = [-0.0, 0.0, -4e-7, 4e-7, -10.0, 10.0, np.nan, np.inf, -np.inf, -1.2345675]
    points = np.array([complex(x, y) for x in values for y in values])
    assert _path(points, "#000000", 1.0).startswith(f'<path d="M {_per_vertex_coords(points)}" ')
