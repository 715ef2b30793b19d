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
from harmonicmaps.render import (
    N_CIRCLES,
    N_RAYS,
    RAY_SAMPLES,
    _BLOCK,
    _UNIT_CIRCLE,
    _path_data,
    disk_image_curves,
    svg_document,
)


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


# Digests of the documents as formatted one number at a time.  The identity,
# h0 and f_k hold numbers whose |x| * 1e6 lies near a half-integer.
@pytest.mark.parametrize("name, params, slit, digest", [
    ("identity", None, False, "1199958b1e944538193c185811336569dec462f31e778f3bdc07b4d6d4e39967"),
    ("cayley", None, False, "fb5db961ac9490d217471e14a91c2e8fe66689dfd166552b82a22b4e97e9b431"),
    ("koebe", None, False, "08f2da4e80e0009f3172dfa62bfa8b7daf8f2e1548745ff508eeefcac6364f34"),
    ("h0", None, False, "a889c0c95c2339017c54a5cce162ac1409494f4953a318f81d15478c4ab9c036"),
    ("h1", None, True, "93b5d04edaa63ebcf9524df76588703fd809437d22992fc9bf710b08f3166462"),
    ("h_r", {"r": 0.5}, True, "23bf6dd5458c73b1a334b011873ef27cd8eea4f20ca524f4203b53abbe3b220a"),
    ("F_eps", {"r": 0.5, "eps": 0.01}, True,
     "7c3e900275c3ecb92e7f18ce19b6f0011bdac30383afd216f0b3ff8ea2c2fcfe"),
    ("f_eps", {"r": 0.5, "eps": 0.01}, True,
     "aa27e91ef06055086a659e93b3b2e06a8ff32f738be2efd5c590817c247a9fad"),
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
    # its sign.
    values = [-0.0, 0.0, -4e-7, 4e-7, -10.0, 10.0, -1.2345675]
    points = np.array([complex(x, y) for x in values for y in values])
    assert _path_data([points]) == [_per_vertex_coords(points)]


def test_path_data_matches_the_per_number_reference_bit_for_bit():
    rng = np.random.default_rng(28)
    edge = 2.0 ** 52 / 1e6  # from here on |x| * 1e6 has no fraction bits
    # Within a few ulps of where the integer part reaches four digits, and
    # numbers of four to 301 integer digits; first, so their block also holds
    # ordinary numbers and half-integers.
    near_1000 = np.array([999.999999, 999.9999985, 999.9999995, 1000.0])
    wide = np.concatenate([
        (near_1000[:, None] + np.arange(-4, 5) * np.spacing(near_1000)[:, None]).ravel(),
        [1000.0000005, 9999.9999995], 10.0 ** np.arange(3, 301),
    ])
    values = np.concatenate([
        wide,
        [0.0, 4e-7, 5e-7, 0.0078125, 999.9999995, 4230.0000005, 1e12, 1e300],
        (np.arange(-20_000, 20_001) + 0.5) * 1e-6,
        edge * (1.0 + np.arange(-40, 41) * 2.0 ** -45),
        np.nextafter(edge, [0.0, np.inf]),
        10.0 ** rng.uniform(-8.0, 9.0, 100_000),
    ])
    values = np.concatenate((values, -values))
    points = values + 1j * rng.permutation(values)
    # Runs of every length from 1 up, so paths start and end anywhere in a block.
    counts = list(range(1, 600))
    counts.append(len(points) - sum(counts))
    curves = np.split(points, np.cumsum(counts)[:-1])
    # A curve in which every number goes through "%.6f" one at a time.
    slow = np.concatenate((wide, (np.arange(-50, 50) + 0.5) * 1e-6))
    slow = np.concatenate((slow, -slow))
    curves.append(slow + 1j * rng.permutation(slow))
    assert len(points) > 10 * _BLOCK
    assert _path_data(curves) == [_per_vertex_coords(c) for c in curves]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_svg_document_refuses_a_non_finite_image():
    # 1e308 * (1 + z + z**2) overflows to inf on the outer circles, and
    # 1e308 * (z - z**2) to inf - inf = nan.  Every scan calls such a map
    # inconclusive.
    f = map_from_spec({"type": "series", "h": [1e308, 1e308, 1e308]})
    with pytest.raises(ValueError, match="not finite"):
        svg_document(f)
    with pytest.raises(ValueError, match=r"nan"):
        svg_document(map_from_spec({"type": "series", "h": [0.0, 1e308, -1e308]}))


@pytest.mark.parametrize("name, params", [
    ("identity", None), ("cayley", None), ("koebe", None), ("h0", None), ("h1", None),
    ("h_r", {"r": 0.5}), ("F_eps", {"r": 0.5, "eps": 0.01}),
    ("f_eps", {"r": 0.5, "eps": 0.01}), ("f_k", {"k": 0.5}),
])
def test_disk_image_curves_match_one_eval_map_per_curve_bit_for_bit(name, params):
    f = gallery_get(name, params)
    rho = 0.9
    circles, rays = disk_image_curves(f, rho)
    radii = rho * np.arange(RAY_SAMPLES + 1) / RAY_SAMPLES
    expect = ([eval_map(f, rho * (j / N_CIRCLES) * _UNIT_CIRCLE) for j in range(1, N_CIRCLES + 1)]
              + [eval_map(f, radii * np.exp(2j * np.pi * k / N_RAYS)) for k in range(N_RAYS)])
    got = circles + rays
    assert len(got) == len(expect)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expect))
