"""Registry lookups and the closed-form values of the named maps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from harmonicmaps import gallery, gallery_get, gallery_list
from harmonicmaps.errors import GalleryLookupError
from harmonicmaps.gallery import GalleryEntry, names
from harmonicmaps.mappings import (
    AnalyticFunction,
    HarmonicMap,
    constant_function,
    eval_map,
    identity_function,
)
from harmonicmaps.oracle import sunflower_points

EXPECTED_NAMES = ("identity", "cayley", "koebe", "h0", "f_k",
                  "h1", "h_r", "F_eps", "f_eps")


def test_registry_names_and_order():
    assert names() == EXPECTED_NAMES


def test_list_entries_descriptors():
    rows = gallery_list()
    assert [row["name"] for row in rows] == list(EXPECTED_NAMES)
    by_name = {row["name"]: row for row in rows}
    assert by_name["f_k"]["params"] == ["k"]
    assert by_name["F_eps"]["params"] == ["r", "eps"]
    assert all(row["notes"] for row in rows)


def test_lookup_errors():
    with pytest.raises(GalleryLookupError):
        gallery_get("mystery")
    with pytest.raises(GalleryLookupError):
        gallery_get("f_k")  # missing k
    with pytest.raises(GalleryLookupError):
        gallery_get("identity", {"k": 0.5})  # unexpected parameter
    with pytest.raises(GalleryLookupError):
        gallery_get("f_k", {"k": 1.0})  # out of range
    with pytest.raises(GalleryLookupError):
        gallery_get("h_r", {"r": 0.0})
    with pytest.raises(GalleryLookupError):
        gallery_get("F_eps", {"r": 0.5, "eps": float("nan")})
    for bad in (None, [0.5], "abc"):
        with pytest.raises(GalleryLookupError, match="real parameters"):
            gallery_get("f_k", {"k": bad})
    for name, params, key in [("f_k", {}, "k"), ("h_r", {}, "r"),
                              ("F_eps", {"eps": 0.01}, "r"), ("F_eps", {"r": 0.5}, "eps"),
                              ("f_eps", {"eps": 0.01}, "r"), ("f_eps", {"r": 0.5}, "eps")]:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(GalleryLookupError, match="finite real parameters"):
                gallery_get(name, {**params, key: bad})
    # GalleryLookupError doubles as a KeyError for dict-style callers, but
    # prints its message as given, without KeyError's quotes.
    assert issubclass(GalleryLookupError, KeyError)
    with pytest.raises(GalleryLookupError) as info:
        gallery_get("f_k", {"k": 1.5})
    assert str(info.value) == "f_k needs k in [0, 1), got 1.5"


@pytest.mark.parametrize("part", ["h", "g"])
def test_lookup_checks_derivative_of_both_parts(monkeypatch, part):
    # eval is 0.1 z but deriv claims 0.2: a builder with a wrong derivative
    # must not get past get(), whichever part it sits in.
    wrong = AnalyticFunction(eval=lambda z: 0.1 * z, deriv=lambda z: np.full_like(z, 0.2),
                             description="0.1z with a wrong derivative")
    parts = {"h": identity_function(), "g": constant_function(0.0), part: wrong}
    entry = GalleryEntry("h0", (), "patched", lambda: HarmonicMap(**parts))
    monkeypatch.setitem(gallery._BY_NAME, "h0", entry)
    with pytest.raises(ValueError, match="wrong derivative"):
        gallery_get("h0")


def test_analytic_values():
    z = 0.5 + 0.0j
    assert complex(eval_map(gallery_get("identity"), z)) == z
    assert_allclose(complex(eval_map(gallery_get("cayley"), z)), 1.0,
                    rtol=0, atol=1e-15)
    assert_allclose(complex(eval_map(gallery_get("koebe"), z)), 2.0,
                    rtol=0, atol=1e-15)
    assert_allclose(complex(eval_map(gallery_get("h0"), z)), 0.625,
                    rtol=0, atol=1e-15)


def test_f_k_shear_structure():
    f = gallery_get("f_k", {"k": 0.5})
    assert abs(complex(f.g.deriv(0j)) - 0.5) <= 1e-12  # g'(0) = k: not normalized
    f0 = gallery_get("f_k", {"k": 0.0})
    assert max(abs(f0.h.eval(0j)), abs(f0.g.eval(0j)),
               abs(f0.h.deriv(0j) - 1.0), abs(f0.g.deriv(0j))) <= 1e-12
    z = 0.3 - 0.2j
    h0_val = complex(gallery_get("h0").h.eval(z))
    assert_allclose(complex(eval_map(f, z)), h0_val + 0.5 * np.conj(h0_val),
                    rtol=0, atol=1e-15)


def test_h1_center_value():
    f = gallery_get("h1")
    assert_allclose(complex(eval_map(f, 0.0 + 0.0j)), 5.0 + 2.0 * np.sqrt(6.0),
                    rtol=0, atol=1e-9)
    assert f.domain_radius == 0.999


def test_h1_image_avoids_unit_disk_and_slit():
    f = gallery_get("h1")
    pts = sunflower_points(800, 0.99 * f.domain_radius)
    vals = eval_map(f, pts)
    assert np.min(np.abs(vals)) > 1.0
    in_band = (np.real(vals) <= -1.0) & (np.abs(np.imag(vals)) <= 1e-3)
    assert not np.any(in_band)


@pytest.mark.parametrize("value", [-2.0, 0.0, -0.5 + 1e-10j])
def test_assert_off_cut_refuses_a_value_on_the_cut(value):
    with pytest.raises(ValueError, match="branch cut"):
        gallery._assert_off_cut([1.0 + 1.0j, value], "test value")
    gallery._assert_off_cut([1.0 + 1.0j, value + 1e-3j], "test value")


def test_h_r_is_dilated_h1():
    h1 = gallery_get("h1")
    hr = gallery_get("h_r", {"r": 0.5})
    rng = np.random.default_rng(13)
    z = np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50)) * 0.99
    assert_allclose(eval_map(hr, z), eval_map(h1, 0.5 * z), rtol=0, atol=1e-12)
    assert hr.domain_radius == 1.0


@pytest.mark.parametrize("name, params", [
    ("h_r", {}), ("F_eps", {"eps": 0.01}), ("f_eps", {"eps": 0.01})])
def test_dilation_near_one_keeps_h1_domain(name, params):
    # h1 is declared (and branch-checked) only on |z| < 0.999, so h1(rz) is
    # valid on |z| < 0.999/r once r passes 0.999.
    f = gallery_get(name, {"r": 0.9995, **params})
    assert f.domain_radius == 0.999 / 0.9995


def test_perturbed_family_identities():
    r, eps = 0.5, 0.01
    hr = gallery_get("h_r", {"r": r})
    F = gallery_get("F_eps", {"r": r, "eps": eps})
    fe = gallery_get("f_eps", {"r": r, "eps": eps})
    rng = np.random.default_rng(17)
    z = np.sqrt(rng.random(60)) * np.exp(2j * np.pi * rng.random(60)) * 0.95
    hr_vals = eval_map(hr, z)
    assert_allclose(eval_map(F, z), hr_vals + eps * np.conj(z), rtol=0, atol=1e-12)
    # f_eps = h_r + eps*(h_r + conj z) = (1+eps)*h_r + eps*conj z
    assert_allclose(eval_map(fe, z), hr_vals + eps * (hr_vals + np.conj(z)),
                    rtol=1e-12, atol=1e-12)


GATHER_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                 "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_parts_give_gathered_samples_their_bits_bit_for_bit(name):
    # Newton's sweep values subsets of its targets, and keeps the bits of
    # valuing all of them only while each part gives an element the same
    # bits wherever it sits in the array.
    f = gallery_get(name, GATHER_PARAMS.get(name))
    rng = np.random.default_rng(2022)
    n = 15361
    z = 0.99 * f.domain_radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    subsets = [np.flatnonzero(rng.random(n) < share) for share in (0.001, 0.05, 0.5)]
    subsets += [np.arange(1, n, 3), np.arange(n - 5, n), np.array([0, n - 1]), np.array([7])]
    for fn in (f.h.eval, f.h.deriv, f.g.eval, f.g.deriv):
        full = fn(z)
        for kept in subsets:
            assert np.array_equal(fn(z[kept]).view(np.uint64), full[kept].view(np.uint64))


def test_builders_return_fresh_objects():
    a = gallery_get("h0")
    b = gallery_get("h0")
    assert a is not b
    assert complex(eval_map(a, 0.25 + 0.0j)) == complex(eval_map(b, 0.25 + 0.0j))
