"""Pointwise evaluator layer: values, derivatives, Wirtinger chain rule."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from harmonicmaps import (
    AnalyticFunction,
    DiscreteMeasure,
    DomainError,
    GridSpec,
    HarmonicMap,
    SingularDerivativeError,
    StructuralParams,
    check_pairwise_bound,
    check_theorem1,
    check_theoremA,
    composed_wirtinger,
    constant_function,
    curve_simplicity,
    dilatation,
    eval_map,
    from_series,
    gallery_get,
    identity_function,
    inverse_wirtinger,
    jacobian,
    linear_wirtinger,
    sunflower_points,
)
from harmonicmaps.construct import A_GRID, conjugate_z_perturbation, construct, normalize
from harmonicmaps.gallery import names as gallery_names
from harmonicmaps.herglotz import big_phi_function, structural_phi_prime
from harmonicmaps.jsonio import map_from_spec
from harmonicmaps.mappings import (
    FD_STEP,
    analytic_wirtinger,
    combination,
    derivative_consistency,
)


def wirtinger_fd(func, w):
    """Finite-difference Wirtinger partials of ``w -> func(w, conj w)``.

    Uses d/dw = (d/dx - i d/dy)/2 and d/d(conj w) = (d/dx + i d/dy)/2.
    """
    w = np.asarray(w, dtype=complex)
    fx, fy = ((func(w + d, np.conj(w + d)) - func(w - d, np.conj(w - d))) / (2.0 * FD_STEP)
              for d in (FD_STEP, 1j * FD_STEP))
    return (fx - 1j * fy) / 2.0, (fx + 1j * fy) / 2.0


def composition_fd(f, phi, z):
    """Finite-difference partials of ``z -> phi(f(z), conj f(z))`` for cross-checks."""

    def psi(u, ubar):
        w = f.h.eval(u) + np.conj(f.g.eval(u))
        return phi.eval(w, np.conj(w))

    return wirtinger_fd(psi, z)


def disk_points(n, r_max=0.85, seed=0):
    rng = np.random.default_rng(seed)
    return r_max * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


# ---------------------------------------------------------------------------
# eval_map / jacobian / dilatation


def test_eval_identity():
    f = gallery_get("identity")
    assert eval_map(f, 0.3 + 0.4j) == 0.3 + 0.4j


def test_eval_h1_center():
    f = gallery_get("h1")
    assert_allclose(eval_map(f, 0j), 5.0 + 2.0 * np.sqrt(6.0), rtol=0, atol=1e-12)


def test_eval_f_k_half():
    # h0(0.5) = 0.625 is real, so f = (1 + k) * 0.625 at k = 0.5.
    f = gallery_get("f_k", {"k": 0.5})
    assert_allclose(eval_map(f, 0.5 + 0j), 0.9375, rtol=0, atol=1e-15)


def test_eval_outside_domain():
    f = gallery_get("identity")
    with pytest.raises(DomainError):
        eval_map(f, 1.5 + 0j)


def test_jacobian_identity():
    f = gallery_get("identity")
    for z in disk_points(5):
        assert_allclose(jacobian(f, z), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("z, expected", [(0j, 0.75), (0.5 + 0j, 1.6875)])
def test_jacobian_f_k(z, expected):
    # J = (1 - k^2) |1 + z|^2 for the sheared map.
    f = gallery_get("f_k", {"k": 0.5})
    assert_allclose(jacobian(f, z), expected, rtol=0, atol=1e-15)


def test_dilatation_identity_and_f_k():
    assert dilatation(gallery_get("identity"), 0.2 + 0.1j) == 0
    f = gallery_get("f_k", {"k": 0.5})
    for z in disk_points(10, seed=1):
        assert_allclose(dilatation(f, z), 0.5, rtol=0, atol=1e-14)


def test_dilatation_singular():
    f = HarmonicMap.from_analytic(from_series([0.0, 1.0], description="z^2"))
    with pytest.raises(SingularDerivativeError):
        dilatation(f, 0j)


def test_dilatation_ignores_the_scale_of_the_map():
    # h' of 1e-16 * f_k is about 1e-16, and its dilatation is still k.
    f = gallery_get("f_k", {"k": 0.5})
    tiny = HarmonicMap(h=combination([(1e-16, f.h, 1.0)]), g=combination([(1e-16, f.g, 1.0)]))
    assert_allclose(dilatation(tiny, disk_points(10, seed=1)), 0.5, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# composed Wirtinger chain rule


def test_composed_identity_phi():
    f = gallery_get("f_k", {"k": 0.5})
    phi = linear_wirtinger(1.0, 0.0)
    z = 0.3 - 0.2j
    psi_z, psi_zb = composed_wirtinger(f, phi, z)
    assert_allclose(psi_z, f.h.deriv(z), rtol=0, atol=1e-15)
    assert_allclose(psi_zb, np.conj(f.g.deriv(z)), rtol=0, atol=1e-15)


def test_composed_f_k_cancelling_phi():
    # phi(w, wbar) = -w/k + wbar collapses the pair to ((k - 1/k) h0', 0).
    f = gallery_get("f_k", {"k": 0.5})
    phi = linear_wirtinger(-2.0, 1.0)
    psi_z, psi_zb = composed_wirtinger(f, phi, 0j)
    assert_allclose(psi_z, -1.5, rtol=0, atol=1e-14)
    assert_allclose(psi_zb, 0.0, rtol=0, atol=1e-14)


def test_composed_numerical_inverse():
    from harmonicmaps import inverse_wirtinger

    f = gallery_get("f_k", {"k": 0.5})
    phi = inverse_wirtinger(f)
    pts = disk_points(40, seed=3)
    psi_z, psi_zb = composed_wirtinger(f, phi, pts)
    assert np.max(np.abs(psi_z - 1.0)) < 1e-8
    assert np.max(np.abs(psi_zb)) < 1e-8


def test_jacobian_matches_partials_of_identity_composition():
    f = gallery_get("f_k", {"k": 0.3})
    phi = linear_wirtinger(1.0, 0.0)
    pts = disk_points(50, seed=4)
    psi_z, psi_zb = composed_wirtinger(f, phi, pts)
    assert_allclose(np.abs(psi_z) ** 2 - np.abs(psi_zb) ** 2,
                    jacobian(f, pts), rtol=1e-13, atol=1e-15)


GALLERY_SAMPLES = [
    ("identity", None),
    ("cayley", None),
    ("koebe", None),
    ("h0", None),
    ("f_k", {"k": 0.5}),
    ("h1", None),
    ("h_r", {"r": 0.9}),
    ("F_eps", {"r": 0.5, "eps": 0.01}),
    ("f_eps", {"r": 0.5, "eps": 0.01}),
]


@pytest.mark.parametrize("name, params", GALLERY_SAMPLES)
def test_fd_consistency_on_gallery(name, params):
    """Analytic derivatives match central differences at 100 interior points."""
    f = gallery_get(name, params)
    pts = disk_points(100, r_max=0.85 * f.domain_radius, seed=11)
    assert derivative_consistency(f.h, pts) <= 1e-4
    assert derivative_consistency(f.g, pts) <= 1e-4


@pytest.mark.parametrize("name, params", [("f_k", {"k": 0.5}), ("h1", None)])
def test_composed_wirtinger_matches_fd(name, params):
    f = gallery_get(name, params)
    phi = linear_wirtinger(1.3 - 0.2j, 0.4 + 0.1j)
    pts = disk_points(100, r_max=0.8 * f.domain_radius, seed=12)
    an_z, an_zb = composed_wirtinger(f, phi, pts)
    fd_z, fd_zb = composition_fd(f, phi, pts)
    scale = np.maximum(np.abs(an_z), 1.0)
    assert np.max(np.abs(an_z - fd_z) / scale) <= 1e-4
    assert np.max(np.abs(an_zb - fd_zb) / scale) <= 1e-4


def test_wirtinger_fd_on_linear():
    phi = linear_wirtinger(2.0 - 1.0j, 0.5j)
    pts = disk_points(20, seed=13)
    dw, dwb = wirtinger_fd(phi.eval, pts)
    assert np.max(np.abs(dw - (2.0 - 1.0j))) <= 1e-9
    assert np.max(np.abs(dwb - 0.5j)) <= 1e-9


# ---------------------------------------------------------------------------
# series evaluation


@given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6),
       st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_series_matches_polyval(coeffs, z):
    fn = from_series(coeffs)
    full = np.concatenate(([0.0], np.asarray(coeffs)))  # constant term is zero
    expected = np.polyval(full[::-1], z)
    assert abs(fn.eval(z) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_series_derivative():
    fn = from_series([1.0, 0.5, -2.0j])
    z = 0.3 + 0.1j
    assert_allclose(fn.deriv(z), 1.0 + 1.0 * z - 6.0j * z ** 2, rtol=1e-14)


def test_series_empty_is_zero():
    fn = from_series([])
    assert fn.eval(0.5 + 0.5j) == 0
    assert fn.deriv(0.1j) == 0


def test_constant_function_shapes():
    fn = constant_function(2.0 - 1.0j)
    assert fn.eval(0.5) == 2.0 - 1.0j
    out = fn.eval(np.zeros(4, dtype=complex))
    assert out.shape == (4,) and np.all(out == 2.0 - 1.0j)
    assert np.all(fn.deriv(np.zeros(4, dtype=complex)) == 0)


def test_maps_with_zero_g_are_analytic():
    assert gallery_get("koebe").analytic
    assert HarmonicMap(h=identity_function(), g=from_series([])).analytic
    assert map_from_spec({"type": "series", "h": [[1.0, 0.0], [0.5, 0.0]]}).analytic
    # Not the zero function that constant_function(0) builds: g is valued.
    for g in (constant_function(-0.0), constant_function(1e-300), from_series([0.0])):
        assert not HarmonicMap(h=identity_function(), g=g).analytic
    assert not gallery_get("f_k", {"k": 0.5}).analytic


@pytest.mark.parametrize("name", ["identity", "h0", "koebe", "cayley"])
def test_analytic_map_values_bit_for_bit(name):
    # +0 - 0i stands in for conj(g(z)); with +0 + 0i an h(z) whose imaginary
    # part is -0 would lose its sign.
    f = gallery_get(name)
    z = np.array([0j, complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, -0.0),
                  complex(-0.5, -0.0), 0.3 - 0.2j, -0.1 + 0.7j])
    g = constant_function(0.0)
    for value, full in [
        (eval_map(f, z), f.h.eval(z) + np.conj(g.eval(z))),
        (jacobian(f, z), np.abs(f.h.deriv(z)) ** 2 - np.abs(g.deriv(z)) ** 2),
    ]:
        assert value.view(np.uint64).tolist() == full.view(np.uint64).tolist()
    assert type(eval_map(f, 0.5 - 0j)) is type(f.h.eval(0.5 - 0j) + np.conj(g.eval(0.5 - 0j)))


# ---------------------------------------------------------------------------
# grid and type invariants


def test_grid_count_and_bounds():
    grid = GridSpec(n_radial=7, n_angular=12, r_max=0.6)
    pts = grid.points()
    assert pts.size == 7 * 12 + 1
    assert pts[0] == 0
    assert np.max(np.abs(pts)) <= 0.6 + 1e-15


@pytest.mark.parametrize("grid", [GridSpec(3, 8, 0.7), A_GRID])
def test_grid_reaches_r_max_exactly(grid):
    # rmax * n / n rounds below rmax on these two grids.
    radii = grid.points()[1::grid.n_angular].real
    assert radii[-1] == grid.r_max


@pytest.mark.parametrize("kwargs", [
    {"n_radial": 0}, {"n_angular": 0}, {"r_max": 0.0}, {"r_max": 1.0},
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**{"n_radial": 4, "n_angular": 8, "r_max": 0.5, **kwargs})


def _report_text(report):
    return json.dumps(report.to_dict())


_F_K = gallery_get("f_k", {"k": 0.5})
# Each count of a scan: its least, the message for a count below it, and the
# scan's output at a count, as text in which 8.0 and 8 differ.
COUNTS = {
    "GridSpec": (1, "grid needs at least one radial and one angular sample",
                 lambda n: _report_text(check_theoremA(_F_K, GridSpec(n, 8, 0.5)))),
    "check_theorem1": (4, "need at least 4 unimodular directions",
                       lambda n: _report_text(check_theorem1(
                           _F_K, linear_wirtinger(2, -1), GridSpec(4, 8), n_epsilon=n))),
    "_rotation_search": (8, "need at least 8 rotation candidates",
                         lambda n: _report_text(check_theoremA(_F_K, GridSpec(4, 8), n_gamma=n))),
    "curve_simplicity": (64, "need at least 64 circle points",
                         lambda n: _report_text(curve_simplicity(_F_K, 0.5, n=n))),
    "check_pairwise_bound": (8, "need at least 8 circle points",
                             lambda n: _report_text(check_pairwise_bound(_F_K, 0.5, n=n))),
    "sunflower_points": (1, "need at least one point",
                         lambda n: sunflower_points(n, 0.5).tobytes()),
}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_are_whole_numbers(name):
    # One rule for every count: a whole float is its int, and is reported as
    # one; 4.5 directions were sampled 2pi/4.5 apart, 8.0 angles raised
    # TypeError and 8.0 circle points IndexError.
    least, message, scan = COUNTS[name]
    assert scan(float(least)) == scan(least)
    for count in (least + 0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\(a whole number\), got"):
            scan(count)
    with pytest.raises(ValueError) as info:
        scan(least - 1)
    assert str(info.value) == message


def test_domain_radius_validation():
    with pytest.raises(ValueError):
        AnalyticFunction(eval=lambda z: z, deriv=lambda z: 1.0, domain_radius=1.5)


def test_harmonic_map_domain_radius_is_min():
    h = AnalyticFunction(eval=lambda z: z, deriv=lambda z: 1.0, domain_radius=0.7)
    g = constant_function(0.0)
    assert HarmonicMap(h=h, g=g).domain_radius == 0.7


# ---------------------------------------------------------------------------
# scalar/array contract of every evaluator bundle the package builds

_Z = np.array([0.2, 0.3 + 0.1j, -0.25j, -0.4 + 0.2j, 0.1 - 0.35j, 0.05 + 0.05j])
# A scalar call runs the kernel on 0-d arrays, whose arithmetic may round
# differently from the vectorized loops by an ulp or so.  big_phi's
# derivative is a central difference, which scales that by 1/(2*FD_STEP).
_RTOL = 8 * np.finfo(float).eps
_FD_RTOL = _RTOL / (2.0 * FD_STEP)
_GALLERY_PARAMS = {"f_k": {"k": 0.5}, "h_r": {"r": 0.5},
                   "F_eps": {"r": 0.5, "eps": 0.01}, "f_eps": {"r": 0.5, "eps": 0.01}}


def _parts(prefix, build):
    """Bundle factories for the ``h`` and ``g`` parts of the map ``build()``."""
    return {f"{prefix}.h": lambda: (build().h, _Z), f"{prefix}.g": lambda: (build().g, _Z)}


def _big_phi():
    koebe = gallery_get("koebe").h
    prime = structural_phi_prime(koebe, DiscreteMeasure.point_mass(), StructuralParams())
    return big_phi_function(koebe, prime, 0.0), koebe.eval(_Z)


def _inverse():
    f = gallery_get("f_k", {"k": 0.5})
    return inverse_wirtinger(f), eval_map(f, _Z)


ANALYTIC_BUNDLES = {
    **_parts("construct", lambda: construct(gallery_get("h0"), conjugate_z_perturbation(),
                                            0.5, 0.01, alpha=2.0).F),
    **_parts("normalize", lambda: normalize(HarmonicMap(from_series([2.0, 0.5]),
                                                        from_series([0.3])))[0]),
    "constant": lambda: (constant_function(0.3 - 0.1j), _Z),
    "identity": lambda: (identity_function(), _Z),
    "series": lambda: (from_series([1.0, 0.5j, -0.25]), _Z),
    "big_phi": _big_phi,
}
for _name in gallery_names():
    ANALYTIC_BUNDLES.update(_parts(_name, lambda n=_name: gallery_get(n, _GALLERY_PARAMS.get(n))))
WIRTINGER_BUNDLES = {
    "linear": lambda: (linear_wirtinger(1.0 + 2.0j, 0.5), _Z),
    "analytic": lambda: (analytic_wirtinger(from_series([1.0, 0.5])), _Z),
    "inverse": _inverse,
}


def _check_contract(call, pts, rtol=_RTOL):
    """Array calls keep shape and dtype; scalar calls give ``complex`` elements."""
    values = call(pts)
    assert isinstance(values, np.ndarray)
    assert values.dtype == complex and values.shape == pts.shape
    grid = call(pts.reshape(2, -1))
    assert isinstance(grid, np.ndarray) and grid.dtype == complex
    assert grid.shape == (2, pts.size // 2)
    assert np.array_equal(grid.ravel(), values)
    assert pts[0].imag == 0.0
    for k, scalar in [(0, float(pts[0].real)), *enumerate(map(complex, pts))]:
        value = call(scalar)
        assert type(value) is complex
        assert abs(value - values[k]) <= rtol * abs(values[k])


@pytest.mark.parametrize("name", sorted(ANALYTIC_BUNDLES))
def test_analytic_bundle_scalar_array_contract(name):
    fn, pts = ANALYTIC_BUNDLES[name]()
    _check_contract(fn.eval, pts)
    _check_contract(fn.deriv, pts, _FD_RTOL if name == "big_phi" else _RTOL)


@pytest.mark.parametrize("name", sorted(WIRTINGER_BUNDLES))
def test_wirtinger_bundle_scalar_array_contract(name):
    phi, pts = WIRTINGER_BUNDLES[name]()
    _check_contract(lambda w: phi.eval(w, np.conj(w)), pts)
    for k in (0, 1):
        _check_contract(lambda w, k=k: phi.partials(w, np.conj(w))[k], pts)
