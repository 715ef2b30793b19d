"""Command-line surface.

Subcommands
-----------
check        run a univalence criterion or the brute-force oracle on a map
bound        compute the perturbation budget numbers for f, phi, r, alpha
construct    build F(z) = f(rz) + eps*phi(z) inside the verified budget
herglotz     check the structural derivative identity for a measure
render       write an SVG of the disk image under a map
gallery-list list the named example maps

Maps are selected with ``--named NAME [--param k=v ...]`` or a full
``--spec`` JSON (inline or @file).  Reports are UTF-8 JSON on stdout with
sorted keys.  Exit codes: 0 the checked property holds on samples, 1 it is
violated, 2 bad input or an inconclusive evaluation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .construct import budget_audit, conjugate_z_perturbation, construct as build_map
from .criteria import (
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
)
from .errors import HarmonicMapsError
from .gallery import list_entries
from .herglotz import (
    DiscreteMeasure,
    build_phi,
    inverse_wirtinger,
    invert,
    verify_structural_identity,
)
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    DEFAULT_GRID,
    from_series,
    linear_wirtinger,
)
from .oracle import curve_simplicity, injectivity_scan, jacobian_positivity_scan
from .render import DEFAULT_RHO_MAX, svg_document

CRITERIA = ("theorem1", "corollary1", "theoremA", "theoremB", "philike", "oracle")

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2

# Structural-identity deviations above this are reported as violations.
HERGLOTZ_TOL = 1e-5


class _CliError(Exception):
    """Input-level failure; message printed to stderr, exit code 2."""


def _load_json_arg(text: str, what: str):
    """Parse inline JSON or @path indirection."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed {what} JSON: {exc}") from exc


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise _CliError(f"--param expects name=value, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise _CliError(f"parameter {key!r} needs a real value, got {value!r}") from exc
    return out


def _map_from_args(args) -> HarmonicMap:
    if getattr(args, "spec", None):
        spec = _load_json_arg(args.spec, "function spec")
        try:
            return jsonio.map_from_spec(spec)
        except (ValueError, HarmonicMapsError) as exc:
            raise _CliError(str(exc)) from exc
    if getattr(args, "named", None):
        try:
            from .gallery import get

            return get(args.named, _parse_params(args.param))
        except HarmonicMapsError as exc:
            raise _CliError(str(exc)) from exc
    raise _CliError("select a map with --named or --spec")


def _grid_from_args(args) -> GridSpec:
    try:
        return GridSpec(n_radial=args.n_radial, n_angular=args.n_angular,
                        r_max=args.r_max)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _analytic_part(f: HarmonicMap, what: str) -> AnalyticFunction:
    """The h part of a map asserted to have no co-analytic part."""
    probes = np.array([0.0, 0.3 + 0.2j, -0.4j]) * min(1.0, f.domain_radius)
    if np.max(np.abs(f.g.eval(probes))) > 1e-12 \
            or np.max(np.abs(f.g.deriv(probes))) > 1e-12:
        raise _CliError(f"{what} needs an analytic map (co-analytic part must vanish)")
    return f.h


def _parse_complex_flag(text: str, what: str) -> complex:
    try:
        re_s, _, im_s = text.partition(",")
        return complex(float(re_s), float(im_s or 0.0))
    except ValueError as exc:
        raise _CliError(f"{what} expects re[,im], got {text!r}") from exc


def _phi_from_args(args, f: HarmonicMap):
    if args.phi == "inverse":
        return inverse_wirtinger(f)
    a = _parse_complex_flag(args.phi_a, "--phi-a")
    b = _parse_complex_flag(args.phi_b, "--phi-b")
    return linear_wirtinger(a, b)


def _perturbation_from_args(args):
    if args.pert == "conj":
        return conjugate_z_perturbation()
    spec = _load_json_arg(args.pert_spec or "", "perturbation spec") \
        if args.pert_spec else None
    if spec is None:
        raise _CliError("--pert series needs --pert-spec JSON")
    from .construct import Perturbation
    from .mappings import constant_function

    p_coeffs = [jsonio.pair_to_complex(c) for c in spec.get("p", [])]
    q_coeffs = [jsonio.pair_to_complex(c) for c in spec.get("q", [])]
    p = from_series(p_coeffs) if p_coeffs else constant_function(0.0, "0")
    q = from_series(q_coeffs) if q_coeffs else constant_function(0.0, "0")
    a_closed = spec.get("A")
    return Perturbation(p=p, q=q,
                        A_closed_form=None if a_closed is None else float(a_closed))


def _emit(payload: dict) -> None:
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _verdict_exit(verdict) -> int:
    return {VERDICT_HOLDS: EXIT_HOLDS, VERDICT_VIOLATED: EXIT_VIOLATED}.get(verdict, EXIT_INPUT)


def _invocation(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_check(args) -> int:
    f = _map_from_args(args)
    grid = _grid_from_args(args)
    if args.criterion == "corollary1":
        report = check_corollary1(f, _phi_from_args(args, f), grid)
    elif args.criterion == "theorem1":
        report = check_theorem1(f, _phi_from_args(args, f), grid,
                                n_epsilon=args.n_epsilon)
    elif args.criterion == "theoremA":
        report = check_theoremA(f, grid, n_gamma=args.n_gamma)
    elif args.criterion == "theoremB":
        from .gallery import get

        G = _analytic_part(get(args.G_named), f"comparison map {args.G_named!r}")
        report = check_theoremB(f, G, grid, n_gamma=args.n_gamma)
    elif args.criterion == "philike":
        fn = _analytic_part(f, "the ratio test")
        alpha = float(args.spiral_alpha)
        rot = np.exp(1j * alpha)
        Phi = AnalyticFunction(eval=lambda w: rot * np.asarray(w, dtype=complex)
                               if np.ndim(w) else rot * w,
                               deriv=lambda w: np.full_like(np.asarray(w, dtype=complex), rot)
                               if np.ndim(w) else rot,
                               description=f"e^(i*{alpha:g})*w")
        report = check_philike(fn, Phi, grid)
    else:  # oracle
        inj = injectivity_scan(f, n_points=args.n, r_max=args.r_max, tol=args.tol)
        jac = jacobian_positivity_scan(f, grid)
        rho = min(args.rho, 0.99 * f.domain_radius)
        curve = curve_simplicity(f, rho=rho, n=max(64, args.n // 2))
        sub = [inj, jac, curve]
        verdict = min((r.verdict for r in sub),
                      key=(VERDICT_VIOLATED, VERDICT_INCONCLUSIVE, VERDICT_HOLDS).index)
        conclusive = [r.margin for r in sub if r.verdict != VERDICT_INCONCLUSIVE]
        payload = {
            "schema_version": jsonio.SCHEMA_VERSION,
            "criterion": "oracle",
            "verdict": verdict,
            "margin": float("nan") if verdict == VERDICT_INCONCLUSIVE else min(conclusive),
            "reports": [r.to_dict() for r in sub],
            "invocation": _invocation(args, ("named", "criterion", "n", "r_max",
                                             "tol", "rho")),
        }
        _emit(payload)
        return _verdict_exit(verdict)
    payload = report.to_dict()
    payload["invocation"] = _invocation(
        args, ("named", "criterion", "n_radial", "n_angular", "r_max",
               "n_epsilon", "n_gamma", "phi", "G_named", "spiral_alpha"))
    _emit(payload)
    return _verdict_exit(report.verdict)


def cmd_bound(args) -> int:
    f = _map_from_args(args)
    pert = _perturbation_from_args(args)
    grid = _grid_from_args(args)
    try:
        audit = budget_audit(f, pert, args.r, args.alpha, grid)
    except (ValueError, HarmonicMapsError) as exc:
        raise _CliError(str(exc)) from exc
    payload = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "C_r": audit["C_r"],
        "m_r": audit["m_r"],
        "m_0": audit["m_0"],
        "A": audit["A"],
        "alpha": audit["alpha"],
        # The headline budget carries the documented 1% safety haircut;
        # the raw formula value is reported alongside.
        "epsilon0": audit["epsilon0_safe"],
        "epsilon0_raw": audit["epsilon0"],
        "rigor_note": audit["rigor_note"],
        "invocation": _invocation(args, ("named", "r", "alpha", "pert",
                                         "n_radial", "n_angular", "r_max")),
    }
    _emit(payload)
    return EXIT_HOLDS


def cmd_construct(args) -> int:
    f = _map_from_args(args)
    pert = _perturbation_from_args(args)
    grid = _grid_from_args(args)
    try:
        result = build_map(f, pert, args.r, args.eps, alpha=args.alpha,
                           grid=grid, unsafe=args.unsafe)
    except (ValueError, HarmonicMapsError) as exc:
        raise _CliError(str(exc)) from exc
    F = result.F
    cert_pts = grid.points()
    cert = float(np.min(np.abs(F.h.deriv(cert_pts)) - np.abs(F.g.deriv(cert_pts))))
    payload = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "label": F.label,
        "epsilon_used": result.epsilon_used,
        "epsilon_budget": result.epsilon_budget,
        "m_r": result.m_r,
        "m_0": result.m_0,
        "A": result.A_sup,
        "r": result.r,
        "alpha": result.alpha_used,
        "local_univalence_margin": cert,
        "rigor_note": result.rigor_note,
        "invocation": _invocation(args, ("named", "r", "eps", "alpha", "pert",
                                         "unsafe")),
    }
    _emit(payload)
    return EXIT_HOLDS if cert > 0.0 else EXIT_VIOLATED


def cmd_herglotz(args) -> int:
    measure_data = _load_json_arg(args.measure, "measure")
    try:
        mu = jsonio.measure_from_dict(measure_data)
        params = jsonio.structural_params_from_dict(
            _load_json_arg(args.params, "structural params") if args.params else {})
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    f = _map_from_args(args)
    fn = _analytic_part(f, "the structural identity")
    grid = _grid_from_args(args)
    try:
        deviation = verify_structural_identity(fn, mu, params, grid)
    except HarmonicMapsError as exc:
        raise _CliError(str(exc)) from exc
    sample_w = fn.eval(0.5 * np.exp(2j * np.pi * np.arange(8) / 8))
    phi_vals = build_phi(lambda w: invert(HarmonicMap.from_analytic(fn), w),
                         mu, params, sample_w)
    payload = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "max_identity_deviation": deviation,
        "tolerance": HERGLOTZ_TOL,
        "phi_samples": [{"w": jsonio.complex_to_pair(w), "phi": jsonio.complex_to_pair(p)}
                        for w, p in zip(np.atleast_1d(sample_w), np.atleast_1d(phi_vals))],
        "measure": mu.to_dict(),
        "params": {"c": params.c, "c1": params.c1,
                   "c0": jsonio.complex_to_pair(params.c0)},
        "invocation": _invocation(args, ("named", "n_radial", "n_angular", "r_max")),
    }
    _emit(payload)
    return EXIT_HOLDS if deviation <= HERGLOTZ_TOL else EXIT_VIOLATED


def cmd_render(args) -> int:
    f = _map_from_args(args)
    slit_named = {"h1", "h_r", "F_eps", "f_eps"}
    draw_slit = args.slit or (getattr(args, "named", None) in slit_named)
    try:
        text = svg_document(f, rho_max=args.rho_max, draw_slit=draw_slit)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    out = args.out or f"{(args.named or 'map')}.svg"
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {out!r}: {exc}") from exc
    sys.stdout.write(out + "\n")
    return EXIT_HOLDS


def cmd_gallery_list(args) -> int:
    _emit({"schema_version": jsonio.SCHEMA_VERSION, "gallery": list_entries()})
    return EXIT_HOLDS


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--named", help="gallery map name (see gallery-list)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="gallery map parameter, repeatable")
    p.add_argument("--spec", help="function-spec JSON, inline or @file")


def _add_grid_flags(p: argparse.ArgumentParser, r_max=0.95) -> None:
    p.add_argument("--n-radial", type=int, default=40)
    p.add_argument("--n-angular", type=int, default=96)
    p.add_argument("--r-max", type=float, default=r_max, dest="r_max")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="harmonicmaps",
        description="Numerical univalence criteria, perturbation budgets and "
                    "disk-image rendering for planar harmonic mappings.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run a criterion or oracle scan")
    _add_map_flags(pc)
    _add_grid_flags(pc)
    pc.add_argument("--criterion", choices=CRITERIA, required=True)
    pc.add_argument("--n-epsilon", type=int, default=64, dest="n_epsilon",
                    help="unimodular directions for the directional criterion")
    pc.add_argument("--n-gamma", type=int, default=32, dest="n_gamma",
                    help="coarse rotation candidates for the gamma search")
    pc.add_argument("--phi", choices=("inverse", "linear"), default="inverse",
                    help="comparison function for theorem1/corollary1")
    pc.add_argument("--phi-a", default="1,0", dest="phi_a",
                    help="linear phi: coefficient of w as re[,im]")
    pc.add_argument("--phi-b", default="0,0", dest="phi_b",
                    help="linear phi: coefficient of conj(w) as re[,im]")
    pc.add_argument("--G-named", default="identity", dest="G_named",
                    help="analytic comparison map for theoremB")
    pc.add_argument("--spiral-alpha", type=float, default=0.0, dest="spiral_alpha",
                    help="philike: check against e^(i*alpha)*w")
    pc.add_argument("--n", type=int, default=400,
                    help="oracle: sample count for the injectivity scan")
    pc.add_argument("--tol", type=float, default=1e-6,
                    help="oracle: image-collision threshold")
    pc.add_argument("--rho", type=float, default=0.9,
                    help="oracle: circle radius for the simplicity scan")
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("bound", help="perturbation budget for f, phi, r, alpha")
    _add_map_flags(pb)
    _add_grid_flags(pb)
    pb.add_argument("--r", type=float, required=True)
    pb.add_argument("--alpha", type=float, default=3.0)
    pb.add_argument("--pert", choices=("conj", "series"), default="conj")
    pb.add_argument("--pert-spec", dest="pert_spec",
                    help='series perturbation JSON {"p":[...],"q":[...],"A":sup}')
    pb.set_defaults(func=cmd_bound)

    pk = sub.add_parser("construct", help="build f(rz) + eps*phi(z) within budget")
    _add_map_flags(pk)
    _add_grid_flags(pk)
    pk.add_argument("--r", type=float, required=True)
    pk.add_argument("--eps", type=float, required=True)
    pk.add_argument("--alpha", type=float, default=3.0)
    pk.add_argument("--pert", choices=("conj", "series"), default="conj")
    pk.add_argument("--pert-spec", dest="pert_spec")
    pk.add_argument("--unsafe", action="store_true",
                    help="permit eps at or beyond the verified budget")
    pk.set_defaults(func=cmd_construct)

    ph = sub.add_parser("herglotz", help="structural derivative-identity check")
    _add_map_flags(ph)
    _add_grid_flags(ph, r_max=0.8)
    ph.add_argument("--measure", required=True,
                    help='measure JSON {"atoms":[[theta,weight],...]}, inline or @file')
    ph.add_argument("--params",
                    help='structural params JSON {"c":..,"c1":..,"c0":[re,im]}')
    ph.set_defaults(func=cmd_herglotz)

    pr = sub.add_parser("render", help="write an SVG of the disk image")
    _add_map_flags(pr)
    pr.add_argument("--rho-max", type=float, default=DEFAULT_RHO_MAX, dest="rho_max")
    pr.add_argument("--out", help="output path (default <name>.svg)")
    pr.add_argument("--slit", action="store_true",
                    help="draw the reference ray (-inf, -1]")
    pr.set_defaults(func=cmd_render)

    pg = sub.add_parser("gallery-list", help="list named example maps")
    pg.set_defaults(func=cmd_gallery_list)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes.
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HarmonicMapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
