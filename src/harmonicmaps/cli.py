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
import functools
import json
import sys

import numpy as np

from . import jsonio
from .construct import _min_slack, budget_audit, conjugate_z_perturbation
from .construct import construct as build_map
from .criteria import (
    DEFAULT_N_EPSILON,
    DEFAULT_N_GAMMA,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    _worst_sample,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
)
from .errors import HarmonicMapsError
from .gallery import get as gallery_get, list_entries
from .herglotz import (
    build_phi,
    inverse_wirtinger,
    invert,
    verify_structural_identity,
)
from .mappings import (
    DEFAULT_GRID,
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    from_series,
    linear_wirtinger,
    _vanishes,
)
from .oracle import curve_simplicity, injectivity_scan, jacobian_positivity_scan
from .render import DEFAULT_RHO_MAX, svg_document

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2

# Structural-identity deviations above this are reported as violations.
HERGLOTZ_TOL = 1e-5


def _load_json_arg(text: str, what: str):
    """Parse inline JSON or @path indirection."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects name=value, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"parameter {key!r} needs a real value, got {value!r}") from exc
    return out


def _map_from_args(args) -> HarmonicMap:
    if getattr(args, "spec", None):
        return jsonio.map_from_spec(_load_json_arg(args.spec, "function spec"))
    if getattr(args, "named", None):
        return gallery_get(args.named, _parse_params(args.param))
    raise ValueError("select a map with --named or --spec")


def _grid_from_args(args) -> GridSpec:
    return GridSpec(n_radial=args.n_radial, n_angular=args.n_angular, r_max=args.r_max)


def _analytic_part(f: HarmonicMap, what: str, grid: GridSpec) -> AnalyticFunction:
    """The h part of a map whose g and g' vanish against h and h' on the grid's outer
    circle, where an analytic part is largest over the grid's disk (maximum modulus)."""
    ring = grid.r_max * np.exp(2j * np.pi * np.arange(grid.n_angular) / grid.n_angular)
    g = np.max(np.abs([f.g.eval(ring), f.g.deriv(ring)]))
    if _vanishes(g, [f.h.eval(ring), f.h.deriv(ring)]) is None:
        raise ValueError(f"{what} needs an analytic map (co-analytic part must vanish)")
    return f.h


def _parse_complex_flag(text: str, what: str) -> complex:
    re_s, _, im_s = text.partition(",")
    try:
        parts = float(re_s), float(im_s or 0.0)
    except ValueError as exc:
        raise ValueError(f"{what} expects re[,im], got {text!r}") from exc
    return complex(*(jsonio._finite_real(x, what) for x in parts))


def _phi_from_args(args, f: HarmonicMap):
    if args.phi == "inverse":
        return inverse_wirtinger(f)
    a = _parse_complex_flag(args.phi_a, "--phi-a")
    b = _parse_complex_flag(args.phi_b, "--phi-b")
    return linear_wirtinger(a, b)


def _perturbation_from_args(args):
    if args.pert == "conj":
        return conjugate_z_perturbation()
    if not args.pert_spec:
        raise ValueError("--pert series needs --pert-spec JSON")
    return jsonio.perturbation_from_spec(_load_json_arg(args.pert_spec, "perturbation spec"))


def _verdict_exit(verdict) -> int:
    return {VERDICT_HOLDS: EXIT_HOLDS, VERDICT_VIOLATED: EXIT_VIOLATED}.get(verdict, EXIT_INPUT)


def _check_philike(args, f, grid):
    fn = _analytic_part(f, "the ratio test", grid)
    alpha = jsonio._finite_real(args.spiral_alpha, "--spiral-alpha")
    Phi = from_series([np.exp(1j * alpha)], description=f"e^(i*{alpha:g})*w")
    return check_philike(fn, Phi, grid)


def _check_theoremB(args, f, grid):
    G = _analytic_part(gallery_get(args.G_named), f"comparison map {args.G_named!r}", grid)
    return check_theoremB(f, G, grid, n_gamma=args.n_gamma)


# The call behind each criterion but the oracle: (args, f, grid) -> CheckReport.
_CRITERION_CALLS = {
    "theorem1": lambda args, f, grid: check_theorem1(f, _phi_from_args(args, f), grid,
                                                     n_epsilon=args.n_epsilon),
    "corollary1": lambda args, f, grid: check_corollary1(f, _phi_from_args(args, f), grid),
    "theoremA": lambda args, f, grid: check_theoremA(f, grid, n_gamma=args.n_gamma),
    "theoremB": _check_theoremB,
    "philike": _check_philike,
}
CRITERIA = (*_CRITERION_CALLS, "oracle")


def _check_oracle(args, f, grid):
    """Injectivity, Jacobian and boundary-curve scans combined: the worst verdict wins."""
    inj = injectivity_scan(f, n_points=args.n, r_max=args.r_max, tol=args.tol)
    jac = jacobian_positivity_scan(f, grid)
    rho = min(jsonio._finite_real(args.rho, "--rho"), 0.99 * f.domain_radius)
    curve = curve_simplicity(f, rho=rho, n=max(64, args.n // 2))
    sub = [inj, jac, curve]
    verdict = min((r.verdict for r in sub),
                  key=(VERDICT_VIOLATED, VERDICT_INCONCLUSIVE, VERDICT_HOLDS).index)
    conclusive = [r.margin for r in sub if r.verdict != VERDICT_INCONCLUSIVE]
    payload = {
        "criterion": "oracle",
        "verdict": verdict,
        "margin": float("nan") if verdict == VERDICT_INCONCLUSIVE else min(conclusive),
        "reports": [r.to_dict() for r in sub],
    }
    return payload, ("named", "criterion", "n", "r_max", "tol", "rho"), _verdict_exit(verdict)


# A JSON subcommand returns (payload, invocation keys or None, exit code);
# main adds the schema version and the invocation record and writes it.

def cmd_check(args):
    f = _map_from_args(args)
    grid = _grid_from_args(args)
    if args.criterion == "oracle":
        return _check_oracle(args, f, grid)
    report = _CRITERION_CALLS[args.criterion](args, f, grid)
    return (report.to_dict(),
            ("named", "criterion", "n_radial", "n_angular", "r_max",
             "n_epsilon", "n_gamma", "phi", "G_named", "spiral_alpha"),
            _verdict_exit(report.verdict))


def cmd_bound(args):
    f = _map_from_args(args)
    pert = _perturbation_from_args(args)
    audit = budget_audit(f, pert, args.r, args.alpha, _grid_from_args(args))
    args.alpha = audit["alpha"]  # the invocation records the order used
    # The headline budget carries the documented 1% safety haircut;
    # the raw formula value is reported alongside.
    audit["epsilon0_raw"] = audit["epsilon0"]
    audit["epsilon0"] = audit.pop("epsilon0_safe")
    return audit, ("named", "r", "alpha", "pert", "n_radial", "n_angular", "r_max"), EXIT_HOLDS


def cmd_construct(args):
    f = _map_from_args(args)
    pert = _perturbation_from_args(args)
    grid = _grid_from_args(args)
    result = build_map(f, pert, args.r, args.eps, alpha=args.alpha,
                       grid=grid, unsafe=args.unsafe)
    args.alpha = result.alpha_used  # the invocation records the order used
    cert = _worst_sample("local univalence", grid, (result.F,),
                         lambda z: _min_slack(result.F, z)).margin
    payload = {
        "label": result.F.label,
        "epsilon_used": result.epsilon_used,
        "epsilon_budget": result.epsilon_budget,
        "m_r": result.m_r,
        "m_0": result.m_0,
        "A": result.A_sup,
        "r": result.r,
        "alpha": result.alpha_used,
        "local_univalence_margin": cert,
        "rigor_note": result.rigor_note,
    }
    return (payload, ("named", "r", "eps", "alpha", "pert", "unsafe"),
            EXIT_HOLDS if cert > 0.0 else EXIT_VIOLATED)


def cmd_herglotz(args):
    mu = jsonio.measure_from_dict(_load_json_arg(args.measure, "measure"))
    params = jsonio.structural_params_from_dict(
        _load_json_arg(args.params, "structural params") if args.params else {})
    f = _map_from_args(args)
    grid = _grid_from_args(args)
    fn = _analytic_part(f, "the structural identity", grid)
    deviation = verify_structural_identity(fn, mu, params, grid)
    sample_w = fn.eval(0.5 * np.exp(2j * np.pi * np.arange(8) / 8))
    phi_vals = build_phi(lambda w: invert(HarmonicMap.from_analytic(fn), w),
                         mu, params, sample_w)
    payload = {
        "max_identity_deviation": deviation,
        "tolerance": HERGLOTZ_TOL,
        "phi_samples": [{"w": jsonio.complex_to_pair(w), "phi": jsonio.complex_to_pair(p)}
                        for w, p in zip(sample_w, phi_vals)],
        "measure": mu.to_dict(),
        "params": vars(params),
    }
    return (payload, ("named", "n_radial", "n_angular", "r_max"),
            EXIT_HOLDS if deviation <= HERGLOTZ_TOL else EXIT_VIOLATED)


def cmd_render(args) -> int:
    """Write the SVG and print its path; the one subcommand without a JSON report."""
    f = _map_from_args(args)
    slit_named = {"h1", "h_r", "F_eps", "f_eps"}
    draw_slit = args.slit or (getattr(args, "named", None) in slit_named)
    text = svg_document(f, rho_max=args.rho_max, draw_slit=draw_slit)
    out = args.out or f"{(args.named or 'map')}.svg"
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc}") from exc
    sys.stdout.write(out + "\n")
    return EXIT_HOLDS


def cmd_gallery_list(args):
    return {"gallery": list_entries()}, None, EXIT_HOLDS


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--named", help="gallery map name (see gallery-list)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="gallery map parameter, repeatable")
    p.add_argument("--spec", help="function-spec JSON, inline or @file")


def _add_grid_flags(p: argparse.ArgumentParser, r_max=DEFAULT_GRID.r_max) -> None:
    p.add_argument("--n-radial", type=int, default=DEFAULT_GRID.n_radial)
    p.add_argument("--n-angular", type=int, default=DEFAULT_GRID.n_angular)
    p.add_argument("--r-max", type=float, default=r_max, dest="r_max")


def _add_budget_flags(p: argparse.ArgumentParser, with_eps=False) -> None:
    """The perturbation-budget inputs shared by bound and construct."""
    p.add_argument("--r", type=float, required=True)
    if with_eps:
        p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float,
                   help="order alpha >= 1 (default: the harmonic order 3)")
    p.add_argument("--pert", choices=("conj", "series"), default="conj")
    p.add_argument("--pert-spec", dest="pert_spec",
                   help='series perturbation JSON {"p":[...],"q":[...],"A":sup}')


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="harmonicmaps",
        description="Numerical univalence criteria, perturbation budgets and "
                    "disk-image rendering for planar harmonic mappings.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text)
        for add_flags in flag_groups:
            add_flags(p)
        p.set_defaults(func=func)
        return p

    pc = command("check", cmd_check, "run a criterion or oracle scan",
                 _add_map_flags, _add_grid_flags)
    pc.add_argument("--criterion", choices=CRITERIA, required=True)
    pc.add_argument("--n-epsilon", type=int, default=DEFAULT_N_EPSILON, dest="n_epsilon",
                    help="unimodular directions for the directional criterion")
    pc.add_argument("--n-gamma", type=int, default=DEFAULT_N_GAMMA, dest="n_gamma",
                    help="coarse rotation candidates for the gamma search")
    pc.add_argument("--phi", choices=("inverse", "linear"), default="inverse",
                    help="comparison function for theorem1/corollary1")
    pc.add_argument("--phi-a", default="1,0", dest="phi_a",
                    help="linear phi: coefficient of w as re[,im]")
    pc.add_argument("--phi-b", default="0,0", dest="phi_b",
                    help="linear phi: coefficient of conj(w) as re[,im]")
    pc.add_argument("--G-named", default="identity", dest="G_named",
                    choices=[e["name"] for e in list_entries() if not e["params"]],
                    help="analytic comparison map for theoremB")
    pc.add_argument("--spiral-alpha", type=float, default=0.0, dest="spiral_alpha",
                    help="philike: check against e^(i*alpha)*w")
    pc.add_argument("--n", type=int, default=400,
                    help="oracle: sample count for the injectivity scan")
    pc.add_argument("--tol", type=float, default=1e-6,
                    help="oracle: image-collision threshold, relative to the "
                         "image radius over the sample radius")
    pc.add_argument("--rho", type=float, default=0.9,
                    help="oracle: circle radius for the simplicity scan")

    command("bound", cmd_bound, "perturbation budget for f, phi, r, alpha",
            _add_map_flags, _add_grid_flags, _add_budget_flags)

    pk = command("construct", cmd_construct, "build f(rz) + eps*phi(z) within budget",
                 _add_map_flags, _add_grid_flags,
                 lambda p: _add_budget_flags(p, with_eps=True))
    pk.add_argument("--unsafe", action="store_true",
                    help="permit eps at or beyond the verified budget")

    ph = command("herglotz", cmd_herglotz, "structural derivative-identity check",
                 _add_map_flags, lambda p: _add_grid_flags(p, r_max=0.8))
    ph.add_argument("--measure", required=True,
                    help='measure JSON {"atoms":[[theta,weight],...]}, inline or @file')
    ph.add_argument("--params",
                    help='structural params JSON {"c":..,"c1":..,"c0":[re,im]}')

    pr = command("render", cmd_render, "write an SVG of the disk image", _add_map_flags)
    pr.add_argument("--rho-max", type=float, default=DEFAULT_RHO_MAX, dest="rho_max")
    pr.add_argument("--out", help="output path (default <name>.svg)")
    pr.add_argument("--slit", action="store_true",
                    help="draw the reference ray (-inf, -1]")

    command("gallery-list", cmd_gallery_list, "list named example maps")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes.
        return EXIT_INPUT if exc.code not in (0,) else 0
    # The one input-error boundary: every ValueError or package error raised
    # on the way from the command line to a report is bad input, exit 2.
    try:
        result = args.func(args)
        if isinstance(result, int):  # render writes its own output
            return result
        payload, keys, code = result
        report = {"schema_version": jsonio.SCHEMA_VERSION, **payload}
        if keys is not None:
            report["invocation"] = {k: getattr(args, k) for k in keys
                                    if getattr(args, k) is not None}
        sys.stdout.write(jsonio.dumps(report) + "\n")
        return code
    except (ValueError, HarmonicMapsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
