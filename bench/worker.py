"""Benchmark worker: runs one workload's job list, pass after pass.

Started by ``run.py`` as a fresh process with one thread.  It reads its
configuration from the JSON file named by its one argument, imports
``harmonicmaps.cli`` from the checkout's ``src`` and builds the workload's
gallery maps, then writes ``ready`` on stdout: that moment ends the set-up
time ``run.py`` measures.  Unless asked for set-up only, it then runs the job
list in passes until the time budget is spent and writes one JSON line of
results.

A job is a ``harmonicmaps.cli.main(argv)`` call with stdout and stderr
captured, a direct call to a public function on a prebuilt map, or the
bound -> construct -> oracle chain.  Each job's output bytes are hashed
outside its timed region; the hash must be the same on every pass, traced or
not.  In trace mode passes alternate untraced and traced, and the traced ones
record spans through :class:`tracing.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import calibration_s, scale

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import harmonicmaps.cli  # noqa: F401  (the CLI import is part of set-up)

    where = Path(sys.modules["harmonicmaps"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"harmonicmaps imported from {where}, not from the checkout")
    return {name: importlib.import_module(f"harmonicmaps.{name}")
            for name in ("cli", "construct", "distortion", "gallery", "jsonio",
                         "mappings", "oracle")}


def _cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib["cli"].main(argv)
    return code, out.getvalue()


def _report_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def _outcome_from_cli(code, text):
    outcome = {"exit": code}
    if text.startswith("{"):
        data = json.loads(text)
        outcome["verdict"] = data.get("verdict")
        outcome["margin"] = data.get("margin",
                                     data.get("local_univalence_margin"))
        outcome["deviation"] = data.get("max_identity_deviation")
    return outcome


def _run_cli(job, lib, maps):
    code, text = _cli(lib, job["argv"])
    return (lambda: text, lambda: _outcome_from_cli(code, text))


def _run_call(job, lib, maps):
    fn = getattr(lib[job["module"]], job["func"])
    report = fn(maps[job["map"]], **job["kwargs"])
    return (lambda: _report_json(report),
            lambda: {"verdict": report.verdict, "margin": report.margin})


def _run_render(job, lib, maps):
    code, text = _cli(lib, job["argv"])
    out = ROOT / job["argv"][job["argv"].index("--out") + 1]
    return (lambda: text + out.read_text(encoding="utf-8"),
            lambda: {"exit": code})


def _run_chain(job, lib, maps):
    """Acceptance criterion 5 end to end: bound, construct, three oracles."""
    base = job["base"]
    code_b, text_b = _cli(lib, ["bound", *base])
    eps = job["eps_fraction"] * json.loads(text_b)["epsilon0"]
    code_c, text_c = _cli(lib, ["construct", *base, "--eps", repr(eps)])
    con, orc = lib["construct"], lib["oracle"]
    built = con.construct(maps[job["map"]], con.conjugate_z_perturbation(),
                          job["r"], eps, alpha=job["alpha"])
    reports = [orc.injectivity_scan(built.F, n_points=400),
               orc.jacobian_positivity_scan(built.F),
               *(orc.curve_simplicity(built.F, rho=rho) for rho in (0.5, 0.9))]
    holds = all(rep.verdict == "holds-on-samples" for rep in reports)
    return (lambda: text_b + text_c + "".join(map(_report_json, reports)),
            lambda: {"exit": max(code_b, code_c),
                     "verdict": "holds-on-samples" if holds else "violated",
                     "margin": min(rep.margin for rep in reports)})


RUNNERS = {"cli": _run_cli, "call": _run_call, "render": _run_render,
           "chain": _run_chain}


def run_pass(jobs, lib, maps, tracer=None):
    """One pass over the job list, a calibration before and after each job.

    Returns per-job records with the raw latency, the latency scaled to the
    reference speed (see ``calibrate.py``), the outcome and the output hash.
    """
    records = []
    before = calibration_s()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        t0 = time.perf_counter()
        try:
            output, outcome = RUNNERS[job["kind"]](job, lib, maps)
            error = None
        except Exception as exc:  # a job that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        after = calibration_s()
        if error is None:
            digest = hashlib.sha256(output().encode()).hexdigest()
            record = {"outcome": outcome(), "sha256": digest}
        else:
            record = {"outcome": {"error": error}, "sha256": None}
        record["raw_s"] = latency
        record["latency_s"] = scale(latency, before, after)
        records.append(record)
        before = after
    return records


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    lib = _import_library()
    maps = {key: lib["gallery"].get(spec["name"], spec.get("params"))
            for key, spec in cfg["maps"].items()}
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if cfg["setup_only"]:
        return
    jobs, trace = cfg["jobs"], cfg["trace"]
    tracer = None
    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    walls = {False: [], True: []}
    raw_walls = []
    latencies = [[] for _ in jobs]
    layers, spans_out = [], []
    first = None
    identical = True
    t_start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            tracer.spans = []
            tracer.install()
            try:
                records = run_pass(jobs, lib, maps, tracer)
            finally:
                tracer.uninstall()
            factors = {job["id"]: rec["latency_s"] / rec["raw_s"]
                       for job, rec in zip(jobs, records)}
            layers.append(layer_metrics(tracer.spans, factors))
            spans_out.append(tracer.spans)
        else:
            records = run_pass(jobs, lib, maps)
            raw_walls.append(sum(rec["raw_s"] for rec in records))
            for lat, rec in zip(latencies, records):
                lat.append(rec["latency_s"])
        walls[traced].append(sum(rec["latency_s"] for rec in records))
        if first is None:
            first = records
        identical &= all(a["sha256"] == b["sha256"] for a, b in zip(first, records))
        done = time.perf_counter() - t_start >= cfg["seconds"]
        if done and (not trace or walls[True]):
            break
    result = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_s": statistics.median(walls[False]),
        "pass_walls_s": walls[False],
        "raw_pass_walls_s": raw_walls,
        "job_latency_s": [statistics.median(lat) for lat in latencies],
        "outcomes": [rec["outcome"] for rec in first],
        "identical": identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        keys = set().union(*layers)
        result["layers"] = {k: statistics.median(m.get(k, 0.0) for m in layers)
                            for k in keys}
        result["layers"]["trace.overhead_s"] = \
            statistics.median(walls[True]) - statistics.median(walls[False])
        result["layers"]["trace.spans"] = statistics.median(len(s) for s in spans_out)
        result["layers"].update(near_pair_shares(lib, maps, cfg["pair_maps"]))
        _write_spans(spans_out, cfg["spans_file"])
    sys.stdout.write(json.dumps(result) + "\n")


def near_pair_share(lib, f, n=2000, r_max=0.95, block=250):
    """Share of sample pairs an exact image-space prune would keep.

    With m the worst ratio |f(z_i) - f(z_j)| / |z_i - z_j| over each point's
    nearest domain neighbour, any pair whose ratio is below m lies closer in
    the image than 2 * r_max * m.  The share counts those pairs among all
    n(n-1)/2 pairs of the n-point sunflower sample.
    """
    pts = lib["oracle"].sunflower_points(n, r_max)
    vals = np.asarray(lib["mappings"].eval_map(f, pts), dtype=complex)
    m = np.inf
    for s in range(0, n, block):
        rows = np.arange(s, min(s + block, n))
        dz = np.abs(pts[rows, None] - pts[None, :])
        dz[rows - s, rows] = np.inf
        j = np.argmin(dz, axis=1)
        m = min(m, float(np.min(np.abs(vals[rows] - vals[j]) / dz[rows - s, j])))
    near = 0
    for s in range(0, n, block):
        rows = np.arange(s, min(s + block, n))
        upper = np.arange(n)[None, :] > rows[:, None]
        near += int(np.count_nonzero(upper & (np.abs(vals[rows, None] - vals[None, :])
                                              < 2.0 * r_max * m)))
    return near / (n * (n - 1) / 2)


def near_pair_shares(lib, maps, pair_maps):
    """``oracle.near_pair_share.<map>`` for every pair map, and the mean over
    the maps this workload scans (0 when it scans none)."""
    shares = {key: near_pair_share(lib, maps.get(key) or
                                   lib["gallery"].get(spec["name"], spec.get("params")))
              for key, spec in pair_maps["all"].items()}
    own = [shares[key] for key in pair_maps["scanned"]]
    out = {f"oracle.near_pair_share.{key}": v for key, v in shares.items()}
    out["oracle.near_pair_share"] = statistics.fmean(own) if own else 0.0
    return out


def _write_spans(passes, path):
    """Write the kept spans as JSON lines, one span per line."""
    target = ROOT / path
    with open(target, "w", encoding="utf-8") as fh:
        for index, spans in enumerate(passes):
            for sid, (name, start, end, parent, job, error, counts) in enumerate(spans):
                fh.write(json.dumps({"pass": index, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "job": job, "error": error, "counts": counts})
                         + "\n")


if __name__ == "__main__":
    main()
