"""Benchmark runner: end-to-end and per-layer numbers for harmonicmaps.

Usage, from the root of a checkout::

    python3 bench/run.py --workload newton-criteria --seed 1 --seconds 25 --trace 0

The runner builds the workload's job list from the seed, measures set-up
time over several fresh worker processes, runs the job list in one more
worker (a closed loop with a single client: one job after another, one
thread), checks every job's outcome, and prints a run record followed by one
JSON line of metrics.  With ``--trace 1`` it prints the per-layer metrics of
a traced run instead.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("newton-criteria", "pairs-spread", "pairs-dense")

# Set-up is timed over this many worker spawns, after one untimed spawn that
# fills the bytecode and file caches.  Each spawn is scaled to the reference
# speed like every other time (see calibrate.py).
SETUP_SPAWNS = 5
# A run must end within 180 s; this deadline keeps a margin.
DEADLINE_S = 170.0

HOLDS, VIOLATED = "holds-on-samples", "violated"
# Acceptance criterion 3: theorem1 with phi = f^{-1} composes to the
# identity, whose directional margin is exactly pi/2.  For corollary1 the
# same composition gives Re Psi_z - |Psi_zbar| = 1 - 0 exactly.
THEOREM1_INVERSE_MIN = math.pi / 2.0 - 1e-3
COROLLARY1_INVERSE_MIN = 1.0 - 1e-3
HERGLOTZ_TOL = 1e-5

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}

PAIR_SPREAD = ("koebe", "f_k", "h0", "h1")
PAIR_DENSE = ("identity", "cayley", "h_r", "F_eps")
NEWTON_MAPS = ("identity", "h0", "f_k", "cayley", "koebe", "h1")


def map_specs(params):
    """Gallery specs of every map a workload may use, keyed by short name."""
    return {
        "identity": {"name": "identity"},
        "h0": {"name": "h0"},
        "f_k": {"name": "f_k", "params": {"k": params["k"]}},
        "cayley": {"name": "cayley"},
        "koebe": {"name": "koebe"},
        "h1": {"name": "h1"},
        "h_r": {"name": "h_r", "params": {"r": 0.5}},
        "F_eps": {"name": "F_eps", "params": {"r": 0.5, "eps": 0.01}},
    }


def map_flags(spec):
    flags = ["--named", spec["name"]]
    for key, value in spec.get("params", {}).items():
        flags += ["--param", f"{key}={value!r}"]
    return flags


def seed_params(seed):
    """Everything the seed decides; the size of the load does not depend on it."""
    rng = random.Random(seed)
    params = {"k": rng.uniform(0.3, 0.7), "eps_fraction": rng.uniform(0.5, 0.95)}
    herglotz = []
    for _ in range(6):
        thetas = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
        raw = [rng.random() + 0.05 for _ in thetas]
        weights = [w / sum(raw) for w in raw[:-1]]
        weights.append(1.0 - sum(weights))
        herglotz.append({
            "measure": {"atoms": [[t, w] for t, w in zip(thetas, weights)]},
            "params": {"c": rng.uniform(0.2, 3.0), "c1": rng.uniform(-2.0, 2.0),
                       "c0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]},
        })
    params["herglotz"] = herglotz
    return params


def _job(job_id, kind, expect, **fields):
    return {"id": job_id, "kind": kind, "expect": expect, **fields}


def _holds(min_margin=None):
    return {"verdict": HOLDS, "exit": 0, "min_margin": min_margin}


def newton_jobs(specs, params):
    """Newton inversion does most of the work here; no pair scan runs."""
    jobs = []
    grids = {"g40x96": ["--r-max", "0.9"],
             "g10x24": ["--n-radial", "10", "--n-angular", "24", "--r-max", "0.9"]}
    for gname, grid in grids.items():
        for key in NEWTON_MAPS:
            for crit, floor in (("theorem1", THEOREM1_INVERSE_MIN),
                                ("corollary1", COROLLARY1_INVERSE_MIN)):
                argv = ["check", *map_flags(specs[key]), "--criterion", crit, *grid]
                jobs.append(_job(f"{crit}.inverse.{gname}.{key}", "cli",
                                 _holds(floor), argv=argv))
    jobs.append(_job("theorem1.inverse.g80x192.koebe", "cli",
                     _holds(THEOREM1_INVERSE_MIN),
                     argv=["check", *map_flags(specs["koebe"]), "--criterion",
                           "theorem1", "--n-radial", "80", "--n-angular", "192",
                           "--r-max", "0.9"]))
    for i, key in enumerate(("identity", "cayley", "koebe") * 2):
        hz = params["herglotz"][i]
        jobs.append(_job(f"herglotz.{key}.{i // 3}", "cli",
                         {"exit": 0, "max_deviation": HERGLOTZ_TOL},
                         argv=["herglotz", *map_flags(specs[key]),
                               "--measure", json.dumps(hz["measure"]),
                               "--params", json.dumps(hz["params"])]))
    fine = ["--n-radial", "160", "--n-angular", "384", "--r-max", "0.99"]
    linear = ["--phi", "linear", "--phi-a", "2", "--phi-b", "-1"]
    light = (
        # For k in [0.3, 0.7] no rotation works for f_k near the boundary
        # (acceptance criterion 4); h0 keeps Re h' >= 0.01 on the grid.
        ("theoremA", "f_k", [], {"verdict": VIOLATED, "exit": 1}),
        ("theoremA", "h0", [], _holds()),
        ("theoremB", "f_k", ["--G-named", "cayley"], {"verdict": VIOLATED, "exit": 1}),
        ("theoremB", "koebe", ["--G-named", "cayley"], _holds()),
        ("philike", "koebe", [], _holds()),
        ("philike", "h0", [], _holds()),
        ("theorem1", "f_k", linear, _holds()),
        ("theorem1", "h0", linear, _holds()),
    )
    for crit, key, extra, expect in light:
        tag = "linear" if extra is linear else "search"
        jobs.append(_job(f"{crit}.{tag}.g160x384.{key}", "cli", expect,
                         argv=["check", *map_flags(specs[key]), "--criterion",
                               crit, *extra, *fine]))
    # h1 is univalent, but today's inversion fails on these two grids; they
    # count in the failure share, and holding with the criterion-3 margin is
    # the expected outcome once inversion converges.
    for job_id, grid in (("theorem1.inverse.g40x96r95.h1", ["--r-max", "0.95"]),
                         ("theorem1.inverse.g160x48.h1",
                          ["--n-radial", "160", "--n-angular", "48", "--r-max", "0.9"])):
        jobs.append(_job(job_id, "cli", _holds(THEOREM1_INVERSE_MIN),
                         argv=["check", *map_flags(specs["h1"]), "--criterion",
                               "theorem1", *grid]))
    jobs.append(_job("gallery-list", "cli", {"exit": 0}, argv=["gallery-list"]))
    return jobs


def pair_jobs(specs, workload, keys):
    """The pair kernels at several sizes, the CLI oracle and a render, per map."""
    jobs = []
    for key in keys:
        flags = map_flags(specs[key])
        calls = (
            ("oracle", "injectivity_scan", {"n_points": 8000}),
            ("oracle", "injectivity_scan", {"n_points": 2000}),
            ("distortion", "check_pairwise_bound", {"r": 0.5, "n": 2048}),
            ("distortion", "check_pairwise_bound", {"r": 0.9, "n": 2048}),
            ("distortion", "check_pairwise_bound", {"r": 0.7, "n": 512}),
            ("oracle", "curve_simplicity", {"rho": 0.9, "n": 256}),
            ("oracle", "curve_simplicity", {"rho": 0.5, "n": 1024}),
        )
        jobs.append(_job(f"oracle.n2048.{key}", "cli", _holds(),
                         argv=["check", *flags, "--criterion", "oracle", "--n", "2048"]))
        jobs.append(_job(f"oracle.n400.{key}", "cli", _holds(),
                         argv=["check", *flags, "--criterion", "oracle"]))
        for module, func, kwargs in calls:
            size = "-".join(f"{k}{v}" for k, v in kwargs.items())
            jobs.append(_job(f"{func}.{size}.{key}", "call", {"verdict": HOLDS},
                             module=module, func=func, map=key, kwargs=kwargs))
        jobs.append(_job(f"render.{key}", "render", {"exit": 0},
                         argv=["render", *flags, "--out",
                               f".bench_out/{workload}-{key}.svg"]))
    return jobs


def build_workload(workload, seed):
    """(jobs, maps built at set-up, pair maps scanned) for one workload."""
    params = seed_params(seed)
    specs = map_specs(params)
    if workload == "newton-criteria":
        return params, newton_jobs(specs, params), \
            {k: specs[k] for k in NEWTON_MAPS}, []
    keys = PAIR_SPREAD if workload == "pairs-spread" else PAIR_DENSE
    jobs = pair_jobs(specs, workload, keys)
    big = "h1" if workload == "pairs-spread" else "h_r"
    jobs.append(_job(f"curve_simplicity.rho0.9-n2048.{big}", "call", {"verdict": HOLDS},
                     module="oracle", func="curve_simplicity", map=big,
                     kwargs={"rho": 0.9, "n": 2048}))
    maps = {k: specs[k] for k in keys}
    if workload == "pairs-dense":
        maps["h0"] = specs["h0"]
        jobs.append(_job("construct-chain.h0", "chain", _holds(),
                         map="h0", r=0.5, alpha=2.0,
                         eps_fraction=params["eps_fraction"],
                         base=[*map_flags(specs["h0"]), "--r", "0.5", "--alpha", "2"]))
        jobs.append(_job("oracle.n2048.fold", "cli", {"verdict": VIOLATED, "exit": 1},
                         argv=["check", "--spec", '{"type":"series","h":[1.0,2.0]}',
                               "--criterion", "oracle", "--n", "2048"]))
    return params, jobs, maps, list(keys)


def check_outcome(expect, outcome):
    """'ok', 'failed' (raised or exit 2), or a description of a wrong answer."""
    if "error" in outcome or outcome.get("exit") == 2:
        return "failed"
    wrong = []
    for key in ("exit", "verdict"):
        if key in expect and outcome.get(key) != expect[key]:
            wrong.append(f"{key} {outcome.get(key)!r}, expected {expect[key]!r}")
    floor = expect.get("min_margin")
    if floor is not None and not (outcome.get("margin") or -math.inf) >= floor:
        wrong.append(f"margin {outcome.get('margin')!r} below {floor!r}")
    tol = expect.get("max_deviation")
    if tol is not None and not (outcome.get("deviation") or math.inf) <= tol:
        wrong.append(f"deviation {outcome.get('deviation')!r} above {tol!r}")
    return "; ".join(wrong) or "ok"


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "HARMONIC_THREADS"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(config_path):
    """Start a worker on a config file; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-s", str(BENCH / "worker.py"),
                             str(config_path)],
                            cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker's result line; kill it if the deadline passes."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def metric_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "harmonicmaps" / "cli.py").is_file():
        print(f"error: no harmonicmaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_names()
    params, jobs, maps, scanned = build_workload(args.workload, args.seed)
    specs = map_specs(params)
    cfg = {"maps": maps, "jobs": jobs, "seconds": args.seconds,
           "trace": bool(args.trace), "setup_only": True,
           "pair_maps": {"all": {k: specs[k] for k in PAIR_SPREAD + PAIR_DENSE},
                         "scanned": scanned},
           "spans_file": f".bench_out/spans-{args.workload}.jsonl"}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    setup_cfg, run_cfg = out_dir / "setup.json", out_dir / "run.json"
    setup_cfg.write_text(json.dumps(cfg), encoding="utf-8")
    run_cfg.write_text(json.dumps(dict(cfg, setup_only=False)), encoding="utf-8")
    from calibrate import calibration_s, scale

    setups, raw_setups = [], []
    for i in range(SETUP_SPAWNS + 1):
        before = calibration_s()
        proc, setup = spawn(setup_cfg)
        finish(proc, deadline)
        if i:
            raw_setups.append(setup)
            setups.append(scale(setup, before, calibration_s()))
    res = finish(spawn(run_cfg)[0], deadline)

    verdicts = [check_outcome(job["expect"], out)
                for job, out in zip(jobs, res["outcomes"])]
    failed = sum(v == "failed" for v in verdicts)
    wrong = [(job["id"], v) for job, v in zip(jobs, verdicts) if v not in ("ok", "failed")]
    lat = res["job_latency_s"]
    q = statistics.quantiles(lat, n=4)
    passes = res["passes"]["untraced"] + res["passes"]["traced"]

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# python {res['python']}  numpy {res['numpy']}  nproc {os.cpu_count()} "
          f"(affinity {len(os.sched_getaffinity(0))})")
    print("# worker threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
          + "  HARMONIC_THREADS unset")
    print(f"# seed draws: f_k k={params['k']!r}  construct eps fraction="
          f"{params['eps_fraction']!r}")
    print(f"# passes: {res['passes']['untraced']} untraced, {res['passes']['traced']} "
          f"traced; untraced job-list times, scaled (raw): " + " ".join(
              f"{w:.3f} ({r:.3f})" for w, r in zip(res["pass_walls_s"], res["raw_pass_walls_s"])))
    print("# set-up spawns, scaled (raw) s: " + " ".join(
        f"{w:.4f} ({r:.4f})" for w, r in zip(setups, raw_setups)))
    print(f"# jobs: {len(jobs)} per pass; {sum(x > q[2] for x in lat)} beyond p75; "
          f"fail_ratio {failed / len(jobs):.4f} ({failed}/{len(jobs)})")
    for job, seconds, verdict, out in zip(jobs, lat, verdicts, res["outcomes"]):
        shown = out.get("verdict") or out.get("error") or ""
        print(f"#   {seconds:9.5f} s  {verdict:6s}  exit={out.get('exit')}  "
              f"{job['id']}  {shown}")
    for job_id, why in wrong:
        print(f"error: job {job_id} gave a wrong answer: {why}", file=sys.stderr)
    if not res["identical"]:
        print("error: job outputs differ between passes", file=sys.stderr)
    correct = not wrong and res["identical"]

    if args.trace:
        layers = res["layers"]
        values = {name: layers.get(name, 0.0) for name in per_layer}
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": res["wall_s"],
            "job_p50_s": q[1],
            "job_p75_s": q[2],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / len(jobs),
        }
        units = end_to_end
    if set(values) != set(units):
        raise SystemExit(f"metric names disagree with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs) * passes,
        "failed": failed * passes,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
