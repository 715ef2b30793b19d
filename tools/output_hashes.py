"""Print one sha256 per benchmark job output and per demo output of a checkout.

Usage, from anywhere::

    python tools/output_hashes.py ROOT [--seeds 7 11]

For each seed and each workload it builds the job list with ``bench/run.py``
of the checkout at ROOT and runs every job once with the runners of its
``bench/worker.py``, against the library in ``ROOT/src``.  It then runs each
demo in ``ROOT/demos`` in a fresh directory and hashes its stdout and every
SVG it writes.  Last it runs a few CLI calls that the benchmark does not
make (inversion failures, inputs outside a domain, an overflowing series,
curve tests at large n, near a cusp and on a crossing image) and hashes
each one's exit code, stdout and stderr, with the checkout's path in
stderr read as ``ROOT``.  Each line reads ``<sha256>  <label>``; a
job that raises prints ``error`` and the exception in place of the hash,
and the exit code is then 1.  Two checkouts give the same outputs iff their
listings are equal, so compare them with ``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_hashes(root: Path, seeds):
    """Yield ``(label, sha256 or error text)`` for every job of every workload."""
    sys.path.insert(0, str(root / "bench"))
    import run
    import worker

    lib = worker._import_library()
    # The render jobs write their SVG relative to the working directory and
    # read it back relative to the checkout.
    os.chdir(root)
    (root / ".bench_out").mkdir(exist_ok=True)
    for seed in seeds:
        for workload in run.WORKLOADS:
            _, jobs, specs, _ = run.build_workload(workload, seed)
            maps = {key: lib["gallery"].get(spec["name"], spec.get("params"))
                    for key, spec in specs.items()}
            for job in jobs:
                label = f"seed {seed} {workload} {job['id']}"
                try:
                    output, _ = worker.RUNNERS[job["kind"]](job, lib, maps)
                    yield label, _digest(output().encode())
                except Exception as exc:  # reported, so a diff shows it
                    yield label, f"error {type(exc).__name__}: {exc}"


def demo_hashes(root: Path):
    """Yield ``(label, sha256)`` for each demo's stdout and each SVG it writes."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for demo in sorted((root / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                                  capture_output=True, check=True)
            yield f"demo {demo.name} stdout", _digest(proc.stdout)
            for svg in sorted(Path(tmp).rglob("*.svg")):
                yield f"demo {demo.name} {svg.relative_to(tmp)}", _digest(svg.read_bytes())


POINT_MASS = '{"atoms": [[0.0, 1.0]]}'
# Calls off the benchmark's paths: a grid of several blocks, Newton failures
# near the rim, a grid outside h1's domain, a series whose h' overflows, and
# the oracle's curve test on 8 192 segments, near h0's cusp and on an image
# that crosses itself (violated, margin 0).
CLI_CALLS = {
    "herglotz koebe 160x384": ["herglotz", "--named", "koebe", "--n-radial", "160",
                               "--n-angular", "384", "--measure", POINT_MASS],
    "herglotz koebe r_max 0.99": ["herglotz", "--named", "koebe", "--r-max", "0.99",
                                  "--measure", POINT_MASS],
    "check corollary1 koebe r_max 0.97": ["check", "--criterion", "corollary1",
                                          "--named", "koebe", "--r-max", "0.97"],
    "herglotz h1 r_max 0.9995": ["herglotz", "--named", "h1", "--r-max", "0.9995",
                                 "--measure", POINT_MASS],
    "bound overflow": ["bound", "--spec", '{"type":"series","h":[1,1e308],"g":[0.5,1e308]}',
                       "--r", "0.5"],
    "check oracle koebe n 16384": ["check", "--criterion", "oracle", "--named", "koebe",
                                   "--n", "16384"],
    "check oracle h0 rho 0.99": ["check", "--criterion", "oracle", "--named", "h0",
                                 "--rho", "0.99", "--n", "4096"],
    "check oracle crossing series": ["check", "--criterion", "oracle", "--spec",
                                     '{"type":"series","h":[1.0,0.55]}',
                                     "--rho", "0.99", "--n", "4096"],
}


def cli_hashes(root: Path):
    """Yield ``(label, sha256)`` of each CLI call's exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for label, args in CLI_CALLS.items():
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-m", "harmonicmaps", *args], cwd=tmp,
                                  env=env, capture_output=True)
        err = proc.stderr.replace(str(root).encode(), b"ROOT")
        yield f"cli {label}", _digest(b"%d\n%b\n%b" % (proc.returncode, proc.stdout, err))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, help="checkout whose outputs are hashed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    root = args.root.resolve()
    failed = False
    hashes = itertools.chain(job_hashes(root, args.seeds), demo_hashes(root), cli_hashes(root))
    for label, digest in hashes:
        failed |= digest.startswith("error")
        print(f"{digest}  {label}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
