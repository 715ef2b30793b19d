"""Print one sha256 per benchmark job output and per demo output of a checkout.

Usage, from anywhere::

    python tools/output_hashes.py ROOT [--seeds 7 11]

For each seed and each workload it builds the job list with ``bench/run.py``
of the checkout at ROOT and runs every job once with the runners of its
``bench/worker.py``, against the library in ``ROOT/src``.  It then runs each
demo in ``ROOT/demos`` in a fresh directory and hashes its stdout and every
SVG it writes.  Each line reads ``<sha256>  <label>``; a job that raises
prints ``error`` and the exception in place of the hash, and the exit code
is then 1.  Two checkouts give the same outputs iff their listings are
equal, so compare them with ``diff``.
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, help="checkout whose outputs are hashed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    root = args.root.resolve()
    failed = False
    for label, digest in itertools.chain(job_hashes(root, args.seeds), demo_hashes(root)):
        failed |= digest.startswith("error")
        print(f"{digest}  {label}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
