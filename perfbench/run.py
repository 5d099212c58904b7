"""Contingency benchmark for tensorsim.

    python3 perfbench/run.py --workload wscc9_cct --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Workloads (one process, one closed-loop client, BLAS on one thread):

* ``wscc9_cct``: set-up solves the 9-bus fixture and builds the 3-level
  model set in the acceptance configuration.  Each seeded (bus, load level)
  pair re-solves the system at its level and runs two ops: a force_full
  and an adaptive CCT search.
* ``ring33_cli``: set-up is ``tensorsim build`` of ``ring:33`` at ranks
  (16, 12).  Each seeded (fault bus, clearing time) scenario runs three
  ops through ``tensorsim.cli.main``: ``simulate`` in force_full,
  adaptive and force_hybrid mode.

The timed phase starts scenarios until ``--seconds`` of busy time have
passed; output checks run between ops with the clock stopped.  Every op
is checked (finite states, payload files that parse, full-model answers
equal to the recorded references in ``perfbench/refs``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same scenarios run once untraced and once with every
layer function wrapped, and the last line carries the per-layer
metrics.  A JSON record of each run, provenance included, is written to
``.bench_out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("wscc9_cct", "ring33_cli")


def _args(argv):
    ap = argparse.ArgumentParser(description="tensorsim contingency benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(a) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{w}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    a = _args(argv)
    if not (SRC / "tensorsim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no tensorsim sources under {SRC}\n")
        return 2
    if a.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be > 0\n")
        return 2
    if a.workload == "all":
        return _run_all(a)
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402  (needs the paths and BLAS settings above)

    work = ROOT / ".bench_out" / f"{a.workload}-s{a.seed}-t{a.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = bench.run(a.workload, a.seed, a.seconds, bool(a.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["provenance"] = _provenance(a)
    if not a.trace:
        result["metrics"]["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB", "n": 1}
    _report(a, result)
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    """HEAD of the checkout, or None when the checkout itself is not a git
    work tree (the ceiling keeps git from finding an enclosing one)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(a) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = None
    return {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "clients": 1,
        "loop": "closed",
    }


def _report(a, result) -> None:
    """Human-readable lines, the full record, then the contract line."""
    w = a.workload
    for name, m in result["metrics"].items():
        n = f" (n={m['n']})" if "n" in m else ""
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}{n}")
    for name, m in result.get("quality", {}).items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(json.dumps(result, sort_keys=True, default=float))
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{w}-s{a.seed}-t{a.trace}.json").write_text(
        json.dumps(result, sort_keys=True, indent=1, default=float) + "\n")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }
    print(json.dumps(line))


if __name__ == "__main__":
    sys.exit(main())
