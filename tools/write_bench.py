#!/usr/bin/env python3
"""Same-session benchmark record of a parent commit against the working tree.

    python3 tools/write_bench.py --parent <rev> --out BENCH_<n>.json

Both sides are exported into fresh directories under one temporary root:
the parent with ``git archive``, the working tree by copying the files git
lists (tracked and untracked, not ignored), so uncommitted edits are
measured and the provenance flags them.  Then, in one session and on one
machine:

* ten alternating pairs (the parent runs first in even pairs, the change
  in odd ones); in each, a side runs
  ``perfbench/run.py --workload all --seed 1 --seconds 22``, then
  - the CLI commands ``build`` (``wscc9`` at the default levels and
    ranks, ``ring:33`` at level 1.0 and ranks (16, 12), and ``wscc9`` at
    level 1.0 with ranks picked by a rank search up to rank 4 over a
    3 s scenario, an observation), ``cct``
    (force_full and adaptive, bus 7) and ``sweep`` (bus 7) on ``wscc9``,
    each a new process; the pinned ``ring:33`` build's per-order stencil
    and ALS seconds, read from its ``metrics_<hash>.json``, are recorded
    beside it as observations (``cli.build.ring33.order3.als_s`` and so
    on);
  - ``simulate`` on ``ring:33`` in force_full, adaptive and force_hybrid
    mode (bus 1 cleared at 0.30 s, on the pinned ``ring:33`` build's
    ``models.npz``), and on ``wscc9`` (bus 7 cleared at 0.1 s, building a
    level-1.0 model set of ranks (8, 8)), each a new process;
  - both builds again with numpy's default BLAS threads, as in a default
    shell (observations beside the pinned timings, not claims);
  - single CCT searches, in one process: ``ring:33`` buses 1 and 17 and
    ``wscc9`` bus 7 in force_full, and ``wscc9`` bus 7 in adaptive mode
    with the acceptance model set, whose build time and summed ALS
    seconds per order (each job's ``als_s`` in ``ModelSet.timings``,
    measured in its worker) are recorded beside it as observations;
  - in one process, the µs per call of the full right-hand side
    ``power_model._rhs`` on one 1-D state (``b1``) and on ``(B, 1, n)``
    stacks of B lanes, as a force_full CCT search steps them: B = 8, 32
    and 85 on ``wscc9`` and B = 8 on ``ring:33`` (``rhs.wscc9.b32_us``
    and so on), each the median of seven rounds of 500 calls, the sizes
    interleaved within a round;
  - one model build of six structured (level, order) jobs, more than the
    build's workers and more than any CLI command starts: ``ring:33``
    seeds 7, 8 and 9 at level 1.0 and ranks (16, 12), in one
    ``taylor._build_models`` call (an observation);
  - in one process, the best of three ``simulate.export_trajectory_csv``
    calls on one full-horizon ``ring:33`` force_full trajectory (bus 1
    cleared at 0.30 s, 1,601 rows of 298 values);
* the wall time of the tier-1 suite, once per side, with its summary
  line and pytest's ``-rf`` line of each failed test.

Each metric gets each side's median and quartiles, the ratio of the
medians (change over parent) and the number of pairs the change won; every
run's values are kept.  Nothing here gates.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV = {**os.environ, **dict.fromkeys(BLAS_VARS, "1")}
DEFAULT_BLAS_ENV = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "22"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rf"]
CLI_RUNS = {
    "cli.build.wscc9_s": ["build", "--system", "wscc9"],
    "cli.build.ring33_s": ["build", "--system", "ring:33", "--levels", "1.0", "--ranks", "16,12"],
    "cli.build.wscc9_auto_s": ["build", "--system", "wscc9", "--ranks", "auto", "--levels", "1.0",
                               "--t-end", "3.0", "--max-rank", "4"],
    "cli.cct.force_full_s": ["cct", "--system", "wscc9", "--fault-bus", "7", "--mode", "force_full"],
    "cli.cct.adaptive_s": ["cct", "--system", "wscc9", "--fault-bus", "7", "--mode", "adaptive"],
    "cli.sweep_s": ["sweep", "--system", "wscc9", "--fault-bus", "7"],
    "cli.simulate.wscc9_s": ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
                             "--levels", "1.0", "--ranks", "8,8"],
}
# after the pinned ring:33 build, on its models.npz, one per mode
RING33_SIMULATE = ["simulate", "--system", "ring:33", "--levels", "1.0", "--ranks", "16,12",
                   "--fault-bus", "1", "--t-clear", "0.30"]
RING33_SIMULATE_MODES = ("force_full", "adaptive", "force_hybrid")
# timed with numpy's default BLAS threads instead
CLI_DEFAULT_BLAS_RUNS = {"cli.build.wscc9_default_s": CLI_RUNS["cli.build.wscc9_s"],
                         "cli.build.ring33_default_s": CLI_RUNS["cli.build.ring33_s"]}
# run in a side's tree: one timed search per line of the output JSON
SEARCHES = r"""
import json, time
from tensorsim import cases, power_model as pm, simulate as sim, study as st, taylor as ty
ring = pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)
wscc = pm.build_system(cases.wscc9_spec(), 1.0)
t = time.perf_counter()
models = ty.build_model_set(wscc, levels=(0.8, 1.0, 1.2), ranks=(30, 36), seed=0,
                            cp_options=dict(max_iters=400, restarts=2, fit_tolerance=1e-9))
out = {"build.wscc9_acceptance_s": time.perf_counter() - t}
for order in (2, 3):
    out[f"build.wscc9_acceptance.als_order{order}_s"] = sum(
        jobs[f"order{order}"]["als_s"] for jobs in models.timings.values())
for name, args in (("search.ring33.bus1.force_full_s", (ring, None, "force_full", 1)),
                   ("search.ring33.bus17.force_full_s", (ring, None, "force_full", 17)),
                   ("search.wscc9.bus7.force_full_s", (wscc, None, "force_full", 7)),
                   ("search.wscc9.bus7.adaptive_s", (wscc, models, "adaptive", 7))):
    sys_m, ms, mode, bus = args
    t = time.perf_counter()
    res = st.cct_search(sys_m, ms, sim.SwitchPolicy(mode=mode), bus)
    out[name] = time.perf_counter() - t
    out[name[:-2] + "_stable_steps"] = res.stable_steps
print(json.dumps(out))
"""
# run in a side's tree: _rhs µs per call on a 1-D state (b1) and on B
# lockstep lanes, the median of seven rounds with the sizes interleaved
RHS = r"""
import json, time
import numpy as np
from tensorsim import cases, power_model as pm
systems = {"wscc9": pm.build_system(cases.wscc9_spec(), 1.0),
           "ring33": pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)}
stacks = {"wscc9": (1, 8, 32, 85), "ring33": (1, 8)}
times = {}
for _ in range(7):
    for name, sizes in stacks.items():
        s = systems[name]
        for b in sizes:
            x = s.x0.copy() if b == 1 else np.tile(s.x0, (b, 1, 1))
            t = time.perf_counter()
            for _ in range(500):
                pm._rhs(s, s.y_red, x)
            times.setdefault(f"rhs.{name}.b{b}_us", []).append((time.perf_counter() - t) / 500 * 1e6)
print(json.dumps({k: float(np.median(v)) for k, v in times.items()}))
"""
# run in a side's tree: the six-job structured build
SIX_JOBS = r"""
import json, time
from tensorsim import cases, power_model as pm, taylor as ty
systems = {s: pm.build_system(cases.synthetic_ring_spec(33, seed=s), 1.0) for s in (7, 8, 9)}
t = time.perf_counter()
models, _ = ty._build_models(systems, (16, 12), 0, None)
elapsed = time.perf_counter() - t
assert all(isinstance(m, ty.TaylorModel) for m in models.values()), models
print(json.dumps({"build.ring33_six_jobs_s": elapsed}))
"""
# run in a side's tree: the best of three exports of one full-horizon
# ring:33 force_full trajectory (1,601 rows of 298 values)
EXPORT = r"""
import json, os, tempfile, time
from tensorsim import cases, power_model as pm, simulate as sim
ring = pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)
traj = sim.run_adaptive(ring, None, sim.Scenario(fault_bus=1, t_clear=0.30),
                        sim.SwitchPolicy(mode="force_full"))
assert traj.states.shape == (1601, 297), traj.states.shape
best = float("inf")
with tempfile.TemporaryDirectory() as tmp:
    for _ in range(3):
        t = time.perf_counter()
        sim.export_trajectory_csv(traj, ring, os.path.join(tmp, "trajectory.csv"), {})
        best = min(best, time.perf_counter() - t)
print(json.dumps({"export.ring33_csv_s": best}))
"""


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(parent: str, base: Path) -> dict:
    """The two trees to measure, as fresh directories under ``base``."""
    trees = {side: base / side for side in SIDES}
    trees["parent"].mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive.stdout, check=True)
    for rel in _git("ls-files", "-co", "--exclude-standard").splitlines():
        src = ROOT / rel
        if src.is_file():
            dst = trees["change"] / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def _run(cmd, cwd, env=ENV) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _perfbench(tree: Path) -> dict:
    last = _run([sys.executable, *PERFBENCH], tree).stdout.strip().splitlines()[-1]
    line = json.loads(last)
    out = {k: v["value"] for k, v in line["metrics"].items()}
    out["failed"] = line["failed"]
    out["attempted"] = line["attempted"]
    return out


def _cli(tree: Path, work: Path) -> dict:
    runs = [(name, argv, ENV) for name, argv in CLI_RUNS.items()]
    runs += [(name, argv, DEFAULT_BLAS_ENV) for name, argv in CLI_DEFAULT_BLAS_RUNS.items()]
    out = {}
    for name, argv, env in runs:
        env = {**env, "PYTHONPATH": str(tree / "src")}
        dest = work / name
        t = time.perf_counter()
        _run([sys.executable, "-m", "tensorsim.cli", *argv, "--out", str(dest)], tree, env)
        out[name] = time.perf_counter() - t
        if name == "cli.build.ring33_s":
            out.update(_job_timings(dest, "cli.build.ring33"))
            out.update(_ring33_simulate(dest / "models.npz", work, env))
        shutil.rmtree(dest, ignore_errors=True)
    return out


def _ring33_simulate(models: Path, work: Path, env) -> dict:
    """Each mode's ``simulate`` on ``ring:33`` with the model set ``models``."""
    out = {}
    for mode in RING33_SIMULATE_MODES:
        dest = work / f"simulate_{mode}"
        t = time.perf_counter()
        _run([sys.executable, "-m", "tensorsim.cli", *RING33_SIMULATE, "--models", str(models),
              "--mode", mode, "--out", str(dest)], models.parent, env)
        out[f"cli.simulate.ring33.{mode}_s"] = time.perf_counter() - t
        shutil.rmtree(dest, ignore_errors=True)
    return out


def _job_timings(dest: Path, prefix: str) -> dict:
    """Each order's stencil and ALS seconds of a one-level build, from the
    ``metrics_<hash>.json`` it wrote to ``dest``."""
    (path,) = dest.glob("metrics_*.json")
    (jobs,) = json.loads(path.read_text())["jobs"].values()
    return {f"{prefix}.{order}.{key}": jobs[order][key]
            for order in ("order2", "order3") for key in ("stencil_s", "als_s")}


def _script(tree: Path, code: str) -> dict:
    """The JSON object that ``code`` prints last, run in ``tree``."""
    env = {**ENV, "PYTHONPATH": str(tree / "src")}
    return json.loads(_run([sys.executable, "-c", code], tree, env).stdout.strip().splitlines()[-1])


def _tier1(tree: Path) -> dict:
    env = {**ENV, "PYTHONPATH": str(tree / "src")}
    t = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return {"tier1.wall_s": time.perf_counter() - t,
            "tier1.summary": lines[-1] if lines else "",
            "tier1.failed": [line for line in lines if line.startswith("FAILED ")]}


def _better() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _summary(runs: list, better: dict) -> dict:
    """Per numeric metric: each side's median and quartiles, the median
    ratio change/parent, and the pairs the change won (ties count for
    neither side)."""
    out = {}
    names = sorted({k for r in runs for k, v in r["values"].items() if isinstance(v, (int, float))})
    for name in names:
        side = {s: [r["values"][name] for r in runs if r["side"] == s and name in r["values"]]
                for s in SIDES}
        if not all(side.values()):
            continue
        row = {s: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
               for s, v in side.items()}
        row["n"] = len(side["change"])
        base = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / base if base else None
        direction = better.get(name.split("/")[-1],
                               "lower" if name.endswith(("_s", "_us")) else None)
        if direction:
            row["better"] = direction
            sign = 1.0 if direction == "higher" else -1.0
            row["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        out[name] = row
    return out


def _provenance(parent: str) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "parent": _git("rev-parse", parent),
        "head": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "default_blas_threads": sorted(CLI_DEFAULT_BLAS_RUNS),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to measure against")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    a = ap.parse_args(argv)
    record = {"provenance": _provenance(a.parent),
              "perfbench_command": ["python3", *PERFBENCH]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="tensorsim-bench-") as tmp:
        base = Path(tmp)
        trees = _export(a.parent, base)
        for k in range(PAIRS):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                values = {**_perfbench(trees[side]), **_cli(trees[side], base / "cli"),
                          **_script(trees[side], SEARCHES), **_script(trees[side], SIX_JOBS),
                          **_script(trees[side], EXPORT), **_script(trees[side], RHS)}
                runs.append({"side": side, "pair": k, "values": values})
                print(f"pair {k} {side}: {json.dumps(values)}", file=sys.stderr, flush=True)
        for side in SIDES:
            runs.append({"side": side, "pair": 0, "values": _tier1(trees[side])})
    record["summary"] = _summary(runs, _better())
    record["runs"] = runs
    Path(a.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
