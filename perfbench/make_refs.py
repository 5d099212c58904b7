"""Record the full-model reference answers the benchmark checks ops against.

    python3 perfbench/make_refs.py wscc9_cct
    python3 perfbench/make_refs.py ring33_cli

The answers cover the whole scenario space of each workload, so every seed
is checked: on ``wscc9_cct`` the force_full CCT step count of each (bus,
load level) pair (plus the steps that search simulates, which the block
generator stratifies on), on ``ring33_cli`` the stability verdict, step count and
final-state digest of each force_full (bus, clearing time) run.  Run it
on the commit whose answers are to be frozen.  The ring runs its 3168
scenarios over a process pool, one worker per core (about 20 minutes on
two cores).
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tensorsim import cases  # noqa: E402
from tensorsim import power_model as pm  # noqa: E402
from tensorsim import simulate as sim  # noqa: E402
from tensorsim import study as st  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def wscc9_refs() -> dict:
    spec = cases.wscc9_spec()
    policy = sim.SwitchPolicy(mode="force_full")
    cct, work = {}, {}
    for level in wl.WSCC9_LEVELS:
        sys_l = pm.build_system(spec, level)
        for bus in wl.WSCC9_BUSES:
            with Tracer() as tr:
                res = st.cct_search(sys_l, None, policy, bus)
            key = wl.wscc9_key(bus, level)
            cct[key] = res.stable_steps
            work[key] = int(tr.stats["simulate.run_adaptive"]["steps"])
            print(key, cct[key], work[key], flush=True)
    return {"answer": "force_full CCT stable step count", "cct": cct,
            "work": "simulated steps of that search", "work_steps": work}


@functools.cache
def _ring_system():
    return pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)


def _ring_run(key):
    bus, step = key
    policy = sim.SwitchPolicy(mode="force_full", representative_levels=(1.0,))
    scn = sim.Scenario(fault_bus=bus, t_clear=float(wl.t_clear_text(step)), t_end=16.0)
    traj = sim.run_adaptive(_ring_system(), None, scn, policy, 0.01)
    x = traj.states[-1]
    run = {
        "completed": traj.completed,
        "steps": traj.n_steps,
        "synchronous": traj.completed and wl.synchronous(x),
        "digest": wl.state_digest(x),
    }
    print(bus, step, run, flush=True)
    return wl.ring_key(bus, step), run


def ring_refs() -> dict:
    keys = [(b, k) for b in wl.RING_BUSES for k in wl.RING_CLEAR_STEPS]
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        runs = dict(pool.map(_ring_run, keys, chunksize=8))
    return {
        "answer": "force_full verdict, steps and final-state digest",
        "digest_tol": wl.STATE_TOL,
        "runs": runs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("wscc9_cct", "ring33_cli"))
    a = ap.parse_args()
    wl.REFS_DIR.mkdir(exist_ok=True)
    refs = wscc9_refs() if a.workload == "wscc9_cct" else ring_refs()
    _write(wl.REFS_DIR / f"{a.workload}.json", refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
