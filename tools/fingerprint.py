#!/usr/bin/env python3
"""The committed result fingerprint: what a change may move, in one file.

    python3 tools/fingerprint.py                             # writes FINGERPRINT.json
    python3 tools/fingerprint.py --compare FINGERPRINT.json  # exit 1 if an entry moved
    python3 tools/fingerprint.py --compare FINGERPRINT.json --out FINGERPRINT.json

The file holds no timings.  It records:

* ``builds``: the SHA-256 of ``models.npz`` and ``build_report.json`` of
  three ``tensorsim build`` runs (``wscc9`` at its defaults, ``ring:33``
  at level 1.0 and ranks (16, 12), and ``wscc9`` with ``--ranks auto`` at
  level 1.0 over a 3 s scenario up to rank 4), each in a new process with
  BLAS pinned to one thread (``pinned``) and with numpy's default threads
  (``default``), with the ranks, ALS fits, iterations and convergence
  flags (and the rank search's curve) that the pinned build reports;
* ``criterion10``: the SHA-256 of each payload file of acceptance
  criterion 10's ``simulate`` and ``build`` runs (seed 42), measurement
  files left out;
* ``cct``: the :class:`tensorsim.study.CctResult` of every ``wscc9``
  (level, bus) pair, levels 0.80-1.20 by 0.05 and buses 1-9, in
  force_full mode and in adaptive mode with the acceptance model set:
  stable steps, unstable steps, whether the cap was hit, and the verdicts
  in the order the search asked for them;
* ``ring33``: whether each fixed ``ring:33`` scenario completes, and at
  which step it blows up, in every switching mode, with a model set of
  ranks (16, 12) at level 1.0;
* ``criteria``: the values behind acceptance criteria 3, 6, 7 and 8:
  criterion 3's remainder slopes, criterion 6's bus, duration and RMS
  errors, criterion 7's CCTs and criterion 8's load-sweep rows.

Everything but the default-thread builds runs with BLAS on one thread, so
two runs on one commit write the same bytes.  The parts run as separate
processes, two at a time.  ``--compare OLD`` prints every entry whose
value differs from OLD's, old and new, and exits 1 if any does; with
``--out`` it also writes the new file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMAT = "tensorsim-fingerprint-v1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PYTHONPATH = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")])
PINNED_ENV = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"), "PYTHONPATH": PYTHONPATH}
DEFAULT_ENV = {**{k: v for k, v in os.environ.items() if k not in BLAS_VARS},
               "PYTHONPATH": PYTHONPATH}
BUILDS = {
    "wscc9": ["--system", "wscc9"],
    "ring33": ["--system", "ring:33", "--levels", "1.0", "--ranks", "16,12"],
    "wscc9_auto": ["--system", "wscc9", "--ranks", "auto", "--levels", "1.0",
                   "--t-end", "3.0", "--max-rank", "4"],
}
# acceptance criterion 10's two commands; its measurement files stay out
CRITERION10 = {
    "simulate": ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
                 "--t-end", "2.0", "--levels", "1.0", "--ranks", "8,8", "--seed", "42"],
    "build": ["build", "--system", "wscc9", "--levels", "0.8,1.0", "--ranks", "6,6",
              "--seed", "42"],
}
MEASUREMENTS = ("compare_times_", "metrics_")
# what a build report says about its models, beside the files' hashes
REPORT_KEYS = ("ranks", "fits", "iterations", "converged", "rank_search")
WSCC9_LEVELS = tuple(round(0.80 + 0.05 * i, 2) for i in range(9))
WSCC9_BUSES = tuple(range(1, 10))
# (fault bus, clearing time, horizon): the five scenarios whose adaptive and
# force_taylor runs blow up where force_full completes, and the bus-17
# fault that throws G17 out of step while G1 stays
RING33_SCENARIOS = ((22, 0.92, 3.0), (11, 0.98, 3.0), (4, 0.65, 3.0), (2, 0.57, 3.0),
                    (1, 1.00, 3.0), (17, 1.00, 3.0))
# the parts computed in their own processes (functions of this module)
PARTS = ("cct_force_full", "cct_adaptive", "ring33", "criterion3")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def payload_hashes(outdir: Path) -> dict:
    """SHA-256 of each file of a command's output directory, measurement
    files left out."""
    return {f.name: _sha256(f) for f in sorted(outdir.iterdir())
            if f.is_file() and not f.name.startswith(MEASUREMENTS)}


def _run(cmd, env) -> str:
    """The standard output of ``cmd``, run in the repo root; a failure
    raises with the end of its standard error."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _cli(argv, outdir: Path, env) -> dict:
    _run([sys.executable, "-m", "tensorsim.cli", *argv, "--out", str(outdir)], env)
    return payload_hashes(outdir)


def _part(name: str) -> dict:
    """Part ``name``, computed in a new process with BLAS on one thread."""
    code = f"import json, fingerprint; print(json.dumps(fingerprint.{name}()))"
    return json.loads(_run([sys.executable, "-c", code], PINNED_ENV).strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the parts, each run in its own process


def _acceptance_set(sys_m):
    from tensorsim import taylor
    return taylor.build_model_set(sys_m, levels=(0.8, 1.0, 1.2), ranks=(30, 36), seed=0,
                                  cp_options=dict(max_iters=400, restarts=2,
                                                  fit_tolerance=1e-9))


def _cct_grid(mode: str, model_set) -> dict:
    from tensorsim import cases, power_model as pm, simulate as sim, study
    spec = cases.wscc9_spec()
    out = {}
    for lv in WSCC9_LEVELS:
        sys_l = pm.build_system(spec, lv)
        for bus in WSCC9_BUSES:
            res = study.cct_search(sys_l, model_set, sim.SwitchPolicy(mode=mode), bus)
            out[f"{lv:.2f}/bus{bus}"] = {
                "stable_steps": res.stable_steps, "unstable_steps": res.unstable_steps,
                "capped": res.capped, "runs": [[t, ok] for t, ok in res.runs]}
    return out


def cct_force_full() -> dict:
    return {"cct": {"force_full": _cct_grid("force_full", None)}}


def cct_adaptive() -> dict:
    """The adaptive grid, and criteria 6, 7 and 8, which share its model
    set; criterion 6's force_full CCTs are recomputed here."""
    from dataclasses import replace
    from tensorsim import cases, power_model as pm, simulate as sim, study
    baseline = json.loads((ROOT / "tests" / "acceptance_baseline.json").read_text())
    sys_m = pm.build_system(cases.wscc9_spec(), 1.0)
    ms = _acceptance_set(sys_m)
    grid = _cct_grid("adaptive", ms)
    policy = sim.SwitchPolicy()
    full = replace(policy, mode="force_full")
    ccts = {bus: study.cct_search(sys_m, None, full, bus).stable_steps for bus in (1, 2, 3)}
    bus = max(ccts, key=ccts.get)
    dur = round(int(0.95 * ccts[bus]) * 0.01, 10)
    scn = sim.Scenario(fault_bus=bus, t_clear=dur, t_end=16.0)
    base = sim.run_adaptive(sys_m, None, scn, full)
    rms = {}
    for mode in ("force_hybrid", "force_taylor", "force_linear", "adaptive"):
        traj = sim.run_adaptive(sys_m, ms, scn, replace(policy, mode=mode))
        rms[mode] = max(study.rms_error(traj, base, sys_m).values()) if traj.completed else None
    sweep = study.load_sweep(sys_m, ms, policy, baseline["sweep_fault_bus"])
    return {
        "cct": {"adaptive": grid},
        "criteria": {
            "6": {"bus": bus, "t_clear": dur, "max_rms_deg": rms},
            "7": {"sweep_cct_s": [row.get("cct_s") for row in sweep.rows]},
            "8": {"worst_max_rms_deg": max(row["max_rms_deg"] for row in sweep.rows),
                  "rows": sweep.rows},
        },
    }


def ring33() -> dict:
    from tensorsim import cases, power_model as pm, simulate as sim, taylor
    sys_m = pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)
    ms = taylor.build_model_set(sys_m, levels=(1.0,), ranks=(16, 12), seed=0)
    out = {}
    for bus, t_clear, t_end in RING33_SCENARIOS:
        scn = sim.Scenario(fault_bus=bus, t_clear=t_clear, t_end=t_end)
        runs = {}
        for mode in sim.MODES:
            traj = sim.run_adaptive(sys_m, ms, scn, sim.SwitchPolicy(mode=mode))
            runs[mode] = {"completed": traj.completed, "steps": traj.n_steps,
                          "blowup_step": None if traj.blowup_time is None
                          else round(traj.blowup_time / 0.01)}
        out[f"bus{bus}/{t_clear:.2f}/{t_end:g}s"] = runs
    return {"ring33": out}


def criterion3() -> dict:
    """Criterion 3's remainder slopes, as ``tests/test_acceptance.py``
    computes them."""
    import numpy as np
    from tensorsim import cases, power_model as pm, taylor
    sys_m = pm.build_system(cases.wscc9_spec(), 1.0)
    model = taylor.build_taylor_model(sys_m, "full")
    x0 = sys_m.x0.astype(np.longdouble)
    f0 = pm.f_full(x0, sys_m)
    rng = np.random.default_rng(0)
    eps = np.geomspace(1e-3, 1e-1, 9)
    slopes = []
    for _ in range(10):
        v = rng.standard_normal(sys_m.n_states)
        v /= np.linalg.norm(v)
        vl = v.astype(np.longdouble)
        res = []
        for e in eps:
            dx = np.longdouble(e) * vl
            r = pm.f_full(x0 + dx, sys_m) - f0 - taylor.reduced_rhs(model, dx)
            res.append(float(np.sqrt(np.sum((r * r).astype(float)))))
        slopes.append(float(np.polyfit(np.log(eps), np.log(res), 1)[0]))
    return {"criteria": {"3": {"slopes": slopes}}}


# ---------------------------------------------------------------------------
# the file


def _merge(into: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


def _builds(work: Path) -> dict:
    out = {"builds": {}, "criterion10": {}}
    for name, argv in BUILDS.items():
        out["builds"][name] = build = {
            shell: _cli(["build", *argv], work / f"{name}_{shell}", env)
            for shell, env in (("pinned", PINNED_ENV), ("default", DEFAULT_ENV))}
        report = json.loads((work / f"{name}_pinned" / "build_report.json").read_text())
        build["report"] = {key: report[key] for key in REPORT_KEYS if key in report}
    for name, argv in CRITERION10.items():
        out["criterion10"][name] = _cli(argv, work / f"criterion10_{name}", PINNED_ENV)
    return out


def fingerprint() -> dict:
    """The fingerprint of the working tree's program."""
    record = {"format": FORMAT}
    with tempfile.TemporaryDirectory(prefix="tensorsim-fingerprint-") as tmp, \
            ThreadPoolExecutor(2) as pool:
        jobs = [pool.submit(_part, name) for name in PARTS]
        jobs.append(pool.submit(_builds, Path(tmp)))
        for job in jobs:
            _merge(record, job.result())
    return record


def _flatten(value, prefix="") -> dict:
    """Leaf entries by '/'-joined key path; a list is one entry."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}/{key}" if prefix else str(key)))
        return out
    return {prefix: value}


def differences(old: dict, new: dict) -> list:
    """``(path, old value, new value)`` of each entry that differs, a
    missing entry reading None."""
    a, b = _flatten(old), _flatten(new)
    return [(key, a.get(key), b.get(key)) for key in sorted(set(a) | set(b))
            if a.get(key) != b.get(key) or (key in a) != (key in b)]


def dumps(record: dict) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", metavar="OLD", help="fingerprint file to compare against")
    ap.add_argument("--out", help="file to write (default: FINGERPRINT.json at the repo "
                                  "root, or nothing with --compare)")
    a = ap.parse_args(argv)
    old = None if a.compare is None else json.loads(Path(a.compare).read_text())
    record = fingerprint()
    out = a.out or (None if a.compare else ROOT / "FINGERPRINT.json")
    if out is not None:
        Path(out).write_text(dumps(record))
    if old is None:
        return 0
    diffs = differences(old, record)
    for key, was, now in diffs:
        print(f"{key}: {json.dumps(was)} -> {json.dumps(now)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
