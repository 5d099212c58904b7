"""Study procedures: CCT bisection, rank and threshold searches, RMS
error tables, load-level sweeps, and wall-clock timing comparisons.

All accuracy numbers compare a reduced-mode run against a full-model run
on the identical time grid; rotor angles are always taken relative to the
reference machine the runs used, in both trajectories, before
differencing.  Timing rows report medians over repetitions and never
include model build time (models are built offline).

The CCT search is one bisection procedure driven by verdicts
(:func:`_bisection`).  Its probes run in rounds, as lanes of
:class:`tensorsim.simulate.ClearingProbes`, and the answer is the
procedure replayed on their verdicts: the result of asking one duration at
a time.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import power_model as pm
from . import simulate as sim
from .taylor import ModelSet, _compress_order, _taylor_model, hybrid_rows, taylor_terms

__all__ = [
    "GridMismatchError",
    "CctError",
    "CctResult",
    "RankSearchResult",
    "ThresholdResult",
    "TimingRow",
    "StudyReport",
    "relative_angles",
    "rms_error",
    "max_abs_error",
    "cct_search",
    "rank_search",
    "threshold_search",
    "timing_compare",
    "load_sweep",
    "write_json",
    "count_flops_full",
    "count_flops_reduced",
    "count_flops_linear",
    "count_flops_unfolded",
    "count_flops_hybrid",
]


class GridMismatchError(ValueError):
    """Trajectories do not share a time grid."""


class CctError(RuntimeError):
    """System unstable even with a zero-duration fault."""


def relative_angles(traj: sim.Trajectory, sys: pm.SystemModel, gen_id: str, ref_id: str) -> np.ndarray:
    """Rotor angle of ``gen_id`` relative to the reference machine, rad."""
    g = sys.machine_pos(gen_id) * pm.N_STATES
    r = sys.machine_pos(ref_id) * pm.N_STATES
    return traj.states[:, g] - traj.states[:, r]


def _angle_errors(a, b, sys, generators, reference):
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatchError(
            f"time grids differ ({a.times.shape[0]} vs {b.times.shape[0]} samples)"
        )
    if reference is None:
        used = {t.reference for t in (a, b)} - {None}
        if len(used) > 1:
            raise ValueError(f"the runs used different reference machines: {sorted(used)}")
        reference = used.pop() if used else sim.select_reference_generator(sys)[0]
    if generators is None:
        generators = sys.study
    return {
        g: relative_angles(a, sys, g, reference) - relative_angles(b, sys, g, reference)
        for g in generators
    }


def rms_error(a, b, sys, generators=None, reference=None) -> dict:
    """Per-generator RMS rotor-angle error between two runs, in degrees.

    Angles are taken against ``reference`` when given.  Otherwise they
    are taken against the reference machine the runs recorded (runs that
    recorded different ones are refused), else against the default
    choice for ``sys``.
    """
    diffs = _angle_errors(a, b, sys, generators, reference)
    return {
        g: float(np.sqrt(np.mean(d * d)) * 180.0 / math.pi) for g, d in diffs.items()
    }


def max_abs_error(a, b, sys, generators=None, reference=None) -> dict:
    """Per-generator peak instantaneous rotor-angle error, in degrees
    (the alternative disturbance-size metric, exposed for comparison)."""
    diffs = _angle_errors(a, b, sys, generators, reference)
    return {g: float(np.max(np.abs(d)) * 180.0 / math.pi) for g, d in diffs.items()}


# ---------------------------------------------------------------------------
# critical clearing time


@dataclass
class CctResult:
    cct: float
    bus: int
    mode: str
    resolution: float
    stable_steps: int
    unstable_steps: int | None
    capped: bool
    runs: list = field(default_factory=list)


class _Open(Exception):
    """The search needs a verdict it does not have yet."""

    def __init__(self, steps: int):
        super().__init__(steps)
        self.steps = steps


def _bisection(stable, fault_bus: int, mode: str, dt: float, max_duration: float) -> CctResult:
    """The CCT procedure, driven by ``stable(steps)``, the verdict for a
    fault cleared after ``steps`` integration steps.

    Zero duration must be stable.  The duration doubles from 0.1 s until a
    verdict is unstable or the cap ``max_duration`` is passed, and the cap
    itself is tried once; bisection then narrows the bracket to one step.
    The verdicts, in the order asked, are the result's ``runs``.
    """
    runs = []

    def ask(steps):
        ok = stable(steps)
        runs.append((round(steps * dt, 12), bool(ok)))
        return ok

    if not ask(0):
        raise CctError(f"bus {fault_bus}: unstable even with zero fault duration")
    max_steps = int(round(max_duration / dt))
    lo = 0
    hi = max(1, int(round(0.1 / dt)))
    while hi <= max_steps and ask(hi):
        lo = hi
        hi *= 2
    if hi > max_steps:
        if lo == max_steps or ask(max_steps):
            return CctResult(
                cct=round(max_steps * dt, 12), bus=fault_bus, mode=mode,
                resolution=dt, stable_steps=max_steps, unstable_steps=None,
                capped=True, runs=runs,
            )
        hi = max_steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ask(mid):
            lo = mid
        else:
            hi = mid
    return CctResult(
        cct=round(lo * dt, 12), bus=fault_bus, mode=mode, resolution=dt,
        stable_steps=lo, unstable_steps=hi, capped=False, runs=runs,
    )


def _open_questions(procedure, known: dict, budget: int) -> list:
    """Up to ``budget`` questions ``(steps, assumed)`` that ``procedure``
    (a function of the verdict callable) may still ask, given the
    ``known`` verdicts, nearest first.  ``assumed`` holds the verdicts,
    not yet known, on the way to the question.  Empty once the procedure
    needs no unknown verdict."""
    found, queue = [], deque([{}])
    while queue and len(found) < budget:
        assumed = queue.popleft()

        def stable(steps):
            if steps in known:
                return known[steps]
            if steps in assumed:
                return assumed[steps]
            raise _Open(steps)

        try:
            procedure(stable)
        except _Open as exc:
            found.append((exc.steps, assumed))
            queue.extend({**assumed, exc.steps: ok} for ok in (True, False))
        except CctError:
            pass  # an outcome, not a question
    return found


def cct_search(
    sys: pm.SystemModel,
    model_set: ModelSet | None,
    policy: sim.SwitchPolicy,
    fault_bus: int,
    *,
    dt: float = 0.01,
    t_end: float = 16.0,
    max_duration: float = 2.0,
) -> CctResult:
    """Bisection on the fault duration, quantized to integration steps.

    A run is unstable when any study-area rotor angle departs more than
    180 degrees from the reference within the horizon (or the
    state blows up).  The returned duration is the longest stable one;
    the bracket (stable at cct, unstable one step later) is part of the
    result for post-hoc confirmation.

    ``max_duration`` must lie on the ``dt`` grid, as a clearing time must.
    The procedure (:func:`_bisection`) runs in rounds.  A round probes, in
    one :class:`tensorsim.simulate.ClearingProbes` call, the durations it
    may still ask for, nearest first, up to the probes' budget (lanes
    under force_full, one duration otherwise); a probe stops once no
    remaining outcome can make the procedure ask for it.  The probes of
    every mode share one fault set-up and one fault-on run, stepped once
    up to the cap.  Each probe's verdict is that of the single run, so the
    procedure, replayed on the verdicts, returns the sequential answer,
    ``runs`` included.
    """
    probes = sim.ClearingProbes(sys, model_set, policy, fault_bus, dt, t_end, max_duration, 180.0)
    known = {}

    def procedure(stable):
        return _bisection(stable, fault_bus, policy.mode, dt, max_duration)

    while True:
        questions = _open_questions(procedure, known, probes.budget)
        if not questions:
            return procedure(known.__getitem__)

        def wanted(verdicts):
            known.update(verdicts)
            return {steps for steps, assumed in questions if steps not in known
                    and all(known.get(s, ok) == ok for s, ok in assumed.items())}

        probes.run(list(dict.fromkeys(steps for steps, _ in questions)), wanted)


# ---------------------------------------------------------------------------
# rank search


@dataclass
class RankSearchResult:
    r2: int
    r3: int
    max_rms_deg: float
    curve: list  # rows: {"r2", "r3", "max_rms_deg", "fits"}
    stopped: str  # "improvement_below_tol" | "max_rank"


def _rank_sweep(score, start_rank, improvement_tol, r3_offsets, max_rank):
    """Stop-rule core: raise r2 (with r3 = r2 + offset swept jointly)
    until the best score stops improving by at least the tolerance;
    return the last pair before the sub-tolerance step."""
    curve = []
    best_prev = None
    chosen = None
    stopped = "max_rank"
    r2 = start_rank
    while r2 <= max_rank:
        cands = []
        for off in r3_offsets:
            r3 = r2 + off
            err, extra = score(r2, r3)
            curve.append({"r2": r2, "r3": r3, "max_rms_deg": err, "fits": extra})
            cands.append((err, r3))
        err_best, r3_best = min(cands, key=lambda c: (c[0], c[1]))
        if best_prev is not None and best_prev[0] - err_best < improvement_tol:
            chosen = best_prev
            stopped = "improvement_below_tol"
            break
        best_prev = (err_best, r2, r3_best)
        r2 += 1
    if chosen is None:
        chosen = best_prev  # rank cap hit: report best found, not fatal
    return chosen, curve, stopped


def rank_search(
    sys: pm.SystemModel,
    scenario: sim.Scenario,
    policy: sim.SwitchPolicy,
    *,
    start_rank: int = 1,
    improvement_tol_deg: float = 0.1,
    r3_offsets=(0, 1, 2),
    max_rank: int | None = None,
    dt: float = 0.01,
    seed: int = 0,
    cp_options: dict | None = None,
) -> RankSearchResult:
    """Sweep CP ranks upward until an extra rank no longer improves the
    worst study-area rotor-angle RMS by the tolerance.

    Each candidate pair is scored by simulating the scenario under the
    policy mode against a full-model baseline.  The derivative terms are
    built once, and each order's term is compressed once per rank
    (:func:`tensorsim.taylor._compress_order`): a pair's model is
    assembled from the factors kept by (order, rank), which have the
    bytes of :func:`tensorsim.taylor.compress_taylor_terms` at that pair.
    """
    if max_rank is None:
        max_rank = sys.n_states**2
    if start_rank > max_rank:
        raise ValueError(f"empty rank range: start rank {start_rank} > max rank {max_rank}")
    full_policy = replace(policy, mode="force_full")
    baseline = sim.run_adaptive(sys, None, scenario, full_policy, dt)
    lv = sys.load_level
    terms = taylor_terms(sys)
    kept = {}  # (order, rank) -> CpFactors

    def factors(order, ranks):
        key = (order, ranks[order - 2])
        if key not in kept:
            kept[key] = _compress_order(sys.n_states, order, terms[order - 1], ranks,
                                        seed=seed, cp_options=cp_options)
        return kept[key]

    def score(r2, r3):
        model = _taylor_model(sys, terms[0], factors(2, (r2, r3)), factors(3, (r2, r3)))
        ms = ModelSet(levels=(lv,), models={lv: model})
        traj = sim.run_adaptive(sys, ms, scenario, policy, dt)
        if not traj.completed:
            return float("inf"), model.fits
        err = rms_error(traj, baseline, sys)
        return max(err.values()), model.fits

    chosen, curve, stopped = _rank_sweep(
        score, start_rank, improvement_tol_deg, r3_offsets, max_rank
    )
    return RankSearchResult(
        r2=chosen[1], r3=chosen[2], max_rms_deg=chosen[0], curve=curve, stopped=stopped,
    )


# ---------------------------------------------------------------------------
# threshold search


@dataclass
class ThresholdResult:
    threshold_deg: float
    satisfied: bool
    curve: list  # rows: {"threshold_deg", "max_err_deg"}
    metric: str


def threshold_search(
    sys: pm.SystemModel,
    model_set: ModelSet,
    scenario: sim.Scenario,
    policy: sim.SwitchPolicy,
    *,
    start_deg: float = 1.0,
    step_deg: float = 1.0,
    max_deg: float = 60.0,
    max_error_deg: float = 5.0,
    metric: str = "rms",
    dt: float = 0.01,
) -> ThresholdResult:
    """Raise the switching angle threshold until the worst study-area
    error leaves the acceptance band; return the largest passing value.

    ``metric`` selects RMS (default, consistent with the headline error
    numbers) or 'max' for peak instantaneous error.
    """
    err_fns = {"rms": rms_error, "max": max_abs_error}
    if metric not in err_fns:
        raise ValueError(f"unknown error metric '{metric}' (want 'rms' or 'max')")
    err_fn = err_fns[metric]
    if step_deg <= 0 or max_deg < start_deg:
        raise ValueError(
            f"empty threshold range: {start_deg} to {max_deg} degrees in steps of {step_deg}"
        )
    full_policy = replace(policy, mode="force_full")
    baseline = sim.run_adaptive(sys, None, scenario, full_policy, dt)
    curve = []
    last_ok = None
    thr = start_deg
    while thr <= max_deg + 1e-9:
        p = replace(policy, angle_threshold_deg=thr, mode="adaptive")
        traj = sim.run_adaptive(sys, model_set, scenario, p, dt)
        if traj.completed:
            err = max(err_fn(traj, baseline, sys).values())
        else:
            err = float("inf")
        curve.append({"threshold_deg": thr, "max_err_deg": err})
        if err < max_error_deg:
            last_ok = thr
        else:
            break
        thr = round(thr + step_deg, 12)
    if last_ok is None:
        return ThresholdResult(0.0, False, curve, metric)
    return ThresholdResult(last_ok, True, curve, metric)


# ---------------------------------------------------------------------------
# operation counts (documented model: one fused multiply-add pair counts 2,
# a complex multiply 6, a complex add 2, and sin/cos/exp/sqrt count 20)


_TRANS = 20


def count_flops_full(sys: pm.SystemModel) -> int:
    """Per-evaluation count for the full nonlinear right-hand side:
    internal-voltage assembly, the dense complex reduced-network matvec,
    rotations, electrical power, terminal voltage, saturation, and the
    nine scalar equations."""
    m = sys.n_machines
    per_machine = (
        2 * _TRANS + 6      # e^{j(delta-pi/2)} and EMF assembly
        + 6                 # rotate current back to machine frame
        + 4                 # electrical power
        + 12 + _TRANS       # terminal voltage magnitude
        + 2 + _TRANS        # exciter saturation exp
        + 43                # nine state equations
    )
    return 8 * m * m + per_machine * m


def count_flops_reduced(n: int, r2: int, r3: int) -> int:
    """Factored Taylor evaluation: Jacobian matvec plus five skinny
    projections, elementwise products, and the weighted recombination."""
    return 2 * n * n + n * (6 * r2 + 8 * r3) + (r2 + 2 * r3) + 2 * n


def count_flops_linear(n: int) -> int:
    return 2 * n * n


def count_flops_unfolded(n: int) -> int:
    """Evaluating the same third-order expansion against the dense
    unfolded coefficient matrices, Kronecker powers included.  This is
    the cost the CP factorization removes."""
    return 2 * n**2 + (n**2 + 2 * n * n**2) + (n**3 + 2 * n * n**3) + 2 * n


def count_flops_hybrid(sys: pm.SystemModel, r2: int, r3: int,
                       norm_threshold_pu: float = sim.SwitchPolicy.norm_threshold_pu) -> int:
    """The hybrid with the row mask of ``norm_threshold_pu`` (by default the
    switching policy's): the full model alone when the mask covers every
    row (so the reduced model is not evaluated), else both parents and the
    row-masked combination."""
    rows = hybrid_rows(sys, pm.admittance_column_norms(sys), norm_threshold_pu)
    if rows.all():
        return count_flops_full(sys)
    n = sys.n_states
    return count_flops_full(sys) + count_flops_reduced(n, r2, r3) + n


# ---------------------------------------------------------------------------
# timing


@dataclass
class TimingRow:
    mode: str
    median_s: float
    times_s: list
    flops_per_eval: int
    steps: int


def timing_compare(
    sys: pm.SystemModel,
    model_set: ModelSet | None,
    scenario: sim.Scenario,
    policy: sim.SwitchPolicy,
    modes=("force_full", "force_taylor"),
    repetitions: int = 5,
    dt: float = 0.01,
) -> list:
    """Median wall time per mode over ``repetitions`` identical runs
    (plus one untimed warm-up each), same integrator and step everywhere.
    Each repetition runs every mode once, in the order given, so a change
    in the host's load falls on all modes alike.  Model build time is
    excluded: models arrive prebuilt."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    runs = [(replace(policy, mode=mode), None if mode == "force_full" else model_set)
            for mode in modes]

    def timed(p, ms):
        t0 = time.perf_counter()
        traj = sim.run_adaptive(sys, ms, scenario, p, dt)
        return time.perf_counter() - t0, traj.n_steps

    for p, ms in runs:
        timed(p, ms)  # warm-up
    laps = [[timed(p, ms) for p, ms in runs] for _ in range(repetitions)]
    rows = []
    n = sys.n_states
    for i, mode in enumerate(modes):
        times = [lap[i][0] for lap in laps]
        steps = laps[-1][i][1]
        if mode == "force_full":
            fl = count_flops_full(sys)
        elif mode == "force_linear":
            fl = count_flops_linear(n)
        else:
            mdl = model_set.model_for(scenario.load_level)
            fl = (
                count_flops_reduced(n, *mdl.ranks)
                if mode in ("force_taylor", "adaptive")
                else count_flops_hybrid(sys, *mdl.ranks, policy.norm_threshold_pu)
            )
        rows.append(
            TimingRow(
                mode=mode,
                median_s=float(np.median(times)),
                times_s=[float(t) for t in times],
                flops_per_eval=int(fl),
                steps=int(steps),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# load sweep


@dataclass
class StudyReport:
    kind: str
    config: dict
    rows: list
    extras: dict = field(default_factory=dict)

    def write_json(self, path) -> None:
        from . import __version__

        write_json(path, {
            "kind": self.kind,
            "version": __version__,
            "config": self.config,
            "rows": self.rows,
            "extras": self.extras,
        })

    def write_csv(self, path) -> None:
        if not self.rows:
            raise ValueError("no rows to write")
        keys = sorted({k for row in self.rows for k in row})
        with open(path, "w") as fh:
            tags = " ".join(f"{k}={v}" for k, v in sorted(self.config.items())
                            if k in ("config_hash", "seed"))
            from . import __version__

            fh.write(f"# tensorsim {__version__} kind={self.kind} {tags}".rstrip() + "\n")
            fh.write(",".join(keys) + "\n")
            for row in self.rows:
                fh.write(",".join(_csv_cell(row.get(k)) for k in keys) + "\n")


def write_json(path, payload: dict) -> None:
    """The one JSON report format: sorted keys, two-space indent, numpy
    scalars as floats, and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def load_sweep(
    sys: pm.SystemModel,
    model_set: ModelSet,
    policy: sim.SwitchPolicy,
    fault_bus: int,
    levels=tuple(np.round(np.arange(0.80, 1.2001, 0.05), 2)),
    *,
    dt: float = 0.01,
    t_end: float = 16.0,
    cct_max: float = 2.0,
) -> StudyReport:
    """For each load level: re-solve the operating point, find the
    full-model CCT, run a fault of exactly CCT duration under the
    adaptive policy, and report per-generator RMS errors against the full
    model.  Each level's adaptive run takes the model of the representative
    level nearest it (:meth:`tensorsim.taylor.ModelSet.model_for`), which
    its row names as ``model_level``; infeasible levels are skipped with a
    diagnostic row."""
    rows = []
    for lv in levels:
        lv = float(lv)
        try:
            sys_l = sys if lv == sys.load_level else pm.build_system(sys.spec, lv)
        except (pm.PowerFlowError, pm.EquilibriumError) as exc:
            rows.append({"level": lv, "skipped": str(exc)})
            continue
        full_policy = replace(policy, mode="force_full")
        cct = cct_search(
            sys_l, None, full_policy, fault_bus, dt=dt, t_end=t_end, max_duration=cct_max
        )
        if cct.stable_steps == 0:
            rows.append({"level": lv, "cct_s": 0.0, "skipped": "zero CCT"})
            continue
        scn = sim.Scenario(
            fault_bus=fault_bus, t_clear=round(cct.cct, 12), t_end=t_end, load_level=lv
        )
        base = sim.run_adaptive(sys_l, None, scn, full_policy, dt)
        adap = sim.run_adaptive(sys_l, model_set, scn, replace(policy, mode="adaptive"), dt)
        row = {"level": lv, "cct_s": cct.cct, "model_level": model_set.model_for(lv).load_level}
        if adap.completed and base.completed:
            err = rms_error(adap, base, sys_l)
            for g, v in err.items():
                row[f"rms_{g}_deg"] = v
            row["max_rms_deg"] = max(err.values())
        else:
            row["skipped"] = "run truncated"
        rows.append(row)
    return StudyReport(
        kind="load_sweep",
        config={"fault_bus": fault_bus, "dt": dt, "t_end": t_end,
                "levels": [float(l) for l in levels]},
        rows=rows,
    )
