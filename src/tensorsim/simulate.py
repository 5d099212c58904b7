"""Fixed-step time-domain simulation with adaptive model switching.

One contingency run has three phases: full nonlinear model before and
during the fault, then post-fault either the hybrid model (while the
study-area rotor deviation exceeds the angle threshold) or the reduced
Taylor model.  The post-fault switch is one way: once the deviation drops
below the threshold the run stays on the reduced model, which prevents
chattering without a hysteresis band.

Load tracking: when the scenario's load level differs from the active
representative model level by more than the configured fraction, the
Taylor model is swapped for the nearest representative level in the
direction of the change before the run starts.

:func:`run_adaptive` runs these phases as a plan of segments, each one
fixed right-hand side stepped by the RK4 loop :func:`_march`;
:func:`integrate` is a single segment.  Within a segment, a step that
returns its input state bit for bit would repeat at every later step, so
the loop fills the rest of the segment with that state: the trajectory is
the one stepped to the segment's end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import power_model as pm
from .taylor import (
    ModelSet,
    hybrid_rhs,
    hybrid_rows,
    linear_rhs,
    reduced_rhs,
)

__all__ = [
    "MODES",
    "Scenario",
    "SwitchPolicy",
    "SwitchEvent",
    "Trajectory",
    "integrate",
    "max_rotor_deviation",
    "select_reference_generator",
    "resolve_active_level",
    "run_adaptive",
    "export_trajectory_csv",
    "export_switch_log",
]

MODES = ("adaptive", "force_full", "force_hybrid", "force_taylor", "force_linear")
TRAJECTORY_FORMAT = "trajectory-v1"
SWITCHLOG_FORMAT = "switchlog-v1"


@dataclass(frozen=True)
class Scenario:
    """Self-clearing three-phase bus fault at a given operating point."""

    fault_bus: int
    t_clear: float
    t_fault_on: float = 0.0
    t_end: float = 16.0
    load_level: float = 1.0


@dataclass(frozen=True)
class SwitchPolicy:
    angle_threshold_deg: float = 26.0
    load_change_fraction: float = 0.10
    reference_generator: str | None = None
    representative_levels: tuple = (0.8, 1.0, 1.2)
    mode: str = "adaptive"
    norm_threshold_pu: float = 1.0

    def __post_init__(self):
        if self.angle_threshold_deg <= 0:
            raise ValueError("angle threshold must be > 0")
        if not 0.0 < self.load_change_fraction < 1.0:
            raise ValueError("load change fraction must be in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'")


@dataclass
class SwitchEvent:
    t: float
    from_mode: str
    to_mode: str
    reason: str
    level: float


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    switch_log: list = field(default_factory=list)
    modes: list = field(default_factory=list)  # model mode used on step k
    blowup_time: float | None = None
    unstable_at: float | None = None
    reference: str | None = None  # machine the run's rotor angles were taken against

    @property
    def completed(self) -> bool:
        return self.blowup_time is None and self.unstable_at is None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _march(states, dt: float, rhs, stop=None):
    """RK4 with the pure right-hand side ``rhs`` from ``states[0]`` into
    the preallocated view ``states[1:]``; returns ``(steps, end)``, the
    number of steps recorded and why stepping ended.

    ``end`` is None when the view is full, ``"blowup"`` when the next step
    was not finite (it is not recorded: blow-ups are a legitimate outcome,
    they signal instability), or the truthy value ``stop(x)``, a pure
    function of the state tested after each recorded step, returned for
    the last recorded state.

    A step whose result has the bytes of its input repeats at every later
    step, so the rest of the view is filled with that state, which is
    finite and which ``stop`` has passed.  Bytes are compared rather than
    values so that +0.0 and -0.0 stay apart.
    """
    x = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(states)):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x_new).all():
                return k - 1, "blowup"
            states[k] = x_new
            end = stop is not None and stop(x_new)
            if end:
                return k, end
            if x_new.tobytes() == x.tobytes():
                states[k + 1:] = x_new
                break
            x = x_new
    return len(states) - 1, None


def integrate(rhs, x_init, t_span, dt: float) -> Trajectory:
    """Classical fixed-step RK4 of the pure right-hand side ``rhs`` with
    every step recorded; a blow-up truncates the trajectory and flags it
    (see :func:`_march`)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    t0, t1 = t_span
    if t1 < t0:
        raise ValueError(f"t_span ({t0}, {t1}) ends before it starts")
    x = np.asarray(x_init, dtype=float)
    states = np.empty((int(round((t1 - t0) / dt)) + 1, x.size))
    states[0] = x
    steps, end = _march(states, dt, rhs)
    return Trajectory(
        times=t0 + np.arange(steps + 1) * dt,
        states=states[: steps + 1],
        blowup_time=None if end is None else t0 + (steps + 1) * dt,
    )


def max_rotor_deviation(x, x_base, ref_pos: int, study_pos) -> float:
    """Largest study-area change of rotor angle relative to the reference
    machine since the base state, in degrees.

    Referencing removes common drift; a uniform shift of every angle
    (including the reference) reads as zero deviation.
    """
    x = np.asarray(x)
    x_base = np.asarray(x_base)
    d_idx = np.asarray(study_pos, dtype=int) * pm.N_STATES
    ref = ref_pos * pm.N_STATES
    rel_now = x[d_idx] - x[ref]
    rel_base = x_base[d_idx] - x_base[ref]
    if d_idx.size == 0:
        return 0.0
    return float(np.max(np.abs(rel_now - rel_base)) * 180.0 / math.pi)


def select_reference_generator(sys: pm.SystemModel, norms: dict | None = None,
                               norm_threshold: float = 1.0):
    """Reference machine for angle differencing: the highest-inertia
    external machine that is electrically far from the study boundary
    (column norm below threshold), ties broken by lowest id.  If every
    external machine is close, falls back to the global inertia maximum
    and reports the fallback."""
    if norms is None:
        norms = pm.admittance_column_norms(sys)
    far = [g for g in sys.external if norms.get(g, 0.0) < norm_threshold]
    pool = far
    fallback = False
    if not pool:
        pool = [m.id for m in sys.machines]
        fallback = True
    h_of = {m.id: m.h for m in sys.machines}
    best = sorted(pool, key=lambda g: (-h_of[g], g))[0]
    return best, fallback


def resolve_active_level(levels, scenario_level: float, fraction: float):
    """Representative level serving a scenario.

    Starts from the level nearest nominal (1.0); if the scenario level
    differs by strictly more than ``fraction`` (with a 1e-12 guard so
    exact boundary arithmetic like |1.1 - 1.0| does not trip on float
    representation), swaps to the nearest level in the direction of the
    change.
    """
    levels = sorted(levels)
    active = min(levels, key=lambda l: (abs(l - 1.0), l))
    if abs(scenario_level - active) > fraction + 1e-12:
        if scenario_level > active:
            side = [l for l in levels if l > active]
        else:
            side = [l for l in levels if l < active]
        if side:
            new = min(side, key=lambda l: (abs(l - scenario_level), l))
            return new, new != active
    return active, False


def _grid_step(t: float, dt: float, what: str) -> int:
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9:
        raise ValueError(f"{what}={t} is not on the {dt} s step grid")
    return k


def _either(first, second):
    """The stop ``first(x) or second(x)``; either test may be None."""
    if first is None or second is None:
        return first or second
    return lambda x: first(x) or second(x)


def run_adaptive(
    sys: pm.SystemModel,
    model_set: ModelSet | None,
    scenario: Scenario,
    policy: SwitchPolicy,
    dt: float = 0.01,
    *,
    instability_stop_deg: float | None = None,
) -> Trajectory:
    """Simulate one contingency under the switching policy.

    The system must already be solved at the scenario load level.  All
    five policy modes share this driver (and its integrator), so timing
    comparisons between modes isolate right-hand-side cost.  An adaptive
    run leaves the hybrid segment for the Taylor one once the rotor
    deviation is within the threshold, tested on the segment's start
    state and after each recorded step.  One set of admittance column
    norms serves both the hybrid's row mask and the reference-machine
    choice.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if abs(sys.load_level - scenario.load_level) > 1e-12:
        raise ValueError(
            f"system solved at load level {sys.load_level}, scenario wants "
            f"{scenario.load_level}"
        )
    k_on = _grid_step(scenario.t_fault_on, dt, "t_fault_on")
    k_clear = _grid_step(scenario.t_clear, dt, "t_clear")
    k_end = _grid_step(scenario.t_end, dt, "t_end")
    if not 0 <= k_on <= k_clear <= k_end:
        raise ValueError("need 0 <= t_fault_on <= t_clear <= t_end")

    log = [SwitchEvent(0.0, "none", "full", "start", sys.load_level)]

    model = None
    if policy.mode != "force_full":
        if model_set is None:
            raise ValueError("this policy mode needs a prebuilt model set")
        active, swapped = resolve_active_level(
            model_set.levels, scenario.load_level, policy.load_change_fraction
        )
        if active not in model_set.models:
            raise ValueError(f"missing model for required level {active}")
        model = model_set.models[active]
        if swapped:
            log.append(SwitchEvent(0.0, "full", "full", "load_level_swap", active))

    norms = pm.admittance_column_norms(sys)
    rows = hybrid_rows(sys, norms, policy.norm_threshold_pu)
    ref_id = policy.reference_generator
    if ref_id is None:
        ref_id, fallback = select_reference_generator(sys, norms, policy.norm_threshold_pu)
        if fallback:
            log.append(SwitchEvent(0.0, "full", "full", "reference_fallback_max_inertia", sys.load_level))
    try:
        ref_pos = sys.machine_pos(ref_id)
    except KeyError:
        raise ValueError(f"reference generator '{ref_id}' is not a machine of the system") from None
    study_pos = sys.study_idx
    level = model.load_level if model is not None else sys.load_level

    yred_fault = pm.apply_fault(sys, scenario.fault_bus) if k_clear > k_on else None

    def rhs_pre(x):
        return pm._rhs(sys, sys.y_red, x)

    def rhs_fault(x):
        return pm._rhs(sys, yred_fault, x)

    def rhs_hybrid(x):
        return hybrid_rhs(model, rows, x, sys)

    def rhs_taylor(x):
        return reduced_rhs(model, x - model.x0)

    def rhs_linear(x):
        return linear_rhs(model, x - model.x0)

    unstable = None
    if instability_stop_deg is not None and study_pos.size:
        stop_rad = math.radians(instability_stop_deg)
        d_idx = (study_pos * pm.N_STATES).tolist()
        ref_d = ref_pos * pm.N_STATES

        def unstable(x):
            # Python floats: the same differences as numpy's, and cheaper
            # than array calls on a handful of angles
            ref = x.item(ref_d)
            for i in d_idx:
                if abs(x.item(i) - ref) > stop_rad:
                    return "unstable"
            return False

    # (mode, right-hand side, last step, reason logged on entry, leave test)
    plan = [("full", rhs_pre, k_on, None, None), ("full", rhs_fault, k_clear, None, None)]
    if policy.mode == "adaptive":
        def small_deviation(x):
            dev = max_rotor_deviation(x, sys.x0, ref_pos, study_pos)
            return dev <= policy.angle_threshold_deg and "deviation_below_threshold"

        plan += [("hybrid", rhs_hybrid, k_end, "post_fault_large_disturbance", small_deviation),
                 ("taylor", rhs_taylor, k_end, "post_fault_small_disturbance", None)]
    else:
        mode, rhs = {
            "force_full": ("full", rhs_pre),
            "force_hybrid": ("hybrid", rhs_hybrid),
            "force_taylor": ("taylor", rhs_taylor),
            "force_linear": ("linear", rhs_linear),
        }[policy.mode]
        plan.append((mode, rhs, k_end, "post_fault_forced", None))

    states = np.empty((k_end + 1, sys.x0.size))
    states[0] = sys.x0
    modes, current, k, end = [], "full", 0, None
    for mode, rhs, last, reason, leave in plan:
        # a leave test is also tested on the segment's start state
        if last <= k or (leave is not None and leave(states[k])):
            continue
        if mode != current:
            # a segment ended by its leave test names the reason for the switch
            log.append(SwitchEvent(k * dt, current, mode, end or reason, level))
            current = mode
        steps, end = _march(states[k:last + 1], dt, rhs, _either(unstable, leave))
        modes += [mode] * steps
        k += steps
        if end in ("blowup", "unstable"):
            break
    return Trajectory(
        times=np.arange(k + 1) * dt,
        states=states[: k + 1],
        switch_log=log,
        modes=modes,
        blowup_time=(k + 1) * dt if end == "blowup" else None,
        unstable_at=k * dt if end == "unstable" else None,
        reference=ref_id,
    )


def export_trajectory_csv(traj: Trajectory, sys: pm.SystemModel, path, meta: dict | None = None) -> None:
    """CSV export: one comment line with provenance, a header of
    ``time,<machine>.<state>`` columns, then one row per step at full
    float precision."""
    from . import __version__

    meta = meta or {}
    labels = pm.state_labels(sys.machines)
    with open(path, "w") as fh:
        tags = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        fh.write(f"# tensorsim {__version__} format={TRAJECTORY_FORMAT} {tags}".rstrip() + "\n")
        fh.write("time," + ",".join(labels) + "\n")
        data = np.column_stack([traj.times, traj.states])
        np.savetxt(fh, data, fmt="%.17g", delimiter=",")


def export_switch_log(traj: Trajectory, path, meta: dict | None = None) -> None:
    """JSON-lines export: a header record, then one record per event."""
    from . import __version__

    head = {"format": SWITCHLOG_FORMAT, "version": __version__}
    head.update(meta or {})
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for ev in traj.switch_log:
            rec = {"t": ev.t, "from": ev.from_mode, "to": ev.to_mode,
                   "reason": ev.reason, "level": ev.level}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
