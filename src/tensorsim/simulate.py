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

:func:`integrate` and :func:`run_adaptive` share one RK4 loop,
:func:`_march`; ``run_adaptive`` passes it a per-step closure that picks
the model and logs the switches, and its instability test as the stop.

Settled-state exit: once a step returns its input state bit for bit, at a
step whose right-hand side no longer depends on the step number (from
clearing on in ``run_adaptive``, from the start in ``integrate``), every
later step would repeat it.  The loop then fills the rest of the horizon
with that state, and ``run_adaptive`` repeats the last model in
``modes``; states, modes, switch log and flags are those of a run stepped
to the end.  On ``wscc9`` a zero-duration force_full run settles at a
step between 4 and 625 of the 1,600 in a 16 s horizon (load levels
0.8-1.2), and an adaptive one at step 0 at the representative levels
0.8, 1.0 and 1.2, where the Taylor model is expanded around the run's
own equilibrium.  At other levels the adaptive run never settles: its
Taylor model belongs to another level's equilibrium, so the undisturbed
state drifts (at 0.9, on the 1.0 model, the study-area angles move up
to 4.0 degrees against the reference machine over 16 s).  Of the 1,302
runs in the CCT searches of all 81 ``wscc9`` (bus, level) pairs, 108
settle, all of them zero-duration probes; no run with a fault does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import power_model as pm
from .taylor import (
    ModelSet,
    build_hybrid,
    hybrid_rhs,
    linear_rhs,
    reduced_rhs,
    select_boundary_generators,
)

__all__ = [
    "MODES",
    "Scenario",
    "SwitchPolicy",
    "SwitchEvent",
    "Trajectory",
    "rk4_step",
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
    completed: bool = True
    blowup_time: float | None = None
    unstable_at: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def rk4_step(f, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(x, steps: int, dt: float, step_rhs, *, settled_from: int, stop=None):
    """RK4 from ``x``; step ``k`` uses the right-hand side ``step_rhs(k, x)``.

    A non-finite state ends the run unrecorded rather than raising:
    blow-ups are a legitimate outcome (they signal instability).
    ``stop(x)``, a pure function of the state tested after each recorded
    step, ends the run too.
    Returns ``(states, blowup_step, stop_step)``, None for an unused end.

    Settled-state exit: the caller promises that from step
    ``settled_from`` on, ``step_rhs`` called again with the state it last
    saw returns the same right-hand side, and that this right-hand side
    is a pure function of the state.  Then a step at ``k >= settled_from``
    whose result has the bytes of its input repeats at every later step:
    the remaining rows are filled with that state, which is finite and
    which ``stop`` has already passed, and the run returns exactly as if
    it had been stepped to the end.  Bytes are compared rather than
    values so that +0.0 and -0.0 stay apart.
    """
    x = np.array(x, dtype=float)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x_new = rk4_step(step_rhs(k, x), x, dt)
            if not np.isfinite(x_new).all():
                return states[: k + 1], k + 1, None
            states[k + 1] = x_new
            if stop is not None and stop(x_new):
                return states[: k + 2], None, k + 1
            if k >= settled_from and x_new.tobytes() == x.tobytes():
                states[k + 2:] = x_new
                break
            x = x_new
    return states, None, None


def integrate(rhs, x_init, t_span, dt: float) -> Trajectory:
    """Classical fixed-step RK4 with every step recorded; a blow-up
    truncates the trajectory and flags it (see :func:`_march`).

    ``rhs`` must be a pure function of the state: a step that returns its
    input state bit for bit ends the stepping, and the rest of the span
    is filled with that state.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    t0, t1 = t_span
    if t1 < t0:
        raise ValueError(f"t_span ({t0}, {t1}) ends before it starts")
    steps = int(round((t1 - t0) / dt))
    states, k_blowup, _ = _march(x_init, steps, dt, lambda k, x: rhs, settled_from=0)
    blowup = None if k_blowup is None else t0 + k_blowup * dt
    return Trajectory(
        times=t0 + np.arange(states.shape[0]) * dt,
        states=states,
        completed=blowup is None,
        blowup_time=blowup,
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
    comparisons between modes isolate right-hand-side cost.
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
    hybrid = None
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
        if policy.mode in ("adaptive", "force_hybrid"):
            keep = select_boundary_generators(sys, policy.norm_threshold_pu)
            hybrid = build_hybrid(sys, model, keep)

    if policy.reference_generator is not None:
        ref_id = policy.reference_generator
        sys.machine_pos(ref_id)  # existence check
    else:
        ref_id, fallback = select_reference_generator(
            sys, norm_threshold=policy.norm_threshold_pu
        )
        if fallback:
            log.append(SwitchEvent(0.0, "full", "full", "reference_fallback_max_inertia", sys.load_level))
    ref_pos = sys.machine_pos(ref_id)
    study_pos = sys.study_idx

    yred_fault = pm.apply_fault(sys, scenario.fault_bus) if k_clear > k_on else None

    def rhs_pre(x):
        return pm._rhs(sys, sys.y_red, x)

    def rhs_fault(x):
        return pm._rhs(sys, yred_fault, x)

    def rhs_hybrid(x):
        return hybrid_rhs(hybrid, x, sys)

    def rhs_taylor(x):
        return reduced_rhs(model, x - model.x0)

    def rhs_linear(x):
        return linear_rhs(model, x - model.x0)

    forced_post = {
        "force_full": ("full", rhs_pre),
        "force_hybrid": ("hybrid", rhs_hybrid),
        "force_taylor": ("taylor", rhs_taylor),
        "force_linear": ("linear", rhs_linear),
    }

    modes = []
    current = "full"
    taylor_locked = False

    def step_rhs(k, x):
        nonlocal current, taylor_locked
        if k < k_on:
            mode_now, rhs, reason = "full", rhs_pre, None
        elif k < k_clear:
            mode_now, rhs, reason = "full", rhs_fault, None
        elif policy.mode == "adaptive":
            if not taylor_locked:
                dev = max_rotor_deviation(x, sys.x0, ref_pos, study_pos)
                if dev <= policy.angle_threshold_deg:
                    taylor_locked = True
            if taylor_locked:
                mode_now, rhs = "taylor", rhs_taylor
                reason = ("deviation_below_threshold" if current == "hybrid"
                          else "post_fault_small_disturbance")
            else:
                mode_now, rhs = "hybrid", rhs_hybrid
                reason = "post_fault_large_disturbance"
        else:
            mode_now, rhs = forced_post[policy.mode]
            reason = "post_fault_forced"
        if mode_now != current:
            log.append(
                SwitchEvent(k * dt, current, mode_now, reason or "switch",
                            model.load_level if model is not None else sys.load_level)
            )
            current = mode_now
        modes.append(mode_now)
        return rhs

    stop = None
    if instability_stop_deg is not None and study_pos.size:
        stop_rad = math.radians(instability_stop_deg)
        d_idx = (study_pos * pm.N_STATES).tolist()
        ref_d = ref_pos * pm.N_STATES

        def stop(x):
            # Python floats: the same differences as numpy's, and cheaper
            # than array calls on a handful of angles
            ref = x.item(ref_d)
            for i in d_idx:
                if abs(x.item(i) - ref) > stop_rad:
                    return True
            return False

    # From k_clear on, step_rhs depends on the state alone: the forced
    # modes are fixed, and the adaptive lock is one way and decided from
    # the state, so a repeated state gets the same model without a switch.
    states, k_blowup, k_stop = _march(sys.x0, k_end, dt, step_rhs,
                                      settled_from=k_clear, stop=stop)
    n_steps = states.shape[0] - 1
    if len(modes) < n_steps:  # a settled run ended early on its last mode
        modes.extend([modes[-1]] * (n_steps - len(modes)))
    return Trajectory(
        times=np.arange(states.shape[0]) * dt,
        states=states,
        switch_log=log,
        modes=modes[:n_steps],
        completed=k_blowup is None and k_stop is None,
        blowup_time=None if k_blowup is None else k_blowup * dt,
        unstable_at=None if k_stop is None else k_stop * dt,
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
