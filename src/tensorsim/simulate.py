"""Fixed-step time-domain simulation with adaptive model switching.

One contingency run has three phases: full nonlinear model before and
during the fault, then post-fault either the hybrid model (while the
study-area rotor deviation exceeds the angle threshold) or the reduced
Taylor model.  The post-fault switch is one way: once the deviation drops
below the threshold the run stays on the reduced model, which prevents
chattering without a hysteresis band.

Load tracking: a run that needs a Taylor model takes the one of the
representative level nearest the scenario's load level
(:meth:`tensorsim.taylor.ModelSet.model_for`), and every switch-log
record after the start names that level.

What a run of one fault decides before its first step (the model, the
hybrid's row mask, the reference machine, the instability stop, the
faulted network) is one :class:`_Contingency`.  It plans the phases as
segments, each one fixed right-hand side stepped by the RK4 loop
:func:`_march`, and steps the plan on from any start step;
:func:`integrate` is a single segment.  Within a segment, a step that
returns its input state bit for bit would repeat at every later step, so
the loop fills the rest of the segment with that state: the trajectory is
the one stepped to the segment's end.

:func:`run_adaptive` steps one 1-D state.  :class:`ClearingProbes` gives
the verdicts of many runs of one fault, cleared at different steps, which
a CCT search asks for, from one contingency and one fault-on run, stepped
once up to the search's cap.  Every round of probes is one call of
:func:`_march_lanes`, a ``(B, 1, n)`` state under the full model whose
every lane gets the bytes of its own single run; its last lane steps the
contingency's plan on alone, as the fault-on run does.  :func:`_rk4` is
the one step formula of both loops.
"""

from __future__ import annotations

import ctypes
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
    "ClearingProbes",
    "integrate",
    "max_rotor_deviation",
    "select_reference_generator",
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
    reference_generator: str | None = None
    representative_levels: tuple = (0.8, 1.0, 1.2)
    mode: str = "adaptive"
    norm_threshold_pu: float = 1.0

    def __post_init__(self):
        # written so that NaN fails too
        if not self.angle_threshold_deg > 0:
            raise ValueError("angle threshold must be > 0")
        if not self.norm_threshold_pu > 0:
            raise ValueError("norm threshold must be > 0")
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


def _rk4(rhs, x, dt: float):
    """One classical RK4 step of the pure right-hand side ``rhs``: the one
    step formula of every run, for one state and for stacked lanes."""
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
            x_new = _rk4(rhs, x, dt)
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


def _march_lanes(x, ids, ends, dt: float, rhs, stop, report, alone):
    """RK4 of stacked lanes in lockstep, for their verdicts only.

    ``x`` holds one ``(1, n)`` state per lane, named by ``ids``; lane ``i``
    ends after ``ends[i]`` steps.  ``stop`` is the stop test of stacked
    lanes, one boolean per lane, or None.  A lane ends as :func:`_march`
    would end its run: False when its next step is not finite or is
    stopped, True when the step returns its input bit for bit or is its
    last.  After each step in which lanes end, ``report({id: verdict})``
    returns the ids still wanted; the others leave the batch.

    Stacked as ``(B, 1, n)``, every lane's right-hand side has the bytes of
    a call on its state alone, so a lane's verdict is that of the run.
    The last lane goes on alone, which costs less than a batch of one:
    ``alone(id, t, state)`` steps it on from its 1-D state after ``t``
    steps and returns its verdict.
    """
    ids, ends, t = list(ids), np.asarray(ends), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(ids) > 1:
            x_new = _rk4(rhs, x, dt)
            t += 1
            failed = ~np.isfinite(x_new).all(axis=(1, 2))
            if stop is not None:
                failed |= stop(x_new)
            same = (x_new.view(np.int64) == x.view(np.int64)).all(axis=(1, 2))
            ended = failed | same | (ends == t)
            if ended.any():
                live = report({ids[i]: not failed[i] for i in np.flatnonzero(ended)})
                keep = [i for i, c in enumerate(ids) if not ended[i] and c in live]
                ids, ends, x_new = [ids[i] for i in keep], ends[keep], x_new[keep]
            x = x_new
    if ids:
        report({ids[0]: alone(ids[0], t, x[0, 0])})


def _check_dt(dt: float) -> None:
    """Refuse a step that is not a finite number above 0 (NaN included)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be > 0 and finite, got {dt}")


def integrate(rhs, x_init, t_span, dt: float) -> Trajectory:
    """Classical fixed-step RK4 of the pure right-hand side ``rhs`` with
    every step recorded; a blow-up truncates the trajectory and flags it
    (see :func:`_march`).  The span must be a whole number of steps."""
    _check_dt(dt)
    t0, t1 = t_span
    if t1 < t0:
        raise ValueError(f"t_span ({t0}, {t1}) ends before it starts")
    k_end = _grid_step(t1 - t0, dt, f"the length of t_span ({t0}, {t1})")
    x = np.asarray(x_init, dtype=float)
    states = np.empty((k_end + 1, x.size))
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


def _grid_step(t: float, dt: float, what: str) -> int:
    if not math.isfinite(t):
        raise ValueError(f"{what}={t} is not a finite time")
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9:
        raise ValueError(f"{what}={t} is not on the {dt} s step grid")
    return k


def _scenario_steps(sys: pm.SystemModel, scenario: Scenario, dt: float):
    """The fault-on, clearing and end steps of a scenario on the ``dt``
    grid, checked against the system and against each other."""
    _check_dt(dt)
    if abs(sys.load_level - scenario.load_level) > 1e-12:
        raise ValueError(
            f"system solved at load level {sys.load_level}, scenario wants "
            f"{scenario.load_level}"
        )
    return _ordered(_grid_step(scenario.t_fault_on, dt, "t_fault_on"),
                    _grid_step(scenario.t_clear, dt, "t_clear"),
                    _grid_step(scenario.t_end, dt, "t_end"))


def _ordered(k_on: int, k_clear: int, k_end: int):
    if not 0 <= k_on <= k_clear <= k_end:
        raise ValueError("need 0 <= t_fault_on <= t_clear <= t_end")
    return k_on, k_clear, k_end


def _either(first, second):
    """The stop ``first(x) or second(x)``; either test may be None."""
    if first is None or second is None:
        return first or second
    return lambda x: first(x) or second(x)


class _Contingency:
    """What a run of one fault on one solved system decides before its
    first step, whatever its clearing step: the model
    (:meth:`ModelSet.model_for`), one set of admittance column norms for
    both the hybrid's row mask and the reference machine (the policy's,
    else :func:`select_reference_generator`'s choice), the instability
    stops, the faulted network (built by the first plan that faults),
    each model's right-hand side and the segment plan.

    ``stop`` is the test ``"unstable"`` once a study-area rotor angle
    departs more than ``stop_deg`` from the reference machine's, as
    :func:`_march` takes it; ``lane_stop`` is the same test of stacked
    lanes, as :func:`_march_lanes` takes it.  Both are None without a limit
    or a study area.
    """

    def __init__(self, sys: pm.SystemModel, model_set: ModelSet | None, policy: SwitchPolicy,
                 fault_bus: int, stop_deg: float | None):
        self.sys, self.policy, self.fault_bus = sys, policy, fault_bus
        self.model = None
        if policy.mode != "force_full":
            if model_set is None:
                raise ValueError("this policy mode needs a prebuilt model set")
            self.model = model_set.model_for(sys.load_level)
        self.level = sys.load_level if self.model is None else self.model.load_level
        norms = pm.admittance_column_norms(sys)
        rows = hybrid_rows(sys, norms, policy.norm_threshold_pu)
        ref_id, self.fallback = policy.reference_generator, False
        if ref_id is None:
            ref_id, self.fallback = select_reference_generator(sys, norms, policy.norm_threshold_pu)
        try:
            self.ref_id, self.ref_pos = ref_id, sys.machine_pos(ref_id)
        except KeyError:
            raise ValueError(f"reference generator '{ref_id}' is not a machine of the system") from None
        self.study_pos = sys.study_idx
        self.stop = self.lane_stop = None
        if stop_deg is not None and self.study_pos.size:
            stop_rad = math.radians(stop_deg)
            d_idx = (self.study_pos * pm.N_STATES).tolist()
            ref_d = self.ref_pos * pm.N_STATES

            def stop(x):
                # Python floats: the same differences as numpy's, and cheaper
                # than array calls on a handful of angles
                ref = x.item(ref_d)
                for i in d_idx:
                    if abs(x.item(i) - ref) > stop_rad:
                        return "unstable"
                return False

            def lane_stop(x):
                rel = x[:, 0, d_idx] - x[:, 0, ref_d:ref_d + 1]
                return (np.abs(rel) > stop_rad).any(axis=1)

            self.stop, self.lane_stop = stop, lane_stop
        self._yred_fault = None
        model = self.model
        # the right-hand side of each model, and "fault" of the faulted network
        self.rhs = {
            "full": lambda x: pm._rhs(sys, sys.y_red, x),
            "fault": lambda x: pm._rhs(sys, self._yred_fault, x),
            "hybrid": lambda x: hybrid_rhs(model, rows, x, sys),
            "taylor": lambda x: reduced_rhs(model, x - model.x0),
            "linear": lambda x: linear_rhs(model, x - model.x0),
        }

    def small_deviation(self, x):
        dev = max_rotor_deviation(x, self.sys.x0, self.ref_pos, self.study_pos)
        return dev <= self.policy.angle_threshold_deg and "deviation_below_threshold"

    def plan(self, k_on: int, k_clear: int, k_end: int) -> list:
        """The segments of the run faulted from step ``k_on`` to
        ``k_clear`` and ended at ``k_end``, each ``(mode, right-hand side,
        last step, reason logged on entry, leave test)``."""
        rhs = self.rhs
        plan = [("full", rhs["full"], k_on, None, None)]
        if k_clear > k_on:
            if self._yred_fault is None:
                self._yred_fault = pm.apply_fault(self.sys, self.fault_bus)
            plan.append(("full", rhs["fault"], k_clear, None, None))
        if self.policy.mode == "adaptive":
            return plan + [
                ("hybrid", rhs["hybrid"], k_end, "post_fault_large_disturbance", self.small_deviation),
                ("taylor", rhs["taylor"], k_end, "post_fault_small_disturbance", None),
            ]
        mode = self.policy.mode.removeprefix("force_")  # a forced mode names its model
        return plan + [(mode, rhs[mode], k_end, "post_fault_forced", None)]

    def step(self, states, k: int, plan: list, dt: float, log: list):
        """Steps ``plan`` on from ``states[k]``, a state the run reached on
        the full model, into ``states[k + 1:]``; returns ``(k, end,
        modes)``: the last step recorded, why stepping ended (as
        :func:`_march` says) and the model mode of each step taken.  Every
        switch of model is appended to ``log``."""
        modes, current, end = [], "full", None
        for mode, rhs, last, reason, leave in plan:
            # a leave test is also tested on the segment's start state
            if last <= k or (leave is not None and leave(states[k])):
                continue
            if mode != current:
                # a segment ended by its leave test names the reason for the switch
                log.append(SwitchEvent(k * dt, current, mode, end or reason, self.level))
                current = mode
            steps, end = _march(states[k:last + 1], dt, rhs, _either(self.stop, leave))
            modes += [mode] * steps
            k += steps
            if end in ("blowup", "unstable"):
                break
        return k, end, modes


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
    state and after each recorded step.  The run's set-up is one
    :class:`_Contingency`.
    """
    k_on, k_clear, k_end = _scenario_steps(sys, scenario, dt)
    run = _Contingency(sys, model_set, policy, scenario.fault_bus, instability_stop_deg)
    log = [SwitchEvent(0.0, "none", "full", "start", sys.load_level)]
    if run.fallback:
        log.append(SwitchEvent(0.0, "full", "full", "reference_fallback_max_inertia", sys.load_level))
    states = np.empty((k_end + 1, sys.x0.size))
    states[0] = sys.x0
    k, end, modes = run.step(states, 0, run.plan(k_on, k_clear, k_end), dt, log)
    return Trajectory(
        times=np.arange(k + 1) * dt,
        states=states[: k + 1],
        switch_log=log,
        modes=modes,
        blowup_time=(k + 1) * dt if end == "blowup" else None,
        unstable_at=k * dt if end == "unstable" else None,
        reference=run.ref_id,
    )


# A round runs at most LANE_MACHINES // machines lanes, and at least
# MIN_LANES: each lane of a large system costs more, so fewer of them pay.
LANE_MACHINES = 256
MIN_LANES = 8


class ClearingProbes:
    """Stability verdicts of one fault, cleared after different numbers of
    steps: the verdict for ``c`` steps is whether :func:`run_adaptive`
    completes the scenario cleared at ``c * dt`` with
    ``instability_stop_deg``.

    One :class:`_Contingency` serves every probe.  The fault-on run is
    stepped once, at construction, as one state, up to the search's cap
    ``max_duration`` or the horizon ``t_end``, whichever comes first, or
    to its own end; once it has ended, every later clearing fails.  Each
    :meth:`run` is one call of :func:`_march_lanes` on the probes'
    clearing states, at most ``budget`` lanes:
    ``max(MIN_LANES, LANE_MACHINES // machines)`` under a force_full
    policy.  Under any other policy the post-fault segments switch model at
    different steps in different lanes, so ``budget`` is 1.  The last lane
    steps the plan on alone, through the same call as the fault-on run.
    """

    def __init__(self, sys: pm.SystemModel, model_set: ModelSet | None, policy: SwitchPolicy,
                 fault_bus: int, dt: float, t_end: float, max_duration: float,
                 instability_stop_deg: float):
        _check_dt(dt)
        self.sys, self.dt = sys, dt
        self.k_end = _grid_step(t_end, dt, "t_end")
        # no question of the search clears later than its cap
        top = min(_grid_step(max_duration, dt, "max_duration"), self.k_end)
        _ordered(0, top, self.k_end)
        self._run = _Contingency(sys, model_set, policy, fault_bus, instability_stop_deg)
        lanes = policy.mode == "force_full"
        self.budget = max(MIN_LANES, LANE_MACHINES // sys.n_machines) if lanes else 1
        # the fault-on run is the run cleared at top and ended there
        self._fault, end = self._step_on(top, 0, sys.x0, top)
        # the first step at which it ended, if it did; a blow-up ends it at
        # the step that was not recorded
        self._fault_end = None if end is None else len(self._fault) - 1 + (end == "blowup")

    def _step_on(self, k_clear: int, k: int, x, k_end: int):
        """Steps the plan of the run cleared at ``k_clear`` and ended at
        ``k_end`` on from its state ``x`` at step ``k``; returns its states
        up to the last one recorded, and why stepping ended."""
        states = np.empty((k_end + 1, self.sys.n_states))
        states[k] = x
        k, end, _ = self._run.step(states, k, self._run.plan(0, k_clear, k_end), self.dt, [])
        return states[:k + 1], end

    def run(self, steps, report) -> None:
        """Probes the clearing steps ``steps``, none past the cap and at
        most ``budget`` of them.  The first is asked for; the others may be
        asked later and are not probed past the end of the run.  Verdicts
        go to ``report({steps: verdict})`` as they are reached, which
        returns the steps still wanted; the probes of the others stop."""
        _ordered(0, steps[0], self.k_end)  # refused past the horizon, as a single run is
        k_end, end = self.k_end, self._fault_end
        steps = [c for c in steps if c <= k_end]
        # a fault-on run that ended fails every later clearing; a clearing
        # at the end has no post-fault step to take
        decided = {c: end is None or c < end
                   for c in steps if c == k_end or (end is not None and c >= end)}
        live = report(decided)
        probes = [c for c in steps if c in live and c not in decided]
        if probes:
            _march_lanes(self._fault[probes][:, None, :], probes, [k_end - c for c in probes],
                         self.dt, self._run.rhs["full"], self._run.lane_stop, report,
                         lambda c, t, x: self._step_on(c, c + t, x, k_end)[1]
                         not in ("blowup", "unstable"))


# The trajectory writer prints each value as C's ``%.17g`` would, a block of
# rows at a time.  A value v = ±m·10^(X−16), m a 17-digit integer, takes one
# 40-byte record: the sign and, for X < 0, "0." and -X - 1 zeros in bytes
# 0-5, then digit j of m in byte 2j + 6 with byte 2j + 7 free for a point,
# byte 39 taking the separator.  A byte left 0 is no character, so one
# deletion of the zero bytes turns the records into the text.  A value that
# is not finite, needs exponent notation (X < -4 or X > 16) or whose 17th
# digit may round the other way than the exact value's goes through
# Python's ``'%.17g' % v``.
#
# A file is formatted on the calling thread, so the order of its
# allocations, and with it the state it leaves malloc's heap in, is the
# same from one run to the next.  Blocks mapped on a thread pool wrote the
# same bytes no faster (most of a block's numpy calls are short and hold
# the GIL) but made the heap vary: the ring33_cli benchmark, which parses
# every file it has the CLI write, then peaked at 103 MB in some runs and
# at 109-118 MB in others (2 cores).  The work arrays of a file are made
# once, by one :class:`_G17Work`, and every numpy call of a block writes
# into them, so a block allocates only its text.  Once the file is
# written, the heap's free pages go back to the OS (:func:`_trim_heap`).
_CSV_BLOCK = 16  # rows per formatted block; the bytes do not depend on it
_RECORD = 40


def _decade(k: int) -> float:
    """The smallest double not below 10^k."""
    d = float(f"1e{k}")
    num, den = d.as_integer_ratio()
    return d if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else float(np.nextafter(d, np.inf))


# |v| >= _DECADE[X + 5] exactly when |v| >= 10^X, for X in -5..18
_DECADE = np.array([_decade(k) for k in range(-5, 19)])
_POW10 = np.array([float(10 ** k) for k in range(21)])  # 10^k, exact in double and longdouble
_POW10_LD = _POW10.astype(np.longdouble)
# an upper bound of the rounding error of |v|·10^k in longdouble, per |v|
_BAND = _POW10 * np.finfo(np.longdouble).eps
# record bytes 0-7 by sign, X and the first digit d: _HEAD[(21 * sign + X + 4) * 10 + d]
_HEAD = np.array([(sign + ("0." + "0" * (-x - 1) if x < 0 else "")).encode().ljust(6, b"\0")
                  + b"%d\0" % d for sign in ("", "-") for x in range(-4, 17) for d in range(10)]
                 ).view(np.uint64)


def _group_tables():
    """``_PAIRS[q * 10000 + g]``: the four digits of g < 10^4 at every other
    byte, the byte after each free, the first q of them only; and
    ``_LAST[i, g]``: the position in m of the last non-zero digit of g as
    m's group i, which starts at digit _GROUP_FIRST[i], or 0."""
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    pairs = np.zeros((5, 10000, 8), dtype=np.uint8)
    for q in range(1, 5):
        pairs[q, :, :2 * q:2] = digits[:, :q] + ord("0")
    last = np.where(digits != 0, np.arange(4, dtype=np.int8), -1).max(axis=1)
    last = np.where(last >= 0, _GROUP_FIRST[:, None] + last, 0).astype(np.int8)
    return pairs.view(np.uint64).ravel(), last


_GROUP_FIRST = np.array([1, 5, 9, 13], dtype=np.int8)
_PAIRS, _LAST = _group_tables()
# q * 10000 for group i when digits 0 to c of m are printed: _KEEP[i, c]
_KEEP = np.clip(np.arange(17) - _GROUP_FIRST[:, None] + 1, 0, 4) * 10000


def _split(n: np.ndarray, unit: int, q: np.ndarray, r: np.ndarray) -> None:
    """``q, r = divmod(n, unit)`` in place, with numpy's ``//`` by a
    constant, which is several times faster than its ``%`` and ``divmod``."""
    np.floor_divide(n, unit, out=q)
    np.multiply(q, unit, out=r)
    np.subtract(n, r, out=r)


class _G17Work:
    """The work arrays for formatting blocks of up to ``size`` values as
    text, :meth:`text` formatting one block.

    A block of n values uses the first n items of each array.  Table
    lookups use ``np.take`` in ``clip`` mode, which writes straight into
    its ``out`` (the indices are always in range); the records are a
    view of the ``bytearray`` whose zero bytes :meth:`text` deletes."""

    def __init__(self, size: int):
        size = max(size, 1)

        def arrays(dtype, count):
            return [np.empty(size, dtype) for _ in range(count)]

        self.v, self.a, self.f = arrays(float, 3)
        self.p, self.rounded, self.power = arrays(np.longdouble, 3)
        self.x, self.i, self.m, self.hi, self.lo, self.d0, self.mid, self.keep = arrays(np.int64, 8)
        self.groups = np.empty((4, size), np.int64)
        self.finite, self.zero, self.slow, self.b, self.c = arrays(bool, 5)
        self.last, self.l8 = arrays(np.int8, 2)
        self.u = np.empty(size, np.uint64)
        self.u8 = np.empty(size, np.uint8)
        self.text_bytes = bytearray(size * _RECORD)
        self.record = np.frombuffer(self.text_bytes, np.uint8).reshape(size, _RECORD)
        self.point_at = np.arange(size) * _RECORD + 7  # byte 7 of each record

    def text(self, times: np.ndarray, states: np.ndarray) -> bytearray:
        """The rows ``[t, *x]`` of ``times`` and ``states`` as text, one
        line per row and each value as ``%.17g`` with a comma between."""
        rows, n = len(times), len(times) * (1 + states.shape[1])
        block = self.v[:n].reshape(rows, -1)
        block[:, 0] = times
        block[:, 1:] = states
        self._digits(n)
        record = self._records(n)
        record.reshape(rows, -1)[:, -1] = ord("\n")
        self.record[n:] = 0  # no text from an earlier, larger block
        return self.text_bytes.translate(None, b"\0")

    def _digits(self, n: int) -> None:
        """``x``, ``m`` and ``slow`` of the first ``n`` values ``v``: each
        finite non-zero one that ``%.17g`` prints without an exponent is
        ±m·10^(x−16), m its 17 digits (0 for a zero, x = 0); ``slow`` marks
        the others, and those whose m the product below cannot be trusted
        to round as the exact value does.

        m is ``|v|·10^(16−x)`` rounded half to even, the product taken in
        ``np.longdouble``, where every power used is exact.  A product
        within its rounding error (from ``np.finfo(np.longdouble)``) of a
        tie is marked slow, so where ``longdouble`` is ``double`` every
        value is."""
        v, a, f, x, i, m = self.v[:n], self.a[:n], self.f[:n], self.x[:n], self.i[:n], self.m[:n]
        finite, zero, slow, b = self.finite[:n], self.zero[:n], self.slow[:n], self.b[:n]
        p, rounded, power = self.p[:n], self.rounded[:n], self.power[:n]
        np.abs(v, out=a)
        np.isfinite(a, out=finite)
        np.equal(a, 0, out=zero)
        np.logical_not(finite, out=b)
        b |= zero
        np.copyto(a, 1.0, where=b)
        np.log10(a, out=f)
        np.floor(f, out=f)
        np.clip(f, -5, 17, out=f)
        np.copyto(x, f, casting="unsafe")
        # x + 1 when |v| reaches 10^(x+1), x - 1 when it falls short of 10^x
        np.add(x, 6, out=i)
        np.take(_DECADE, i, out=f, mode="clip")
        np.greater_equal(a, f, out=b)
        i -= 1
        np.take(_DECADE, i, out=f, mode="clip")
        np.less(a, f, out=slow)
        x += b
        x -= slow
        np.less(x, -4, out=slow)
        np.greater(x, 16, out=b)
        slow |= b
        np.logical_not(finite, out=b)
        slow |= b
        np.copyto(a, 1.0, where=slow)
        np.copyto(x, 0, where=slow)
        np.subtract(16, x, out=i)  # the power k
        np.copyto(p, a)
        np.take(_POW10_LD, i, out=power, mode="clip")
        p *= power
        np.rint(p, out=rounded)
        np.copyto(m, rounded, casting="unsafe")
        p -= rounded  # what the rounding dropped, exactly
        np.take(_BAND, i, out=f, mode="clip")
        a *= f
        np.copyto(f, p)
        np.abs(f, out=f)
        np.subtract(0.5, f, out=f)
        # a tie within the rounding error, or a 17th digit rounded up to 10^17
        np.less_equal(f, a, out=b)
        slow |= b
        np.greater_equal(m, 10 ** 17, out=b)
        slow |= b
        np.logical_or(zero, slow, out=b)
        np.copyto(m, 0, where=b)

    def _records(self, n: int) -> np.ndarray:
        """The ``(n, 40)`` records of the first ``n`` values, those marked
        slow by :meth:`_digits` formatted by Python."""
        v, x, i, m, keep = self.v[:n], self.x[:n], self.i[:n], self.m[:n], self.keep[:n]
        hi, lo, d0, mid = self.hi[:n], self.lo[:n], self.d0[:n], self.mid[:n]
        last, l8, b, c, u = self.last[:n], self.l8[:n], self.b[:n], self.c[:n], self.u[:n]
        groups = self.groups[:, :n]
        # m as its first digit and four groups of four; every integer digit
        # is printed, fraction digits up to the last non-zero one
        _split(m, 10 ** 8, hi, lo)
        _split(hi, 10 ** 8, d0, mid)
        _split(mid, 10 ** 4, groups[0], groups[1])
        _split(lo, 10 ** 4, groups[2], groups[3])
        np.take(_LAST[0], groups[0], out=last, mode="clip")
        for j in range(1, 4):
            np.take(_LAST[j], groups[j], out=l8, mode="clip")
            np.maximum(last, l8, out=last)
        np.maximum(x, last, out=keep)
        record = self.record[:n]
        words = record.view(np.uint64)
        np.signbit(v, out=b)
        np.copyto(i, b)
        i *= 21
        i += x
        i += 4
        i *= 10
        i += d0
        np.take(_HEAD, i, out=u, mode="clip")
        words[:, 0] = u
        for j in range(4):
            np.take(_KEEP[j], keep, out=i, mode="clip")
            i += groups[j]
            np.take(_PAIRS, i, out=u, mode="clip")
            words[:, j + 1] = u
        # the point goes in the free byte after digit x, which is 0, when x
        # >= 0 and a fraction digit follows; the other values rewrite the 0
        # of their byte 2 max(x, 0) + 7, byte 39 getting its separator below
        np.greater_equal(x, 0, out=b)
        np.greater(last, x, out=c)
        b &= c
        point = self.u8[:n]
        np.copyto(point, b)
        point *= ord(".")
        np.maximum(x, 0, out=i)
        i *= 2
        i += self.point_at[:n]
        np.put(record.reshape(-1), i, point, mode="clip")
        record[:, -1] = ord(",")

        slow = np.flatnonzero(self.slow[:n])
        if slow.size:
            text = np.array(["%.17g" % f for f in v[slow].tolist()], dtype=f"S{_RECORD - 1}")
            record[slow, :-1] = text.view(np.uint8).reshape(slow.size, _RECORD - 1)
        return record


def _g17_rows(rows: np.ndarray) -> bytearray:
    """``rows`` as text, one line per row and each value as ``%.17g``
    with a comma between."""
    rows = np.asarray(rows, dtype=float)
    return _G17Work(rows.size).text(rows[:, 0], rows[:, 1:])


# glibc's malloc_trim, None where the C library has none
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def _trim_heap() -> None:
    """Hand the C heap's free pages back to the OS, where the C library
    can.  Freed memory stays resident while a small chunk that is live, or
    kept by malloc for reuse, sits above it, so a process that writes many
    files and parses them back holds its high-water mark.  numpy's
    ``savetxt``, whose per-row allocations happened to let the heap shrink
    after each parse, left the ring33_cli benchmark at 101 MB; the block
    writer without the trim left it at 116 MB, and with it at 102 MB
    (2 cores)."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def export_trajectory_csv(traj: Trajectory, sys: pm.SystemModel, path, meta: dict | None = None) -> None:
    """CSV export: one comment line with provenance, a header of
    ``time,<machine>.<state>`` columns, then one row per step, each value
    as C's ``%.17g``.  Blocks of :data:`_CSV_BLOCK` rows are formatted in
    the work arrays of one :class:`_G17Work` and written in order; the
    bytes do not depend on the block size.  Then the C heap is trimmed."""
    from . import __version__

    meta = meta or {}
    labels = pm.state_labels(sys.machines)
    times, states = traj.times, traj.states
    work = _G17Work(min(len(times), _CSV_BLOCK) * (1 + states.shape[1]))
    with open(path, "wb") as fh:
        tags = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        fh.write((f"# tensorsim {__version__} format={TRAJECTORY_FORMAT} {tags}".rstrip() + "\n"
                  + "time," + ",".join(labels) + "\n").encode())
        for lo in range(0, len(times), _CSV_BLOCK):
            fh.write(work.text(times[lo:lo + _CSV_BLOCK], states[lo:lo + _CSV_BLOCK]))
    del work
    _trim_heap()


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
