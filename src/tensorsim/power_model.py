"""Full nonlinear multi-machine power system model.

Covers system-file ingestion, Newton-Raphson power flow, Kron reduction of
the network to generator internal nodes, equilibrium initialization, and
the right-hand side of the nine-state-per-machine ODE model (two-axis
generator, IEEE type-1 exciter, first-order governor, non-reheat turbine).

Per-machine state block order (fixed; it defines the meaning of every
derivative-tensor index):

    delta (rad), omega (pu), eqp, edp, efd, vr, rf, pm, pgv   (all pu)

Network interface: the quadrature transient reactance is taken equal to
the direct one for the coupling, so each machine is a voltage source
``(edp + j eqp) e^{j(delta - pi/2)}`` behind ``xdp`` and the model stays a
pure ODE.  Loads are folded into the admittance matrix as constant
impedances at their solved voltages.

Network conditions: every right-hand side runs on the pre-fault reduced
matrix ``SystemModel.y_red`` except while a fault is on, whose matrix
comes from the one fault route :func:`apply_fault`.  Faults self-clear
with no topology change, so the post-fault network is the pre-fault one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "OMEGA_S",
    "N_STATES",
    "STATE_NAMES",
    "FAULT_ADMITTANCE",
    "SystemDataError",
    "PowerFlowError",
    "NetworkError",
    "EquilibriumError",
    "Bus",
    "Branch",
    "MachineParams",
    "SystemSpec",
    "PowerFlowSolution",
    "SystemModel",
    "load_system",
    "parse_system",
    "build_ybus",
    "solve_power_flow",
    "kron_reduce",
    "build_reduced_admittance",
    "init_equilibrium",
    "build_system",
    "f_full",
    "apply_fault",
    "admittance_column_norms",
    "reduced_column_norms",
    "state_labels",
]

OMEGA_S = 2.0 * math.pi * 60.0
N_STATES = 9
STATE_NAMES = ("delta", "omega", "eqp", "edp", "efd", "vr", "rf", "pm", "pgv")
FAULT_ADMITTANCE = 1.0e6  # bolted three-phase fault shunt, pu


class SystemDataError(ValueError):
    """Malformed or inconsistent system input data."""


class PowerFlowError(RuntimeError):
    """Newton-Raphson power flow failed to converge."""


class NetworkError(RuntimeError):
    """Network matrix operation failed (e.g. singular elimination block)."""


class EquilibriumError(RuntimeError):
    """Initialized state is not an equilibrium of the dynamic model."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" | "PV" | "PQ"
    pd: float = 0.0
    qd: float = 0.0
    v_set: float = 1.0
    gs: float = 0.0
    bs: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float = 0.0
    x: float = 0.0
    b: float = 0.0
    tap: float = 1.0


@dataclass(frozen=True)
class MachineParams:
    """Generator, exciter, governor, and turbine parameters (pu on system
    base except the inertia and time constants, which are seconds)."""

    id: str
    bus: int
    h: float
    d: float
    xd: float
    xq: float
    xdp: float
    xqp: float
    td0p: float
    tq0p: float
    ka: float = 20.0
    ta: float = 0.2
    ke: float = 1.0
    te: float = 0.314
    kf: float = 0.063
    tf: float = 0.35
    aex: float = 0.0039
    bex: float = 1.555
    r_droop: float = 0.05
    tg: float = 0.2
    tch: float = 0.3
    pg: float = 0.0
    vref: float | None = None
    pref: float | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise SystemDataError(f"machine {self.id}: inertia must be > 0")
        for name in ("td0p", "tq0p", "ta", "te", "tf", "tg", "tch"):
            if getattr(self, name) <= 0:
                raise SystemDataError(
                    f"machine {self.id}: time constant {name} must be > 0"
                )
        if self.xdp <= 0 or self.xdp > self.xd:
            raise SystemDataError(
                f"machine {self.id}: need 0 < xdp <= xd"
            )
        if self.xqp <= 0 or self.xqp > self.xq:
            raise SystemDataError(
                f"machine {self.id}: need 0 < xqp <= xq"
            )
        if self.r_droop <= 0:
            raise SystemDataError(f"machine {self.id}: droop must be > 0")
        if self.ka < 0:
            raise SystemDataError(f"machine {self.id}: ka must be >= 0")


@dataclass
class SystemSpec:
    """Parsed but unsolved system description."""

    base_mva: float
    buses: list
    branches: list
    machines: list
    study: tuple
    external: tuple

    def bus_index(self) -> dict:
        return {b.id: i for i, b in enumerate(self.buses)}


# what converting a malformed field to int or float raises
_BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError)

_MACHINE_KEYS = {
    "h": "h", "d": "d", "xd": "xd", "xq": "xq", "xdp": "xdp", "xqp": "xqp",
    "td0p": "td0p", "tq0p": "tq0p", "ka": "ka", "ta": "ta", "ke": "ke",
    "te": "te", "kf": "kf", "tf": "tf", "aex": "aex", "bex": "bex",
    "r_droop": "r_droop", "tg": "tg", "tch": "tch", "pg": "pg",
}


def parse_system(raw: dict, source: str = "<dict>") -> SystemSpec:
    """Validate a raw system dict and build a :class:`SystemSpec`.

    Raises :class:`SystemDataError` with field diagnostics on any schema
    violation (duplicate ids, dangling references, missing sections, bad
    bus types, non-partitioning areas).
    """

    def fail(msg):
        raise SystemDataError(f"{source}: {msg}")

    def records(section):
        recs = raw[section]
        if not (isinstance(recs, list) and all(isinstance(rec, dict) for rec in recs)):
            fail(f"section '{section}' must be a list of objects")
        return recs

    if not isinstance(raw, dict):
        fail("top level must be an object")
    for section in ("base_mva", "buses", "branches", "machines", "areas"):
        if section not in raw:
            fail(f"missing section '{section}'")

    buses = []
    seen = set()
    for i, rec in enumerate(records("buses")):
        try:
            bus = Bus(
                id=int(rec["id"]),
                kind=str(rec["type"]),
                pd=float(rec.get("pd", 0.0)),
                qd=float(rec.get("qd", 0.0)),
                v_set=float(rec.get("v_set", 1.0)),
                gs=float(rec.get("gs", 0.0)),
                bs=float(rec.get("bs", 0.0)),
            )
        except _BAD_FIELD as exc:
            fail(f"buses[{i}]: {exc}")
        if bus.kind not in ("slack", "PV", "PQ"):
            fail(f"buses[{i}]: unknown type '{bus.kind}'")
        if bus.id in seen:
            fail(f"buses[{i}]: duplicate bus id {bus.id}")
        seen.add(bus.id)
        buses.append(bus)
    if not buses:
        fail("no buses")
    n_slack = sum(1 for b in buses if b.kind == "slack")
    if n_slack != 1:
        fail(f"need exactly one slack bus, found {n_slack}")

    branches = []
    for i, rec in enumerate(records("branches")):
        try:
            br = Branch(
                from_bus=int(rec["from"]),
                to_bus=int(rec["to"]),
                r=float(rec.get("r", 0.0)),
                x=float(rec["x"]),
                b=float(rec.get("b", 0.0)),
                tap=float(rec.get("tap", 1.0)),
            )
        except _BAD_FIELD as exc:
            fail(f"branches[{i}]: {exc}")
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                fail(f"branches[{i}]: unknown bus {end}")
        if br.r == 0.0 and br.x == 0.0:
            fail(f"branches[{i}]: zero impedance")
        if br.tap <= 0:
            fail(f"branches[{i}]: tap must be > 0")
        branches.append(br)

    machines = []
    mach_ids = set()
    mach_buses = set()
    for i, rec in enumerate(records("machines")):
        try:
            kwargs = {dst: float(rec[src]) for src, dst in _MACHINE_KEYS.items() if src in rec}
            mach = MachineParams(id=str(rec["id"]), bus=int(rec["bus"]), **kwargs)
        except SystemDataError as exc:
            fail(f"machines[{i}]: {exc}")
        except _BAD_FIELD as exc:
            fail(f"machines[{i}]: missing or bad field {exc}")
        if mach.id in mach_ids:
            fail(f"machines[{i}]: duplicate machine id '{mach.id}'")
        if mach.bus not in seen:
            fail(f"machines[{i}]: unknown bus {mach.bus}")
        if mach.bus in mach_buses:
            fail(f"machines[{i}]: bus {mach.bus} already has a machine")
        mach_ids.add(mach.id)
        mach_buses.add(mach.bus)
        machines.append(mach)
    if not machines:
        fail("no machines")

    bus_kind = {b.id: b.kind for b in buses}
    for m in machines:
        if bus_kind[m.bus] == "PQ":
            fail(f"machine {m.id}: terminal bus {m.bus} must be slack or PV")

    areas = raw["areas"]
    if not isinstance(areas, dict):
        fail("section 'areas' must be an object")
    for side in ("study", "external"):
        if not isinstance(areas.get(side, []), list):
            fail(f"areas.{side} must be a list of machine ids")
    study = tuple(str(g) for g in areas.get("study", ()))
    external = tuple(str(g) for g in areas.get("external", ()))
    if set(study) & set(external):
        fail("study and external areas overlap")
    if set(study) | set(external) != mach_ids:
        fail("study and external areas must partition the machines")

    try:
        base = float(raw["base_mva"])
    except _BAD_FIELD:
        fail("base_mva must be a number")
    if base <= 0:
        fail("base_mva must be > 0")

    return SystemSpec(
        base_mva=base,
        buses=buses,
        branches=branches,
        machines=machines,
        study=study,
        external=external,
    )


def load_system(path) -> SystemSpec:
    """Parse a JSON system file.  Missing files raise the usual
    :class:`FileNotFoundError`; malformed content raises
    :class:`SystemDataError` with position diagnostics."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise SystemDataError(f"{path}: empty file")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemDataError(
            f"{path}: JSON parse error at line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from exc
    return parse_system(raw, source=str(path))


def build_ybus(spec: SystemSpec) -> np.ndarray:
    """Complex bus admittance matrix with pi-model branches, off-nominal
    taps on the from side, and bus shunts."""
    idx = spec.bus_index()
    n = len(spec.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in spec.branches:
        f, t = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b / 2.0
        tap = br.tap
        y[f, f] += (ys + bc) / tap**2
        y[t, t] += ys + bc
        y[f, t] -= ys / tap
        y[t, f] -= ys / tap
    for b in spec.buses:
        y[idx[b.id], idx[b.id]] += complex(b.gs, b.bs)
    return y


@dataclass
class PowerFlowSolution:
    load_level: float
    v: np.ndarray            # complex bus voltages, spec bus order
    iterations: int
    max_mismatch: float
    machine_s: np.ndarray    # complex generated power per machine


def solve_power_flow(spec: SystemSpec, load_level: float = 1.0) -> PowerFlowSolution:
    """Newton-Raphson power flow with all loads and PV-bus generation
    scaled by ``load_level`` (the slack absorbs the residual), to a
    mismatch of 1e-10 within 50 iterations.  A non-finite level is refused
    before any work."""
    if not math.isfinite(load_level):
        raise ValueError(f"load level must be finite, got {load_level}")
    tol, max_iter = 1e-10, 50
    n = len(spec.buses)
    idx = spec.bus_index()
    ybus = build_ybus(spec)

    kinds = np.array([b.kind for b in spec.buses])
    slack = int(np.flatnonzero(kinds == "slack")[0])
    pv = np.flatnonzero(kinds == "PV")
    pq = np.flatnonzero(kinds == "PQ")
    pvpq = np.concatenate([pv, pq])

    pg_bus = np.zeros(n)
    for m in spec.machines:
        pg_bus[idx[m.bus]] += m.pg
    pd = np.array([b.pd for b in spec.buses]) * load_level
    qd = np.array([b.qd for b in spec.buses]) * load_level
    p_spec = pg_bus * load_level - pd
    q_spec = -qd

    vm = np.array([b.v_set for b in spec.buses])
    vm[pq] = 1.0
    va = np.zeros(n)
    v = vm * np.exp(1j * va)

    def mismatch(v):
        s = v * np.conj(ybus @ v)
        dp = p_spec - s.real
        dq = q_spec - s.imag
        return np.concatenate([dp[pvpq], dq[pq]]), s

    f, s = mismatch(v)
    it = 0
    while np.max(np.abs(f)) > tol and it < max_iter:
        ibus = ybus @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_vn = np.diag(v / np.abs(v))
        ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
        ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular power flow Jacobian: {exc}") from exc
        n_a = len(pvpq)
        va[pvpq] += dx[:n_a]
        vm[pq] += dx[n_a:]
        v = vm * np.exp(1j * va)
        f, s = mismatch(v)
        it += 1

    max_mis = float(np.max(np.abs(f)))
    if max_mis > tol and it >= max_iter:
        raise PowerFlowError(
            f"power flow did not converge at load level {load_level}: "
            f"mismatch {max_mis:.3e} after {it} iterations"
        )

    machine_s = np.zeros(len(spec.machines), dtype=complex)
    for k, m in enumerate(spec.machines):
        i = idx[m.bus]
        machine_s[k] = complex(s[i].real + pd[i], s[i].imag + qd[i])

    return PowerFlowSolution(
        load_level=load_level,
        v=v,
        iterations=it,
        max_mismatch=max_mis,
        machine_s=machine_s,
    )


def kron_reduce(y: np.ndarray, internal_nodes) -> np.ndarray:
    """Schur complement onto ``internal_nodes``:
    ``Y_II - Y_IE Y_EE^{-1} Y_EI``."""
    y = np.asarray(y)
    n = y.shape[0]
    keep = np.zeros(n, dtype=bool)
    keep[list(internal_nodes)] = True
    elim = ~keep
    if not elim.any():
        return y[np.ix_(keep, keep)].copy()
    y_ii = y[np.ix_(keep, keep)]
    y_ie = y[np.ix_(keep, elim)]
    y_ei = y[np.ix_(elim, keep)]
    y_ee = y[np.ix_(elim, elim)]
    try:
        return y_ii - y_ie @ np.linalg.solve(y_ee, y_ei)
    except np.linalg.LinAlgError as exc:
        raise NetworkError(f"singular elimination block: {exc}") from exc


def build_reduced_admittance(
    spec: SystemSpec,
    pf: PowerFlowSolution,
    fault_bus: int | None = None,
) -> np.ndarray:
    """Admittance matrix over machine internal nodes.

    Loads become constant shunts at their solved voltages, machines attach
    through ``1/(j xdp)``, an optional bolted fault adds
    :data:`FAULT_ADMITTANCE` at the faulted bus, and every bus node is
    eliminated by Kron reduction.
    """
    idx = spec.bus_index()
    n = len(spec.buses)
    m = len(spec.machines)
    y = np.zeros((n + m, n + m), dtype=complex)
    y[:n, :n] = build_ybus(spec)
    vmag2 = np.abs(pf.v) ** 2
    for b in spec.buses:
        i = idx[b.id]
        s_load = complex(b.pd, b.qd) * pf.load_level
        y[i, i] += np.conj(s_load) / vmag2[i]
    if fault_bus is not None:
        if fault_bus not in idx:
            raise SystemDataError(f"unknown fault bus {fault_bus}")
        y[idx[fault_bus], idx[fault_bus]] += FAULT_ADMITTANCE
    for k, mach in enumerate(spec.machines):
        ym = 1.0 / complex(0.0, mach.xdp)
        i = idx[mach.bus]
        g = n + k
        y[g, g] += ym
        y[i, i] += ym
        y[g, i] -= ym
        y[i, g] -= ym
    return kron_reduce(y, range(n, n + m))


@dataclass
class SystemModel:
    """Solved system: parameters, reduced network, and equilibrium state.

    Immutable after construction; the right-hand-side evaluators are pure
    functions, so concurrent simulations may share one instance.
    """

    spec: SystemSpec
    load_level: float
    pf: PowerFlowSolution
    machines: list
    x0: np.ndarray
    y_red: np.ndarray
    study: tuple
    external: tuple

    # dense parameter arrays in machine order, and the constants _rhs
    # folds from them, built once for fast rhs
    _p: dict = field(init=False, repr=False)

    def __post_init__(self):
        g = lambda name: np.array([getattr(m, name) for m in self.machines])
        p = {k: g(k) for k in (
            "h", "d", "xd", "xq", "xdp", "xqp", "td0p", "tq0p",
            "ka", "ta", "ke", "te", "kf", "tf", "aex", "bex",
            "r_droop", "tg", "tch", "vref", "pref",
        )}
        # each folded constant is the exact expression _rhs would evaluate
        # per call, so folding it changes no bit of the result
        p["2h"] = 2.0 * p["h"]
        p["xd-xdp"] = p["xd"] - p["xdp"]
        p["xq-xqp"] = p["xq"] - p["xqp"]
        p["ka*kf/tf"] = p["ka"] * p["kf"] / p["tf"]
        p["kf/tf"] = p["kf"] / p["tf"]
        # divisor of every state row, in state order; the angle row has
        # none, and dividing by 1.0 is exact
        p["div"] = np.stack([
            np.ones(len(self.machines)), p["2h"], p["td0p"], p["tq0p"],
            p["te"], p["ta"], p["tf"], p["tch"], p["tg"],
        ], axis=-1)
        self._p = p

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_states(self) -> int:
        return N_STATES * len(self.machines)

    def machine_pos(self, gen_id: str) -> int:
        for i, m in enumerate(self.machines):
            if m.id == gen_id:
                return i
        raise KeyError(f"unknown machine '{gen_id}'")

    @property
    def study_idx(self) -> np.ndarray:
        return np.array([self.machine_pos(g) for g in self.study], dtype=int)

    @property
    def external_idx(self) -> np.ndarray:
        return np.array([self.machine_pos(g) for g in self.external], dtype=int)


def state_labels(machines) -> list:
    return [f"{m.id}.{s}" for m in machines for s in STATE_NAMES]


def _rhs(sys: SystemModel, yred: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nine-ODE right-hand side, broadcast over leading batch axes.

    ``x`` has shape (..., 9m); the return matches, including the floating
    dtype (extended-precision states stay extended, which the
    finite-difference tensor builds rely on).
    """
    p = sys._p
    m = sys.n_machines
    xs = x.reshape(x.shape[:-1] + (m, N_STATES))
    delta = xs[..., 0]
    omega = xs[..., 1]
    eqp = xs[..., 2]
    edp = xs[..., 3]
    efd = xs[..., 4]
    vr = xs[..., 5]
    rf = xs[..., 6]
    pm = xs[..., 7]
    pgv = xs[..., 8]

    u = np.sin(delta) - 1j * np.cos(delta)  # e^{j(delta - pi/2)}
    e_net = (edp + 1j * eqp) * u
    i_net = e_net @ yred.T
    i_mach = i_net * np.conj(u)
    id_ = i_mach.real
    iq = i_mach.imag
    pe = edp * id_ + eqp * iq
    vt = np.abs(e_net - 1j * p["xdp"] * i_net)

    dom = omega - 1.0
    se = p["aex"] * np.exp(p["bex"] * efd)

    # the nine numerators, then one division by the per-row divisors
    out = np.empty_like(xs)
    out[..., 0] = OMEGA_S * dom
    out[..., 1] = pm - pe - p["d"] * dom
    out[..., 2] = -eqp - p["xd-xdp"] * id_ + efd
    out[..., 3] = -edp + p["xq-xqp"] * iq
    out[..., 4] = -(p["ke"] + se) * efd + vr
    out[..., 5] = (
        -vr + p["ka"] * rf - p["ka*kf/tf"] * efd + p["ka"] * (p["vref"] - vt)
    )
    out[..., 6] = -rf + p["kf/tf"] * efd
    out[..., 7] = -pm + pgv
    out[..., 8] = -pgv + p["pref"] - dom / p["r_droop"]
    out /= p["div"]
    return out.reshape(x.shape)


def f_full(x, sys: SystemModel) -> np.ndarray:
    """Full nonlinear right-hand side on the pre-fault network."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    return _rhs(sys, sys.y_red, x)


def apply_fault(sys: SystemModel, bus: int) -> np.ndarray:
    """Reduced admittance matrix with a bolted three-phase fault at ``bus``.
    The post-fault network equals the pre-fault one, so the pre-fault
    equilibrium stays valid after clearing."""
    if bus is None:
        raise SystemDataError("a fault needs a fault bus")
    return build_reduced_admittance(sys.spec, sys.pf, fault_bus=bus)


def _machine_steady_state(mach, vbar, s):
    """Rotor angle, dq-axis currents, q-axis transient EMF and field
    voltage of one machine at terminal voltage ``vbar`` delivering power
    ``s``.

    The rotor angle comes from the effective quadrature reactance
    ``xdp + (xq - xqp)``, which keeps the stator interface (built on xdp)
    and the rotor flux equations simultaneously at steady state.
    """
    ibar = np.conj(s / vbar)
    xq_eff = mach.xdp + (mach.xq - mach.xqp)
    delta = np.angle(vbar + 1j * xq_eff * ibar)
    rot = np.exp(-1j * (delta - math.pi / 2.0))
    vq = (vbar * rot).imag
    idq = ibar * rot
    id_, iq = idq.real, idq.imag
    eqp = vq + mach.xdp * id_
    efd = eqp + (mach.xd - mach.xdp) * id_
    return delta, id_, iq, eqp, efd


def init_equilibrium(spec: SystemSpec, pf: PowerFlowSolution) -> SystemModel:
    """Back-solve per-machine states from the solved terminal conditions
    and verify the result is an equilibrium of the dynamic model, to a
    residual of 1e-8.
    """
    idx = spec.bus_index()
    machines = []
    m = len(spec.machines)
    x0 = np.zeros(m * N_STATES)
    for k, mach in enumerate(spec.machines):
        vbar = pf.v[idx[mach.bus]]
        delta, id_, iq, eqp, efd = _machine_steady_state(mach, vbar, pf.machine_s[k])
        edp = (mach.xq - mach.xqp) * iq
        pe = edp * id_ + eqp * iq
        rf = (mach.kf / mach.tf) * efd
        se = mach.aex * math.exp(mach.bex * efd)
        vr = (mach.ke + se) * efd
        vt = abs(vbar)
        if mach.ka > 0:
            vref = vt + vr / mach.ka
        else:
            if abs(vr) > 1e-9:
                raise EquilibriumError(
                    f"machine {mach.id}: ka=0 requires ke = -se(efd0) so the "
                    f"regulator output can rest at zero (vr0={vr:.3e})"
                )
            vref = vt
        machines.append(replace(mach, vref=vref, pref=pe))
        x0[k * N_STATES:(k + 1) * N_STATES] = (
            delta, 1.0, eqp, edp, efd, vr, rf, pe, pe,
        )

    y_red = build_reduced_admittance(spec, pf)
    sys = SystemModel(
        spec=spec,
        load_level=pf.load_level,
        pf=pf,
        machines=machines,
        x0=x0,
        y_red=y_red,
        study=spec.study,
        external=spec.external,
    )
    resid = float(np.max(np.abs(_rhs(sys, y_red, x0))))
    if resid > 1e-8:
        raise EquilibriumError(f"equilibrium residual {resid:.3e} exceeds 1.0e-08")
    return sys


def build_system(spec: SystemSpec, load_level: float = 1.0) -> SystemModel:
    """Convenience: power flow plus equilibrium initialization."""
    return init_equilibrium(spec, solve_power_flow(spec, load_level))


def reduced_column_norms(yred: np.ndarray, study_rows, columns) -> np.ndarray:
    """Euclidean norms of ``yred`` columns restricted to the study rows."""
    rows = np.asarray(list(study_rows), dtype=int)
    cols = np.asarray(list(columns), dtype=int)
    if rows.size == 0:
        return np.zeros(cols.size)
    return np.linalg.norm(yred[np.ix_(rows, cols)], axis=0)


def admittance_column_norms(sys: SystemModel) -> dict:
    """Electrical closeness of each external machine to the study area:
    the norm of its reduced-admittance column over study-area rows."""
    norms = reduced_column_norms(sys.y_red, sys.study_idx, sys.external_idx)
    return {g: float(v) for g, v in zip(sys.external, norms)}
