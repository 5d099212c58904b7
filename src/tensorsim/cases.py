"""Bundled test systems.

``wscc9`` is the classic Western-System 3-machine 9-bus case with standard
two-axis machine data and a common IEEE type-1 exciter / governor /
turbine parameter set.  ``synthetic_ring`` generates arbitrarily large
ring-topology systems for scaling and timing studies; its exciters run
open-loop (ka=0, with ke chosen self-excited) so high-order derivative
tensors keep the machine-pair sparsity the structured builder exploits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import power_model as pm

__all__ = ["wscc9", "wscc9_spec", "synthetic_ring", "synthetic_ring_spec", "write_case"]

_EXC = dict(ka=20.0, ta=0.2, ke=1.0, te=0.314, kf=0.063, tf=0.35,
            aex=0.0039, bex=1.555)
_GOV = dict(r_droop=0.05, tg=0.2, tch=0.3)


def wscc9() -> dict:
    """Three-machine nine-bus fixture (100 MVA base)."""
    buses = [
        {"id": 1, "type": "slack", "v_set": 1.04},
        {"id": 2, "type": "PV", "v_set": 1.025},
        {"id": 3, "type": "PV", "v_set": 1.025},
        {"id": 4, "type": "PQ"},
        {"id": 5, "type": "PQ", "pd": 1.25, "qd": 0.50},
        {"id": 6, "type": "PQ", "pd": 0.90, "qd": 0.30},
        {"id": 7, "type": "PQ"},
        {"id": 8, "type": "PQ", "pd": 1.00, "qd": 0.35},
        {"id": 9, "type": "PQ"},
    ]
    branches = [
        {"from": 1, "to": 4, "r": 0.0, "x": 0.0576, "b": 0.0},
        {"from": 4, "to": 5, "r": 0.010, "x": 0.085, "b": 0.176},
        {"from": 5, "to": 7, "r": 0.032, "x": 0.161, "b": 0.306},
        {"from": 2, "to": 7, "r": 0.0, "x": 0.0625, "b": 0.0},
        {"from": 7, "to": 8, "r": 0.0085, "x": 0.072, "b": 0.149},
        {"from": 8, "to": 9, "r": 0.0119, "x": 0.1008, "b": 0.209},
        {"from": 3, "to": 9, "r": 0.0, "x": 0.0586, "b": 0.0},
        {"from": 9, "to": 6, "r": 0.039, "x": 0.170, "b": 0.358},
        {"from": 6, "to": 4, "r": 0.017, "x": 0.092, "b": 0.158},
    ]
    machines = [
        dict(id="G1", bus=1, pg=0.716, h=23.64, d=1.0,
             xd=0.146, xq=0.0969, xdp=0.0608, xqp=0.0969,
             td0p=8.96, tq0p=0.31, **_EXC, **_GOV),
        dict(id="G2", bus=2, pg=1.63, h=6.4, d=1.0,
             xd=0.8958, xq=0.8645, xdp=0.1198, xqp=0.1969,
             td0p=6.0, tq0p=0.535, **_EXC, **_GOV),
        dict(id="G3", bus=3, pg=0.85, h=3.01, d=1.0,
             xd=1.3125, xq=1.2578, xdp=0.1813, xqp=0.25,
             td0p=5.89, tq0p=0.6, **_EXC, **_GOV),
    ]
    return {
        "base_mva": 100.0,
        "buses": buses,
        "branches": branches,
        "machines": machines,
        "areas": {"study": ["G2", "G3"], "external": ["G1"]},
    }


def wscc9_spec() -> pm.SystemSpec:
    return pm.parse_system(wscc9(), source="wscc9")


def synthetic_ring(n_machines: int = 33, seed: int = 7) -> dict:
    """Ring of generator buses, one machine and one load per bus; machine
    G1, at the slack bus, is the study area.

    Machine ``ke`` values are computed self-excited (``ke = -se(efd0)``
    at the solved base operating point) so the open-loop exciters rest at
    ``vr = 0`` and the constructed state is an exact equilibrium.
    """
    if n_machines < 3:
        raise ValueError("ring needs at least 3 machines")
    rng = np.random.default_rng(seed)
    buses = []
    branches = []
    machines = []
    for i in range(1, n_machines + 1):
        kind = "slack" if i == 1 else "PV"
        buses.append({
            "id": i, "type": kind, "v_set": 1.02,
            "pd": round(float(0.55 + 0.15 * rng.uniform()), 6),
            "qd": round(float(0.15 + 0.08 * rng.uniform()), 6),
        })
        j = i % n_machines + 1
        branches.append({
            "from": i, "to": j,
            "r": round(float(0.004 + 0.003 * rng.uniform()), 6),
            "x": round(float(0.05 + 0.03 * rng.uniform()), 6),
            "b": 0.04,
        })
        machines.append(dict(
            id=f"G{i}", bus=i,
            pg=round(float(0.55 + 0.15 * rng.uniform()), 6),
            h=round(float(3.0 + 4.0 * rng.uniform()), 4), d=2.0,
            xd=1.0, xq=0.8, xdp=0.15, xqp=0.25,
            td0p=6.0, tq0p=0.8,
            ka=0.0, ta=0.2, ke=1.0, te=0.5, kf=0.02, tf=1.0,
            aex=0.0039, bex=1.555, **_GOV,
        ))
    raw = {
        "base_mva": 100.0,
        "buses": buses,
        "branches": branches,
        "machines": machines,
        "areas": {
            "study": ["G1"],
            "external": [f"G{i}" for i in range(2, n_machines + 1)],
        },
    }

    # Solve the base power flow once to pin ke = -se(efd0) per machine.
    spec = pm.parse_system(raw, source="synthetic_ring")
    pf = pm.solve_power_flow(spec, 1.0)
    idx = spec.bus_index()
    for k, mach in enumerate(spec.machines):
        *_, efd0 = pm._machine_steady_state(mach, pf.v[idx[mach.bus]], pf.machine_s[k])
        raw["machines"][k]["ke"] = -mach.aex * math.exp(mach.bex * efd0)
    return raw


def synthetic_ring_spec(n_machines: int = 33, seed: int = 7) -> pm.SystemSpec:
    return pm.parse_system(synthetic_ring(n_machines, seed), source="synthetic_ring")


def write_case(raw: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
