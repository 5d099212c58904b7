"""Workload runners, output checks and metric assembly for ``run.py``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback

import numpy as np

from tensorsim import cases, cli
from tensorsim import power_model as pm
from tensorsim import simulate as sim
from tensorsim import study as st
from tensorsim import taylor as ty
from tensorsim.tensor_ops import CpFactors

import workloads as wl
from tracer import Tracer

clock = time.perf_counter


class Wscc9Cct:
    """CCT screening of (bus, load level) pairs on the 9-bus fixture."""

    name = "wscc9_cct"
    kinds = ("force_full", "adaptive")

    def __init__(self, work):
        self.spec = cases.wscc9_spec()
        refs = wl.load_refs(self.name)
        self.refs, self.work = refs["cct"], refs["work_steps"]
        self.full = sim.SwitchPolicy(mode="force_full")
        self.adaptive = sim.SwitchPolicy(mode="adaptive")

    def setup(self):
        sys_m = pm.build_system(self.spec, 1.0)
        self.models = ty.build_model_set(sys_m, **wl.WSCC9_MODEL)
        self.sys = sys_m
        self.ranks = self.models.models[1.0].ranks

    def blocks(self, seed):
        return wl.wscc9_blocks(seed, self.work)

    def run(self, pair):
        """Returns (op latencies, raw outputs, busy seconds)."""
        bus, level = pair
        t0 = clock()
        sys_l = pm.build_system(self.spec, level)
        lat, outs = [], []
        for policy, models in ((self.full, None), (self.adaptive, self.models)):
            t = clock()
            try:
                outs.append(st.cct_search(sys_l, models, policy, bus))
            except Exception as exc:  # a raising op is a failed op
                traceback.print_exc()
                outs.append(exc)
            lat.append(clock() - t)
        return lat, outs, clock() - t0

    def check(self, pair, outs):
        """Returns (failed ops, mismatch or None, rms or None, fingerprint)."""
        full, adap = outs
        failed = 0
        if not (isinstance(full, st.CctResult)
                and full.stable_steps == self.refs[wl.wscc9_key(*pair)]):
            failed += 1
        if not (isinstance(adap, st.CctResult) and self._confirm(pair, adap)):
            failed += 1
        mismatch = None
        if failed == 0:
            mismatch = full.stable_steps != adap.stable_steps
        fp = [repr((o.stable_steps, o.runs)) if isinstance(o, st.CctResult) else repr(o)
              for o in outs]
        return failed, mismatch, None, fp

    def _confirm(self, pair, res):
        """Reruns the adaptive search's longest stable fault duration: the
        run must complete the horizon with finite states."""
        bus, level = pair
        sys_l = pm.build_system(self.spec, level)
        scn = sim.Scenario(fault_bus=bus, t_clear=round(res.stable_steps * res.resolution, 12),
                           t_end=16.0, load_level=level)
        traj = sim.run_adaptive(sys_l, self.models, scn, self.adaptive, res.resolution,
                                instability_stop_deg=180.0)
        return traj.completed and bool(np.isfinite(traj.states).all())


class Ring33Cli:
    """Single contingencies of ``ring:33`` through the command line."""

    name = "ring33_cli"
    kinds = wl.RING_MODES

    def __init__(self, work):
        self.work = work
        self.refs = wl.load_refs(self.name)["runs"]
        self.sys = pm.build_system(cases.synthetic_ring_spec(33, seed=7), 1.0)
        self.ranks = (16, 12)

    def setup(self):
        out = self.work / "models"
        rc = cli.main(["build", "--system", wl.RING_SYSTEM, "--levels", "1.0",
                       "--ranks", "16,12", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"tensorsim build exited {rc}")
        json.loads((out / "build_report.json").read_text())
        self.npz = out / "models.npz"

    def blocks(self, seed):
        return wl.ring_blocks(seed)

    def run(self, scenario):
        bus, step = scenario
        t0 = clock()
        lat, outs = [], []
        for mode in self.kinds:
            out = self.work / "ops" / mode
            argv = ["simulate", "--system", wl.RING_SYSTEM, "--models", str(self.npz),
                    "--levels", "1.0", "--ranks", "16,12", "--fault-bus", str(bus),
                    "--t-clear", wl.t_clear_text(step), "--mode", mode, "--out", str(out)]
            t = clock()
            try:
                outs.append(cli.main(argv))
            except Exception as exc:
                traceback.print_exc()
                outs.append(exc)
            lat.append(clock() - t)
        return lat, outs, clock() - t0

    def _read(self, mode, rc):
        """Payload of one op, or None when it fails a check: a file missing
        or unparsable, a row count other than steps + 1, a non-finite
        state.  The CSV is parsed in full only when ``rms`` needs it."""
        if rc != 0:
            return None
        d = self.work / "ops" / mode
        try:
            report_b = (d / "simulate_report.json").read_bytes()
            log_b = (d / "switch_log.jsonl").read_bytes()
            csv_b = (d / "trajectory.csv").read_bytes()
            report = json.loads(report_b)
            for line in log_b.splitlines():
                json.loads(line)
            _, header, body = csv_b.split(b"\n", 2)
            rows = body.rstrip(b"\n").split(b"\n")
            final = np.array([float(v) for v in rows[-1].split(b",")])
        except (OSError, ValueError):
            return None
        if (not header.startswith(b"time,") or len(rows) != report["steps"] + 1
                or final.size != self.sys.n_states + 1
                # %.17g writes a non-finite state as nan or [-]inf
                or b"nan" in body or b"inf" in body):
            return None
        return {"completed": bool(report["completed"]), "steps": report["steps"],
                "final": final[1:], "body": body,
                "fp": hashlib.sha256(report_b + log_b + csv_b).hexdigest()}

    def _trajectory(self, payload):
        data = np.loadtxt(io.BytesIO(payload["body"]), delimiter=",", ndmin=2)
        return sim.Trajectory(times=data[:, 0], states=data[:, 1:])

    def check(self, scenario, outs):
        got = {m: self._read(m, rc) for m, rc in zip(self.kinds, outs)}
        failed = sum(v is None for v in got.values())
        full, adap = got["force_full"], got["adaptive"]
        ref = self.refs[wl.ring_key(*scenario)]
        if full is not None:
            good = full["completed"] == ref["completed"] and full["steps"] == ref["steps"]
            if ref["synchronous"]:
                good &= wl.digest_close(wl.state_digest(full["final"]), ref["digest"])
            if not good:
                failed += 1
                full = None
        mismatch = rms = None
        if full is not None and adap is not None:
            mismatch = full["completed"] != adap["completed"]
            if full["completed"] and adap["completed"]:
                err = st.rms_error(self._trajectory(adap), self._trajectory(full), self.sys)
                rms = max(err.values())
        fp = [v["fp"] if v is not None else None for v in got.values()]
        return failed, mismatch, rms, fp


WORKLOADS = {w.name: w for w in (Wscc9Cct, Ring33Cli)}


def computed_flops(sys_m, ranks) -> dict:
    """Per-evaluation flop counts of the right-hand sides from the study
    module's operation model (the hybrid count includes both parents)."""
    n, (r2, r3) = sys_m.n_states, ranks
    return {
        "power_model.rhs": st.count_flops_full(sys_m),
        "taylor.reduced_rhs": st.count_flops_reduced(n, r2, r3),
        "taylor.linear_rhs": st.count_flops_linear(n),
        "taylor.hybrid_rhs": st.count_flops_hybrid(sys_m, r2, r3),
    }


# ---------------------------------------------------------------------------
# timed phase


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 0 else 0


def quantile(x, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the order statistics
    averaged with Beta((n+1)p, (n+1)(1-p)) weights.

    Op latencies here are multi-modal, one cluster per mode (wscc9_cct has
    as many force_full as adaptive searches), so the plain sample median
    falls in the gap between two clusters and is set by one extreme of
    each; between seeds it moved 2.5 times as much as this estimate."""
    x = np.sort(np.asarray(x, dtype=float))
    if not 0.0 < p < 1.0 or x.size < 2:
        return float(np.percentile(x, 100.0 * p))
    a, b = p * (x.size + 1), (1.0 - p) * (x.size + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(t))])
    weights = np.diff(np.interp(np.arange(x.size + 1) / x.size, t, cdf / cdf[-1]))
    return float(weights @ x)


class Phase:
    """Closed loop over scenarios; the clock runs only while ops run."""

    def __init__(self, wk, tracer=None):
        self.wk = wk
        self.tracer = tracer  # wraps the ops only, never the checks
        self.lat = []
        self.busy = 0.0
        self.failed = 0
        self.mismatch = []
        self.rms = []
        self.fingerprints = []
        self.scenarios = []
        self.ops = []  # [*scenario, kind, latency s]

    def step(self, sc):
        with self.tracer or contextlib.nullcontext():
            lat, outs, busy = self.wk.run(sc)
        self.lat += lat
        self.ops += [[*sc, kind, t] for kind, t in zip(self.wk.kinds, lat)]
        self.busy += busy
        failed, mismatch, rms, fp = self.wk.check(sc, outs)
        self.failed += failed
        self.scenarios.append(sc)
        self.fingerprints.append(fp)
        if mismatch is not None:
            self.mismatch.append(mismatch)
        if rms is not None:
            self.rms.append(rms)

    def run_for(self, blocks, seconds):
        """Whole blocks, as many as bring the busy time nearest to
        ``seconds`` (at least one), so every run sees balanced blocks."""
        for k, block in enumerate(blocks):
            if k and self.busy + self.busy / k / 2 >= seconds:
                break
            for sc in block:
                self.step(sc)
        return self

    def replay(self, scenarios):
        for sc in scenarios:
            self.step(sc)
        return self

    def metrics(self) -> dict:
        n = len(self.lat)
        q = tail_percentile(n)
        return {
            "ops_per_s": {"value": n / self.busy, "unit": "1/s", "n": n},
            "op_s.p50": {"value": quantile(self.lat, 0.5), "unit": "s", "n": n},
            "op_s.tail": {"value": quantile(self.lat, q / 100.0), "unit": "s", "n": n,
                          "percentile": q},
        }

    def quality(self) -> dict:
        n = len(self.lat)
        out = {
            "failed_frac": {"value": self.failed / n, "unit": "ratio", "n": n},
            "mismatch_frac": {"value": float(np.mean(self.mismatch)) if self.mismatch else 0.0,
                              "unit": "ratio", "n": len(self.mismatch)},
        }
        if self.rms:  # ring33_cli only
            n = len(self.rms)
            out["rms_deg.p50"] = {"value": float(np.median(self.rms)), "unit": "deg", "n": n}
            out["rms_deg.max"] = {"value": float(np.max(self.rms)), "unit": "deg", "n": n}
        return out


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    wk = WORKLOADS[workload](work)
    if trace:
        return _run_traced(wk, seed, seconds)
    t = clock()
    wk.setup()
    setup_s = clock() - t
    ph = Phase(wk).run_for(wk.blocks(seed), seconds)
    metrics = {"setup_s": {"value": setup_s, "unit": "s", "n": 1}}
    metrics.update(ph.metrics())
    return {
        "correct": ph.failed == 0,
        "attempted": len(ph.lat),
        "failed": ph.failed,
        "metrics": metrics,
        "quality": ph.quality(),
        "ops": ph.ops,
    }


# ---------------------------------------------------------------------------
# traced run


def _run_traced(wk, seed, seconds):
    tracer = Tracer()
    with tracer:
        wk.setup()
    setup_stats = tracer.stats
    # the same scenarios untraced, then traced: the tracing overhead, and a
    # check that tracing does not change any output
    plain = Phase(wk).run_for(wk.blocks(seed), seconds / 2.0)
    tracer.reset()
    traced = Phase(wk, tracer).replay(plain.scenarios)
    identical = traced.fingerprints == plain.fingerprints
    failed = plain.failed + traced.failed
    per_layer = layer_metrics(setup_stats, tracer.stats, len(traced.lat),
                              computed_flops(wk.sys, wk.ranks))
    p50 = traced.metrics()["op_s.p50"]["value"]
    p50_plain = plain.metrics()["op_s.p50"]["value"]
    per_layer["trace.overhead_frac"] = {"value": p50 / p50_plain - 1.0, "unit": "ratio",
                                        "n": len(traced.lat)}
    per_layer.update(scaling_table())
    return {
        "correct": failed == 0 and identical,
        "attempted": len(plain.lat) + len(traced.lat),
        "failed": failed,
        "metrics": per_layer,
        "quality": traced.quality(),
        "tracing_identical": identical,
        "ops": plain.ops,
        "untraced": plain.metrics(),
        "traced": traced.metrics(),
    }


def _v(value, unit, n=None):
    m = {"value": float(value), "unit": unit}
    if n is not None:
        m["n"] = n
    return m


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def layer_metrics(setup, ops, n_ops, flops) -> dict:
    """Per-layer metrics.  Build layers are per set-up; op layers are per
    op of the traced phase.  Layers a workload never reaches read 0 (the
    stats are nested defaultdicts)."""
    out = {}

    for prefix in ("tensor_ops.cp_decompose", "taylor.cp_als_coo"):
        for o in (2, 3):
            name = f"{prefix}.o{o}"
            s = setup[name]
            calls = s["calls"]
            out[f"{name}.self_s"] = _v(s["self_s"], "s")
            out[f"{name}.iters"] = _v(_ratio(s["iters"], calls), "count")
            out[f"{name}.fit"] = _v(s["fit_min"], "ratio")
            out[f"{name}.converged"] = _v(_ratio(s["converged"], calls), "ratio")
    out["taylor.jacobian.self_s"] = _v(setup["taylor.jacobian"]["self_s"], "s")
    for o in (2, 3):
        s = setup[f"taylor.fd.o{o}"]
        out[f"taylor.fd.o{o}.self_s"] = _v(s["self_s"], "s")
        out[f"taylor.fd.o{o}.total_s"] = _v(s["total_s"], "s")
        out[f"taylor.fd.o{o}.rhs_rows"] = _v(s["rhs_rows"], "count")
    out["taylor.save_model_set.self_s"] = _v(setup["taylor.save_model_set"]["self_s"], "s")

    for name, keys in (
        ("power_model.solve_power_flow", ("calls", "self_s", "nr_iters")),
        ("power_model.build_reduced_admittance", ("calls", "self_s")),
        ("power_model.rhs", ("calls", "rows", "self_s")),
        ("simulate.run_adaptive", ("calls", "self_s", "steps")),
        ("study.cct_search", ("calls", "self_s", "runs")),
        ("taylor.reduced_rhs", ("calls", "self_s")),
        ("taylor.linear_rhs", ("calls", "self_s")),
        ("taylor.hybrid_rhs", ("calls", "self_s")),
        ("simulate.export_trajectory_csv", ("self_s", "bytes")),
        ("taylor.load_model_set", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for key in keys:
            unit = {"self_s": "s/op", "bytes": "B/op"}.get(key, "1/op")
            out[f"{name}.{key}"] = _v(ops[name].get(key, 0) / n_ops, unit, n_ops)
    for mode in ("full", "hybrid", "taylor", "linear"):
        steps = ops[f"simulate.steps.{mode}"]["calls"]
        out[f"simulate.steps.{mode}"] = _v(steps / n_ops, "1/op", n_ops)

    rhs = ops["power_model.rhs"]
    rhs_flops = rhs["rows"] * flops["power_model.rhs"]
    out["power_model.rhs.us_per_row"] = _v(_ratio(rhs["self_s"], rhs["rows"], 1e6), "us")
    out["power_model.rhs.flops_computed"] = _v(flops["power_model.rhs"], "flop")
    out["power_model.rhs.mflop_s"] = _v(_ratio(rhs_flops, rhs["self_s"], 1e-6), "Mflop/s")
    ra = ops["simulate.run_adaptive"]
    out["simulate.run_adaptive.step_overhead_us"] = _v(_ratio(ra["self_s"], ra["steps"], 1e6), "us")
    for name in ("taylor.reduced_rhs", "taylor.linear_rhs", "taylor.hybrid_rhs"):
        s = ops[name]
        out[f"{name}.flops_computed"] = _v(flops[name], "flop")
        if name != "taylor.linear_rhs":
            out[f"{name}.us_per_call"] = _v(_ratio(s["total_s"], s["calls"], 1e6), "us")
    red = ops["taylor.reduced_rhs"]
    out["taylor.reduced_rhs.mflop_s"] = _v(
        _ratio(red["calls"] * flops["taylor.reduced_rhs"], red["self_s"], 1e-6),
        "Mflop/s")
    return out


# ---------------------------------------------------------------------------
# kernel scaling table


SCALING_MACHINES = (10, 33, 100, 200)


def random_model(sys_m, ranks, rng) -> ty.TaylorModel:
    """Taylor model with random factors: evaluation cost without a build."""
    n = sys_m.n_states
    r2, r3 = ranks

    def cp(rank, order):
        return CpFactors(rank=rank, factors=[rng.standard_normal((n, rank)) for _ in range(order)],
                         weights=np.full(rank, 1e-3))

    return ty.TaylorModel(load_level=1.0, x0=sys_m.x0.copy(),
                          a1=1e-3 * rng.standard_normal((n, n)), a2=cp(r2, 3), a3=cp(r3, 4),
                          ranks=(r2, r3), fits=(0.0, 0.0))


def per_call_us(fn, budget_s=0.15, batches=7) -> float:
    """Median over batches of the mean call time, in microseconds."""
    fn()
    t = clock()
    fn()
    k = max(1, int(budget_s / batches / max(clock() - t, 1e-7)))
    means = []
    for _ in range(batches):
        t = clock()
        for _ in range(k):
            fn()
        means.append((clock() - t) / k)
    return float(np.median(means)) * 1e6


def scaling_table() -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for m in SCALING_MACHINES:
        sys_m = pm.build_system(cases.synthetic_ring_spec(m, seed=7), 1.0)
        model = random_model(sys_m, (16, 12), rng)
        x = sys_m.x0 + 1e-3 * rng.standard_normal(sys_m.n_states)
        dx = x - model.x0
        out[f"scaling.m{m}.rhs_us"] = _v(per_call_us(lambda: pm._rhs(sys_m, sys_m.y_red, x)), "us")
        out[f"scaling.m{m}.reduced_us"] = _v(per_call_us(lambda: ty.reduced_rhs(model, dx)), "us")
    return out
