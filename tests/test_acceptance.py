"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not tuned at runtime; the load-sweep
bound comes from the frozen first-release calibration in
``acceptance_baseline.json``.

Numerical notes for criterion 3 (Taylor remainder order): the probes and
the full right-hand side are evaluated in extended precision and the
equilibrium residual f(x0) (about 1e-13 after float64 rounding of the
initialized state) is subtracted before norming.  In plain double the
weakest directions' fourth-order signal at eps=1e-3 sits below the
evaluation noise, so the slope would be unmeasurable no matter how the
model was built.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tensorsim import cases, cli
from tensorsim import power_model as pm
from tensorsim import simulate as sim
from tensorsim import study
from tensorsim import taylor
from tensorsim.tensor_ops import (
    Tensor,
    cp_decompose,
    cp_exact,
    cp_mode1_matrix,
    cp_reconstruct,
    khatri_rao,
    kron,
    matricize_mode1,
    mode_k_product,
    tensorize,
)

BASELINE = json.loads((Path(__file__).parent / "acceptance_baseline.json").read_text())


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep_report(wscc_sys, wscc_model_set):
    policy = sim.SwitchPolicy()
    return study.load_sweep(
        wscc_sys, wscc_model_set, policy, BASELINE["sweep_fault_bus"]
    )


def test_criterion_1_tensor_oracle_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        dims = tuple(rng.integers(2, 6, size=3))
        n1, n2, n3 = dims
        t = Tensor(rng.standard_normal(dims))

        # mode-k product against the explicit contraction
        x = rng.standard_normal((rng.integers(2, 5), n2))
        got = mode_k_product(t, x, 2).array
        expect = np.einsum("ijk,aj->iak", t.array, x)
        worst = max(worst, np.max(np.abs(got - expect)) / max(np.max(np.abs(expect)), 1e-30))

        # khatri-rao columns against per-column kron
        a = rng.standard_normal((n2, 4))
        b = rng.standard_normal((n3, 4))
        krab = khatri_rao(a, b)
        for j in range(4):
            worst = max(worst, np.max(np.abs(krab[:, j] - np.kron(a[:, j], b[:, j]))))

        # matricize/tensorize round trip is exact
        m = matricize_mode1(t)
        assert np.array_equal(tensorize(m, dims).array, t.array)

        # triple-path equivalence at full rank:
        # (a) unfolded matrix times Kronecker square
        # (b) chained mode-k products
        # (c) factored evaluation through exact CP factors
        dx2 = rng.standard_normal(n2)
        dx3 = rng.standard_normal(n3)
        path_a = m @ np.kron(dx3, dx2)
        path_b = mode_k_product(
            mode_k_product(t, dx2[None, :], 2), dx3[None, :], 3
        ).array.reshape(-1)
        f = cp_exact(t)
        path_c = (f.factors[0] * f.weights) @ (
            (f.factors[1].T @ dx2) * (f.factors[2].T @ dx3)
        )
        scale = max(np.linalg.norm(path_a), 1e-30)
        worst = max(worst, np.linalg.norm(path_a - path_b) / scale)
        worst = max(worst, np.linalg.norm(path_a - path_c) / scale)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(1, ok, f"50 seeded instances, worst relative error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_cp_recovery():
    rng = np.random.default_rng(7)
    results = []
    for r in (1, 2, 3):
        dims = (20, 15, 20)
        facs = [rng.uniform(0.1, 1.0, size=(n, r)) for n in dims]
        t = Tensor(np.einsum("ir,jr,kr->ijk", *facs))
        f = cp_decompose(t, r, seed=0)
        rel = np.linalg.norm(cp_reconstruct(f).array - t.array) / t.norm()
        monotone = bool(np.all(np.diff(f.fit_history) > -1e-10))
        results.append((r, rel, monotone))
    ok = all(rel <= 1e-5 and mono for _, rel, mono in results)
    report(2, ok, "; ".join(f"rank {r}: err {rel:.1e} monotone={m}" for r, rel, m in results))


def test_criterion_3_taylor_remainder_order(wscc_sys):
    t_start = time.perf_counter()
    model = taylor.build_taylor_model(wscc_sys, "full")
    x0 = wscc_sys.x0.astype(np.longdouble)
    f0 = pm.f_full(x0, wscc_sys)
    rng = np.random.default_rng(0)
    eps = np.geomspace(1e-3, 1e-1, 9)
    slopes = []
    for _ in range(10):
        v = rng.standard_normal(wscc_sys.n_states)
        v /= np.linalg.norm(v)
        vl = v.astype(np.longdouble)
        res = []
        for e in eps:
            dx = np.longdouble(e) * vl
            r = pm.f_full(x0 + dx, wscc_sys) - f0 - taylor.reduced_rhs(model, dx)
            res.append(float(np.sqrt(np.sum((r * r).astype(float)))))
        slopes.append(float(np.polyfit(np.log(eps), np.log(res), 1)[0]))
    elapsed = time.perf_counter() - t_start
    ok = all(3.6 <= s <= 4.4 for s in slopes) and elapsed < 120.0
    report(3, ok, f"slopes in [{min(slopes):.2f}, {max(slopes):.2f}] over 10 directions, {elapsed:.0f} s")


def test_criterion_4_equilibrium_and_symmetry(wscc_spec):
    worst = 0.0
    for lv in np.round(np.arange(0.80, 1.2001, 0.05), 2):
        sys_l = pm.build_system(wscc_spec, float(lv))
        worst = max(worst, float(np.max(np.abs(pm.f_full(sys_l.x0, sys_l)))))
    sys1 = pm.build_system(wscc_spec, 1.0)
    rng = np.random.default_rng(1)
    x = sys1.x0 + 0.02 * rng.standard_normal(sys1.n_states)
    shifted = x.copy()
    shifted[0::9] += 1.0
    # electrical power must not see a uniform rotation of every angle
    def pe_of(state):
        xs = state.reshape(-1, 9)
        u = np.sin(xs[:, 0]) - 1j * np.cos(xs[:, 0])
        e = (xs[:, 3] + 1j * xs[:, 2]) * u
        i = e @ sys1.y_red.T
        im = i * np.conj(u)
        return xs[:, 3] * im.real + xs[:, 2] * im.imag

    shift_err = float(np.max(np.abs(pe_of(x) - pe_of(shifted))))
    ok = worst < 1e-8 and shift_err <= 1e-10
    report(4, ok, f"max equilibrium residual {worst:.2e} over 9 levels; Pe shift error {shift_err:.2e}")


def test_criterion_5_rk4_order():
    def err(dt):
        traj = sim.integrate(lambda x: -x, np.array([1.0]), (0.0, 1.0), dt)
        return abs(traj.states[-1, 0] - math.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    ok = 14.0 <= ratio <= 18.0
    report(5, ok, f"halving dt changed global error by {ratio:.2f}x")


def test_criterion_6_accuracy_ordering(wscc_sys, wscc_model_set):
    # the criterion fixes the severity (0.95 CCT) but not the location;
    # the fault goes at the longest-CCT generator bus, as in the source
    # comparison setup
    policy = sim.SwitchPolicy()
    ccts = {
        bus: study.cct_search(wscc_sys, None, replace(policy, mode="force_full"), bus)
        for bus in (1, 2, 3)
    }
    bus = max(ccts, key=lambda b: ccts[b].stable_steps)
    dur = round(int(0.95 * ccts[bus].stable_steps) * 0.01, 10)
    scn = sim.Scenario(fault_bus=bus, t_clear=dur, t_end=16.0)
    base = sim.run_adaptive(wscc_sys, None, scn, replace(policy, mode="force_full"))
    rms = {}
    for mode in ("force_hybrid", "force_taylor", "force_linear", "adaptive"):
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, replace(policy, mode=mode))
        rms[mode] = (
            max(study.rms_error(traj, base, wscc_sys).values())
            if traj.completed
            else float("inf")
        )
    ok = (
        rms["force_hybrid"] <= 1.05 * rms["force_taylor"]
        and rms["force_taylor"] <= 1.05 * rms["force_linear"]
        and rms["adaptive"] < rms["force_linear"]
    )
    report(
        6,
        ok,
        f"bus {bus} at {dur:.2f}s: hybrid {rms['force_hybrid']:.2f} <= "
        f"taylor {rms['force_taylor']:.2f} <= linear {rms['force_linear']:.2f} deg; "
        f"adaptive {rms['adaptive']:.2f} < linear",
    )


def test_criterion_7_cct_fidelity(wscc_sys, wscc_model_set, sweep_report):
    policy = sim.SwitchPolicy()
    equal = {}
    for mach in wscc_sys.machines:
        full = study.cct_search(wscc_sys, None, replace(policy, mode="force_full"), mach.bus)
        adap = study.cct_search(wscc_sys, wscc_model_set, policy, mach.bus)
        equal[mach.bus] = (full.stable_steps, adap.stable_steps)
    all_equal = all(a == b for a, b in equal.values())
    ccts = [row["cct_s"] for row in sweep_report.rows if "cct_s" in row]
    monotone = all(a >= b - 1e-12 for a, b in zip(ccts, ccts[1:]))
    ok = all_equal and monotone and len(ccts) == 9
    report(
        7,
        ok,
        f"adaptive CCT == full CCT at every generator bus {equal}; "
        f"9-level CCTs non-increasing {['%.2f' % c for c in ccts]}",
    )


def test_criterion_8_load_sweep_bound(sweep_report):
    worst = max(row["max_rms_deg"] for row in sweep_report.rows)
    bound = BASELINE["load_sweep_max_rms_deg"] * 1.10
    ok = len(sweep_report.rows) == 9 and worst <= bound
    report(8, ok, f"max study-area RMS {worst:.2f} deg <= frozen bound {bound:.2f} deg over 9 levels")


def test_criterion_9_speed_direction():
    spec = cases.synthetic_ring_spec(33, seed=7)
    sys_big = pm.build_system(spec, 1.0)
    assert len(sys_big.external) >= 30
    ms = taylor.build_model_set(sys_big, levels=(1.0,), ranks=(16, 12), seed=0)
    policy = sim.SwitchPolicy(representative_levels=(1.0,))
    scn = sim.Scenario(fault_bus=17, t_clear=0.05, t_end=16.0)
    rows = study.timing_compare(
        sys_big, ms, scn, policy, modes=("force_full", "force_taylor"), repetitions=5
    )
    med = {r.mode: r.median_s for r in rows}
    steps = {r.mode: r.steps for r in rows}
    n = sys_big.n_states
    red = study.count_flops_reduced(n, 16, 12)
    unfolded = study.count_flops_unfolded(n)
    full = study.count_flops_full(sys_big)
    ok = (
        steps["force_full"] == steps["force_taylor"]
        and med["force_taylor"] < med["force_full"]
        and red < 0.5 * unfolded
    )
    report(
        9,
        ok,
        f"median taylor {med['force_taylor']:.3f}s < full {med['force_full']:.3f}s on "
        f"{len(sys_big.external)} external machines; reduced {red} flops/eval = "
        f"{red / unfolded:.2e} of the unfolded evaluation ({unfolded}) "
        f"[{red / full:.1f}x the reduced-network full model at {full}]",
    )


# files of measured wall times, which README leaves outside the
# byte-identity guarantee
MEASUREMENTS = ("compare_times_", "metrics_")


def test_criterion_10_determinism(tmp_path):
    sim_args = ["simulate", "--system", "wscc9", "--fault-bus", "7",
                "--t-clear", "0.1", "--t-end", "2.0", "--levels", "1.0",
                "--ranks", "8,8", "--seed", "42"]
    build_args = ["build", "--system", "wscc9", "--levels", "0.8,1.0",
                  "--ranks", "6,6", "--seed", "42"]
    pairs = []
    for tag, args in (("sim", sim_args), ("build", build_args)):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{tag}_{run}"
            assert cli.main([str(a) for a in args + ["--out", out]]) == 0
            outs.append(out)
        assert sorted(f.name for f in outs[0].iterdir()) == \
            sorted(f.name for f in outs[1].iterdir())
        for f in sorted(outs[0].iterdir()):
            if f.name.startswith(MEASUREMENTS):
                continue
            same = f.read_bytes() == (outs[1] / f.name).read_bytes()
            pairs.append((f.name, same))
    assert {name for name, _ in pairs} >= {"models.npz", "build_report.json", "trajectory.csv"}
    ok = all(same for _, same in pairs)
    report(10, ok, "byte-identical payloads: " + ", ".join(f"{n}={s}" for n, s in pairs))
