import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tensorsim import cases
from tensorsim import power_model as pm
from tensorsim import simulate as sim
from tensorsim import study
from tensorsim import taylor

CCT_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "wscc9_cct.json"


def synthetic_traj(times, deltas_by_gen, n_machines=3):
    """Trajectory with prescribed rotor angles, everything else zero."""
    states = np.zeros((len(times), n_machines * pm.N_STATES))
    for pos, series in deltas_by_gen.items():
        states[:, pos * pm.N_STATES] = series
    return sim.Trajectory(times=np.asarray(times, dtype=float), states=states)


class TestRmsError:
    def test_identical_runs_zero(self, wscc_sys):
        times = np.arange(11) * 0.01
        a = synthetic_traj(times, {1: np.linspace(0, 1, 11)})
        assert study.rms_error(a, a, wscc_sys) == {"G2": 0.0, "G3": 0.0}

    def test_constant_offset(self, wscc_sys):
        times = np.arange(5) * 0.01
        a = synthetic_traj(times, {1: np.full(5, math.radians(1.0))})
        b = synthetic_traj(times, {1: np.zeros(5)})
        err = study.rms_error(a, b, wscc_sys, generators=("G2",), reference="G1")
        assert abs(err["G2"] - 1.0) < 1e-12

    def test_sine_rms(self, wscc_sys):
        # >= 100 periods sampled: RMS of A sin is A/sqrt(2) within 1%
        times = np.linspace(0.0, 100.0, 20001)
        amp = math.radians(2.0)
        a = synthetic_traj(times, {1: amp * np.sin(2 * math.pi * times)})
        b = synthetic_traj(times, {1: np.zeros_like(times)})
        err = study.rms_error(a, b, wscc_sys, generators=("G2",), reference="G1")
        assert abs(err["G2"] - 2.0 / math.sqrt(2)) / (2.0 / math.sqrt(2)) < 0.01

    def test_symmetry(self, wscc_sys):
        rng = np.random.default_rng(0)
        times = np.arange(20) * 0.01
        a = synthetic_traj(times, {1: rng.standard_normal(20) * 0.02})
        b = synthetic_traj(times, {1: rng.standard_normal(20) * 0.02})
        assert study.rms_error(a, b, wscc_sys) == study.rms_error(b, a, wscc_sys)

    def test_grid_mismatch(self, wscc_sys):
        a = synthetic_traj(np.arange(5) * 0.01, {})
        b = synthetic_traj(np.arange(6) * 0.01, {})
        with pytest.raises(study.GridMismatchError):
            study.rms_error(a, b, wscc_sys)

    def test_max_abs_variant(self, wscc_sys):
        times = np.arange(4) * 0.01
        a = synthetic_traj(times, {1: np.array([0, 0.01, -0.03, 0.0])})
        b = synthetic_traj(times, {1: np.zeros(4)})
        err = study.max_abs_error(a, b, wscc_sys, generators=("G2",), reference="G1")
        assert abs(err["G2"] - math.degrees(0.03)) < 1e-12

    def test_runs_reference_machine_used(self, wscc_sys, wscc_model_set):
        # the runs take their angles against G3, not the default choice G1
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=4.0)
        pol = sim.SwitchPolicy(reference_generator="G3")
        full = sim.run_adaptive(wscc_sys, None, scn, replace(pol, mode="force_full"))
        lin = sim.run_adaptive(wscc_sys, wscc_model_set, scn, replace(pol, mode="force_linear"))
        assert full.reference == lin.reference == "G3"
        err = study.rms_error(lin, full, wscc_sys)
        assert err["G3"] == 0.0
        assert err == study.rms_error(lin, full, wscc_sys, reference="G3")
        assert abs(err["G2"] - 2.69) < 0.01

    def test_runs_with_different_references_refused(self, wscc_sys):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=0.3)
        a, b = (sim.run_adaptive(wscc_sys, None, scn,
                                 sim.SwitchPolicy(mode="force_full", reference_generator=g))
                for g in ("G1", "G3"))
        with pytest.raises(ValueError, match="different reference machines"):
            study.rms_error(a, b, wscc_sys)
        # an explicit reference recomputes both runs' angles against it
        d = (study.relative_angles(a, wscc_sys, "G2", "G3")
             - study.relative_angles(b, wscc_sys, "G2", "G3"))
        got = study.rms_error(a, b, wscc_sys, ["G2"], reference="G3")["G2"]
        assert got == float(np.sqrt(np.mean(d * d)) * 180.0 / math.pi)


def _completes(sys, model_set, policy, bus, steps, dt=0.01, t_end=16.0):
    """The single run behind one verdict of a CCT search."""
    scn = sim.Scenario(fault_bus=bus, t_clear=round(steps * dt, 12), t_end=t_end,
                       load_level=sys.load_level)
    return sim.run_adaptive(sys, model_set, scn, policy, dt, instability_stop_deg=180.0).completed


def _sequential_cct(sys, model_set, policy, bus, *, dt=0.01, t_end=16.0, max_duration=2.0):
    """Oracle: the CCT search as one run_adaptive per duration, each asked
    only after the verdict before it."""
    runs = []

    def stable(steps):
        ok = _completes(sys, model_set, policy, bus, steps, dt, t_end)
        runs.append((round(steps * dt, 12), bool(ok)))
        return ok

    if not stable(0):
        raise study.CctError(f"bus {bus}: unstable even with zero fault duration")
    max_steps = int(round(max_duration / dt))
    lo = 0
    hi = max(1, int(round(0.1 / dt)))
    while hi <= max_steps and stable(hi):
        lo = hi
        hi *= 2
    if hi > max_steps:
        if lo == max_steps or stable(max_steps):
            return study.CctResult(
                cct=round(max_steps * dt, 12), bus=bus, mode=policy.mode, resolution=dt,
                stable_steps=max_steps, unstable_steps=None, capped=True, runs=runs)
        hi = max_steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return study.CctResult(
        cct=round(lo * dt, 12), bus=bus, mode=policy.mode, resolution=dt,
        stable_steps=lo, unstable_steps=hi, capped=False, runs=runs)


class TestCct:
    def test_zero_duration_stable(self, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        res = study.cct_search(wscc_sys, None, pol, 7, t_end=8.0)
        assert res.runs[0] == (0.0, True)
        assert res.cct > 0

    def test_bracket_confirmation(self, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        res = study.cct_search(wscc_sys, None, pol, 7)
        assert _completes(wscc_sys, None, pol, 7, res.stable_steps)
        assert not _completes(wscc_sys, None, pol, 7, res.unstable_steps)
        assert res.unstable_steps == res.stable_steps + 1

    def test_unstable_at_zero_raises(self):
        with pytest.raises(study.CctError):
            study._bisection(lambda steps: False, 7, "force_full", 0.01, 2.0)

    def test_cap_when_always_stable(self):
        # 0.8 s and 0.1 s are reached exactly by doubling from 0.1 s; 70
        # steps of 0.01 s is 0.7000000000000001 s before rounding
        for cap in (0.5, 0.8, 0.1, 0.7):
            res = study._bisection(lambda steps: True, 7, "force_full", 0.01, cap)
            assert res.capped and res.cct == cap
            assert res.stable_steps == round(cap / 0.01) and res.unstable_steps is None

    def test_open_questions_nearest_first(self):
        def procedure(stable):
            return study._bisection(stable, 7, "force_full", 0.01, 2.0)

        found = study._open_questions(procedure, {}, 7)
        assert [s for s, _ in found] == [0, 10, 20, 5, 40, 15, 7]
        assert found[3][1] == {0: True, 10: False}
        # an unstable zero duration ends the procedure: no question below it
        assert study._open_questions(procedure, {0: False}, 7) == []
        known = {0: True, 10: True, 20: False, 15: True, 17: False, 16: True}
        assert study._open_questions(procedure, known, 7) == []

    @pytest.mark.parametrize("bus", [1, 2, 3])
    @pytest.mark.parametrize("mode", sim.MODES)
    def test_equals_sequential_search(self, wscc_sys, wscc_model_set, bus, mode):
        ms = None if mode == "force_full" else wscc_model_set
        pol = sim.SwitchPolicy(mode=mode)
        assert study.cct_search(wscc_sys, ms, pol, bus) == _sequential_cct(wscc_sys, ms, pol, bus)

    @pytest.mark.parametrize("bus", [1, 2, 3, 4, 5])
    def test_ring_equals_sequential_search(self, ring5_sys, bus):
        pol = sim.SwitchPolicy(mode="force_full")
        res = study.cct_search(ring5_sys, None, pol, bus)
        assert res == _sequential_cct(ring5_sys, None, pol, bus)
        assert res.capped or bus != 5

    def test_off_grid_or_negative_cap_rejected(self, ring5_sys):
        # a cap between two steps would be searched as the step it rounds
        # to, a duration past the cap
        pol = sim.SwitchPolicy(mode="force_full")
        with pytest.raises(ValueError, match="max_duration"):
            study.cct_search(ring5_sys, None, pol, 5, max_duration=0.155)
        # a negative cap is refused as a clearing before the fault would be
        with pytest.raises(ValueError, match="t_fault_on <= t_clear"):
            study.cct_search(ring5_sys, None, pol, 5, max_duration=-0.1)

    @pytest.mark.parametrize("cap", [0.1, 0.5, 0.7, 0.8])
    @pytest.mark.parametrize("case", ["wscc9", "ring5"])
    def test_cap_edges_equal_sequential_search(self, wscc_sys, ring5_sys, case, cap):
        sys_, bus = (wscc_sys, 7) if case == "wscc9" else (ring5_sys, 5)
        pol = sim.SwitchPolicy(mode="force_full")
        res = study.cct_search(sys_, None, pol, bus, max_duration=cap)
        assert res == _sequential_cct(sys_, None, pol, bus, max_duration=cap)

    def test_fault_on_instability_equals_sequential_search(self, wscc_sys):
        # the search asks for 0.4 s on bus 4, and its fault-on run is already
        # unstable before it would clear
        pol = sim.SwitchPolicy(mode="force_full")
        traj = sim.run_adaptive(wscc_sys, None, sim.Scenario(fault_bus=4, t_clear=0.4), pol,
                                instability_stop_deg=180.0)
        assert traj.unstable_at is not None and traj.unstable_at < 0.4
        res = study.cct_search(wscc_sys, None, pol, 4)
        assert (0.4, False) in res.runs
        assert res == _sequential_cct(wscc_sys, None, pol, 4)

    @pytest.mark.parametrize("bus", [7, 4])
    def test_adaptive_search_sets_up_the_fault_once(self, wscc_sys, wscc_model_set, monkeypatch,
                                                    bus):
        # every probe steps on from the one fault-on run, which on bus 4 is
        # already unstable before the 0.4 s the search asks for
        pol = sim.SwitchPolicy()
        want = _sequential_cct(wscc_sys, wscc_model_set, pol, bus)
        assert bus != 4 or (0.4, False) in want.runs
        monkeypatch.setattr(sim, "run_adaptive", lambda *a, **k: pytest.fail("a single run started"))
        faults, apply_fault = [], pm.apply_fault
        monkeypatch.setattr(pm, "apply_fault", lambda *a: faults.append(a) or apply_fault(*a))
        assert study.cct_search(wscc_sys, wscc_model_set, pol, bus) == want
        assert [b for _, b in faults] == [bus]

    @pytest.mark.parametrize("mode", ["force_full", "adaptive"])
    def test_fault_on_run_stepped_once(self, wscc_sys, wscc_model_set, monkeypatch, mode):
        # the plan of a run that ends as it clears is the fault-on run's
        ms = None if mode == "force_full" else wscc_model_set
        fault_on, plan = [], sim._Contingency.plan

        def spy(run, k_on, k_clear, k_end):
            if k_clear == k_end:
                fault_on.append(k_end)
            return plan(run, k_on, k_clear, k_end)

        monkeypatch.setattr(sim._Contingency, "plan", spy)
        study.cct_search(wscc_sys, ms, sim.SwitchPolicy(mode=mode), 7)
        assert len(fault_on) == 1

    @pytest.mark.parametrize("mode", ["force_full", "adaptive"])
    def test_duration_past_horizon_rejected(self, wscc_sys, wscc_model_set, mode):
        # the search asks for 0.2 s, which is past the end of the run
        ms = None if mode == "force_full" else wscc_model_set
        with pytest.raises(ValueError, match=r"need 0 <= t_fault_on <= t_clear <= t_end"):
            study.cct_search(wscc_sys, ms, sim.SwitchPolicy(mode=mode), 7, t_end=0.15)

    @pytest.mark.parametrize("dt,t_end", [(0.02, 16.0), (0.01, 8.0)])
    def test_grid_and_horizon_equal_sequential_search(self, wscc_sys, dt, t_end):
        pol = sim.SwitchPolicy(mode="force_full")
        res = study.cct_search(wscc_sys, None, pol, 7, dt=dt, t_end=t_end)
        assert res == _sequential_cct(wscc_sys, None, pol, 7, dt=dt, t_end=t_end)

    @pytest.mark.parametrize("bus,level", [(1, 0.90), (5, 1.15), (8, 0.90)])
    def test_recorded_cct_at_level_without_model(self, wscc_spec, wscc_model_set, bus, level):
        # the adaptive runs use the 1.0 or 1.2 Taylor model, expanded
        # around another level's equilibrium
        want = json.loads(CCT_REFS.read_text())["cct"][f"{bus}@{level:.2f}"]
        sys_l = pm.build_system(wscc_spec, level)
        for mode, ms in (("force_full", None), ("adaptive", wscc_model_set)):
            res = study.cct_search(sys_l, ms, sim.SwitchPolicy(mode=mode), bus)
            assert res.stable_steps == want, mode


class TestRankSweepCore:
    def test_planted_rank_found(self):
        # scores mimic an exactly rank-5 target: each extra component below
        # rank 5 removes a chunk of error, extra ranks beyond it do nothing
        def score(r2, r3):
            return (2.0 * (5 - r2) + 0.5 if r2 < 5 else 0.01), None

        chosen, curve, stopped = study._rank_sweep(score, 1, 0.1, (0, 1, 2), 50)
        assert chosen[1] == 5
        assert stopped == "improvement_below_tol"

    def test_infinite_tolerance_returns_start(self):
        def score(r2, r3):
            return 10.0 / r2, None

        chosen, _, stopped = study._rank_sweep(score, 3, float("inf"), (0,), 50)
        assert chosen[1] == 3 and stopped == "improvement_below_tol"

    def test_max_rank_reported_not_fatal(self):
        def score(r2, r3):
            return 10.0 / r2, None

        chosen, curve, stopped = study._rank_sweep(score, 1, 1e-9, (0,), 4)
        assert stopped == "max_rank"
        assert chosen[1] == 4

    def test_real_search_smoke(self, wscc_sys):
        scn = sim.Scenario(fault_bus=7, t_clear=0.08, t_end=2.0)
        pol = sim.SwitchPolicy(mode="force_taylor", representative_levels=(1.0,))
        res = study.rank_search(
            wscc_sys, scn, pol, start_rank=2, max_rank=4,
            improvement_tol_deg=0.1, r3_offsets=(0,), dt=0.01,
            cp_options=dict(max_iters=80, restarts=1),
        )
        assert res.r2 >= 2
        assert len(res.curve) >= 1
        assert all("max_rms_deg" in row for row in res.curve)

    def test_each_order_and_rank_compressed_once(self, wscc_sys, wscc_terms, monkeypatch):
        # with r3 = r2 + 0, 1, 2 an order-2 rank recurs within a step and an
        # order-3 rank across steps; each is compressed once, and every
        # scored model has the fits of compressing its pair in process
        opts = dict(max_iters=20, restarts=1)
        oracle = {(r2, r2 + off): taylor.compress_taylor_terms(
                      wscc_sys, wscc_terms, (r2, r2 + off), cp_options=opts).fits
                  for r2 in (1, 2, 3) for off in (0, 1, 2)}
        calls = []
        compress = taylor._compress_order

        def counted(n, order, term, ranks, **kwargs):
            calls.append((order, ranks[order - 2]))
            return compress(n, order, term, ranks, **kwargs)

        monkeypatch.setattr(taylor, "_compress_order", counted)
        monkeypatch.setattr(study, "_compress_order", counted)
        monkeypatch.setattr(study, "taylor_terms", lambda sys_m: wscc_terms)
        scn = sim.Scenario(fault_bus=7, t_clear=0.08, t_end=1.0)
        res = study.rank_search(wscc_sys, scn, sim.SwitchPolicy(mode="force_taylor"),
                                improvement_tol_deg=-math.inf, max_rank=3, cp_options=opts)
        assert {(row["r2"], row["r3"]): row["fits"] for row in res.curve} == oracle
        assert sorted(calls) == sorted({(2, r) for r in (1, 2, 3)} | {(3, r) for r in range(1, 6)})

    def test_search_above_dense_limit(self):
        # ring:7 has 63 states, so its terms come from the structured path
        sys_m = pm.build_system(cases.synthetic_ring_spec(7), 1.0)
        assert sys_m.n_states > taylor.DENSE_STATE_LIMIT
        scn = sim.Scenario(fault_bus=1, t_clear=0.1, t_end=2.0)
        res = study.rank_search(sys_m, scn, sim.SwitchPolicy(), max_rank=3)
        assert res.curve and all(math.isfinite(row["max_rms_deg"]) for row in res.curve)
        assert res.r2 >= 1

    def test_empty_rank_range_rejected(self, wscc_sys, monkeypatch):
        # rejected before the full-model baseline run
        monkeypatch.setattr(sim, "run_adaptive", lambda *a, **k: pytest.fail("a run started"))
        scn = sim.Scenario(fault_bus=7, t_clear=0.08, t_end=2.0)
        with pytest.raises(ValueError, match="start rank 3 > max rank 2"):
            study.rank_search(wscc_sys, scn, sim.SwitchPolicy(), start_rank=3, max_rank=2)


class TestThresholdSearch:
    def test_infinite_band_returns_upper_bound(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        pol = sim.SwitchPolicy()
        res = study.threshold_search(
            wscc_sys, wscc_model_set, scn, pol,
            max_deg=5.0, max_error_deg=float("inf"),
        )
        assert res.threshold_deg == 5.0 and res.satisfied

    def test_zero_band_returns_zero(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        pol = sim.SwitchPolicy()
        res = study.threshold_search(
            wscc_sys, wscc_model_set, scn, pol, max_deg=3.0, max_error_deg=0.0,
        )
        assert res.threshold_deg == 0.0 and not res.satisfied

    def test_curve_recorded(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        pol = sim.SwitchPolicy()
        res = study.threshold_search(
            wscc_sys, wscc_model_set, scn, pol, start_deg=5.0, step_deg=10.0,
            max_deg=35.0, max_error_deg=5.0,
        )
        assert len(res.curve) >= 1
        assert res.metric == "rms"

    def test_errors_use_policy_reference(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        pol = sim.SwitchPolicy(reference_generator="G3")
        res = study.threshold_search(
            wscc_sys, wscc_model_set, scn, pol, start_deg=26.0, max_deg=26.0,
            max_error_deg=float("inf"),
        )
        full = sim.run_adaptive(wscc_sys, None, scn, replace(pol, mode="force_full"))
        adap = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        err = study.rms_error(adap, full, wscc_sys, reference="G3")
        assert res.curve == [{"threshold_deg": 26.0, "max_err_deg": max(err.values())}]

    def test_unknown_metric_rejected(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        with pytest.raises(ValueError, match="metric"):
            study.threshold_search(
                wscc_sys, wscc_model_set, scn, sim.SwitchPolicy(), metric="peak",
            )


    @pytest.mark.parametrize("kw", [dict(max_deg=0.5), dict(step_deg=0.0), dict(step_deg=-1.0)],
                             ids=["max_below_start", "zero_step", "negative_step"])
    def test_empty_range_rejected(self, wscc_sys, monkeypatch, kw):
        # a step that does not advance would loop for ever while the error
        # stays in band; both are rejected before the baseline run
        monkeypatch.setattr(sim, "run_adaptive", lambda *a, **k: pytest.fail("a run started"))
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        with pytest.raises(ValueError, match="empty threshold range"):
            study.threshold_search(wscc_sys, None, scn, sim.SwitchPolicy(),
                                   max_error_deg=float("inf"), **kw)


class TestTiming:
    def test_self_ratio_near_one(self, wscc_sys):
        scn = sim.Scenario(fault_bus=7, t_clear=0.05, t_end=1.0)
        pol = sim.SwitchPolicy(mode="force_full")
        rows = study.timing_compare(
            wscc_sys, None, scn, pol, modes=("force_full", "force_full"),
            repetitions=5,
        )
        ratio = rows[0].median_s / rows[1].median_s
        assert 0.5 < ratio < 2.0

    def test_flop_model_relations(self, wscc_sys):
        n = wscc_sys.n_states
        full = study.count_flops_full(wscc_sys)
        red = study.count_flops_reduced(n, 30, 36)
        unf = study.count_flops_unfolded(n)
        assert red < 0.5 * unf
        assert study.count_flops_linear(n) < red
        # the dense unfolded evaluation dwarfs everything else
        assert unf > 100 * full

    def test_hybrid_flops_count_what_runs(self, wscc_sys, ring5_sys):
        # wscc9's default hybrid keeps every row full, so only the full
        # model runs; ring:5's reduces some rows, so both parents run
        assert study.count_flops_hybrid(wscc_sys, 30, 36) == study.count_flops_full(wscc_sys) == 531
        n = ring5_sys.n_states
        assert study.count_flops_hybrid(ring5_sys, 6, 5) == (
            study.count_flops_full(ring5_sys) + study.count_flops_reduced(n, 6, 5) + n)

    def test_modes_interleave(self, wscc_sys, wscc_model_set, monkeypatch):
        # one warm-up per mode, then each repetition runs every mode once,
        # so a busy spell of the host does not fall on one mode alone
        modes = []
        run = sim.run_adaptive

        def recorded(sys, ms, scenario, policy, dt):
            modes.append(policy.mode)
            return run(sys, ms, scenario, policy, dt)

        monkeypatch.setattr(sim, "run_adaptive", recorded)
        scn = sim.Scenario(fault_bus=7, t_clear=0.05, t_end=0.2)
        rows = study.timing_compare(wscc_sys, wscc_model_set, scn, sim.SwitchPolicy(),
                                    modes=("force_full", "force_taylor"), repetitions=2)
        assert modes == ["force_full", "force_taylor"] * 3
        assert [(r.mode, len(r.times_s), r.steps) for r in rows] == [
            ("force_full", 2, 20), ("force_taylor", 2, 20)]

    def test_repetition_floor(self, wscc_sys):
        scn = sim.Scenario(fault_bus=7, t_clear=0.05, t_end=0.5)
        with pytest.raises(ValueError):
            study.timing_compare(wscc_sys, None, scn,
                                 sim.SwitchPolicy(mode="force_full"),
                                 modes=("force_full",), repetitions=0)


class TestLoadSweep:
    def test_mini_sweep(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        rep = study.load_sweep(
            wscc_sys, wscc_model_set, pol, 7, levels=(0.95, 1.0, 1.15),
            t_end=8.0, cct_max=1.0,
        )
        assert len(rep.rows) == 3
        by_level = {r["level"]: r for r in rep.rows}
        assert [by_level[lv]["model_level"] for lv in (0.95, 1.0, 1.15)] == [1.0, 1.0, 1.2]
        for r in rep.rows:
            assert "swapped" not in r
            assert "max_rms_deg" in r
            assert r["cct_s"] > 0

    def test_report_writers(self, tmp_path, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        rep = study.load_sweep(
            wscc_sys, wscc_model_set, pol, 7, levels=(1.0,), t_end=4.0, cct_max=0.5,
        )
        rep.config["config_hash"] = "cafe"
        rep.write_json(tmp_path / "r.json")
        rep.write_csv(tmp_path / "r.csv")
        import json

        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["kind"] == "load_sweep"
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("# tensorsim")
        assert "level" in lines[1].split(",")
        # identical rewrite is byte-identical
        rep.write_json(tmp_path / "r2.json")
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
