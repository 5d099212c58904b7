import math
from dataclasses import replace

import numpy as np
import pytest

from tensorsim import power_model as pm
from tensorsim import simulate as sim
from tensorsim import study
from tensorsim.taylor import ModelSet


class TestIntegrate:
    def test_constant_when_derivative_zero(self):
        traj = sim.integrate(lambda x: np.zeros_like(x), np.array([2.0, -1.0]), (0, 1), 0.1)
        assert np.all(traj.states == np.array([2.0, -1.0]))
        assert traj.completed

    def test_exponential_decay_accuracy(self):
        traj = sim.integrate(lambda x: -x, np.array([1.0]), (0, 1), 0.01)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        def err(dt):
            traj = sim.integrate(lambda x: -x, np.array([1.0]), (0, 1), dt)
            return abs(traj.states[-1, 0] - math.exp(-1.0))

        ratio = err(0.02) / err(0.01)
        assert 14.0 <= ratio <= 18.0

    def test_blowup_truncates_and_flags(self):
        traj = sim.integrate(lambda x: x * x, np.array([5.0]), (0, 10), 0.1)
        assert not traj.completed
        assert traj.blowup_time is not None
        assert len(traj.times) == traj.states.shape[0]

    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            sim.integrate(lambda x: x, np.zeros(1), (0, 1), 0.0)
        # a span that ends before it starts is named, whatever its length
        for span in ((1.0, 0.9), (1.0, 0.0)):
            with pytest.raises(ValueError, match=rf"t_span \({span[0]}, {span[1]}\)"):
                sim.integrate(lambda x: x, np.zeros(1), span, 0.1)

    def test_nonzero_start_time(self):
        traj = sim.integrate(lambda x: -x, np.array([1.0]), (0.5, 1.5), 0.01)
        assert traj.times[0] == 0.5
        assert abs(traj.times[-1] - 1.5) < 1e-12
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9
        blown = sim.integrate(lambda x: x * x, np.array([5.0]), (2.0, 12.0), 0.1)
        assert blown.times[0] == 2.0
        # the blow-up time counts from the span's start, one step past the
        # last finite state
        assert blown.blowup_time == pytest.approx(blown.times[-1] + 0.1)
        assert blown.blowup_time > 2.0


class TestRotorDeviation:
    def test_zero_at_base(self, wscc_sys):
        assert sim.max_rotor_deviation(wscc_sys.x0, wscc_sys.x0, 0, [1, 2]) == 0.0

    def test_single_angle_conversion(self, wscc_sys):
        x = wscc_sys.x0.copy()
        x[9] += 0.1  # G2 delta, study machine, reference G1
        dev = sim.max_rotor_deviation(x, wscc_sys.x0, 0, [1, 2])
        assert abs(dev - math.degrees(0.1)) < 1e-9

    def test_uniform_shift_reads_zero(self, wscc_sys):
        x = wscc_sys.x0.copy()
        x[0::9] += 1.3
        assert sim.max_rotor_deviation(x, wscc_sys.x0, 0, [1, 2]) < 1e-12


class TestReferenceSelection:
    def _toy(self, h_values, norms):
        class Mach:
            def __init__(self, id, h):
                self.id, self.h = id, h

        class Toy:
            machines = [Mach(f"G{i+1}", h) for i, h in enumerate(h_values)]
            external = tuple(f"G{i+1}" for i in range(len(h_values)))
            study = ()

        return Toy(), {f"G{i+1}": v for i, v in enumerate(norms)}

    def test_max_inertia_wins(self):
        toy, norms = self._toy([3.0, 9.0, 5.0], [0.5, 0.5, 0.5])
        best, fb = sim.select_reference_generator(toy, norms)
        assert best == "G2" and not fb

    def test_tie_break_lowest_id(self):
        toy, norms = self._toy([4.0, 4.0, 4.0], [0.5, 0.5, 0.5])
        best, fb = sim.select_reference_generator(toy, norms)
        assert best == "G1" and not fb

    def test_fallback_when_all_close(self):
        toy, norms = self._toy([3.0, 9.0, 5.0], [2.0, 2.0, 2.0])
        best, fb = sim.select_reference_generator(toy, norms)
        assert best == "G2" and fb


class TestActiveLevel:
    """``ModelSet.model_for``: the nearest representative level's model
    serves a scenario; each level stands in for its model here."""

    @staticmethod
    def _set(levels, missing=()):
        return ModelSet(levels=levels, models={lv: lv for lv in levels if lv not in missing})

    # swapped: served by another model than the nominal level's
    @pytest.mark.parametrize(
        "scenario_level,expected,swapped",
        [
            (1.0, 1.0, False),
            (1.05, 1.0, False),
            (1.10, 1.0, False),  # 1.0 and 1.2 tie, within float residue: nominal wins
            (1.15, 1.2, True),
            (1.20, 1.2, True),
            (0.90, 1.0, False),  # 0.8 and 1.0 tie likewise
            (0.85, 0.8, True),
            (0.80, 0.8, True),
        ],
    )
    def test_swap_rule(self, scenario_level, expected, swapped):
        ms = self._set((0.8, 1.0, 1.2))
        assert ms.model_for(scenario_level) == expected
        assert (ms.model_for(scenario_level) != ms.model_for(1.0)) == swapped

    def test_no_level_on_change_side(self):
        assert self._set((1.0,)).model_for(1.5) == 1.0

    def test_nearest_level_inside_ten_percent(self):
        # 1.08 is within 10 % of nominal, yet nearer 1.1
        assert self._set((0.9, 1.0, 1.1)).model_for(1.08) == 1.1

    def test_tie_without_nominal_goes_to_lower(self):
        assert self._set((0.9, 1.1)).model_for(1.0) == 0.9

    def test_missing_model(self):
        ms = self._set((0.8, 1.0, 1.2), missing=(1.0,))
        assert ms.model_for(0.8) == 0.8
        with pytest.raises(ValueError, match="missing model for required level 1.0"):
            ms.model_for(1.05)


class TestRunAdaptive:
    def test_huge_threshold_goes_straight_to_taylor(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy(angle_threshold_deg=1e9)
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        post = [m for m in traj.modes[10:]]
        assert set(post) == {"taylor"}

    def test_tiny_threshold_stays_hybrid(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy(angle_threshold_deg=1e-9)
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=2.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        assert set(traj.modes[10:]) == {"hybrid"}

    def test_fault_on_is_always_full(self, wscc_sys, wscc_model_set):
        for mode in sim.MODES:
            pol = sim.SwitchPolicy(mode=mode)
            scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=0.5)
            ms = None if mode == "force_full" else wscc_model_set
            traj = sim.run_adaptive(wscc_sys, ms, scn, pol)
            assert set(traj.modes[:10]) == {"full"}, mode

    def test_exhaustive_single_mode_per_step(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        scn = sim.Scenario(fault_bus=7, t_clear=0.15, t_end=4.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        assert len(traj.modes) == traj.n_steps
        assert set(traj.modes) <= {"full", "hybrid", "taylor"}
        # reconstruct per-step modes from the switch log and compare
        events = [e for e in traj.switch_log if e.from_mode != e.to_mode or e.t == 0.0]
        recon = []
        for k in range(traj.n_steps):
            t = k * 0.01
            mode = "full"
            for e in traj.switch_log:
                if e.t <= t + 1e-12 and e.to_mode in ("full", "hybrid", "taylor", "linear"):
                    mode = e.to_mode
            recon.append(mode)
        assert recon == traj.modes

    def test_one_way_switching(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        c = study.cct_search(wscc_sys, None, replace(pol, mode="force_full"), 7)
        dur = round(int(0.9 * c.stable_steps) * 0.01, 10)
        scn = sim.Scenario(fault_bus=7, t_clear=dur, t_end=16.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        modes = traj.modes
        # full -> hybrid -> taylor with no reversals
        order = {"full": 0, "hybrid": 1, "taylor": 2}
        post = [order[m] for m in modes[int(dur / 0.01):]]
        assert all(a <= b for a, b in zip(post, post[1:]))
        kinds = [(e.from_mode, e.to_mode) for e in traj.switch_log if e.from_mode != e.to_mode and e.from_mode != "none"]
        assert ("full", "hybrid") in kinds
        assert ("hybrid", "taylor") in kinds

    def test_large_disturbance_accuracy_vs_hybrid(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        c = study.cct_search(wscc_sys, None, replace(pol, mode="force_full"), 7)
        dur = round(int(0.9 * c.stable_steps) * 0.01, 10)
        scn = sim.Scenario(fault_bus=7, t_clear=dur, t_end=16.0)
        base = sim.run_adaptive(wscc_sys, None, scn, replace(pol, mode="force_full"))
        adap = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        hyb = sim.run_adaptive(wscc_sys, wscc_model_set, scn, replace(pol, mode="force_hybrid"))
        rms_adap = max(study.rms_error(adap, base, wscc_sys).values())
        rms_hyb = max(study.rms_error(hyb, base, wscc_sys).values())
        assert rms_adap <= rms_hyb + 6.0  # switching penalty stays within the error band

    def test_determinism(self, wscc_sys, wscc_model_set):
        pol = sim.SwitchPolicy()
        scn = sim.Scenario(fault_bus=7, t_clear=0.12, t_end=3.0)
        a = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        b = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        assert np.array_equal(a.states, b.states)
        assert [vars(e) for e in a.switch_log] == [vars(e) for e in b.switch_log]

    def test_zero_disturbance_fixed_point_all_modes(self, wscc_sys, wscc_model_set):
        scn = sim.Scenario(fault_bus=7, t_clear=0.0, t_end=16.0)
        for mode in sim.MODES:
            pol = sim.SwitchPolicy(mode=mode)
            ms = None if mode == "force_full" else wscc_model_set
            traj = sim.run_adaptive(wscc_sys, ms, scn, pol)
            drift = np.max(np.abs(traj.states - wscc_sys.x0))
            assert drift < 1e-6, (mode, drift)

    def test_missing_level_model(self, wscc_sys, wscc_model_set):
        broken = ModelSet(levels=(0.8, 1.0, 1.2),
                          models={0.8: wscc_model_set.models[0.8]})
        pol = sim.SwitchPolicy()
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="missing model"):
            sim.run_adaptive(wscc_sys, broken, scn, pol)

    def test_off_grid_times_rejected(self, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        scn = sim.Scenario(fault_bus=7, t_clear=0.105, t_end=1.0)
        with pytest.raises(ValueError, match="grid"):
            sim.run_adaptive(wscc_sys, None, scn, pol)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
    def test_bad_dt_rejected(self, wscc_sys, dt):
        pol = sim.SwitchPolicy(mode="force_full")
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="dt must be > 0"):
            sim.run_adaptive(wscc_sys, None, scn, pol, dt)

    def test_wrong_load_level_rejected(self, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=1.0, load_level=0.9)
        with pytest.raises(ValueError, match="load level"):
            sim.run_adaptive(wscc_sys, None, scn, pol)

    def test_instability_stop(self, wscc_sys, wscc_model_set):
        # a fault held well past the CCT: the run ends on the first step
        # whose study-area angle leaves the limit, with that step kept
        scn = sim.Scenario(fault_bus=7, t_clear=0.4, t_end=3.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, sim.SwitchPolicy(),
                                instability_stop_deg=180)
        assert not traj.completed
        assert traj.blowup_time is None
        assert traj.unstable_at == traj.n_steps * 0.01
        assert traj.n_steps < 300
        assert traj.states.shape[0] == traj.n_steps + 1
        assert len(traj.modes) == traj.n_steps
        ref, _ = sim.select_reference_generator(wscc_sys)
        swing = np.max([np.abs(study.relative_angles(traj, wscc_sys, g, ref))
                        for g in wscc_sys.study], axis=0)
        assert swing[-1] > math.pi and np.all(swing[:-1] <= math.pi)

    def test_blowup_truncates(self, wscc_sys, wscc_model_set):
        # the Taylor model alone diverges after a long fault; the run keeps
        # the finite states and drops the step that blew up
        pol = sim.SwitchPolicy(mode="force_taylor")
        scn = sim.Scenario(fault_bus=7, t_clear=0.3, t_end=3.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        assert not traj.completed
        assert traj.unstable_at is None
        assert traj.blowup_time == pytest.approx((traj.n_steps + 1) * 0.01)
        assert traj.n_steps < 300
        assert np.all(np.isfinite(traj.states))
        assert traj.states.shape[0] == traj.n_steps + 1
        assert len(traj.modes) == traj.n_steps


def _plain_march(states, dt, rhs, stop=None):
    """Reference RK4 loop: every step of the view is taken."""
    x = states[0]
    for k in range(1, len(states)):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            return k - 1, "blowup"
        states[k] = x
        end = stop is not None and stop(x)
        if end:
            return k, end
    return len(states) - 1, None


class TestSettledExit:
    """A segment that reaches a state its next step returns bit for bit
    ends there; the trajectory must equal the one stepped to the horizon."""

    @pytest.mark.parametrize("level,mode,t_fault_on,t_clear,settles", [
        (0.8, "force_full", 0.0, 0.0, True),
        (1.0, "adaptive", 0.0, 0.0, True),
        # at equilibrium before the fault: the pre-fault segment settles,
        # and the fault must still be applied
        (0.8, "force_full", 0.2, 0.3, False),
        (0.8, "force_full", 1.0, 1.1, False),
    ])
    def test_matches_every_step(self, monkeypatch, wscc_spec, wscc_model_set,
                                level, mode, t_fault_on, t_clear, settles):
        sys_l = pm.build_system(wscc_spec, level)
        scn = sim.Scenario(fault_bus=7, t_fault_on=t_fault_on, t_clear=t_clear,
                           load_level=level)
        ms = None if mode == "force_full" else wscc_model_set
        pol = sim.SwitchPolicy(mode=mode)

        evals = []  # right-hand-side evaluations per segment
        march = sim._march

        def counting_march(states, dt, rhs, stop=None):
            evals.append(0)

            def counted(x):
                evals[-1] += 1
                return rhs(x)
            return march(states, dt, counted, stop)

        monkeypatch.setattr(sim, "_march", counting_march)
        got = sim.run_adaptive(sys_l, ms, scn, pol, instability_stop_deg=180)
        monkeypatch.setattr(sim, "_march", _plain_march)
        ref = sim.run_adaptive(sys_l, ms, scn, pol, instability_stop_deg=180)

        assert got.times.tobytes() == ref.times.tobytes()
        assert got.states.tobytes() == ref.states.tobytes()
        assert got.modes == ref.modes
        assert [vars(e) for e in got.switch_log] == [vars(e) for e in ref.switch_log]
        assert (got.completed, got.blowup_time, got.unstable_at) == (
            ref.completed, ref.blowup_time, ref.unstable_at)
        assert ref.completed and ref.n_steps == 1600
        stepped = [n // 4 for n in evals]  # four evaluations per RK4 step
        assert (sum(stepped) < 100) == settles
        if t_fault_on > 0:
            # this equilibrium settles within 10 steps of the pre-fault segment
            assert stepped[0] <= 10

    def test_lanes_leave_when_settled(self, wscc_spec):
        # a lane at a state its step returns bit for bit leaves as stable
        # after that step; the last lane is handed on with its step and its
        # state, goes on alone as one state and ends stable after its own
        # steps
        sys_l = pm.build_system(wscc_spec, 0.8)  # settles within 10 steps
        evals, reports = [], []

        def rhs(x):
            evals.append(x.shape)
            return pm._rhs(sys_l, sys_l.y_red, x)

        settled = sim.integrate(rhs, sys_l.x0, (0.0, 0.1), 0.01).states[-1]
        assert sim._rk4(rhs, settled, 0.01).tobytes() == settled.tobytes()
        x = np.stack([settled, sys_l.x0 + 1e-3])[:, None, :]
        del evals[:]

        def report(verdicts):
            reports.append(verdicts)
            return {"moved"}

        handed = []

        def alone(lane, t, state):
            handed.append((lane, t))
            return sim.integrate(rhs, state, (t * 0.01, 0.05), 0.01).completed

        sim._march_lanes(x, ["settled", "moved"], [5, 5], 0.01, rhs, None, report, alone)
        assert reports == [{"settled": True}, {"moved": True}]
        assert handed == [("moved", 1)]
        assert evals == [(2, 1, 27)] * 4 + [(27,)] * 16

    def test_integrate_signed_zero(self, monkeypatch):
        # From -0.0 the first step returns +0.0, equal in value but not in
        # bytes.  This right-hand side tells the two zeros apart, so the
        # state moves on from +0.0; an exit on == would stop at +0.0.
        dt = 0.1
        table = {0.5 * dt: -1.0, -0.5 * dt: 5.0}

        def rhs(x):
            v = x.item(0)
            if v == 0.0:
                return np.array([0.0 if math.copysign(1.0, v) < 0 else 1.0])
            return np.array([table.get(v, 0.0)])

        got = sim.integrate(rhs, np.array([-0.0]), (0, 1), dt)
        monkeypatch.setattr(sim, "_march", _plain_march)
        ref = sim.integrate(rhs, np.array([-0.0]), (0, 1), dt)
        assert got.states.tobytes() == ref.states.tobytes()
        assert ref.states[1, 0] == 0.0 and ref.states[-1, 0] > 0.0


class TestExports:
    def test_trajectory_csv(self, tmp_path, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        scn = sim.Scenario(fault_bus=7, t_clear=0.05, t_end=0.2)
        traj = sim.run_adaptive(wscc_sys, None, scn, pol)
        p = tmp_path / "traj.csv"
        sim.export_trajectory_csv(traj, wscc_sys, p, {"config_hash": "deadbeef"})
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# tensorsim")
        assert "config_hash=deadbeef" in lines[0]
        header = lines[1].split(",")
        assert header[0] == "time" and header[1] == "G1.delta"
        assert len(lines) == 2 + len(traj.times)
        data = np.loadtxt(p, delimiter=",", skiprows=2)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states)

    def test_switch_log_jsonl(self, tmp_path, wscc_sys, wscc_model_set):
        import json

        pol = sim.SwitchPolicy()
        scn = sim.Scenario(fault_bus=7, t_clear=0.1, t_end=1.0)
        traj = sim.run_adaptive(wscc_sys, wscc_model_set, scn, pol)
        p = tmp_path / "sw.jsonl"
        sim.export_switch_log(traj, p, {"config_hash": "deadbeef"})
        recs = [json.loads(line) for line in p.read_text().splitlines()]
        assert recs[0]["format"] == "switchlog-v1"
        assert recs[0]["config_hash"] == "deadbeef"
        assert all({"t", "from", "to", "reason", "level"} <= set(r) for r in recs[1:])
