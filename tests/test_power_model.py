import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tensorsim import cases
from tensorsim import power_model as pm
from tensorsim import simulate as sim


def two_bus_spec(load_p=1.0, load_q=0.0, bus2_type="PQ", x=0.1):
    raw = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "type": "slack", "v_set": 1.0},
            {"id": 2, "type": bus2_type, "v_set": 1.0, "pd": load_p, "qd": load_q},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.0, "x": x}],
        "machines": [
            dict(id="G1", bus=1, pg=load_p, h=5.0, d=1.0, xd=1.0, xq=0.8,
                 xdp=0.2, xqp=0.3, td0p=6.0, tq0p=0.8),
        ]
        + (
            [dict(id="G2", bus=2, pg=0.0, h=5.0, d=1.0, xd=1.0, xq=0.8,
                  xdp=0.2, xqp=0.3, td0p=6.0, tq0p=0.8)]
            if bus2_type == "PV"
            else []
        ),
        "areas": {
            "study": ["G2"] if bus2_type == "PV" else ["G1"],
            "external": ["G1"] if bus2_type == "PV" else [],
        },
    }
    return pm.parse_system(raw, source="two_bus")


class TestLoadSystem:
    def test_bundled_fixture(self, tmp_path):
        p = tmp_path / "sys.json"
        cases.write_case(cases.wscc9(), p)
        spec = pm.load_system(p)
        assert len(spec.machines) == 3
        assert len(spec.buses) == 9
        assert set(spec.study) == {"G2", "G3"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pm.load_system(tmp_path / "nope.json")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(pm.SystemDataError, match="empty"):
            pm.load_system(p)

    def test_parse_error_has_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"base_mva": 100,\n  "buses": [}')
        with pytest.raises(pm.SystemDataError, match="line 2"):
            pm.load_system(p)

    def test_duplicate_bus_id(self):
        raw = cases.wscc9()
        raw["buses"].append({"id": 1, "type": "PQ"})
        with pytest.raises(pm.SystemDataError, match="duplicate bus id"):
            pm.parse_system(raw)

    def test_areas_must_partition(self):
        raw = cases.wscc9()
        raw["areas"]["study"] = ["G2"]
        with pytest.raises(pm.SystemDataError, match="partition"):
            pm.parse_system(raw)

    def test_machine_invariants(self):
        with pytest.raises(pm.SystemDataError, match="xdp"):
            pm.MachineParams(id="B", bus=1, h=5, d=0, xd=0.5, xq=0.5,
                             xdp=0.6, xqp=0.4, td0p=6, tq0p=0.8)
        with pytest.raises(pm.SystemDataError, match="inertia"):
            pm.MachineParams(id="B", bus=1, h=0, d=0, xd=1.0, xq=0.8,
                             xdp=0.2, xqp=0.3, td0p=6, tq0p=0.8)


# any JSON value: what a system file may hold in place of a field
_JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats() | hs.text(max_size=4),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def ring5_raw():
    return cases.synthetic_ring(5)


class TestParseSystemInput:
    @pytest.mark.parametrize("section, value", [("buses", 5), ("machines", None),
                                                ("branches", "x"), ("areas", [])])
    def test_section_of_wrong_type(self, ring5_raw, section, value):
        raw = {**ring5_raw, section: value}
        with pytest.raises(pm.SystemDataError, match=section):
            pm.parse_system(raw, source="ring5")

    @settings(max_examples=300, deadline=None)
    @given(data=hs.data())
    def test_raises_only_system_data_error(self, ring5_raw, data):
        # replace (or, in an object, delete) one value at any depth of the
        # ring's sections; the parse either succeeds or says what is wrong
        raw = copy.deepcopy(ring5_raw)
        node, key = raw, data.draw(hs.sampled_from(sorted(raw)))
        while isinstance(node[key], (dict, list)) and node[key] and data.draw(hs.booleans()):
            node = node[key]
            key = data.draw(hs.sampled_from(sorted(node)) if isinstance(node, dict)
                            else hs.integers(0, len(node) - 1))
        if isinstance(node, dict) and data.draw(hs.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_JSON)
        try:
            pm.parse_system(raw, source="ring5")
        except pm.SystemDataError:
            pass


class TestPowerFlow:
    def test_flat_zero_load(self):
        spec = two_bus_spec(load_p=0.0)
        pf = pm.solve_power_flow(spec, 1.0)
        assert pf.max_mismatch < 1e-10
        assert np.allclose(np.abs(pf.v), 1.0, atol=1e-12)
        assert np.allclose(np.angle(pf.v), 0.0, atol=1e-12)

    def test_two_bus_pv_closed_form(self):
        # unit voltages held at both ends: P = sin(theta)/x
        spec = two_bus_spec(load_p=1.0, bus2_type="PV", x=0.1)
        pf = pm.solve_power_flow(spec, 1.0)
        theta2 = np.angle(pf.v[1])
        assert abs(abs(theta2) - math.asin(0.1)) < 1e-9

    def test_two_bus_pq_closed_form(self):
        spec = two_bus_spec(load_p=1.0, load_q=0.0, x=0.1)
        pf = pm.solve_power_flow(spec, 1.0)
        # quadratic closed form: |V2|^2 = a, V2 = a - j*x*P
        a = (1 + math.sqrt(1 - 4 * 0.1**2 * 1.0**2)) / 2
        assert abs(pf.v[1].real - a) < 1e-9
        assert abs(pf.v[1].imag + 0.1) < 1e-9

    def test_wscc_converges_in_band(self, wscc_spec):
        pf = pm.solve_power_flow(wscc_spec, 1.0)
        assert pf.max_mismatch < 1e-8
        assert np.all(np.abs(pf.v) > 0.9) and np.all(np.abs(pf.v) < 1.1)

    def test_power_balance(self, wscc_spec):
        for lv in (0.8, 1.0, 1.2):
            pf = pm.solve_power_flow(wscc_spec, lv)
            gen = pf.machine_s.real.sum()
            load = sum(b.pd for b in wscc_spec.buses) * lv
            ybus = pm.build_ybus(wscc_spec)
            s = pf.v * np.conj(ybus @ pf.v)
            losses = s.real.sum()
            assert abs(gen - load - losses) < 1e-6

    def test_infeasible_level(self, wscc_spec):
        with pytest.raises(pm.PowerFlowError):
            pm.solve_power_flow(wscc_spec, 10.0)

    def test_ybus_symmetric_without_taps(self, wscc_spec):
        y = pm.build_ybus(wscc_spec)
        assert np.max(np.abs(y - y.T)) < 1e-14


class TestKronReduce:
    def test_star_to_delta(self):
        # center node 0 with admittances y1, y2, y3 to nodes 1..3
        y1, y2, y3 = 2.0 - 4.0j, 1.0 - 2.0j, 0.5 - 1.0j
        ys = y1 + y2 + y3
        y = np.zeros((4, 4), dtype=complex)
        for i, yi in enumerate((y1, y2, y3), start=1):
            y[0, 0] += yi
            y[i, i] += yi
            y[0, i] -= yi
            y[i, 0] -= yi
        red = pm.kron_reduce(y, [1, 2, 3])
        for i, yi in enumerate((y1, y2, y3)):
            for j, yj in enumerate((y1, y2, y3)):
                if i != j:
                    assert abs(red[i, j] + yi * yj / ys) < 1e-12

    def test_no_elimination(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        red = pm.kron_reduce(y, range(4))
        assert np.array_equal(red, y)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        y = a + a.T + 10 * np.eye(6)
        keep = [0, 2, 5]
        elim = [1, 3, 4]
        red = pm.kron_reduce(y, keep)
        expect = y[np.ix_(keep, keep)] - y[np.ix_(keep, elim)] @ np.linalg.solve(
            y[np.ix_(elim, elim)], y[np.ix_(elim, keep)]
        )
        assert np.max(np.abs(red - expect)) < 1e-12

    def test_singular_block(self):
        y = np.zeros((3, 3), dtype=complex)
        y[0, 0] = 1.0
        with pytest.raises(pm.NetworkError):
            pm.kron_reduce(y, [0])

    def test_schur_back_substitution(self, wscc_spec):
        # eliminating then re-expanding reproduces the current balance
        pf = pm.solve_power_flow(wscc_spec, 1.0)
        n = len(wscc_spec.buses)
        m = len(wscc_spec.machines)
        y = np.zeros((n + m, n + m), dtype=complex)
        y[:n, :n] = pm.build_ybus(wscc_spec)
        vmag2 = np.abs(pf.v) ** 2
        idx = wscc_spec.bus_index()
        for b in wscc_spec.buses:
            i = idx[b.id]
            y[i, i] += np.conj(complex(b.pd, b.qd)) / vmag2[i]
        for k, mach in enumerate(wscc_spec.machines):
            ym = 1.0 / complex(0.0, mach.xdp)
            i, g = idx[mach.bus], n + k
            y[g, g] += ym
            y[i, i] += ym
            y[g, i] -= ym
            y[i, g] -= ym
        red = pm.kron_reduce(y, range(n, n + m))
        rng = np.random.default_rng(2)
        e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        i_int = red @ e
        v_elim = -np.linalg.solve(y[:n, :n], y[:n, n:] @ e)
        assert np.max(np.abs(y[n:, n:] @ e + y[n:, :n] @ v_elim - i_int)) < 1e-10
        assert np.max(np.abs(y[:n, :n] @ v_elim + y[:n, n:] @ e)) < 1e-10


class TestEquilibrium:
    def test_wscc_residual(self, wscc_sys):
        r = pm.f_full(wscc_sys.x0, wscc_sys)
        assert np.max(np.abs(r)) < 1e-8

    def test_all_levels_residual(self, wscc_spec):
        for lv in np.round(np.arange(0.80, 1.2001, 0.05), 2):
            sys_l = pm.build_system(wscc_spec, float(lv))
            r = pm.f_full(sys_l.x0, sys_l)
            assert np.max(np.abs(r)) < 1e-8, lv

    def test_machine_on_stiff_bus_zero_load(self):
        # no flow: rotor aligned with terminal voltage, no electrical power
        spec = two_bus_spec(load_p=0.0, bus2_type="PV")
        sys = pm.build_system(spec, 1.0)
        k = sys.machine_pos("G2")
        assert abs(sys.x0[k * 9 + 0] - np.angle(sys.pf.v[1])) < 1e-10
        assert abs(sys.machines[k].pref) < 1e-10
        assert np.max(np.abs(pm.f_full(sys.x0, sys))) < 1e-10

    def test_corrupted_vref_detected(self, wscc_spec):
        pf = pm.solve_power_flow(wscc_spec, 1.0)
        sys = pm.init_equilibrium(wscc_spec, pf)
        import dataclasses

        bad = dataclasses.replace(sys.machines[0], vref=sys.machines[0].vref + 0.05)
        machines = [bad] + sys.machines[1:]
        broken = pm.SystemModel(
            spec=sys.spec, load_level=1.0, pf=pf, machines=machines,
            x0=sys.x0, y_red=sys.y_red, study=sys.study, external=sys.external,
        )
        r = pm._rhs(broken, broken.y_red, broken.x0)
        assert np.max(np.abs(r)) > 1e-3


class TestFullRhs:
    def test_delta_row_depends_only_on_omega(self, wscc_sys):
        x = wscc_sys.x0.copy()
        x[0] += 1e-3  # G1 delta
        r = pm.f_full(x, wscc_sys)
        assert r[0] == 0.0  # delta-dot unchanged at omega = 1
        assert abs(r[1]) > 1e-6  # omega-dot sees the angle change

    def test_fault_drops_electrical_power(self, wscc_sys):
        yred_f = pm.apply_fault(wscc_sys, 2)
        x = wscc_sys.x0
        # omega-dot jumps positive when Pe collapses at the faulted machine
        r_pre = pm._rhs(wscc_sys, wscc_sys.y_red, x)
        r_flt = pm._rhs(wscc_sys, yred_f, x)
        k = wscc_sys.machine_pos("G2")
        assert r_flt[k * 9 + 1] > r_pre[k * 9 + 1] + 1e-3

    def test_fault_changes_reduced_matrix(self, wscc_sys):
        assert not np.allclose(pm.apply_fault(wscc_sys, 7), wscc_sys.y_red)

    def test_unknown_fault_bus(self, wscc_sys):
        with pytest.raises(pm.SystemDataError):
            pm.apply_fault(wscc_sys, 99)

    def test_missing_fault_bus(self, wscc_sys):
        with pytest.raises(pm.SystemDataError):
            pm.apply_fault(wscc_sys, None)

    def test_faulted_bus_voltage_near_zero(self, wscc_spec):
        pf = pm.solve_power_flow(wscc_spec, 1.0)
        sys = pm.init_equilibrium(wscc_spec, pf)
        fault_bus = 7
        n = len(wscc_spec.buses)
        m = len(wscc_spec.machines)
        y = np.zeros((n + m, n + m), dtype=complex)
        y[:n, :n] = pm.build_ybus(wscc_spec)
        idx = wscc_spec.bus_index()
        vmag2 = np.abs(pf.v) ** 2
        for b in wscc_spec.buses:
            i = idx[b.id]
            y[i, i] += np.conj(complex(b.pd, b.qd)) / vmag2[i]
        y[idx[fault_bus], idx[fault_bus]] += pm.FAULT_ADMITTANCE
        for k, mach in enumerate(wscc_spec.machines):
            ym = 1.0 / complex(0.0, mach.xdp)
            i, g = idx[mach.bus], n + k
            y[g, g] += ym
            y[i, i] += ym
            y[g, i] -= ym
            y[i, g] -= ym
        # internal voltages at equilibrium
        xs = sys.x0.reshape(m, 9)
        u = np.sin(xs[:, 0]) - 1j * np.cos(xs[:, 0])
        e_net = (xs[:, 3] + 1j * xs[:, 2]) * u
        v_bus = -np.linalg.solve(y[:n, :n], y[:n, n:] @ e_net)
        assert abs(v_bus[idx[fault_bus]]) < 1e-4

    def test_zero_duration_fault_is_no_fault(self, wscc_sys):
        pol = sim.SwitchPolicy(mode="force_full")
        scn0 = sim.Scenario(fault_bus=7, t_clear=0.0, t_end=1.0)
        base = sim.run_adaptive(wscc_sys, None, scn0, pol)
        # same horizon with no fault interval behaves identically
        assert np.max(np.abs(base.states - wscc_sys.x0)) < 1e-9

    def test_uniform_angle_shift_invariance(self, wscc_sys):
        x = wscc_sys.x0.copy()
        rng = np.random.default_rng(3)
        x += 0.01 * rng.standard_normal(x.size)
        shifted = x.copy()
        shifted[0::9] += 0.7
        r1 = pm.f_full(x, wscc_sys)
        r2 = pm.f_full(shifted, wscc_sys)
        # every row except the angle rows is invariant; angle rows depend
        # only on speed, so they match too
        assert np.max(np.abs(r1 - r2)) < 1e-10


def _rhs_reference(sys, yred, x):
    """The right-hand side with every constant evaluated in place, each
    row divided on its own: the oracle for the bytes of ``pm._rhs``."""
    p = {k: np.array([getattr(mach, k) for mach in sys.machines]) for k in (
        "h", "d", "xd", "xq", "xdp", "xqp", "td0p", "tq0p", "ka", "ta", "ke",
        "te", "kf", "tf", "aex", "bex", "r_droop", "tg", "tch", "vref", "pref")}
    xs = x.reshape(x.shape[:-1] + (sys.n_machines, 9))
    delta, omega, eqp, edp, efd, vr, rf, pm_, pgv = (xs[..., j] for j in range(9))
    u = np.sin(delta) - 1j * np.cos(delta)
    e_net = (edp + 1j * eqp) * u
    i_net = e_net @ yred.T
    i_mach = i_net * np.conj(u)
    id_ = i_mach.real
    iq = i_mach.imag
    pe = edp * id_ + eqp * iq
    vt = np.abs(e_net - 1j * p["xdp"] * i_net)
    dom = omega - 1.0
    se = p["aex"] * np.exp(p["bex"] * efd)
    out = np.empty_like(xs)
    out[..., 0] = pm.OMEGA_S * dom
    out[..., 1] = (pm_ - pe - p["d"] * dom) / (2.0 * p["h"])
    out[..., 2] = (-eqp - (p["xd"] - p["xdp"]) * id_ + efd) / p["td0p"]
    out[..., 3] = (-edp + (p["xq"] - p["xqp"]) * iq) / p["tq0p"]
    out[..., 4] = (-(p["ke"] + se) * efd + vr) / p["te"]
    out[..., 5] = (
        -vr + p["ka"] * rf - (p["ka"] * p["kf"] / p["tf"]) * efd
        + p["ka"] * (p["vref"] - vt)
    ) / p["ta"]
    out[..., 6] = (-rf + (p["kf"] / p["tf"]) * efd) / p["tf"]
    out[..., 7] = (-pm_ + pgv) / p["tch"]
    out[..., 8] = (-pgv + p["pref"] - dom / p["r_droop"]) / p["tg"]
    return out.reshape(x.shape)


class TestRhsBytes:
    """``_rhs`` folds its constants and divides once; every bit must stay
    what the per-row formula gives."""

    @pytest.mark.parametrize("network", ["prefault", "faulted"])
    @pytest.mark.parametrize("system", ["wscc9", "ring5"])
    def test_matches_reference(self, request, system, network):
        sys_m = request.getfixturevalue("wscc_sys" if system == "wscc9" else "ring5_sys")
        yred = (sys_m.y_red if network == "prefault"
                else pm.apply_fault(sys_m, sys_m.machines[-1].bus))
        rng = np.random.default_rng(11)
        batch = sys_m.x0 + 0.05 * rng.standard_normal((16, sys_m.n_states))
        cases = [sys_m.x0, *batch[:4], batch, batch.reshape(2, 8, -1),
                 batch[:4].astype(np.longdouble), batch[0].astype(np.longdouble)]
        for x in cases:
            got = pm._rhs(sys_m, yred, x)
            ref = _rhs_reference(sys_m, yred, x)
            assert got.dtype == ref.dtype == x.dtype and got.shape == x.shape
            if x.dtype == np.float64:
                assert got.tobytes() == ref.tobytes()
            else:
                # extended precision carries uninitialised padding bytes;
                # finite values that are equal and share their sign have
                # the same significant bits
                assert np.all(np.isfinite(ref))
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestColumnNorms:
    def test_two_generator_tie(self):
        yred = np.array([[-5j, 5j], [5j, -5j]])  # single tie of -5j
        norms = pm.reduced_column_norms(yred, study_rows=[0], columns=[1])
        assert abs(norms[0] - 5.0) < 1e-12

    def test_zero_coupling(self):
        yred = np.diag([1.0 + 0j, 2.0 + 0j])
        norms = pm.reduced_column_norms(yred, study_rows=[0], columns=[1])
        assert norms[0] == 0.0

    def test_nonnegative_and_permutation_invariant(self, wscc_sys):
        norms = pm.admittance_column_norms(wscc_sys)
        assert all(v >= 0 for v in norms.values())
        rows = wscc_sys.study_idx
        direct = pm.reduced_column_norms(wscc_sys.y_red, rows, wscc_sys.external_idx)
        permuted = pm.reduced_column_norms(wscc_sys.y_red, rows[::-1], wscc_sys.external_idx)
        assert np.allclose(direct, permuted)


class TestEnergyConsistency:
    def test_kinetic_energy_integration_consistency(self):
        # undamped machines, controller states frozen: the kinetic energy
        # trace at dt=0.01 must agree with a 4x finer reference
        raw = cases.wscc9()
        for mrec in raw["machines"]:
            mrec["d"] = 0.0
        spec = pm.parse_system(raw)
        sys = pm.build_system(spec, 1.0)
        frozen = np.zeros(27, dtype=bool)
        for k in range(3):
            frozen[k * 9 + 4 : k * 9 + 9] = True  # efd, vr, rf, pm, pgv

        def rhs(x):
            r = pm._rhs(sys, sys.y_red, x)
            r[frozen] = 0.0
            return r

        x = sys.x0.copy()
        x[0::9] += np.array([0.03, -0.02, 0.05])
        h = np.array([m.h for m in sys.machines])

        def kinetic(states):
            w = states[:, 1::9]
            return np.sum(h * (w - 1.0) ** 2, axis=1)

        coarse = sim.integrate(rhs, x, (0.0, 1.0), 0.01)
        fine = sim.integrate(rhs, x, (0.0, 1.0), 0.0025)
        ke_c = kinetic(coarse.states)
        ke_f = kinetic(fine.states[::4])
        assert np.max(np.abs(ke_c - ke_f)) < 1e-4
