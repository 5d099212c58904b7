import copy
import dataclasses
import functools
import hashlib
import itertools
import logging
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from tensorsim import cases
from tensorsim import power_model as pm
from tensorsim import taylor, tensor_ops
from tensorsim.tensor_ops import (
    Tensor, cp_als, cp_decompose, cp_exact, cp_reconstruct, kron, matricize_mode1,
    mode_k_product,
)


class TestFdEngine:
    def test_scalar_square_probe(self):
        # f(x) = x^2 at x0=1: first derivative 2, half second derivative 1,
        # sixth third derivative 0
        f = lambda x: np.atleast_2d(np.asarray(x)) ** 2
        x0 = np.array([1.0])
        a1 = taylor.fd_derivative_tensor(f, x0, 1).array
        t2 = taylor.fd_derivative_tensor(f, x0, 2)
        t3 = taylor.fd_derivative_tensor(f, x0, 3)
        assert abs(a1[0, 0] - 2.0) < 1e-8
        assert abs(t2.array[0, 0, 0] - 1.0) < 1e-6
        assert abs(t3.array[0, 0, 0, 0]) < 1e-4

    def test_cubic_polynomial_is_exact(self):
        # stencils are exact on cubics up to rounding
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 3, 3))
        q = (q + q.transpose(0, 2, 1)) / 2
        c = rng.standard_normal((3, 3, 3, 3))
        c = sum(c.transpose((0,) + p) for p in ((1, 2, 3), (1, 3, 2), (2, 1, 3),
                                                (2, 3, 1), (3, 1, 2), (3, 2, 1))) / 6
        a = rng.standard_normal((3, 3))

        def f(x):
            x = np.atleast_2d(np.asarray(x))
            lin = x @ a.T
            quad = np.einsum("ijk,bj,bk->bi", q, x, x)
            cub = np.einsum("ijkl,bj,bk,bl->bi", c, x, x, x)
            return lin + quad + cub

        x0 = np.zeros(3)
        t2 = taylor.fd_derivative_tensor(f, x0, 2)
        t3 = taylor.fd_derivative_tensor(f, x0, 3)
        assert np.max(np.abs(t2.array - q)) < 1e-7
        assert np.max(np.abs(t3.array - c)) < 1e-6

    def test_richardson_refines_first_derivative(self):
        # the plain stencil errs by h^2 |f'''| / 6; the Richardson pass cancels
        # that term and leaves O(h^4) plus rounding
        f = lambda x: np.sin(np.atleast_2d(np.asarray(x)))
        x0 = np.array([0.3, 1.1, -2.0, 2.9])
        plain = taylor.fd_derivative_tensor(f, x0, 1).array
        refined = taylor.fd_derivative_tensor(f, x0, 1, refine=True).array
        err_plain = np.abs(np.diag(plain) - np.cos(x0))
        err_refined = np.abs(np.diag(refined) - np.cos(x0))
        assert np.all(err_refined * 100.0 <= err_plain)


class TestJacobian:
    def test_column_major(self, wscc_sys):
        # BLAS sums a1 @ dx in a layout-dependent order; model sets and
        # trajectories carry the column-major layout's bits
        assert taylor.jacobian(wscc_sys).flags.f_contiguous

    def test_delta_rows(self, wscc_sys):
        a1 = taylor.jacobian(wscc_sys)
        for k in range(3):
            row = a1[k * 9].copy()
            assert abs(row[k * 9 + 1] - pm.OMEGA_S) < 1e-6
            row[k * 9 + 1] = 0.0
            assert np.max(np.abs(row)) < 1e-8

    def test_smib_matches_symbolic(self):
        sympy = pytest.importorskip("sympy")
        # one ordinary machine against a stiff high-inertia machine
        raw = {
            "base_mva": 100.0,
            "buses": [
                {"id": 1, "type": "PV", "v_set": 1.02},
                {"id": 2, "type": "slack", "v_set": 1.0},
            ],
            "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.2}],
            "machines": [
                dict(id="G1", bus=1, pg=0.8, h=4.0, d=1.5, xd=1.1, xq=0.9,
                     xdp=0.25, xqp=0.4, td0p=6.0, tq0p=0.8, ka=20.0, ta=0.2,
                     ke=1.0, te=0.314, kf=0.063, tf=0.35, aex=0.0039,
                     bex=1.555, r_droop=0.05, tg=0.2, tch=0.3),
                dict(id="GB", bus=2, pg=0.0, h=1e5, d=10.0, xd=0.02, xq=0.02,
                     xdp=0.01, xqp=0.02, td0p=8.0, tq0p=1.0, ka=20.0, ta=0.2,
                     ke=1.0, te=0.314, kf=0.063, tf=0.35, aex=0.0039,
                     bex=1.555, r_droop=0.05, tg=0.2, tch=0.3),
            ],
            "areas": {"study": ["G1"], "external": ["GB"]},
        }
        spec = pm.parse_system(raw, source="smib")
        sys = pm.build_system(spec, 1.0)
        mach = sys.machines[0]
        yred = sys.y_red

        xs = sympy.symbols("delta omega eqp edp efd vr rf pmv pgv", real=True)
        delta, omega, eqp, edp, efd, vr, rf, pmv, pgv = xs
        j = sympy.I
        u1 = sympy.sin(delta) - j * sympy.cos(delta)
        e1 = (edp + j * eqp) * u1
        # machine 2 frozen at its equilibrium values
        x2 = sys.x0[9:]
        u2 = complex(math.sin(x2[0]), -math.cos(x2[0]))
        e2 = complex(x2[3], x2[2]) * u2
        i1 = complex(yred[0, 0]) * e1 + complex(yred[0, 1]) * e2
        im = sympy.expand(i1 * sympy.conjugate(u1))
        id_ = sympy.re(im)
        iq = sympy.im(im)
        pe = edp * id_ + eqp * iq
        vnet = e1 - j * mach.xdp * i1
        vt = sympy.sqrt(sympy.re(vnet) ** 2 + sympy.im(vnet) ** 2)
        se = mach.aex * sympy.exp(mach.bex * efd)
        fs = sympy.Matrix(
            [
                pm.OMEGA_S * (omega - 1),
                (pmv - pe - mach.d * (omega - 1)) / (2 * mach.h),
                (-eqp - (mach.xd - mach.xdp) * id_ + efd) / mach.td0p,
                (-edp + (mach.xq - mach.xqp) * iq) / mach.tq0p,
                (-(mach.ke + se) * efd + vr) / mach.te,
                (-vr + mach.ka * rf - (mach.ka * mach.kf / mach.tf) * efd
                 + mach.ka * (mach.vref - vt)) / mach.ta,
                (-rf + (mach.kf / mach.tf) * efd) / mach.tf,
                (-pmv + pgv) / mach.tch,
                (-pgv + mach.pref - (omega - 1) / mach.r_droop) / mach.tg,
            ]
        )
        jac_sym = fs.jacobian(sympy.Matrix(xs))
        subs = dict(zip(xs, sys.x0[:9]))
        jac_ref = np.array(jac_sym.evalf(subs=subs), dtype=complex).real.astype(float)

        a1 = taylor.jacobian(sys)[:9, :9]
        assert np.max(np.abs(a1 - jac_ref)) < 1e-5


class TestTensorStructure:
    def test_linear_rows_are_zero(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        for k in range(3):
            for off in (6, 7, 8):  # rf, pm, pgv equations
                assert np.max(np.abs(t2.array[k * 9 + off])) < 1e-9

    def test_field_voltage_row_is_own_column_only(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        for k in range(3):
            row = t2.array[k * 9 + 4].copy()
            own = row[k * 9 + 4, k * 9 + 4]
            mach = wscc_sys.machines[k]
            efd0 = wscc_sys.x0[k * 9 + 4]
            # d2/defd2 of -(ke + aex e^(bex efd)) efd / (2 te)
            expect = -mach.aex * mach.bex * math.exp(mach.bex * efd0) * (
                2 + mach.bex * efd0
            ) / (2 * mach.te)
            assert abs(own - expect) < 1e-6
            row[k * 9 + 4, k * 9 + 4] = 0.0
            assert np.max(np.abs(row)) < 1e-9

    def test_linear_columns_are_zero(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        lin_cols = []
        for k in range(3):
            lin_cols += [k * 9 + s for s in (1, 5, 6, 7, 8)]  # omega, vr, rf, pm, pgv
        assert np.max(np.abs(t2.array[:, lin_cols, :])) == 0.0
        assert np.max(np.abs(t2.array[:, :, lin_cols])) == 0.0

    def test_trailing_mode_symmetry(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        assert np.array_equal(t2.array, t2.array.transpose(0, 2, 1))
        t3 = taylor.taylor_tensors(wscc_sys, 3)
        assert np.array_equal(t3.array, t3.array.transpose(0, 2, 1, 3))
        assert np.array_equal(t3.array, t3.array.transpose(0, 3, 2, 1))

    def test_dense_limit_guard(self):
        class FakeSys:
            n_states = 63

        with pytest.raises(taylor.ModelBuildError, match="limited"):
            taylor.taylor_tensors(FakeSys(), 2)


class TestReducedRhs:
    def test_zero_deviation(self, full_rank_model):
        n = full_rank_model.n
        assert np.array_equal(taylor.reduced_rhs(full_rank_model, np.zeros(n)), np.zeros(n))

    def test_matches_kronecker_oracle(self, wscc_sys, wscc_terms, full_rank_model):
        rng = np.random.default_rng(4)
        a2m = matricize_mode1(wscc_terms[1])
        a3m = matricize_mode1(wscc_terms[2])
        for _ in range(3):
            dx = 0.1 * rng.standard_normal(wscc_sys.n_states)
            direct = full_rank_model.a1 @ dx + a2m @ kron(dx, dx) + a3m @ kron(dx, kron(dx, dx))
            fact = taylor.reduced_rhs(full_rank_model, dx)
            assert np.linalg.norm(direct - fact) / np.linalg.norm(direct) < 1e-8

    def test_matches_mode_product_oracle(self, wscc_sys, wscc_terms, full_rank_model):
        rng = np.random.default_rng(5)
        dx = 0.05 * rng.standard_normal(wscc_sys.n_states)
        row = dx[None, :]
        quad = mode_k_product(mode_k_product(wscc_terms[1], row, 2), row, 3)
        cub = mode_k_product(
            mode_k_product(mode_k_product(wscc_terms[2], row, 2), row, 3), row, 4
        )
        direct = full_rank_model.a1 @ dx + quad.array.reshape(-1) + cub.array.reshape(-1)
        fact = taylor.reduced_rhs(full_rank_model, dx)
        assert np.linalg.norm(direct - fact) / np.linalg.norm(direct) < 1e-8

    def test_polynomial_system_reproduced_exactly(self):
        # a cubic vector field is its own third-order expansion
        rng = np.random.default_rng(6)
        n = 4
        a = rng.standard_normal((n, n))
        q = rng.standard_normal((n, n, n))
        q = (q + q.transpose(0, 2, 1)) / 2
        c = np.zeros((n, n, n, n))
        base = rng.standard_normal((n, n, n, n))
        for p in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
            c += base.transpose((0,) + p)
        c /= 6.0

        def f(dx):
            return a @ dx + np.einsum("ijk,j,k->i", q, dx, dx) + np.einsum(
                "ijkl,j,k,l->i", c, dx, dx, dx
            )

        model = taylor.TaylorModel(
            load_level=1.0,
            x0=np.zeros(n),
            a1=a,
            a2=cp_exact(Tensor(q)),
            a3=cp_exact(Tensor(c)),
            ranks=(n * n, n**3),
            fits=(1.0, 1.0),
        )
        for _ in range(5):
            dx = rng.standard_normal(n)
            assert np.linalg.norm(taylor.reduced_rhs(model, dx) - f(dx)) < 1e-10

    def test_remainder_is_fourth_order(self, wscc_sys, full_rank_model):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(wscc_sys.n_states)
        v /= np.linalg.norm(v)
        x0 = wscc_sys.x0.astype(np.longdouble)
        f0 = pm.f_full(x0, wscc_sys)
        eps = np.geomspace(1e-3, 1e-1, 9)
        res = []
        for e in eps:
            dx = np.longdouble(e) * v.astype(np.longdouble)
            r = pm.f_full(x0 + dx, wscc_sys) - f0 - taylor.reduced_rhs(full_rank_model, dx)
            res.append(float(np.sqrt(np.sum((r * r).astype(float)))))
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert 3.6 <= slope <= 4.4


class TestCompress:
    def test_records_fit(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        f = cp_decompose(t2, 8, seed=0, max_iters=150)
        assert f.fit is not None and 0 < f.fit < 1

    def test_exact_route_full_admissible_rank(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        f = cp_exact(t2)
        rec = cp_reconstruct(f)
        rel = np.linalg.norm(rec.array - t2.array) / t2.norm()
        assert rel <= 1e-4

    def test_rank_one_on_higher_rank_tensor(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        f = cp_decompose(t2, 1, seed=0, max_iters=100)
        assert f.fit < 1.0

    def test_zero_tensor(self):
        f = cp_decompose(Tensor(np.zeros((3, 3, 3))), 2)
        assert np.all(f.weights == 0)

    @pytest.mark.parametrize("fmt", ["dense", "coo"])
    def test_unknown_als_option_rejected(self, ring5_sys, fmt):
        # a misspelt ALS option fails in both kernels instead of being dropped
        t2, t3 = (taylor.taylor_tensors(ring5_sys, k) for k in (2, 3))
        if fmt == "coo":
            t2, t3 = ((np.argwhere(t.array), t.array[t.array != 0]) for t in (t2, t3))
        terms = (taylor.jacobian(ring5_sys), t2, t3)
        with pytest.raises(TypeError, match="max_iter"):
            taylor.compress_taylor_terms(ring5_sys, terms, (2, 2), cp_options={"max_iter": 5})

    def test_rank_monotonicity(self, wscc_sys):
        t2 = taylor.taylor_tensors(wscc_sys, 2)
        fits = [
            cp_decompose(t2, r, seed=0, restarts=3, max_iters=200).fit
            for r in range(1, 9)
        ]
        assert all(b >= a - 0.05 for a, b in zip(fits, fits[1:]))


def _machine_rows(sys, ids):
    """Row mask of the states of the machines ``ids``."""
    return np.repeat([m.id in ids for m in sys.machines], pm.N_STATES)


@pytest.fixture(scope="module")
def ring5_full_rank_model(ring5_sys):
    return taylor.build_taylor_model(ring5_sys, "full")


class TestHybrid:
    def test_all_nonlinear_equals_full(self, wscc_sys, full_rank_model):
        rows = taylor.hybrid_rows(wscc_sys, pm.admittance_column_norms(wscc_sys), 0.0)
        rng = np.random.default_rng(8)
        x = wscc_sys.x0 + 0.05 * rng.standard_normal(wscc_sys.n_states)
        assert np.array_equal(
            taylor.hybrid_rhs(full_rank_model, rows, x, wscc_sys), pm.f_full(x, wscc_sys)
        )

    def test_empty_external_set_equals_reduced(self, wscc_sys, full_rank_model):
        rows = taylor.hybrid_rows(wscc_sys, pm.admittance_column_norms(wscc_sys), np.inf)
        rng = np.random.default_rng(9)
        x = wscc_sys.x0 + 0.05 * rng.standard_normal(wscc_sys.n_states)
        out = taylor.hybrid_rhs(full_rank_model, rows, x, wscc_sys)
        red = taylor.reduced_rhs(full_rank_model, x - full_rank_model.x0)
        assert np.array_equal(out[~rows], red[~rows])
        assert np.array_equal(out[rows], pm.f_full(x, wscc_sys)[rows])

    def test_equilibrium_near_zero(self, wscc_sys, full_rank_model):
        rows = taylor.hybrid_rows(wscc_sys, pm.admittance_column_norms(wscc_sys), np.inf)
        out = taylor.hybrid_rhs(full_rank_model, rows, wscc_sys.x0, wscc_sys)
        assert np.max(np.abs(out)) < 1e-8

    def test_boundary_selection_limits(self, wscc_sys):
        norms = pm.admittance_column_norms(wscc_sys)
        rows = taylor.hybrid_rows(wscc_sys, norms, 0.0)
        assert rows.dtype == bool and rows.all()
        study_only = taylor.hybrid_rows(wscc_sys, norms, np.inf)
        assert np.array_equal(study_only, _machine_rows(wscc_sys, {"G2", "G3"}))

    def test_strict_subset_splits_rows(self, ring5_sys, ring5_full_rank_model):
        # at 1.0 pu, G2 and G5 are close to the study machine G1, G3 and G4 are not
        rows = taylor.hybrid_rows(ring5_sys, pm.admittance_column_norms(ring5_sys), 1.0)
        assert np.array_equal(rows, _machine_rows(ring5_sys, {"G1", "G2", "G5"}))
        rng = np.random.default_rng(10)
        x = ring5_sys.x0 + 0.05 * rng.standard_normal(ring5_sys.n_states)
        out = taylor.hybrid_rhs(ring5_full_rank_model, rows, x, ring5_sys)
        red = taylor.reduced_rhs(ring5_full_rank_model, x - ring5_full_rank_model.x0)
        assert np.array_equal(out[rows], pm.f_full(x, ring5_sys)[rows])
        assert np.array_equal(out[~rows], red[~rows])

    def test_boundary_selection_hand_norms(self):
        # three machines, study row 0; external columns carry norms 0.5 and 2
        yred = np.array(
            [[1.0 + 0j, 0.5j, 2.0j], [0.5j, 1.0, 0.0], [2.0j, 0.0, 1.0]]
        )
        norms = pm.reduced_column_norms(yred, [0], [1, 2])
        keep = {g for g, v in zip(("E1", "E2"), norms) if v > 1.0}
        assert keep == {"E2"}


class TestModelSet:
    def test_single_level(self, wscc_sys):
        ms = taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=(4, 4),
                                    cp_options=dict(max_iters=60))
        assert np.array_equal(ms.models[1.0].x0, wscc_sys.x0)

    def test_three_levels_have_distinct_equilibria(self, wscc_model_set):
        x0s = [wscc_model_set.models[lv].x0 for lv in (0.8, 1.0, 1.2)]
        assert not np.allclose(x0s[0], x0s[1])
        assert not np.allclose(x0s[1], x0s[2])

    def test_infeasible_level_aborts(self, wscc_sys):
        with pytest.raises(taylor.ModelBuildError, match="10.0"):
            taylor.build_model_set(wscc_sys, levels=(1.0, 10.0), ranks=(2, 2),
                                   cp_options=dict(max_iters=10))

    def test_persistence_round_trip(self, tmp_path, wscc_sys):
        ms = taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=(5, 6),
                                    cp_options=dict(max_iters=60))
        p = tmp_path / "models.npz"
        taylor.save_model_set(ms, p, extra_meta={"config_hash": "abc"})
        back = taylor.load_model_set(p)
        assert back.levels == ms.levels
        assert back.meta["config_hash"] == "abc"
        for lv in ms.levels:
            a, b = ms.models[lv], back.models[lv]
            assert np.array_equal(a.x0, b.x0)
            assert np.array_equal(a.a1, b.a1)
            assert np.array_equal(a.a2.weights, b.a2.weights)
            for fa, fb in zip(a.a3.factors, b.a3.factors):
                assert np.array_equal(fa, fb)
            # evaluation caches rebuilt identically
            dx = np.linspace(-0.01, 0.01, a.n)
            assert np.array_equal(taylor.reduced_rhs(a, dx), taylor.reduced_rhs(b, dx))


    def test_caches_are_not_constructor_arguments(self, full_rank_model):
        m = full_rank_model
        with pytest.raises(TypeError, match="_proj"):
            taylor.TaylorModel(load_level=1.0, x0=m.x0, a1=m.a1, a2=m.a2, a3=m.a3,
                               ranks=m.ranks, fits=m.fits, _proj=m._proj)


@pytest.fixture(scope="module")
def saved_set(wscc_sys, wscc_terms, tmp_path_factory):
    """A small saved set: one rank-2 model of ``wscc9``, saved at two
    levels, each under its own load level."""
    model = taylor.compress_taylor_terms(wscc_sys, wscc_terms, (2, 2),
                                         cp_options=dict(max_iters=2))
    path = tmp_path_factory.mktemp("sets") / "models.npz"
    models = {1.0: model, 1.1: dataclasses.replace(model, load_level=1.1)}
    taylor.save_model_set(taylor.ModelSet(levels=(1.0, 1.1), models=models), path)
    return path


def _damaged_copies(a):
    """Arrays that look like ``a`` but are not what the loader may accept."""
    out = [a[:0], a.ravel()[:-1], a.reshape(1, -1), a.astype(np.float32),
           np.frombuffer(b'["not", "an", "object"]', dtype=np.uint8)]
    if a.size:
        poked = a.astype(float)
        poked.flat[0] = np.nan
        out.append(poked)
    return out


class TestLoadModelSet:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=hs.data())
    def test_raises_only_value_error(self, saved_set, data):
        # truncate the archive, flip bytes in it, or drop or replace one of
        # its arrays; the set either loads whole or is refused as not a set
        raw = saved_set.read_bytes()
        path = saved_set.with_name("damaged.npz")
        how = data.draw(hs.sampled_from(["truncate", "flip", "drop", "replace"]))
        if how == "truncate":
            path.write_bytes(raw[:data.draw(hs.integers(0, len(raw) - 1))])
        elif how == "flip":
            damaged = bytearray(raw)
            for _ in range(data.draw(hs.integers(1, 4))):
                damaged[data.draw(hs.integers(0, len(raw) - 1))] ^= data.draw(hs.integers(1, 255))
            path.write_bytes(bytes(damaged))
        else:
            with np.load(saved_set) as z:
                arrays = dict(z)
            key = data.draw(hs.sampled_from(sorted(arrays)))
            if how == "drop":
                del arrays[key]
            else:
                arrays[key] = data.draw(hs.one_of(
                    hs.sampled_from(_damaged_copies(arrays[key])),
                    hnp.arrays(hs.sampled_from([np.float64, np.int64, np.uint8]),
                               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))))
            np.savez(path, **arrays)
        try:
            ms = taylor.load_model_set(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: not a tensorsim model set (")
            return
        n = ms.models[ms.levels[0]].n
        for lv in ms.levels:
            model = ms.model_for(lv)
            assert model.n == n and model.a1.shape == (n, n)
            assert np.all(np.isfinite(taylor.reduced_rhs(model, np.full(n, 1e-3))))

    @pytest.mark.parametrize("key, value, message", [
        ("levels", np.zeros(0), "at least one"),
        ("levels", np.array([1.0, 1.0]), "distinct"),
        ("levels", np.ones((1, 1)), "'levels' is float64 of shape (1, 1)"),
        ("meta_json", np.frombuffer(b"[]", dtype=np.uint8), "not a JSON object"),
        ("m0_info", np.ones(2), "'m0_info' is float64 of shape (2,)"),
        ("m0_a1", np.ones(27), "'m0_a1' is float64 of shape (27,)"),
        ("m1_x0", np.ones(26), "'m1_x0' is float64 of shape (26,)"),
        ("m0_a3_f2", np.ones((26, 2)), "'m0_a3_f2' is float64 of shape (26, 2)"),
        ("m1_a2_w", np.array([np.nan, 1.0]), "'m1_a2_w' has non-finite entries"),
        ("m1_info", np.array([1.0, 0.5, 0.5]), "'m1_info' gives load level 1.0, 'levels' 1.1"),
    ], ids=["no_levels", "repeated_levels", "levels_2d", "meta_list", "short_info",
            "a1_1d", "short_x0", "short_factor", "nan_weight", "level_mismatch"])
    def test_refused(self, saved_set, tmp_path, key, value, message):
        with np.load(saved_set) as z:
            arrays = dict(z)
        arrays[key] = value
        path = tmp_path / "models.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as info:
            taylor.load_model_set(path)
        assert str(info.value).startswith(f"{path}: not a tensorsim model set (")
        assert message in str(info.value)

    @pytest.mark.parametrize("tag, weights", [("a3", [0.5, -0.5]), ("a2", [])],
                             ids=["negative_weight", "zero_rank"])
    def test_refused_weights(self, saved_set, tmp_path, tag, weights):
        # a rank-0 model has no weights and factors of no column
        with np.load(saved_set) as z:
            arrays = dict(z)
        arrays[f"m1_{tag}_w"] = np.array(weights, dtype=float)
        for k in range(4 if tag == "a3" else 3):
            arrays[f"m1_{tag}_f{k}"] = arrays[f"m1_{tag}_f{k}"][:, :len(weights)]
        path = tmp_path / "models.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as info:
            taylor.load_model_set(path)
        assert str(info.value) == (
            f"{path}: not a tensorsim model set ('m1_{tag}_w' must hold one nonnegative "
            f"weight per rank, at least one, got {weights})")

    def test_truncated_archive_refused(self, saved_set, tmp_path):
        path = tmp_path / "models.npz"
        path.write_bytes(saved_set.read_bytes()[:-100])
        with pytest.raises(ValueError, match="unreadable archive: BadZipFile"):
            taylor.load_model_set(path)


class TestDenseKernel:
    @pytest.mark.parametrize("order, rank", [(2, 30), (3, 36)])
    def test_support_kernel_matches_full_contraction(self, wscc_terms, order, rank):
        # cp_decompose contracts only the nonzero slices; through the same
        # ALS loop, a plain MTTKRP over every entry must give the same iterates
        t = wscc_terms[order - 1]
        a = t.array
        d = a.ndim
        assert not np.all(np.any(a != 0, axis=tuple(range(1, d))))
        letters = "abcd"[:d]

        def full_mttkrp(factors, k):
            others = [j for j in range(d) if j != k]
            expr = ",".join([letters] + [letters[j] + "z" for j in others])
            return np.einsum(expr + "->" + letters[k] + "z", a,
                             *(factors[j] for j in others), optimize=True)

        opts = dict(max_iters=20, fit_tolerance=1e-12, restarts=2, seed=3)
        got = cp_decompose(t, rank, **opts)
        ref = cp_als(t.dims, t.norm(), full_mttkrp, rank, **opts)
        assert len(got.fit_history) == len(ref.fit_history) == 20
        assert np.max(np.abs(got.fit_history - ref.fit_history)) < 1e-9
        assert np.max(np.abs(got.weights - ref.weights)) < 1e-9
        for x, y in zip(got.factors, ref.factors):
            assert np.max(np.abs(x - y)) < 1e-9


@pytest.fixture(scope="module")
def dense_terms(wscc_terms, ring5_sys):
    """The dense order-2 and order-3 terms, by system."""
    return {"wscc9": wscc_terms[1:],
            "ring5": tuple(taylor.taylor_tensors(ring5_sys, order) for order in (2, 3))}


def _einsum_mttkrp(a, factors, k):
    """The mode-``k`` MTTKRP of the whole tensor ``a``, by ``np.einsum``."""
    d = a.ndim
    others = [j for j in range(d) if j != k]
    return np.einsum(a, list(range(d)), *(x for j in others for x in (factors[j], [j, d])),
                     [k, d], optimize=True)


def _agree(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


class TestTreeMttkrp:
    @pytest.mark.parametrize("case", ["wscc9", "ring5"])
    @pytest.mark.parametrize("order, rank", [(2, 30), (3, 36)])
    def test_matches_full_einsum(self, dense_terms, case, order, rank):
        # two sweeps in ALS order, each mode's factor replaced after its
        # MTTKRP, so each half's contraction is formed and then reused
        a = dense_terms[case][order - 2].array
        rng = np.random.default_rng(order)
        factors = [rng.uniform(size=(n, rank)) for n in a.shape]
        mttkrp = tensor_ops._tree_mttkrp(a)
        for _ in range(2):
            for k in range(a.ndim):
                got = mttkrp(factors, k)
                assert _agree(got, _einsum_mttkrp(a, factors, k)), k
                factors[k] = rng.uniform(size=factors[k].shape)

    @pytest.mark.parametrize("dims", [(4, 3, 5), (1, 4, 3), (3, 1, 1, 4), (2, 3, 1, 2, 3),
                                      (1, 2, 3, 1, 2, 2)])
    def test_random_cores(self, dims):
        # orders 2-5, size-1 modes and zero slices, then the all-zero tensor
        rng = np.random.default_rng(len(dims))
        a = rng.standard_normal(dims)
        a[..., -1] = 0.0
        for t in (a, np.zeros(dims)):
            factors = [rng.standard_normal((n, 3)) for n in dims]
            mttkrp = tensor_ops._tree_mttkrp(t)
            for k in range(len(dims)):
                got = mttkrp(factors, k)
                assert got.shape == (dims[k], 3)
                assert _agree(got, _einsum_mttkrp(t, factors, k)), (k, t.any())
                factors[k] = rng.standard_normal((dims[k], 3))
        assert cp_decompose(np.zeros(dims), 2).fit == 1.0

    def test_stale_contraction_is_not_reused(self, dense_terms):
        # modes 0 and 1 share core(01, 23) @ KR(A2, A3): replacing A3
        # between their calls must form it again
        a = dense_terms["wscc9"][1].array
        rng = np.random.default_rng(0)
        factors = [rng.uniform(size=(n, 4)) for n in a.shape]
        mttkrp = tensor_ops._tree_mttkrp(a)
        mttkrp(factors, 0)
        factors[3] = rng.uniform(size=factors[3].shape)
        assert _same_bytes(mttkrp(factors, 1), tensor_ops._tree_mttkrp(a)(factors, 1))
        assert _agree(mttkrp(factors, 1), _einsum_mttkrp(a, factors, 1))


class TestStructuredPath:
    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_dense_on_open_loop_system(self, ring5_sys, order):
        dense = taylor.fd_derivative_tensor(
            taylor._prefault_batch(ring5_sys), ring5_sys.x0, order,
            columns=taylor.nonlinear_state_columns(ring5_sys), refine=order == 2,
        )
        coords, values = taylor._structured_coo(ring5_sys, order)
        rebuilt = np.zeros(dense.dims)
        rebuilt[tuple(coords.T)] = values
        scale = np.abs(dense.array).max()
        assert np.max(np.abs(rebuilt - dense.array)) / scale < 1e-6
        # nothing structurally nonzero is missed
        mask = np.zeros(dense.dims, dtype=bool)
        mask[tuple(coords.T)] = True
        assert np.abs(np.where(mask, 0.0, dense.array)).max() / scale < 1e-6

    def test_requires_open_voltage_loop(self, wscc_sys):
        with pytest.raises(taylor.ModelBuildError, match="ka = 0"):
            taylor._structured_coo(wscc_sys, 2)

    def test_coo_als_agrees_with_dense_reconstruction(self, ring5_sys):
        coords, values = taylor._structured_coo(ring5_sys, 2)
        n = ring5_sys.n_states
        f = taylor._cp_als_coo((n,) * 3, coords, values, 8, seed=5, max_iters=150)
        dense = np.zeros((n,) * 3)
        dense[tuple(coords.T)] = values
        rec = cp_reconstruct(f).array
        rel = np.linalg.norm(rec - dense) / np.linalg.norm(dense)
        assert abs((1.0 - rel) - f.fit) < 1e-6
        assert np.all(np.diff(f.fit_history) > -1e-10)

    @pytest.mark.parametrize("order", [2, 3])
    def test_dense_and_coo_kernels_agree(self, wscc_terms, order):
        # one ALS loop, two MTTKRP kernels: same seed and options must give
        # the same iterates whichever storage the tensor arrives in
        t = wscc_terms[order - 1]
        coords = np.argwhere(t.array != 0.0)
        values = t.array[tuple(coords.T)]
        opts = dict(seed=3, max_iters=20, fit_tolerance=1e-12, restarts=2)
        dense = cp_decompose(t, 6, **opts)
        coo = taylor._cp_als_coo(t.dims, coords, values, 6, **opts)
        assert len(dense.fit_history) == len(coo.fit_history) == 20
        assert np.max(np.abs(dense.fit_history - coo.fit_history)) < 1e-9
        assert np.max(np.abs(dense.weights - coo.weights)) < 1e-9
        for a, b in zip(dense.factors, coo.factors):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_full_ranks_rejected_above_dense_limit(self, wscc_sys):
        class FakeSys:
            n_states = 100

        with pytest.raises(taylor.ModelBuildError, match="full-rank"):
            taylor.build_taylor_model(FakeSys(), "full")


def _loop_expansion(entries, vals, order):
    """The assembler's expansion as a loop over entries and permutations:
    the oracle of its array form."""
    coord_parts, value_parts = [], []
    for (tup, rows), v in zip(entries, vals):
        for perm in set(itertools.permutations(tup)):
            block = np.empty((rows.size, order + 1), dtype=np.int64)
            block[:, 0] = rows
            block[:, 1:] = perm
            coord_parts.append(block)
            value_parts.append(v[rows])
    return np.concatenate(coord_parts, axis=0), np.concatenate(value_parts)


class TestExpansion:
    @pytest.mark.parametrize("case, order", [("ring5", 1), ("ring5", 2), ("ring5", 3),
                                             ("wscc9", 2)])
    def test_matches_the_loop(self, request, monkeypatch, case, order):
        if case == "ring5":  # the Jacobian's entries, then the structured ones
            sys_m = request.getfixturevalue("ring5_sys")
            x0 = sys_m.x0
            entries = ([((c,), np.arange(sys_m.n_states)) for c in range(sys_m.n_states)]
                       if order == 1 else taylor._structured_tuples(sys_m, order))
        else:  # the dense path's entries, in extended precision
            sys_m = request.getfixturevalue("wscc_sys")
            x0 = sys_m.x0.astype(np.longdouble)
            cols = taylor.nonlinear_state_columns(sys_m).tolist()
            entries = [(tup, np.arange(sys_m.n_states))
                       for tup in itertools.combinations_with_replacement(cols, order)]
        stencil, seen = taylor._multiset_values, []
        monkeypatch.setattr(taylor, "_multiset_values",
                            lambda *args: seen.append(stencil(*args)) or seen[-1])
        coords, values = taylor._derivative_coo(taylor._prefault_batch(sys_m), x0, order,
                                                entries, refine=False)
        want_coords, want_values = _loop_expansion(entries, seen[0], order)
        assert any(len(set(tup)) == order for tup, _ in entries)
        assert _same_bytes(coords, want_coords)
        assert _same_bytes(values, want_values)


def _random_coo(dims, seed):
    """Random coordinate tensor whose slices 0 and dims[k] - 1 are empty in
    every mode; its trailing tuples carry different numbers of rows, and
    the first one a single row."""
    rng = np.random.default_rng(seed)
    tuples = sorted({tuple(int(rng.integers(1, n - 1)) for n in dims[1:]) for _ in range(60)})
    coords = []
    for i, tup in enumerate(tuples):
        count = 1 if i == 0 else int(rng.integers(1, dims[0] - 1))
        coords += [(r, *tup) for r in rng.choice(np.arange(1, dims[0] - 1), count, replace=False)]
    coords = rng.permutation(np.asarray(coords, dtype=np.int64))
    return coords, rng.standard_normal(len(coords))


def _reference_mttkrp(dims, coords, values, factors, k):
    p = values[:, None].copy()
    for j in range(len(dims)):
        if j != k:
            p = p * factors[j][coords[:, j]]
    m = np.zeros((dims[k], p.shape[1]))
    np.add.at(m, coords[:, k], p)
    return m


class TestCooKernel:
    @pytest.mark.parametrize("dims", [(9, 7, 8), (9, 7, 8, 6)], ids=["order3", "order4"])
    def test_matches_scatter_add_reference(self, dims):
        coords, values = _random_coo(dims, seed=len(dims))
        _, per_tuple = np.unique(coords[:, 1:], axis=0, return_counts=True)
        assert per_tuple.min() == 1 and per_tuple.max() > 2
        for k, n in enumerate(dims):
            assert set(coords[:, k]) <= set(range(1, n - 1))
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((n, 5)) for n in dims]
        mttkrp = taylor._coo_mttkrp(dims, coords, values)
        for k in reversed(range(len(dims))):  # the kernel must not assume a mode order
            ref = _reference_mttkrp(dims, coords, values, factors, k)
            got = mttkrp(factors, k)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert not got[0].any() and not got[-1].any()

    def test_new_leading_factor_invalidates_cache(self):
        dims = (9, 7, 8, 6)
        coords, values = _random_coo(dims, seed=1)
        rng = np.random.default_rng(1)
        factors = [rng.standard_normal((n, 4)) for n in dims]
        mttkrp = taylor._coo_mttkrp(dims, coords, values)
        stale = mttkrp(factors, 2)
        factors[0] = rng.standard_normal(factors[0].shape)
        for k in (2, 1, 3):
            ref = _reference_mttkrp(dims, coords, values, factors, k)
            assert np.max(np.abs(mttkrp(factors, k) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(stale - mttkrp(factors, 2))) > 1e-3

    @pytest.mark.parametrize("dims", [(7, 5, 5), (7, 5, 5, 5)], ids=["order3", "order4"])
    def test_permutations_with_other_fibers(self, dims):
        # every permutation of each multiset carries the sorted tuple's fiber,
        # except some: other values on the same rows, a row more or less,
        # the same rows in another order, a zero of the other sign, and a
        # tuple whose sorted permutation holds no entry
        rng = np.random.default_rng(len(dims))
        fiber_rows = np.array([1, 4, 2, 5])
        fiber_vals = rng.standard_normal(fiber_rows.size)
        fiber_vals[2] = 0.0
        fibers = {}
        for tup in itertools.combinations_with_replacement(range(dims[1]), len(dims) - 1):
            for perm in sorted(set(itertools.permutations(tup))):
                fibers[perm] = (fiber_rows, fiber_vals.copy())
        perms = [p for p in fibers if p != tuple(sorted(p))]
        changed = [perms[i] for i in rng.choice(len(perms), 6, replace=False)]
        fibers[changed[0]][1][0] += 1.0
        fibers[changed[1]] = (fiber_rows[:-1], fiber_vals[:-1])
        fibers[changed[2]] = (np.r_[fiber_rows, 6], np.r_[fiber_vals, 0.5])
        fibers[changed[3]] = (fiber_rows[::-1], fiber_vals[::-1])
        fibers[changed[4]][1][2] = -0.0
        del fibers[tuple(sorted(changed[5]))]
        coords = np.array([(r, *t) for t, (rows, _) in fibers.items() for r in rows])
        values = np.concatenate([vals for _, vals in fibers.values()])
        factors = [rng.standard_normal((n, 4)) for n in dims]
        mttkrp = taylor._coo_mttkrp(dims, coords, values)
        for k in range(len(dims)):
            ref = _reference_mttkrp(dims, coords, values, factors, k)
            assert np.max(np.abs(mttkrp(factors, k) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_mode0_blocks_keep_the_bytes(self, ring7_sys, monkeypatch):
        coords, values = taylor._structured_coo(ring7_sys, 3)
        dims = (ring7_sys.n_states,) * 4
        rng = np.random.default_rng(3)
        factors = [rng.standard_normal((n, 6)) for n in dims]
        monkeypatch.setattr(taylor, "_MODE0_BLOCK", len(values))
        whole = taylor._coo_mttkrp(dims, coords, values)(factors, 0)
        monkeypatch.setattr(taylor, "_MODE0_BLOCK", 5)
        assert _same_bytes(taylor._coo_mttkrp(dims, coords, values)(factors, 0), whole)

    def test_empty_coordinate_list(self):
        dims = (5, 5, 5)
        coords, values = np.zeros((0, 3), np.int64), np.zeros(0)
        factors = [np.ones((n, 2)) for n in dims]
        mttkrp = taylor._coo_mttkrp(dims, coords, values)
        for k in range(3):
            assert _same_bytes(mttkrp(factors, k), np.zeros((5, 2)))
        f = taylor._cp_als_coo(dims, coords, values, 2)
        want = cp_decompose(Tensor(np.zeros(dims)), 2)
        for a, b in zip([f.weights, f.fit_history, *f.factors],
                        [want.weights, want.fit_history, *want.factors]):
            assert _same_bytes(a, b)


def _model_arrays(model):
    return [model.x0, model.a1] + [a for f in (model.a2, model.a3)
                                   for a in (f.weights, *f.factors, f.fit_history)]


def _same_bytes(a, b):
    return (a.dtype, a.shape, a.flags.f_contiguous, a.tobytes()) == (
        b.dtype, b.shape, b.flags.f_contiguous, b.tobytes())


@pytest.fixture
def workers(request, monkeypatch):
    """Forces the CPU count the job runner reads: 1 runs the jobs in
    process, 2 runs them in a pool of two whatever the host offers."""
    monkeypatch.setattr(taylor, "_cpu_count", lambda: request.param)
    return request.param


def _oracle(sys_m, levels, ranks, seed, opts):
    """Each level's model compressed in process from its terms."""
    return {lv: taylor.compress_taylor_terms(s, taylor.taylor_terms(s), ranks, seed=seed,
                                             cp_options=opts)
            for lv, s in taylor.solve_levels(sys_m, levels).items()}


def _blas_env(threads):
    """This process's environment with BLAS on ``threads`` threads, or on
    numpy's default for None; ``tensorsim`` and this module importable."""
    env = {k: v for k, v in os.environ.items() if k not in taylor._BLAS_VARS}
    if threads is not None:
        env.update(dict.fromkeys(taylor._BLAS_VARS, str(threads)))
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    return env


def _pinned(tmp_path, fn, *args):
    """``fn(*args)`` in a new process with BLAS on one thread, as the
    pooled build's workers run; ``fn`` is a module-level function."""
    call, result = tmp_path / "call.pkl", tmp_path / "result.pkl"
    call.write_bytes(pickle.dumps((fn, args)))
    code = ("import pickle, sys; fn, args = pickle.load(open(sys.argv[1], 'rb')); "
            "pickle.dump(fn(*args), open(sys.argv[2], 'wb'))")
    subprocess.run([sys.executable, "-c", code, str(call), str(result)], env=_blas_env(1),
                   check=True, timeout=300)
    return pickle.loads(result.read_bytes())


_ORDER_JOB = taylor._order_job


def _job_failing_off_nominal(exc, failing, sys_m, order, *args):
    """A (level, order) job whose orders in ``failing`` raise ``exc`` at
    every level but 1.0; a spawned worker imports it from here."""
    if sys_m.load_level != 1.0 and order in failing:
        raise exc(f"order-{order} term failed")
    return _ORDER_JOB(sys_m, order, *args)


@pytest.fixture(scope="module")
def ring7_sys():
    return pm.build_system(cases.synthetic_ring_spec(7, seed=7), 1.0)


class TestJobRunner:
    # dense path at three levels, structured path (63 states) at one
    CASES = {"wscc9": ("wscc_sys", (0.8, 1.0, 1.2), (5, 4)),
             "ring7": ("ring7_sys", (1.0,), (4, 3))}
    OPTS = dict(max_iters=15, restarts=2)

    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_in_process_oracle(self, request, tmp_path, workers, case):
        # a pool's workers run BLAS on one thread, so its oracle does too
        fixture, levels, ranks = self.CASES[case]
        sys = request.getfixturevalue(fixture)
        ms = taylor.build_model_set(sys, levels=levels, ranks=ranks, seed=4,
                                    cp_options=self.OPTS)
        assert multiprocessing.active_children() == []
        args = (sys, levels, ranks, 4, self.OPTS)
        oracle = _oracle(*args) if workers == 1 else _pinned(tmp_path, _oracle, *args)
        assert ms.levels == levels and list(ms.models) == list(levels)
        for lv in levels:
            got, want = _model_arrays(ms.models[lv]), _model_arrays(oracle[lv])
            assert len(got) == len(want)
            assert all(_same_bytes(a, b) for a, b in zip(got, want)), lv
            assert ms.models[lv].ranks == oracle[lv].ranks
            assert ms.models[lv].fits == oracle[lv].fits
        assert ms.meta == {
            "levels": list(levels), "ranks": list(ranks), "seed": 4,
            "fits": {str(lv): list(oracle[lv].fits) for lv in levels},
            "converged": {str(lv): [bool(oracle[lv].a2.converged), bool(oracle[lv].a3.converged)]
                          for lv in levels},
            "iterations": {str(lv): [len(oracle[lv].a2.fit_history),
                                     len(oracle[lv].a3.fit_history)] for lv in levels},
        }

    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    @pytest.mark.parametrize("exc", [taylor.NumericalError, taylor.ModelBuildError])
    @pytest.mark.parametrize("failing, reported", [((2, 3), 2), ((3,), 3)])
    def test_job_failure_keeps_the_level_diagnostic(self, monkeypatch, wscc_sys, workers,
                                                    exc, failing, reported):
        # each failing level reports its lowest failing order's message, in
        # level order, whether the job ran in a worker or in process
        monkeypatch.setattr(taylor, "_order_job",
                            functools.partial(_job_failing_off_nominal, exc, failing))
        with pytest.raises(taylor.ModelBuildError) as info:
            taylor.build_model_set(wscc_sys, levels=(0.8, 1.0, 1.2), ranks=(2, 2),
                                   cp_options=dict(max_iters=2))
        assert str(info.value) == (f"model set build aborted: level 0.8: order-{reported} term "
                                   f"failed; level 1.2: order-{reported} term failed")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_other_job_errors_propagate(self, wscc_sys, workers):
        with pytest.raises(TypeError, match="max_iter"):
            taylor.build_model_set(wscc_sys, levels=(1.0, 1.2), ranks=(2, 2),
                                   cp_options={"max_iter": 5})
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_one_level_model_is_the_oracle(self, tmp_path, ring5_sys, workers):
        model = taylor.build_taylor_model(ring5_sys, (3, 2))
        oracle = _pinned(tmp_path, _oracle, ring5_sys, (1.0,), (3, 2), 0, None)[1.0]
        assert all(_same_bytes(a, b) for a, b in zip(_model_arrays(model), _model_arrays(oracle)))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("argv", [["--system", "wscc9", "--ranks", "4,3"],
                                      ["--system", "ring:7", "--levels", "1.0", "--ranks", "4,3"]],
                             ids=["wscc9", "ring7"])
    def test_bytes_do_not_follow_the_blas_threads(self, tmp_path, argv):
        # a build in a default shell persists the bytes of one with BLAS
        # pinned to one thread
        persisted = {}
        for threads in (None, 1):
            out = tmp_path / str(threads)
            subprocess.run([sys.executable, "-m", "tensorsim.cli", "build", *argv,
                            "--out", str(out)], env=_blas_env(threads), check=True,
                           capture_output=True, timeout=300)
            persisted[threads] = [(out / name).read_bytes()
                                  for name in ("models.npz", "build_report.json")]
        assert persisted[None] == persisted[1]

    @pytest.mark.parametrize("workers", [2], indirect=True)
    @pytest.mark.parametrize("before", ["set", "unset"])
    def test_caller_blas_variables_restored(self, monkeypatch, ring5_sys, workers, before):
        for k, v in zip(taylor._BLAS_VARS, ("3", "2", "4")):
            if before == "set":
                monkeypatch.setenv(k, v)
            else:
                monkeypatch.delenv(k, raising=False)
        want = {k: os.environ.get(k) for k in taylor._BLAS_VARS}
        taylor.build_model_set(ring5_sys, levels=(1.0,), ranks=(2, 2),
                               cp_options=dict(max_iters=2))
        assert {k: os.environ.get(k) for k in taylor._BLAS_VARS} == want
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_unconverged_als_warns(self, caplog, capsys, wscc_sys, workers):
        # a 2-iteration cap stops both orders short; a tolerance of 1 stops
        # them at their second iteration, converged
        caplog.set_level(logging.WARNING, logger="tensorsim")
        ms = taylor.build_model_set(wscc_sys, levels=(0.8, 1.0), ranks=(2, 2),
                                    cp_options=dict(max_iters=2, fit_tolerance=0.0))
        warned = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert warned == [
            ("tensorsim.taylor", logging.WARNING,
             f"level {lv} order {order}: ALS did not converge in 2 iterations "
             f"(fit {getattr(ms.models[lv], f'a{order}').fit:.6g})")
            for lv in (0.8, 1.0) for order in (2, 3)]
        caplog.clear()
        taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=(2, 2),
                               cp_options=dict(max_iters=2, fit_tolerance=1.0))
        assert caplog.records == []
        assert capsys.readouterr().out == ""


# run as ``python -``: a dense build whose ALS stops short, printing a
# digest of the model's arrays
_STDIN_BUILD = """
import hashlib
from tensorsim import cases, power_model as pm, taylor
sys_m = pm.build_system(cases.synthetic_ring_spec(3), 1.0)
model = taylor.build_model_set(sys_m, levels=(1.0,), ranks=(3, 2),
                               cp_options=dict(max_iters=4)).models[1.0]
arrays = [model.x0, model.a1] + [a for f in (model.a2, model.a3)
                                 for a in (f.weights, *f.factors, f.fit_history)]
print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_script_on_standard_input_builds(workers):
    # spawn cannot re-import <stdin>, so the build runs in process, here
    # with BLAS on one thread as a pooled build's workers run; the
    # unconverged ALS warns to no handler, so nothing reaches stderr
    proc = subprocess.run([sys.executable, "-"], input=_STDIN_BUILD, env=_blas_env(1),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    sys_m = pm.build_system(cases.synthetic_ring_spec(3), 1.0)
    model = taylor.build_model_set(sys_m, levels=(1.0,), ranks=(3, 2),
                                   cp_options=dict(max_iters=4)).models[1.0]
    assert not model.a3.converged
    want = hashlib.sha256(b"".join(a.tobytes() for a in _model_arrays(model))).hexdigest()
    assert proc.stdout.split() == [want]


@pytest.fixture
def pools(request, monkeypatch):
    """The thread count of each pool that starts, with the CPU count that
    sizes the pools forced to the parameter, whatever the host offers."""
    monkeypatch.setattr(taylor, "_cpu_count", lambda: request.param)
    pools = []

    class Counted(taylor.ThreadPoolExecutor):
        def __init__(self, threads, **kwargs):
            pools.append(threads)
            super().__init__(threads, **kwargs)

    monkeypatch.setattr(taylor, "ThreadPoolExecutor", Counted)
    return pools


class TestThreads:
    # ring:7 (63 states) takes the structured path, whose stencil chunks
    # and ALS rank blocks run on threads; its stencils fit in one chunk of
    # the default size, so smaller chunks give them several
    CHUNK = 64

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(taylor, "_STENCIL_CHUNK", self.CHUNK)

    @pytest.mark.parametrize("pools", [3], indirect=True)
    @pytest.mark.parametrize("order", [2, 3])
    def test_stencil_values_keep_their_bytes(self, ring7_sys, small_chunks, pools, order):
        tuples = [tup for tup, _ in taylor._structured_tuples(ring7_sys, order)]
        h = taylor._FD_STEPS[order] * np.maximum(1.0, np.abs(ring7_sys.x0))
        got = taylor._multiset_values(taylor._prefault_batch(ring7_sys), ring7_sys.x0, h,
                                      tuples, order)
        # every chunk goes to one pool of 3 threads, which queues the rest
        assert len(tuples) > 3 * self.CHUNK
        assert pools == [3]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(taylor, "_cpu_count", lambda: 1)
            want = taylor._multiset_values(taylor._prefault_batch(ring7_sys), ring7_sys.x0, h,
                                           tuples, order)
        assert _same_bytes(got, want)

    @pytest.mark.parametrize("pools", [3], indirect=True)
    @pytest.mark.parametrize("order, rank", [(2, 5), (3, 7)])
    def test_coo_als_keeps_its_bytes(self, ring7_sys, pools, order, rank):
        coords, values = taylor._structured_coo(ring7_sys, order)
        dims = (ring7_sys.n_states,) * (order + 1)
        opts = dict(seed=2, max_iters=12, restarts=2, fit_tolerance=0.0)
        got = taylor._cp_als_coo(dims, coords, values, rank, **opts)
        # one pool of 3 threads for the whole ALS, one rank block per thread
        assert pools == [3]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(taylor, "_cpu_count", lambda: 1)
            want = taylor._cp_als_coo(dims, coords, values, rank, **opts)
        for a, b in zip([got.weights, got.fit_history, *got.factors],
                        [want.weights, want.fit_history, *want.factors]):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("workers", [1], indirect=True)
    @pytest.mark.parametrize("pools", [2], indirect=True)
    def test_in_process_build_leaves_no_thread(self, ring7_sys, pools, workers):
        # the workers fixture, set up last, leaves one usable CPU: the jobs
        # run in process, each on one thread, and no thread pool starts
        threads = threading.active_count()
        ms = taylor.build_model_set(ring7_sys, levels=(1.0,), ranks=(3, 2),
                                    cp_options=dict(max_iters=4))
        assert pools == []
        assert threading.active_count() == threads
        # the jobs' timings ride on the set, beside the persisted iterations
        timings = ms.timings["1.0"]
        assert [timings[f"order{o}"]["als_iterations"] for o in (2, 3)] == \
            ms.meta["iterations"]["1.0"]
        for job in timings.values():
            assert set(job) == {"stencil_s", "als_s", "als_iterations"}
            assert job["stencil_s"] > 0 and job["als_s"] > 0

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_closed_loop_level_fails_in_its_worker(self, ring7_sys, workers):
        # a closed voltage loop fails both structured terms inside their
        # spawned jobs; the build raises, naming that level alone
        closed = copy.copy(ring7_sys)
        closed._p = {**ring7_sys._p, "ka": ring7_sys._p["ka"] + 1.0}
        with pytest.raises(taylor.ModelBuildError) as info:
            taylor._build_models({1.0: ring7_sys, 1.1: closed}, (3, 2), 0, dict(max_iters=2))
        message = str(info.value)
        assert message.startswith("model set build aborted: level 1.1: ")
        assert "open exciter voltage loops" in message and "level 1.0" not in message
        assert multiprocessing.active_children() == []


class TestRefusedBeforeWork:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(pm, "build_system", boom)
        monkeypatch.setattr(taylor, "_order_term", boom)
        monkeypatch.setattr(taylor, "jacobian", boom)

    def test_repeated_levels(self, wscc_sys):
        with pytest.raises(ValueError, match=r"distinct.*repeated: \[1.0\]"):
            taylor.build_model_set(wscc_sys, levels=(1.0, 0.8, 1.0), ranks=(2, 2))

    @pytest.mark.parametrize("ranks", [(0, 2), (2, 0), (-1, 3)])
    def test_ranks_below_one(self, wscc_sys, ranks):
        for build in (lambda: taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=ranks),
                      lambda: taylor.build_taylor_model(wscc_sys, ranks)):
            with pytest.raises(ValueError, match="ranks must be >= 1"):
                build()

    @pytest.mark.parametrize("ranks", [(16,), (16, 16, 16), (2.5, 3), (2, 3.0), (True, 2),
                                       "auto", "16,12", 16, None])
    def test_malformed_ranks(self, wscc_sys, ranks):
        # one rank used to fail in a job, a third was dropped, 2.5 became 2
        for build in (lambda: taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=ranks),
                      lambda: taylor.build_taylor_model(wscc_sys, ranks)):
            with pytest.raises(ValueError, match='ranks must be "full" or two integers'):
                build()
