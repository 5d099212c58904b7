"""Stacked lanes: each lane of a ``(B, 1, n)`` state gets the bytes of the
call on its state alone, from every right-hand side.

A CCT search steps its probes as such lanes and promises the answer of
the single runs, so this is the property its bytes rest on.  A ``(B, n)``
batch would not do: its network product rounds differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tensorsim import power_model as pm
from tensorsim import taylor
from tensorsim.tensor_ops import CpFactors


def _random_factors(sys, ranks, rng):
    """A Taylor model of ``sys`` with its own Jacobian (column-major, as
    built) and random CP factors: the layouts of a built model without an
    ALS run."""
    n = sys.n_states

    def cp(rank, order):
        return CpFactors(rank=rank, factors=[rng.standard_normal((n, rank)) for _ in range(order)],
                         weights=np.full(rank, 1e-3))

    return taylor.TaylorModel(load_level=1.0, x0=sys.x0.copy(), a1=taylor.jacobian(sys),
                              a2=cp(ranks[0], 3), a3=cp(ranks[1], 4), ranks=ranks, fits=(0.0, 0.0))


@pytest.fixture(scope="module")
def cases(wscc_sys, wscc_model_set, ring5_sys):
    """(system, model, partial row mask) per case.  On wscc9 the default
    hybrid keeps every row full, so its partial mask is the study area
    alone; on ring:5 the default mask is a strict subset."""
    ring_model = _random_factors(ring5_sys, (6, 5), np.random.default_rng(2))
    out = {}
    for name, sys, model, thr in (("wscc9", wscc_sys, wscc_model_set.models[1.0], np.inf),
                                  ("ring5", ring5_sys, ring_model, 1.0)):
        rows = taylor.hybrid_rows(sys, pm.admittance_column_norms(sys), thr)
        assert rows.any() and not rows.all()
        out[name] = (sys, model, rows)
    return out


def _lanes(sys, b, seed, scale):
    """``b`` states up to ``scale`` away from ``x0`` in every entry."""
    rng = np.random.default_rng(seed)
    return sys.x0 + scale * rng.uniform(-1.0, 1.0, (b, sys.n_states))


@pytest.mark.parametrize("name", ["wscc9", "ring5"])
@settings(max_examples=25, deadline=None)
@given(b=hs.integers(1, 40), seed=hs.integers(0, 2**32 - 1), scale=hs.floats(0.0, 1.0))
def test_lanes_equal_single_calls(cases, name, b, seed, scale):
    sys, model, partial = cases[name]
    every = np.ones_like(partial)
    xs = _lanes(sys, b, seed, scale)
    dxs = xs - model.x0
    stacked = {
        "_rhs": (lambda x: pm._rhs(sys, sys.y_red, x), xs),
        "reduced_rhs": (lambda dx: taylor.reduced_rhs(model, dx), dxs),
        "linear_rhs": (lambda dx: taylor.linear_rhs(model, dx), dxs),
        "hybrid_rhs full": (lambda x: taylor.hybrid_rhs(model, every, x, sys), xs),
        "hybrid_rhs partial": (lambda x: taylor.hybrid_rhs(model, partial, x, sys), xs),
    }
    for what, (f, args) in stacked.items():
        lanes = f(args[:, None, :])
        assert lanes.shape == (b, 1, sys.n_states)
        for i in range(b):
            assert lanes[i, 0].tobytes() == f(args[i]).tobytes(), (what, i)


@pytest.mark.parametrize("name", ["wscc9", "ring5"])
def test_row_form_keeps_single_state_bytes(cases, name):
    # reduced_rhs and linear_rhs take their products as dx @ M.T; for one
    # state that has the bytes of the column form M @ dx they replaced
    sys, model, _ = cases[name]
    r2, r3 = model.ranks
    for dx in _lanes(sys, 20, 7, 0.5) - model.x0:
        y = model._proj @ dx
        z = y[2 * r2:]
        g = np.concatenate([y[:r2] * y[r2:2 * r2], z[:r3] * z[r3:2 * r3] * z[2 * r3:]])
        assert taylor.reduced_rhs(model, dx).tobytes() == (model.a1 @ dx + model._lead @ g).tobytes()
        assert taylor.linear_rhs(model, dx).tobytes() == (model.a1 @ dx).tobytes()
