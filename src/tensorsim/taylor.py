"""Per-load-level Taylor models of the system dynamics.

Builds the Jacobian and the symmetrized quadratic/cubic derivative
tensors around an equilibrium by central finite differences, compresses
the tensors with CP decomposition, and evaluates the reduced dynamics in
the factored form

    dxdot = A1 dx + L2 ((F2^T dx) * (G2^T dx))
               + L3 ((F3^T dx) * (G3^T dx) * (H3^T dx))

where ``*`` is an elementwise product over rank-length vectors, so one
evaluation costs O(n^2 + n r) instead of O(n^3 + n^4) for the unfolded
matrices.  The derivative tensors carry the 1/k! Taylor factors, making
the truncated series a genuine third-order expansion.

One assembler turns (column multiset, rows) pairs into coordinate-format
derivative entries of orders 1 to 3.  The Jacobian is its order-1 term
over every column, in extended precision with a Richardson pass, at any
size.  Up to :data:`DENSE_STATE_LIMIT` states the order-2 and order-3
terms take every multiset of the nonlinear columns, in extended precision
with a Richardson pass, and fill dense tensors.  Larger systems skip
those raw dense tensors: the multisets come from the machine-pair
coupling structure, the stencil runs in double precision with the
Richardson pass at order 2 only, and the entries stay a sparse
coordinate list.  That path requires every exciter voltage loop to be
open (ka = 0), since terminal-voltage feedback couples all machine
triples and destroys the sparsity.  :func:`_order_term` is the one place
the state count picks between the two enumerators.

:func:`_compress_order` is the one per-order compressor, and
:func:`_taylor_model` the one place factors become a
:class:`TaylorModel`.  A model set is built as one job per (level, order),
run in worker processes (:func:`_build_models`), and inside a job the
stencil chunks and the sparse ALS rank blocks run on threads
(:func:`_thread_pool`, sized once from the CPU count);
:func:`compress_taylor_terms` compresses given
terms in process.  Both sizes share one ALS loop,
:func:`tensorsim.tensor_ops.cp_als`, and differ only in its MTTKRP
kernel: on a dense tensor's nonzero slices, the unfolding times a
Khatri-Rao product on a two-half dimension tree, each half's product
formed once per sweep (:func:`tensorsim.tensor_ops.cp_decompose`), or,
on the coordinate list, a gather/segment-sum compressed to its distinct
trailing column tuples, so that the factor rows of each tuple are
multiplied once, not once per nonzero, and each class of equal fibers
meets the mode-0 factor once.  A model set records the ALS
fit, convergence flag and iteration count of each level and order in
its metadata, and serves any load level the model of its nearest
representative level (:meth:`ModelSet.model_for`).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import logging
import multiprocessing
import numbers
import os
import sys
import time
import tokenize
import zipfile
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import power_model as pm
from .tensor_ops import (
    CpFactors,
    Tensor,
    cp_als,
    cp_decompose,
    cp_exact,
)

__all__ = [
    "DENSE_STATE_LIMIT",
    "NumericalError",
    "ModelBuildError",
    "TaylorModel",
    "ModelSet",
    "fd_derivative_tensor",
    "jacobian",
    "nonlinear_state_columns",
    "taylor_tensors",
    "taylor_terms",
    "build_taylor_model",
    "compress_taylor_terms",
    "reduced_rhs",
    "linear_rhs",
    "hybrid_rows",
    "hybrid_rhs",
    "solve_levels",
    "build_model_set",
    "save_model_set",
    "load_model_set",
]

DENSE_STATE_LIMIT = 60  # raw n^3 / n^4 tensors allowed up to this many states

_log = logging.getLogger(__name__)

# relative central-difference step per derivative order
_FD_STEPS = {1: 1e-4, 2: 1e-4, 3: 1e-3}


class NumericalError(RuntimeError):
    """Non-finite values where finite ones are required."""


class ModelBuildError(RuntimeError):
    """One or more per-level model builds failed."""


# ---------------------------------------------------------------------------
# CPUs and threads


def _cpu_count() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Threads:
    """An open pool of ``size`` threads, made by :func:`_thread_pool`."""

    def __init__(self, executor, size: int):
        self.executor, self.size = executor, size

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` on the pool's threads, which
        take the items in order as they come free."""
        if len(items) <= 1 or self.executor is None:
            return [fn(item) for item in items]
        return list(self.executor.map(fn, items))


@contextlib.contextmanager
def _thread_pool(most: int):
    """A :class:`_Threads` of ``min(most, CPUs)`` threads, the one place
    that creates a thread pool.  The size is fixed when the pool opens; a
    caller opens one for all its maps.  Threads start only when a map
    runs more than one item, and are joined when the block exits.
    """
    size = max(1, min(most, _cpu_count()))
    if size == 1:
        yield _Threads(None, 1)
        return
    with ThreadPoolExecutor(size) as pool:
        yield _Threads(pool, size)


# ---------------------------------------------------------------------------
# finite differences


_STENCIL_CHUNK = 1024  # tuples per stencil batch, part of the values' bytes


def _multiset_values(f_batch, x0, h, tuples, order):
    """Symmetric derivative values for column multisets.

    Returns (len(tuples), n) with entry ``[t, i] = (1/order!) *
    d^order f_i / dx_{t}`` from the tensor-product central stencil.
    Probes inherit the dtype of ``x0``, so passing extended-precision
    points runs the whole stencil in extended precision.

    The tuples go through ``f_batch`` in chunks of :data:`_STENCIL_CHUNK`,
    all mapped at once on a :func:`_thread_pool` of ``min(chunks, CPUs)``
    threads.  Each chunk is one independent batch that writes its own
    rows, so the thread count leaves the values' bytes alone.  The chunk
    size does not: in double precision ``_rhs`` multiplies a whole batch
    by the admittance matrix in one BLAS call, whose kernel may depend on
    the row count.  With OpenBLAS on a 2-core x86-64 host, 256- and
    512-tuple batches gave ``ring:33`` order-2 and order-3 values that
    differ from 4096-tuple ones by up to 3e-8, while 1024-tuple ones
    equal them at both orders.
    """
    x0 = np.asarray(x0)
    n = x0.size
    h = np.asarray(h, dtype=x0.dtype)
    tuples = np.asarray(tuples, dtype=int)
    fact = float(np.prod(range(1, order + 1)))
    out = np.zeros((len(tuples), n), dtype=x0.dtype)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=order)))

    def chunk_values(lo):
        tt = tuples[lo:lo + _STENCIL_CHUNK]
        hh = h[tt]  # (T, order)
        probe = np.arange(len(tt))
        acc = np.zeros((len(tt), n), dtype=x0.dtype)
        for s in signs:
            disp = np.zeros((len(tt), n), dtype=x0.dtype)
            for pos in range(order):
                # one entry per probe row, so a plain indexed add suffices
                disp[probe, tt[:, pos]] += s[pos] * hh[:, pos]
            acc += np.prod(s) * f_batch(x0 + disp)
        denom = (2.0 ** order) * np.prod(hh, axis=1) * fact
        out[lo:lo + _STENCIL_CHUNK] = acc / denom[:, None]

    lows = range(0, len(tuples), _STENCIL_CHUNK)
    with _thread_pool(len(lows)) as pool:
        pool.map(chunk_values, lows)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"non-finite entries in order-{order} derivatives")
    return out


def _derivative_coo(f_batch, x0, order: int, entries, *, refine: bool):
    """Coordinate-format (coords, values) of the symmetrized derivative
    tensor of the given order, scaled by 1/order!.  ``entries`` pairs each
    column multiset with the rows to keep; its one stencil value serves
    every permutation.  Steps are ``step * max(1, |x0_j|)`` with the
    order's step; ``refine`` adds the Richardson pass.

    The list is expanded with array operations into one block per
    (entry, permutation): the entries in their given order, an entry's
    permutations in ``set(itertools.permutations(tup))`` order, a block's
    rows in the entry's order.  That order is part of the bytes
    downstream: it fixes the norm of the values and the summation order of
    the mode-0 MTTKRP."""
    h = _FD_STEPS[order] * np.maximum(1.0, np.abs(x0))
    tuples = [tup for tup, _ in entries]
    vals = _multiset_values(f_batch, x0, h, tuples, order)
    if refine:  # (4 D(h/2) - D(h)) / 3 cancels the h^2 truncation term
        vals = (4.0 * _multiset_values(f_batch, x0, h / 2.0, tuples, order) - vals) / 3.0
    perms = [set(itertools.permutations(tup)) for tup in tuples]
    sizes = np.array([rows.size for _, rows in entries])
    block_entry = np.repeat(np.arange(len(entries)), [len(p) for p in perms])
    block_sizes = sizes[block_entry]
    coord_block = np.repeat(np.arange(block_entry.size), block_sizes)
    # a coordinate's place in its block, shifted to its entry's rows
    shift = (np.cumsum(sizes) - sizes)[block_entry] - (np.cumsum(block_sizes) - block_sizes)
    rows = np.concatenate([rows for _, rows in entries])[
        np.arange(coord_block.size) + shift[coord_block]]
    coords = np.empty((rows.size, order + 1), dtype=np.int64)
    coords[:, 0] = rows
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(perms))
    coords[:, 1:] = np.fromiter(flat, dtype=np.int64).reshape(-1, order)[coord_block]
    return coords, vals[block_entry[coord_block], rows]


def fd_derivative_tensor(f_batch, x0: np.ndarray, order: int, *, columns=None,
                         refine: bool = False) -> Tensor:
    """Dense symmetrized derivative tensor of order 1 (the Jacobian), 2 or
    3, scaled by 1/order!.  ``columns`` limits the probed coordinates (all
    other slices are structurally zero); the dtype of ``x0`` flows through
    the stencil."""
    if order not in _FD_STEPS:
        raise ValueError("order must be 1, 2 or 3")
    x0 = np.asarray(x0)
    n = x0.size
    cols = np.arange(n) if columns is None else np.asarray(sorted(columns), dtype=int)
    rows = np.arange(n)
    entries = [(tup, rows) for tup in
               itertools.combinations_with_replacement(cols.tolist(), order)]
    coords, values = _derivative_coo(f_batch, x0, order, entries, refine=refine)
    t = np.zeros((n,) * (order + 1))
    t[tuple(coords.T)] = values
    return Tensor(t)


# ---------------------------------------------------------------------------
# system-bound builders


def _prefault_batch(sys: pm.SystemModel):
    return lambda x: pm._rhs(sys, sys.y_red, np.asarray(x))


def jacobian(sys: pm.SystemModel) -> np.ndarray:
    """Jacobian of the pre-fault dynamics at the equilibrium: the order-1
    term of the derivative assembler, at any size.

    Richardson-extrapolated central differences (4 J(h/2) - J(h)) / 3 with
    h = 1e-4, in extended precision: the extrapolation kills the h^2 term
    and the step keeps cancellation noise low, so entries come out about
    1e4 times more accurate than a plain 1e-6 stencil, keeping
    fourth-order remainders visible.

    The result is column-major: BLAS sums ``dx @ a1.T`` in an order that
    depends on the layout, so the layout is part of every trajectory's
    bytes, and model sets persist it.
    """
    return np.asfortranarray(fd_derivative_tensor(
        _prefault_batch(sys), sys.x0.astype(np.longdouble), 1, refine=True
    ).array)


def nonlinear_state_columns(sys: pm.SystemModel) -> np.ndarray:
    """State columns that enter the dynamics nonlinearly: rotor angle,
    both transient EMFs, and the field voltage of each machine.  The
    remaining states appear with constant coefficients, so every
    higher-order derivative against them vanishes."""
    cols = []
    for k in range(sys.n_machines):
        base = k * pm.N_STATES
        cols += [base + 0, base + 2, base + 3, base + 4]
    return np.asarray(cols, dtype=int)


def taylor_tensors(sys: pm.SystemModel, order: int) -> Tensor:
    """Dense symmetrized derivative tensor (with the 1/order! factor) of
    the pre-fault dynamics around ``sys.x0``.

    Runs in extended precision with a Richardson pass at both orders: in
    plain double the high-gain exciter rows bottom out near 1e-6 per
    entry, enough to bury fourth-order remainders.
    """
    if sys.n_states > DENSE_STATE_LIMIT:
        raise ModelBuildError(
            f"dense derivative tensors are limited to {DENSE_STATE_LIMIT} states "
            f"(system has {sys.n_states}); use taylor_terms, which "
            "switches to the structured sparse path"
        )
    return fd_derivative_tensor(
        _prefault_batch(sys),
        sys.x0.astype(np.longdouble),
        order,
        columns=nonlinear_state_columns(sys),
        refine=True,
    )


# ---------------------------------------------------------------------------
# structured sparse path (n > DENSE_STATE_LIMIT)


def _machine_cols(k: int):
    base = k * pm.N_STATES
    return [base + 0, base + 2, base + 3]  # delta, eqp, edp


def _coupled_rows(k: int):
    base = k * pm.N_STATES
    return [base + 1, base + 2, base + 3]  # omega, eqp, edp equations


def _structured_tuples(sys: pm.SystemModel, order: int):
    """Column multisets with structurally nonzero derivatives, paired with
    the row sets that can carry them.  Valid only for ka = 0 machines."""
    m = sys.n_machines
    all_rows = np.asarray([r for k in range(m) for r in _coupled_rows(k)], dtype=int)
    out = []
    for p in range(m):
        vp = _machine_cols(p)
        for tup in itertools.combinations_with_replacement(vp, order):
            out.append((tup, all_rows))
        efd = p * pm.N_STATES + 4
        out.append(((efd,) * order, np.asarray([efd], dtype=int)))
    for p, q in itertools.combinations(range(m), 2):
        vp, vq = _machine_cols(p), _machine_cols(q)
        rows = np.asarray(_coupled_rows(p) + _coupled_rows(q), dtype=int)
        for tup in itertools.combinations_with_replacement(vp + vq, order):
            used = {c // pm.N_STATES for c in tup}
            if used == {p, q}:
                out.append((tuple(sorted(tup)), rows))
    return out


def _structured_coo(sys: pm.SystemModel, order: int):
    """Sparse COO representation (coords, values) of the order-2 or
    order-3 derivative tensor, enumerated from machine-pair coupling.

    Runs in double precision, with the Richardson pass at order 2 only.
    """
    if np.any(sys._p["ka"] != 0.0):
        raise ModelBuildError(
            "structured tensor build needs open exciter voltage loops "
            "(ka = 0 on every machine); terminal-voltage feedback couples "
            "all machine triples and the derivative tensors become dense"
        )
    return _derivative_coo(
        _prefault_batch(sys), sys.x0, order, _structured_tuples(sys, order),
        refine=order == 2,
    )


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """Offsets at which the runs of equal values in sorted ``keys`` start."""
    return np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]])


# entries per block of the mode-0 MTTKRP, which takes whole row segments;
# each segment sums its own entries in order, so no byte depends on it
_MODE0_BLOCK = 1 << 17


def _coo_mttkrp(dims, coords: np.ndarray, values: np.ndarray, pool=_Threads(None, 1)):
    """The MTTKRP ``mttkrp(factors, k)`` of a coordinate-format tensor,
    computed per distinct trailing tuple ``t = (i_1, ..., i_{d-1})`` instead
    of per nonzero: SPLATT's compressed fibers (Smith et al., IPDPS 2015) on
    the sparse MTTKRP of Bader & Kolda (SIAM J. Sci. Comput. 30(1), 2007).

    Mode 0 forms the Khatri-Rao row ``K[t] = F_1[i_1] * ... *
    F_{d-1}[i_{d-1}]`` once per tuple, gathers it at the nonzeros, scales
    by the values and segment-sums by row, in blocks of whole row segments
    of about :data:`_MODE0_BLOCK` entries.  The trailing modes share
    ``W[t] = sum_i T[i, t] F_0[i]``, cached on the identity of
    ``factors[0]``, and multiply it by the other trailing factors at the
    tuple level only.  ``W[t]`` depends only on the fiber ``T[:, t]`` in
    stored order, so when the trailing dims are equal, a tuple whose fiber
    has the rows and value bits of its sorted permutation's takes that
    tuple's ``W``; only the others form their own.  A symmetric term's
    permutations all carry one fiber, so at order 3 a quarter of its
    entries form ``W``.  The sort plans and the classes are built here,
    once; the work arrays are rank-major, ``(rank, count)``.

    Every step above acts on one rank row at a time, and every segment sum
    on one segment's entries in their order.  So the blocks of mode 0 and
    the shared ``W`` keep the bytes of the plain kernel, and on an open
    :func:`_thread_pool` (``pool``), where each call splits the rank into
    one column block per thread, so does each block's columns.  The blocks
    share the sort plans, and each keeps its own ``W``.
    """
    d = len(dims)
    rows = coords[:, 0]
    keys = np.ravel_multi_index(tuple(coords[:, 1:].T), tuple(dims[1:]))
    tuple_keys, tuple_id = np.unique(keys, return_inverse=True)
    tuples = np.unravel_index(tuple_keys, tuple(dims[1:]))
    by_row = np.argsort(rows, kind="stable")
    row_starts = _segment_starts(rows[by_row])
    row_ids = rows[by_row][row_starts]
    row_tuple, row_vals = tuple_id[by_row], values[by_row]
    cuts = np.unique(np.r_[np.searchsorted(row_starts, np.arange(0, rows.size, _MODE0_BLOCK)),
                           row_starts.size])
    ends = np.r_[row_starts, rows.size][cuts]
    mode0 = [(slice(s0, s1), row_tuple[e0:e1], row_vals[e0:e1], row_starts[s0:s1] - e0)
             for s0, s1, e0, e1 in zip(cuts[:-1], cuts[1:], ends[:-1], ends[1:])]
    by_tuple = np.argsort(tuple_id, kind="stable")
    entry_tuple = tuple_id[by_tuple]
    tuple_starts = _segment_starts(entry_tuple)
    tuple_rows, tuple_vals = rows[by_tuple], values[by_tuple]
    source = np.arange(tuple_keys.size)  # the tuple whose W each tuple takes
    if tuple_keys.size and len(set(dims[1:])) == 1:
        sorted_keys = np.ravel_multi_index(tuple(np.sort(tuples, axis=0)), tuple(dims[1:]))
        canon = np.minimum(np.searchsorted(tuple_keys, sorted_keys), source.size - 1)
        counts = np.diff(np.r_[tuple_starts, rows.size])
        alike = (tuple_keys[canon] == sorted_keys) & (counts[canon] == counts)
        pos = np.arange(rows.size)
        partner = np.where(alike[entry_tuple],
                           pos + (tuple_starts[canon] - tuple_starts)[entry_tuple], pos)
        other = tuple_vals[partner]
        equal = ((tuple_rows[partner] == tuple_rows) & (other == tuple_vals)
                 & (np.signbit(other) == np.signbit(tuple_vals)))
        source = np.where(alike & np.logical_and.reduceat(equal, tuple_starts), canon, source)
    own = source == np.arange(source.size)
    kept = own[entry_tuple]  # the entries that form a W
    w_rows, w_vals = tuple_rows[kept], tuple_vals[kept]
    w_starts = _segment_starts(entry_tuple[kept])
    w_of = (np.cumsum(own) - 1)[source]
    trailing = [None]
    for k in range(1, d):
        order_k = np.argsort(tuples[k - 1], kind="stable")
        ck = tuples[k - 1][order_k]
        starts = _segment_starts(ck)
        trailing.append((w_of[order_k], [t[order_k] for t in tuples], starts, ck[starts]))
    # column block -> (factors[0], W): cp_als assigns a new array per update
    w_cache = {}

    def block_sums(ft, factors, k, block):
        """The mode-``k`` MTTKRP of the rank rows ``block``, rank-major, at
        the rows that hold a nonzero."""
        ft = [f[slice(*block)] for f in ft]
        if k == 0:
            kr = np.take(ft[1], tuples[0], axis=1)
            for j in range(2, d):
                kr *= np.take(ft[j], tuples[j - 1], axis=1)
            out = np.empty((kr.shape[0], row_ids.size))
            for segments, tuple_at, vals_at, starts in mode0:
                p = np.take(kr, tuple_at, axis=1)
                p *= vals_at
                out[:, segments] = np.add.reduceat(p, starts, axis=1)
            return out
        if block not in w_cache or w_cache[block][0] is not factors[0]:
            w = np.take(ft[0], w_rows, axis=1)
            w *= w_vals
            w_cache[block] = factors[0], np.add.reduceat(w, w_starts, axis=1)
        w_k, cols, starts, _ = trailing[k]
        p = np.take(w_cache[block][1], w_k, axis=1)
        for j in range(1, d):
            if j != k:
                p *= np.take(ft[j], cols[j - 1], axis=1)
        return np.add.reduceat(p, starts, axis=1)

    def mttkrp(factors, k):
        ft = [np.ascontiguousarray(f.T) for f in factors]
        rank = ft[0].shape[0]
        count = min(pool.size, rank)
        blocks = [(rank * b // count, rank * (b + 1) // count) for b in range(count)]
        sums = pool.map(lambda block: block_sums(ft, factors, k, block), blocks)
        m = np.zeros((dims[k], rank))
        m[row_ids if k == 0 else trailing[k][3]] = np.concatenate(sums).T
        return m

    return mttkrp


def _cp_als_coo(
    dims,
    coords: np.ndarray,
    values: np.ndarray,
    rank: int,
    *,
    max_iters: int = 30,
    fit_tolerance: float = 1e-6,
    restarts: int = 1,
    seed: int = 0,
) -> CpFactors:
    """:func:`tensorsim.tensor_ops.cp_als` on a sparse coordinate-format
    tensor, with the tuple-compressed MTTKRP of :func:`_coo_mttkrp`.  The
    defaults are the large-system build's: offline compression favours
    build time, and the evaluation cost downstream depends only on the
    ranks.  One :func:`_thread_pool` serves every MTTKRP of the call."""
    with _thread_pool(rank) as pool:
        return cp_als(
            dims,
            float(np.linalg.norm(values)),
            _coo_mttkrp(dims, coords, values, pool),
            rank,
            max_iters=max_iters,
            fit_tolerance=fit_tolerance,
            restarts=restarts,
            seed=seed,
        )


# ---------------------------------------------------------------------------
# the reduced model


@dataclass
class TaylorModel:
    """Third-order Taylor model of the dynamics around one equilibrium."""

    load_level: float
    x0: np.ndarray
    a1: np.ndarray
    a2: CpFactors
    a3: CpFactors
    ranks: tuple
    fits: tuple

    # evaluation caches (leading factors with weights folded in, stacked
    # projection matrix) built once per model
    _proj: np.ndarray = field(init=False, repr=False)
    _lead: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r2, r3 = self.a2.rank, self.a3.rank
        self._proj = np.ascontiguousarray(
            np.vstack(
                [
                    self.a2.factors[1].T,
                    self.a2.factors[2].T,
                    self.a3.factors[1].T,
                    self.a3.factors[2].T,
                    self.a3.factors[3].T,
                ]
            )
        )
        self._lead = np.ascontiguousarray(
            np.hstack(
                [self.a2.factors[0] * self.a2.weights,
                 self.a3.factors[0] * self.a3.weights]
            )
        )
        self._r2 = r2
        self._r3 = r3
        # the row form's right operands, as views made once
        self._proj_t, self._lead_t, self._a1_t = self._proj.T, self._lead.T, self.a1.T

    @property
    def n(self) -> int:
        return self.x0.size


def reduced_rhs(model: TaylorModel, dx: np.ndarray) -> np.ndarray:
    """Factored evaluation of the third-order deviation dynamics.

    ``dx`` is one deviation or stacked lanes of them, shape ``(..., n)``.
    The products are taken in row form, ``dx @ M.T``, which has the bytes
    of ``M @ dx`` for one state and gives each stacked ``(1, n)`` lane the
    bytes of its call alone.
    """
    r2, r3 = model._r2, model._r3
    y = dx @ model._proj_t
    g2 = y[..., :r2] * y[..., r2:2 * r2]
    z = y[..., 2 * r2:]
    g3 = z[..., :r3] * z[..., r3:2 * r3] * z[..., 2 * r3:]
    return dx @ model._a1_t + np.concatenate([g2, g3], axis=-1) @ model._lead_t


def linear_rhs(model: TaylorModel, dx: np.ndarray) -> np.ndarray:
    """First-order (Jacobian-only) deviation dynamics, the comparison
    baseline for linear model reduction; row form as in
    :func:`reduced_rhs`."""
    return dx @ model._a1_t


def _order_term(sys: pm.SystemModel, order: int):
    """The order-2 or order-3 derivative term of the pre-fault dynamics
    around ``sys.x0``: a dense tensor up to :data:`DENSE_STATE_LIMIT`
    states and a coordinate list above.  This is the one place the state
    count picks the derivative enumerator."""
    if sys.n_states <= DENSE_STATE_LIMIT:
        return taylor_tensors(sys, order)
    return _structured_coo(sys, order)


def taylor_terms(sys: pm.SystemModel):
    """The terms ``(a1, t2, t3)`` of the pre-fault dynamics around
    ``sys.x0``: the Jacobian, then the order-2 and order-3 derivative terms
    of :func:`_order_term`."""
    return jacobian(sys), _order_term(sys, 2), _order_term(sys, 3)


def _check_ranks(sys: pm.SystemModel, ranks) -> None:
    """Refuse anything but ``"full"`` or two integer ranks ``(r2, r3)``,
    ranks below 1, and ``"full"`` above :data:`DENSE_STATE_LIMIT` states,
    before any term is built."""
    if isinstance(ranks, str) and ranks == "full":
        if sys.n_states > DENSE_STATE_LIMIT:
            raise ModelBuildError(
                f"exact full-rank factors need dense tensors (n <= {DENSE_STATE_LIMIT})"
            )
        return
    if not (isinstance(ranks, (tuple, list)) and len(ranks) == 2 and all(
            isinstance(r, numbers.Integral) and not isinstance(r, bool) for r in ranks)):
        raise ValueError(f'ranks must be "full" or two integers (r2, r3), got {ranks!r}')
    if min(ranks) < 1:
        raise ValueError(f"ranks must be >= 1, got {tuple(ranks)}")


def _compress_order(n: int, order: int, term, ranks, *, seed: int,
                    cp_options: dict | None) -> CpFactors:
    """CP factors of one order's term: the exact constructive factors of
    a dense term for ``ranks="full"``, else ALS at that order's rank of
    ``ranks = (r2, r3)``, seeded with ``seed`` at order 2 and ``seed + 1``
    at order 3.  ``cp_options`` reach the ALS kernel of either format
    unchanged, so an unknown option raises ``TypeError``."""
    if ranks == "full":
        return cp_exact(term)
    rank, opts = int(ranks[order - 2]), dict(cp_options or {})
    if isinstance(term, Tensor):
        return cp_decompose(term, rank, seed=seed + order - 2, **opts)
    return _cp_als_coo((n,) * (order + 1), *term, rank, seed=seed + order - 2, **opts)


def _taylor_model(sys: pm.SystemModel, a1, f2: CpFactors, f3: CpFactors) -> TaylorModel:
    return TaylorModel(
        load_level=sys.load_level,
        x0=sys.x0.copy(),
        a1=a1,
        a2=f2,
        a3=f3,
        ranks=(f2.rank, f3.rank),
        fits=(f2.fit, f3.fit),
    )


def compress_taylor_terms(sys: pm.SystemModel, terms, ranks, *, seed: int = 0,
                          cp_options: dict | None = None) -> TaylorModel:
    """The :class:`TaylorModel` of ``sys`` from its terms ``(a1, t2, t3)``,
    in process.

    ``t2``/``t3`` are dense :class:`Tensor` objects or ``(coords, values)``
    pairs, compressed as :func:`_compress_order` does: ALS seeded with
    ``seed`` and ``seed + 1`` for ``ranks = (r2, r3)``, or ``"full"`` for
    the exact constructive factors of dense terms.
    """
    a1, t2, t3 = terms
    n = sys.n_states
    f2 = _compress_order(n, 2, t2, ranks, seed=seed, cp_options=cp_options)
    f3 = _compress_order(n, 3, t3, ranks, seed=seed, cp_options=cp_options)
    return _taylor_model(sys, a1, f2, f3)


# ---------------------------------------------------------------------------
# the (level, order) job runner

# failures that abort one level's model and are reported per level
_BUILD_ERRORS = (ModelBuildError, NumericalError)


def _attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, exc)`` for a build failure."""
    try:
        return fn(*args), None
    except _BUILD_ERRORS as exc:
        return None, exc


def _order_job(sys: pm.SystemModel, order: int, ranks, seed: int, cp_options):
    """One (level, order) job: build the order's term and compress it.
    Returns the factors and the job's timings: the seconds of the stencil
    (the term) and of the ALS, and the ALS iterations.  It depends on its
    arguments alone."""
    start = time.perf_counter()
    term = _order_term(sys, order)
    built = time.perf_counter()
    f = _compress_order(sys.n_states, order, term, ranks, seed=seed, cp_options=cp_options)
    return f, {"stencil_s": built - start, "als_s": time.perf_counter() - built,
               "als_iterations": len(f.fit_history)}


# BLAS thread counts, pinned to 1 for the build's workers
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _build_models(systems: dict, ranks, seed: int, cp_options):
    """The :class:`TaylorModel` of each system in ``systems`` and the
    timings of each of its order's jobs (:func:`_order_job`), both by
    level.  A build failure of any level raises one
    :class:`ModelBuildError` that names, in level order, each failing
    level and the failure of its lowest failing order (the Jacobian is
    order 1); any other error of a job propagates.

    Each (level, order) job builds that order's term and compresses it;
    its stencil chunks and sparse ALS rank blocks run on threads
    (:func:`_thread_pool`), each pool sized from the CPU count alone.
    The jobs run in ``min(jobs, CPUs)`` worker processes, order 3 first
    since those take longest, while this process computes the Jacobians.
    They run in process with one usable CPU, and when ``__main__`` names
    a file that does not exist, which a spawned worker could not
    re-import: a script that ``python -`` reads from standard input is
    ``<stdin>``.  In process, their fits follow the caller's BLAS
    threads.  The workers are spawned with BLAS on one thread: the
    variables of :data:`_BLAS_VARS` are 1 in ``os.environ`` while the
    pool lives, and restored after it.  A fork server would keep the
    environment of whichever pool started it first.  Every job is
    deterministic and owns its seed, so the models have the bytes of an
    in-process build with BLAS on one thread, whatever the caller's."""
    jobs = [(lv, order) for order in (3, 2) for lv in systems]
    args = [(systems[lv], order, ranks, seed, cp_options) for lv, order in jobs]
    workers = min(len(jobs), _cpu_count())
    main = getattr(sys.modules["__main__"], "__file__", None)
    if workers <= 1 or (main is not None and not os.path.isfile(main)):
        a1 = {lv: _attempt(jacobian, s) for lv, s in systems.items()}
        done = [_attempt(_order_job, *a) for a in args]
    else:
        saved = {k: os.environ.get(k) for k in _BLAS_VARS}
        os.environ.update(dict.fromkeys(_BLAS_VARS, "1"))
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = [pool.submit(_attempt, _order_job, *a) for a in args]
                a1 = {lv: _attempt(jacobian, s) for lv, s in systems.items()}
                done = [f.result() for f in futures]
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    results = dict(zip(jobs, done))
    models, timings, failures = {}, {}, []
    for lv, sys_l in systems.items():
        parts = [a1[lv], results[lv, 2], results[lv, 3]]
        errors = [exc for _, exc in parts if exc is not None]
        if errors:
            failures.append(f"level {lv}: {errors[0]}")
            continue
        (j, _), ((f2, t2), _), ((f3, t3), _) = parts
        models[lv] = _taylor_model(sys_l, j, f2, f3)
        timings[lv] = {"order2": t2, "order3": t3}
    if failures:
        raise ModelBuildError("model set build aborted: " + "; ".join(failures))
    return models, timings


# ---------------------------------------------------------------------------
# hybrid model


def hybrid_rows(sys: pm.SystemModel, norms: dict, threshold: float) -> np.ndarray:
    """Row mask of the hybrid model: True on the rows of the study area and
    of every external machine whose admittance column norm in ``norms``
    (:func:`tensorsim.power_model.admittance_column_norms`) exceeds
    ``threshold``.  True rows follow the full equations, the rest the
    reduced Taylor dynamics."""
    study = set(sys.study)
    return np.repeat([m.id in study or norms[m.id] > threshold for m in sys.machines],
                     pm.N_STATES)


def hybrid_rhs(model: TaylorModel, rows: np.ndarray, x: np.ndarray,
               sys: pm.SystemModel) -> np.ndarray:
    """Full-model rows where ``rows`` is True, reduced Taylor rows of
    ``model`` elsewhere, both at the same state vector.

    Full rows are evaluated on the pre-fault network by the same kernel as
    the plain full model, so they match it bit for bit; a mask over every
    row returns them without evaluating the reduced model.  ``x`` may be
    stacked lanes, as for :func:`reduced_rhs`.
    """
    full = pm._rhs(sys, sys.y_red, x)
    return full if rows.all() else np.where(rows, full, reduced_rhs(model, x - model.x0))


# ---------------------------------------------------------------------------
# model sets and persistence


@dataclass
class ModelSet:
    """Taylor models by representative load level.  ``meta`` is persisted;
    ``timings``, by level and order, holds the measured timings of a
    fresh build's jobs (:func:`_order_job`) and is not."""

    levels: tuple
    models: dict
    meta: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def model_for(self, level: float) -> TaylorModel:
        """The model of the representative level nearest ``level``: the one
        place a load level picks a model.  Levels whose distances differ by
        at most 1e-9 tie (so 1.1 is as near 1.0 as 1.2), and a tie goes to
        the level nearest nominal (1.0), then to the lower one."""
        gap = min(abs(lv - level) for lv in self.levels)
        active = min((lv for lv in self.levels if abs(lv - level) <= gap + 1e-9),
                     key=lambda lv: (abs(lv - 1.0), lv))
        if active not in self.models:
            raise ValueError(f"missing model for required level {active}")
        return self.models[active]


def solve_levels(sys: pm.SystemModel, levels) -> dict:
    """The system re-solved at each load level, by level.  Repeated levels
    are refused before any is solved.  Any level whose power flow or
    equilibrium fails aborts with a combined diagnostic that names every
    failing level."""
    repeated = sorted({lv for lv in levels if list(levels).count(lv) > 1})
    if repeated:
        raise ValueError(f"load levels must be distinct, got {list(levels)} (repeated: {repeated})")
    systems, failures = {}, []
    for lv in levels:
        try:
            systems[lv] = sys if lv == sys.load_level else pm.build_system(sys.spec, lv)
        except (pm.PowerFlowError, pm.EquilibriumError) as exc:
            failures.append(f"level {lv}: {exc}")
    if failures:
        raise ModelBuildError("model set build aborted: " + "; ".join(failures))
    return systems


def build_model_set(
    sys: pm.SystemModel,
    levels=(0.8, 1.0, 1.2),
    ranks=(16, 16),
    *,
    seed: int = 0,
    cp_options: dict | None = None,
) -> ModelSet:
    """One Taylor model per representative load level, each built around
    that level's own re-solved equilibrium.  Bad ranks and repeated levels
    are refused first, then every level is solved (:func:`solve_levels`),
    then the (level, order) jobs of :func:`_build_models` run.  Any
    per-level failure aborts the set build with a combined diagnostic.
    The metadata records each level's fits, and per order its ALS
    convergence flag and iterations; each (level, order) whose ALS
    stopped at its iteration cap (``converged=False``) is also logged as
    one WARNING, with its iterations and fit."""
    _check_ranks(sys, ranks)
    models, timings = _build_models(solve_levels(sys, levels), ranks, seed, cp_options)
    meta = {"levels": list(levels), "ranks": list(models[levels[0]].ranks), "seed": seed,
            "fits": {}, "converged": {}, "iterations": {}}
    for lv in levels:
        factors = (models[lv].a2, models[lv].a3)
        meta["fits"][str(lv)] = list(models[lv].fits)
        meta["converged"][str(lv)] = [bool(f.converged) for f in factors]
        meta["iterations"][str(lv)] = [len(f.fit_history) for f in factors]
        for order, f in zip((2, 3), factors):
            if not f.converged:
                _log.warning("level %s order %d: ALS did not converge in %d iterations "
                             "(fit %.6g)", lv, order, len(f.fit_history), f.fit)
    return ModelSet(levels=tuple(levels), models=models, meta=meta,
                    timings={str(lv): timings[lv] for lv in levels})


def build_taylor_model(sys: pm.SystemModel, ranks) -> TaylorModel:
    """The Taylor model of ``sys`` at its own load level, with ALS seeded
    at 0 on the kernel's defaults: the one-level :func:`build_model_set`,
    so a failed build raises its :class:`ModelBuildError`.  Bad ranks,
    ``ranks="full"`` above :data:`DENSE_STATE_LIMIT` states among them,
    are refused before the level is read."""
    _check_ranks(sys, ranks)
    return build_model_set(sys, levels=(sys.load_level,), ranks=ranks).models[sys.load_level]


def save_model_set(ms: ModelSet, path, extra_meta: dict | None = None) -> None:
    """Persist a model set to ``.npz``.  Arrays round-trip bit-faithfully."""
    meta = dict(ms.meta)
    if extra_meta:
        meta.update(extra_meta)
    arrays = {
        "levels": np.asarray(ms.levels, dtype=float),
        "meta_json": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        ),
    }
    for i, lv in enumerate(ms.levels):
        mdl = ms.models[lv]
        pre = f"m{i}_"
        arrays[pre + "x0"] = mdl.x0
        arrays[pre + "a1"] = mdl.a1
        arrays[pre + "info"] = np.array(
            [mdl.load_level, mdl.fits[0], mdl.fits[1]], dtype=float
        )
        for tag, f in (("a2", mdl.a2), ("a3", mdl.a3)):
            arrays[pre + tag + "_w"] = f.weights
            for k, mat in enumerate(f.factors):
                arrays[pre + f"{tag}_f{k}"] = mat
    np.savez(path, **arrays)


# what numpy's zip and npy readers raise on a damaged archive: a bad zip
# structure or checksum, a short member (EOFError), a compression method
# flipped to one zipfile lacks (NotImplementedError), to deflate
# (zlib.error) or to bzip2 (OSError), an encryption flag (RuntimeError),
# and a bad npy header (ValueError, tokenize.TokenError)
_ARCHIVE_ERRORS = (ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
                   zipfile.BadZipFile, zlib.error, tokenize.TokenError)


def load_model_set(path) -> ModelSet:
    """The model set that :func:`save_model_set` wrote to ``path``.

    Raises ``OSError`` for a file that cannot be read, and ``ValueError``
    for any content that is not such a set: an archive numpy cannot read,
    a missing array, an array that is not finite 64-bit floats, ``levels``
    that are empty, not 1-D or repeated, a metadata that is not a JSON
    object, an ``info`` that is not three numbers or whose load level is
    not the level's entry in ``levels``, weights that are negative or
    none (rank 0), or a level whose ``x0``, ``a1`` and factor rows
    disagree on the state count, with each other or with another
    level's."""
    with open(path, "rb") as fh:
        data = fh.read()

    def bad(why):
        return ValueError(f"{path}: not a tensorsim model set ({why})")

    try:
        z = np.load(io.BytesIO(data))
        if isinstance(z, np.lib.npyio.NpzFile):
            with z:
                arrays = dict(z)
    except _ARCHIVE_ERRORS as exc:
        raise bad(f"unreadable archive: {type(exc).__name__}: {exc}") from exc
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise bad("not an .npz archive")

    def get(key, shape):
        """The array ``key``: finite 64-bit floats of ``shape``, where a
        None length is any."""
        if key not in arrays:
            raise bad(f"missing '{key}'")
        a = arrays[key]
        if a.dtype != np.float64 or a.ndim != len(shape) or any(
                want not in (None, got) for want, got in zip(shape, a.shape)):
            raise bad(f"'{key}' is {a.dtype} of shape {a.shape}, want float64 of shape "
                      f"{tuple('any' if d is None else d for d in shape)}")
        if not np.all(np.isfinite(a)):
            raise bad(f"'{key}' has non-finite entries")
        return a

    levels = tuple(float(v) for v in get("levels", (None,)))
    if not levels or len(set(levels)) != len(levels):
        raise bad(f"levels must be distinct and at least one, got {list(levels)}")
    if "meta_json" not in arrays:
        raise bad("missing 'meta_json'")
    try:
        meta = json.loads(arrays["meta_json"].tobytes().decode())
    except ValueError as exc:
        raise bad(f"bad metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise bad("metadata is not a JSON object")
    n = get("m0_x0", (None,)).size
    models = {}
    for i, lv in enumerate(levels):
        pre = f"m{i}_"
        info = get(pre + "info", (3,))
        if info[0] != lv:
            raise bad(f"'{pre}info' gives load level {float(info[0])!r}, 'levels' {lv!r}")
        facs = {}
        for tag, d in (("a2", 3), ("a3", 4)):
            w = get(pre + tag + "_w", (None,))
            if w.size == 0 or np.any(w < 0):
                raise bad(f"'{pre}{tag}_w' must hold one nonnegative weight per rank, "
                          f"at least one, got {w.tolist()}")
            mats = [get(pre + f"{tag}_f{k}", (n, w.size)) for k in range(d)]
            facs[tag] = CpFactors(
                rank=w.size, factors=mats, weights=w,
                fit=float(info[1 if tag == "a2" else 2]),
            )
        models[lv] = TaylorModel(
            load_level=lv,
            x0=get(pre + "x0", (n,)),
            a1=get(pre + "a1", (n, n)),
            a2=facs["a2"],
            a3=facs["a3"],
            ranks=(facs["a2"].rank, facs["a3"].rank),
            fits=(float(info[1]), float(info[2])),
        )
    return ModelSet(levels=levels, models=models, meta=meta)
