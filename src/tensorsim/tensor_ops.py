"""Dense tensor algebra used by the reduced-order model pipeline.

Provides Kronecker and Khatri-Rao products, mode-k tensor-matrix products,
mode-1 matricization and its inverse, and a CP (canonical polyadic)
decomposition computed by alternating least squares.  The one ALS loop,
:func:`cp_als`, serves the dense kernel here and the sparse coordinate
kernel in :mod:`tensorsim.taylor` alike.  The dense kernel, inside
:func:`cp_decompose`, contracts only the tensor's nonzero slices, since
a zero slice adds nothing to an MTTKRP.  Each mode's contraction is
planned once per decomposition (:func:`_einsum_plan`): the calls
``np.einsum`` makes on the greedy contraction path, with its bytes, but
without re-planning them on every MTTKRP.

Storage convention
------------------
A :class:`Tensor` of dims ``(n1, ..., nd)`` is linearized mode-1 fastest
(Fortran order).  Under this convention ``matricize_mode1`` and
``tensorize`` are exact inverses, and the column order of the mode-1
unfolding matches the reverse-mode Khatri-Rao factor ordering used by
:func:`cp_mode1_matrix`: the unfolding of a rank-one tensor
``a o b o c`` is ``a (c kron b)^T``.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "CpFactors",
    "kron",
    "khatri_rao",
    "khatri_rao_list",
    "mode_k_product",
    "matricize_mode1",
    "tensorize",
    "cp_als",
    "cp_decompose",
    "cp_reconstruct",
    "cp_mode1_matrix",
    "cp_exact",
]


class Tensor:
    """Dense real tensor with an explicit dimension vector.

    The flat representation (``.data``) uses mode-1-fastest ordering, so
    ``Tensor.from_flat(t.data, t.dims)`` reproduces ``t`` exactly.
    """

    __slots__ = ("_a",)

    def __init__(self, array):
        a = np.asarray(array, dtype=float)
        if a.ndim < 1:
            a = a.reshape(1)
        if any(n < 1 for n in a.shape):
            raise ValueError(f"tensor dims must all be >= 1, got {a.shape}")
        self._a = a

    @classmethod
    def from_flat(cls, data, dims) -> "Tensor":
        data = np.asarray(data, dtype=float).ravel()
        dims = tuple(int(n) for n in dims)
        if int(np.prod(dims)) != data.size:
            raise ValueError(
                f"flat data length {data.size} does not match dims {dims}"
            )
        return cls(data.reshape(dims, order="F"))

    @property
    def dims(self) -> tuple:
        return self._a.shape

    @property
    def ndim(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def data(self) -> np.ndarray:
        """Flat copy in the documented mode-1-fastest order."""
        return self._a.ravel(order="F")

    @property
    def array(self) -> np.ndarray:
        """The underlying ndarray (shape == dims).  Treat as read-only."""
        return self._a

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def __repr__(self):
        return f"Tensor(dims={self.dims})"


def _as_tensor(t) -> Tensor:
    return t if isinstance(t, Tensor) else Tensor(t)


@dataclass
class CpFactors:
    """CP factor matrices with unit-norm columns and separate weights.

    ``factors[k]`` has shape ``(n_k, rank)``; ``weights`` holds the
    nonnegative scale of each rank-one component.  Diagnostics from the
    ALS solve (fit, convergence flag, per-iteration fit history) ride
    along when produced by :func:`cp_als`.
    """

    rank: int
    factors: list
    weights: np.ndarray
    fit: float | None = None
    converged: bool | None = None
    fit_history: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        self.factors = [np.asarray(f, dtype=float) for f in self.factors]
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        for k, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != self.rank:
                raise ValueError(
                    f"factor {k} has shape {f.shape}, expected (*, {self.rank})"
                )
        if self.weights.shape != (self.rank,):
            raise ValueError("weights length must equal rank")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)


def kron(a, b) -> np.ndarray:
    """Kronecker product; entry ((i)*rows_b+p, (j)*cols_b+q) = a[i,j]*b[p,q]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim > 2 or b.ndim > 2:
        raise ValueError("kron operands must be vectors or matrices")
    return np.kron(a, b)


def khatri_rao(a, b) -> np.ndarray:
    """Columnwise Kronecker product of two matrices with equal column counts."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return np.einsum("ir,jr->ijr", a, b).reshape(-1, a.shape[1])


def khatri_rao_list(mats) -> np.ndarray:
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    out = np.asarray(mats[0], dtype=float)
    for m in mats[1:]:
        out = khatri_rao(out, m)
    return out


def mode_k_product(t, x, k: int) -> Tensor:
    """Contract mode k (1-based) of tensor ``t`` against the columns of ``x``.

    ``x`` must have ``t.dims[k-1]`` columns; the result replaces mode k's
    size with ``x.shape[0]``.
    """
    t = _as_tensor(t)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not 1 <= k <= t.ndim:
        raise ValueError(f"mode {k} out of range for order-{t.ndim} tensor")
    if x.shape[1] != t.dims[k - 1]:
        raise ValueError(
            f"matrix has {x.shape[1]} columns, mode {k} has size {t.dims[k-1]}"
        )
    out = np.tensordot(x, t.array, axes=([1], [k - 1]))
    return Tensor(np.moveaxis(out, 0, k - 1))


def matricize_mode1(t) -> np.ndarray:
    """Mode-1 unfolding: shape (n1, n2*...*nd), trailing modes in
    mode-2-fastest column order."""
    t = _as_tensor(t)
    if t.ndim < 2:
        raise ValueError("matricization needs an order >= 2 tensor")
    return t.array.reshape(t.dims[0], -1, order="F")


def tensorize(m, dims) -> Tensor:
    """Exact inverse of :func:`matricize_mode1`."""
    m = np.asarray(m, dtype=float)
    dims = tuple(int(n) for n in dims)
    if m.ndim != 2:
        raise ValueError("tensorize expects a matrix")
    rest = int(np.prod(dims[1:])) if len(dims) > 1 else 1
    if m.shape[0] != dims[0] or m.shape[1] != rest:
        raise ValueError(
            f"matrix shape {m.shape} incompatible with dims {dims}"
        )
    return Tensor(m.reshape(dims, order="F"))


def _normalize_columns(factors):
    """Pull column norms out of the factors into a weights vector.

    Zero columns get weight 0 and are replaced by a unit basis vector so
    the unit-norm column invariant holds.
    """
    rank = factors[0].shape[1]
    weights = np.ones(rank)
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        weights *= norms
        g = f.copy()
        ok = norms > 0
        g[:, ok] /= norms[ok]
        if not np.all(ok):
            g[:, ~ok] = 0.0
            g[0, ~ok] = 1.0
        out.append(g)
    return out, weights


def _zero_factors(dims, rank) -> CpFactors:
    factors = []
    for n in dims:
        f = np.zeros((n, rank))
        f[0, :] = 1.0
        factors.append(f)
    return CpFactors(
        rank=rank,
        factors=factors,
        weights=np.zeros(rank),
        fit=1.0,
        converged=True,
        fit_history=np.array([1.0]),
    )


def cp_als(
    dims,
    norm_t: float,
    mttkrp_fn,
    rank: int,
    *,
    max_iters: int,
    fit_tolerance: float,
    restarts: int,
    seed: int,
) -> CpFactors:
    """CP alternating least squares over any tensor storage.

    The tensor enters only through its ``dims``, its Frobenius norm
    ``norm_t`` and ``mttkrp_fn(factors, k)``, which returns the
    ``(dims[k], rank)`` MTTKRP for 0-based mode ``k``.  Runs ``restarts``
    passes from seeded uniform random initial factors and keeps the best
    fit, where ``fit = 1 - ||T - That||_F / ||T||_F``.  A pass stops when
    the fit moves by less than ``fit_tolerance`` (``converged=True``) or
    after ``max_iters`` iterations, which is not an error.
    Rank-deficient normal equations fall back to a pseudo-inverse solve.
    Deterministic for a fixed seed.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if norm_t == 0.0:
        return _zero_factors(dims, rank)

    rng = np.random.default_rng(seed)
    d = len(dims)
    best = None
    for _ in range(max(1, restarts)):
        factors = [rng.uniform(size=(n, rank)) for n in dims]
        grams = [f.T @ f for f in factors]
        history = []
        prev_fit = None
        converged = False
        for _ in range(max_iters):
            m_last = None
            for k in range(d):
                v = np.ones((rank, rank))
                for j in range(d):
                    if j != k:
                        v *= grams[j]
                m = mttkrp_fn(factors, k)
                try:
                    factors[k] = np.linalg.solve(v, m.T).T
                except np.linalg.LinAlgError:
                    factors[k] = m @ np.linalg.pinv(v)
                grams[k] = factors[k].T @ factors[k]
                m_last = m
            # ||T - That||^2 = ||T||^2 - 2<T, That> + ||That||^2, with the
            # inner product recovered from the last MTTKRP.
            inner = float(np.sum(m_last * factors[d - 1]))
            v = np.ones((rank, rank))
            for j in range(d):
                v *= grams[j]
            norm_hat_sq = float(np.sum(v))
            resid_sq = max(norm_t**2 - 2.0 * inner + norm_hat_sq, 0.0)
            fit = 1.0 - np.sqrt(resid_sq) / norm_t
            history.append(fit)
            if prev_fit is not None and abs(fit - prev_fit) < fit_tolerance:
                converged = True
                break
            prev_fit = fit
        if best is None or history[-1] > best[0]:
            best = (history[-1], [f.copy() for f in factors], history, converged)

    fit, factors, history, converged = best
    factors, weights = _normalize_columns(factors)
    return CpFactors(
        rank=rank,
        factors=factors,
        weights=weights,
        fit=float(fit),
        converged=converged,
        fit_history=np.asarray(history),
    )


def _einsum_steps(expr: str, path, sizes: dict) -> list:
    """The steps of ``np.einsum(expr, ..., optimize=path)``: per entry of
    ``path``, the operand positions it takes (highest first, the order in
    which numpy pops them) and its subscripts.  An intermediate keeps the
    indices that a later step or the output needs, sorted by size, then
    letter, as ``np.einsum_path`` orders them; the last step writes the
    output."""
    lhs, out = expr.split("->")
    terms = lhs.split(",")
    contractions = path[1:]  # path[0] is the tag "einsum_path"
    steps = []
    for n, inds in enumerate(contractions):
        inds = sorted(inds, reverse=True)
        taken = [terms.pop(i) for i in inds]
        if n == len(contractions) - 1:
            result = out
        else:
            needed = set(out).union(*terms)
            result = "".join(sorted(set("".join(taken)) & needed, key=lambda ix: (sizes[ix], ix)))
        terms.append(result)
        steps.append((inds, ",".join(taken) + "->" + result))
    return steps


def _pairwise_rule(eq: str, shape_a, shape_b) -> tuple:
    """numpy's rule for a two-operand einsum step (``bmm_einsum`` in
    ``numpy/_core/einsumfunc.py``), written out: the single-operand einsum
    and the reshape that prepare each operand (None where none is needed),
    whether the product is an elementwise ``np.multiply`` (no contracted
    index) or an ``np.matmul``, and the reshape and transpose of the
    matmul's result.  Indices of size 1 are left out of the matmul's
    groups and come back as leading axes of the result."""
    lhs, out = eq.split("->")
    a_term, b_term = lhs.split(",")
    sizes, singletons, left, right = {}, set(), {}, {}
    for ix, n in zip(a_term, shape_a):
        if n == 1:
            singletons.add(ix)
        else:
            sizes[ix], left[ix] = n, True
    for ix, n in zip(b_term, shape_b):
        if n == 1:
            if ix not in left:
                singletons.add(ix)
        else:
            singletons.discard(ix)
            sizes[ix], right[ix] = n, True
    bat, con, a_keep = [], [], []
    for ix in left:
        if right.pop(ix, False):
            (bat if ix in out else con).append(ix)
        elif ix in out:
            a_keep.append(ix)
    b_keep = [ix for ix in right if ix in out]

    def einsum_to(term, want):
        return None if want == term else f"{term}->{want}"

    if not con:
        dims_a = [shape_a[a_term.index(ix)] if ix in a_term else 1 for ix in out]
        dims_b = [shape_b[b_term.index(ix)] if ix in b_term else 1 for ix in out]
        return (einsum_to(a_term, "".join(ix for ix in out if ix in a_term)), dims_a,
                einsum_to(b_term, "".join(ix for ix in out if ix in b_term)), dims_b,
                True, None, None)

    def fused(groups):
        if all(len(g) == 1 for g in groups):
            return None
        return tuple(math.prod(sizes[ix] for ix in g) for g in groups)

    groups = (bat,) if bat else ()
    ones = [ix for ix in out if ix in singletons]
    shape_ab = None
    if any(len(g) != 1 for g in groups + (a_keep, b_keep)) or ones:
        shape_ab = (1,) * len(ones) + tuple(sizes[ix] for ix in bat + a_keep + b_keep)
    produced = "".join(ones + bat + a_keep + b_keep)
    perm_ab = None if produced == out else tuple(produced.index(ix) for ix in out)
    return (einsum_to(a_term, "".join(bat + a_keep + con)), fused(groups + (a_keep, con)),
            einsum_to(b_term, "".join(bat + con + b_keep)), fused(groups + (con, b_keep)),
            False, shape_ab, perm_ab)


def _prepare(x, eq, shape):
    """``x`` through the single-operand einsum ``eq``, then reshaped to
    ``shape``; either step is skipped where it is None."""
    if eq is not None:
        x = np.einsum(eq, x)
    return x if shape is None else np.reshape(x, shape)


def _pairwise_step(eq: str, shape_a, shape_b, fixed):
    """The two-operand step ``eq`` as a function of its operands: the
    preparations and the one product of :func:`_pairwise_rule`.  Where
    ``fixed`` holds an operand instead of None, its prepared form is built
    here, once, and the step ignores what it is passed in that place."""
    eq_a, to_a, eq_b, to_b, multiply, shape_ab, perm_ab = _pairwise_rule(eq, shape_a, shape_b)
    ready_a, ready_b = (None if x is None else _prepare(x, e, s)
                        for x, e, s in zip(fixed, (eq_a, eq_b), (to_a, to_b)))

    def step(a, b):
        a = _prepare(a, eq_a, to_a) if ready_a is None else ready_a
        b = _prepare(b, eq_b, to_b) if ready_b is None else ready_b
        if multiply:
            return np.multiply(a, b)
        ab = np.matmul(a, b)
        if shape_ab is not None:
            ab = np.reshape(ab, shape_ab)
        return ab if perm_ab is None else ab.transpose(perm_ab)

    return step


def _einsum_plan(expr: str, path, core: np.ndarray, shapes):
    """``np.einsum(expr, core, *ops, optimize=path)`` as a fixed plan: a
    function of ``ops``, whose shapes are ``shapes``, with the bytes of that
    call.

    ``np.einsum`` re-parses the subscripts and rebuilds its contraction list
    in Python on every call; the plan does that once.  A step of two
    operands is a :func:`_pairwise_step`; a step of more runs
    ``np.einsum(step, *operands, optimize=False)``, the call ``np.einsum``
    makes.  ``core`` is fixed, so its prepared form is built here, once.
    """
    sizes = {}
    for term, shape in zip(expr.split("->")[0].split(","), [core.shape, *shapes]):
        sizes.update(zip(term, shape))
    fixed = [core] + [None] * len(shapes)  # each operand, where it is fixed
    plan = []
    for inds, eq in _einsum_steps(expr, path, sizes):
        taken = [fixed.pop(i) for i in inds]
        if len(inds) == 2:
            a_term, b_term = eq.split("->")[0].split(",")
            step = _pairwise_step(eq, [sizes[ix] for ix in a_term],
                                  [sizes[ix] for ix in b_term], taken)
        else:
            step = functools.partial(np.einsum, eq, optimize=False)
        fixed.append(None)
        plan.append((inds, step))

    def run(*ops):
        ops = [core, *ops]
        for inds, step in plan:
            ops.append(step(*[ops.pop(i) for i in inds]))
        return ops[0]

    return run


def _support_core(a: np.ndarray):
    """The support of each mode of ``a`` (the indices whose slice holds a
    nonzero entry) and the sub-tensor on the supports."""
    d = a.ndim
    support = [
        np.flatnonzero(np.any(a != 0, axis=tuple(j for j in range(d) if j != k)))
        for k in range(d)
    ]
    return support, a[np.ix_(*support)]


def _mttkrp_plans(core: np.ndarray, rank: int) -> list:
    """Per mode ``k`` of ``core``: the other modes, the einsum of the
    mode-``k`` MTTKRP against their factor rows, its contraction path
    (``np.einsum_path``, greedy) and its :func:`_einsum_plan`."""
    d = core.ndim
    letters = string.ascii_lowercase[:d]
    plans = []
    for k in range(d):
        others = [j for j in range(d) if j != k]
        expr = ",".join([letters] + [letters[j] + "z" for j in others]) + "->" + letters[k] + "z"
        shapes = [(core.shape[j], rank) for j in others]
        path = np.einsum_path(expr, core, *(np.empty(s) for s in shapes), optimize=True)[0]
        plans.append((others, expr, path, _einsum_plan(expr, path, core, shapes)))
    return plans


def cp_decompose(
    t,
    rank: int,
    *,
    max_iters: int = 500,
    fit_tolerance: float = 1e-8,
    restarts: int = 3,
    seed: int = 0,
) -> CpFactors:
    """CP decomposition of a dense tensor by :func:`cp_als`.  The best
    fit, the convergence flag and the per-iteration fit history ride on
    the returned factors.

    The MTTKRP runs on the tensor's support only: the support of mode
    ``k`` is the set of indices whose slice holds a nonzero entry, and a
    zero slice adds nothing to any MTTKRP.  Each mode's MTTKRP contracts
    the sub-tensor on the supports against the matching factor rows by a
    plan made once per call (:func:`_mttkrp_plans`): the steps that
    ``np.einsum`` takes on the greedy contraction path, with the same
    bytes, and the sub-tensor's prepared operand built once.  The result
    is scattered back into the full ``(dims[k], rank)`` row space; rows
    off the support stay exactly zero.
    """
    t = _as_tensor(t)
    support, core = _support_core(t.array)
    plans = _mttkrp_plans(core, rank)

    def support_mttkrp(factors, k):
        others, _, _, plan = plans[k]
        m = np.zeros((t.dims[k], rank))
        m[support[k]] = plan(*(factors[j][support[j]] for j in others))
        return m

    return cp_als(
        t.dims,
        t.norm(),
        support_mttkrp,
        rank,
        max_iters=max_iters,
        fit_tolerance=fit_tolerance,
        restarts=restarts,
        seed=seed,
    )


def cp_reconstruct(f: CpFactors) -> Tensor:
    """Sum of weighted rank-one outer products, returned as a dense tensor."""
    return tensorize(cp_mode1_matrix(f), f.dims)


def cp_mode1_matrix(f: CpFactors) -> np.ndarray:
    """Mode-1 unfolding of the CP reconstruction:
    ``A(1) diag(w) (A(d) kr ... kr A(2))^T``."""
    if f.ndim < 2:
        raise ValueError("needs an order >= 2 factorization")
    lead = f.factors[0] * f.weights
    kr = khatri_rao_list(f.factors[:0:-1])
    return lead @ kr.T


def cp_exact(t) -> CpFactors:
    """Exact CP representation of rank ``n2*...*nd``.

    Column ``c`` of the leading factor is the tensor fiber selected by the
    trailing-mode one-hot columns; reconstruction is exact to rounding.
    Used as the deterministic full-rank route in oracle comparisons.  No
    ALS iteration runs, so the fit history is empty.
    """
    t = _as_tensor(t)
    if t.ndim < 2:
        raise ValueError("needs an order >= 2 tensor")
    rest = t.dims[1:]
    rank = int(np.prod(rest))
    lead = matricize_mode1(t)
    idx = np.unravel_index(np.arange(rank), rest, order="F")
    factors = [lead]
    for k, n in enumerate(rest):
        factors.append(np.eye(n)[:, idx[k]])
    factors, weights = _normalize_columns(factors)
    return CpFactors(
        rank=rank, factors=factors, weights=weights, fit=1.0, converged=True,
        fit_history=np.empty(0),
    )

