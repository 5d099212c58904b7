"""Dense tensor algebra used by the reduced-order model pipeline.

Provides Kronecker and Khatri-Rao products, mode-k tensor-matrix products,
mode-1 matricization and its inverse, and a CP (canonical polyadic)
decomposition computed by alternating least squares.  The one ALS loop,
:func:`cp_als`, serves the dense kernel here and the sparse coordinate
kernel in :mod:`tensorsim.taylor` alike.  The dense kernel
(:func:`_tree_mttkrp`, inside :func:`cp_decompose`) contracts only the
tensor's nonzero slices, since a zero slice adds nothing to an MTTKRP,
on a dimension tree: the unfolding times a Khatri-Rao product, formed
once per ALS sweep for each half of the modes and shared by the modes
of that half.

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

import math
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
            # inner product recovered from the last MTTKRP.  At exact
            # recovery the terms cancel to their rounding, about
            # eps * ||T||^2, which would read as fit noise near 1: a sum
            # within d * rank * eps * ||T||^2 of zero, or below it, is 0.
            inner = float(np.sum(m_last * factors[d - 1]))
            v = np.ones((rank, rank))
            for j in range(d):
                v *= grams[j]
            norm_hat_sq = float(np.sum(v))
            resid_sq = norm_t**2 - 2.0 * inner + norm_hat_sq
            if resid_sq <= d * rank * np.finfo(float).eps * norm_t**2:
                resid_sq = 0.0
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


def _support_core(a: np.ndarray):
    """The support of each mode of ``a`` (the indices whose slice holds a
    nonzero entry) and the sub-tensor on the supports."""
    d = a.ndim
    support = [
        np.flatnonzero(np.any(a != 0, axis=tuple(j for j in range(d) if j != k)))
        for k in range(d)
    ]
    return support, a[np.ix_(*support)]


def _tree_mttkrp(a: np.ndarray):
    """The MTTKRP ``mttkrp(factors, k)`` of the dense tensor ``a``, on a
    dimension tree of two halves (Phan, Tichavsky & Cichocki, IEEE Trans.
    Signal Process. 61(19), 2013).

    The modes of the support core split into a leading half ``L`` and a
    trailing half ``R``.  ``X_L = core(L, R) @ KR(R's factor rows)``, the
    unfolding times a Khatri-Rao product (Kolda & Bader, SIAM Review
    51(3), 2009), serves every mode in ``L``, and ``X_R = core(L, R).T @
    KR(L's factor rows)`` every mode in ``R``; a mode then contracts its
    half's ``X`` with the other factor rows of its own half.  ALS updates
    the modes in order, so one ``X`` per half is formed once per sweep:
    each is cached on the factor objects it was formed from, compared
    with ``is`` (``cp_als`` assigns a new array per update), not on their
    ``id``, which a freed array's successor can take.  The result is
    scattered back into the full ``(dims[k], rank)`` row space; rows off
    the support stay exactly zero.
    """
    support, core = _support_core(a)
    d, h = core.ndim, core.ndim // 2
    halves = (tuple(range(h)), tuple(range(h, d)))
    # an all-zero tensor has empty supports, so the sizes are given whole
    unfold = core.reshape(math.prod(core.shape[:h]), math.prod(core.shape[h:]))
    cache = {}  # half -> (the other half's factors, X of the half)

    def mttkrp(factors, k):
        rank = factors[0].shape[1]
        lead = k < h
        half, other = halves if lead else halves[::-1]
        feeding = [factors[j] for j in other]
        hit = cache.get(half)
        if hit is None or any(f is not g for f, g in zip(hit[0], feeding)):
            kr = khatri_rao_list([f[support[j]] for j, f in zip(other, feeding)])
            x = (unfold if lead else unfold.T) @ kr
            cache[half] = hit = feeding, x.reshape(*(core.shape[j] for j in half), rank)
        x = hit[1]
        if len(half) > 1:
            # the half's other modes against their factor rows; axis r is the rank
            r, ops = len(half), []
            for i, j in enumerate(half):
                if j != k:
                    ops += [factors[j][support[j]], [i, r]]
            x = np.einsum(x, list(range(r + 1)), *ops, [half.index(k), r])
        m = np.zeros((a.shape[k], rank))
        m[support[k]] = x
        return m

    return mttkrp


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

    The MTTKRP (:func:`_tree_mttkrp`) runs on the tensor's support only:
    the support of mode ``k`` is the set of indices whose slice holds a
    nonzero entry, and a zero slice adds nothing to any MTTKRP.
    """
    t = _as_tensor(t)
    return cp_als(
        t.dims,
        t.norm(),
        _tree_mttkrp(t.array),
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

