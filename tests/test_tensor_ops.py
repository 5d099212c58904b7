import numpy as np
import pytest

from tensorsim.tensor_ops import (
    CpFactors,
    Tensor,
    cp_decompose,
    cp_exact,
    cp_mode1_matrix,
    cp_reconstruct,
    khatri_rao,
    khatri_rao_list,
    kron,
    matricize_mode1,
    mode_k_product,
    tensorize,
)


def brute_kron(a, b):
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for p in range(b.shape[0]):
                for q in range(b.shape[1]):
                    out[i * b.shape[0] + p, j * b.shape[1] + q] = a[i, j] * b[p, q]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_column_vectors(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(kron(a, b), np.array([[3.0], [4.0], [6.0], [8.0]]))

    def test_self_product_sign(self):
        x = np.array([[1.0], [-1.0]])
        assert np.array_equal(kron(x, x), np.array([[1.0], [-1.0], [-1.0], [1.0]]))

    def test_matches_entry_formula(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4))
        assert np.allclose(kron(a, b), brute_kron(a, b), atol=0)


class TestKhatriRao:
    def test_single_column_is_kron(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 1))
        b = rng.standard_normal((4, 1))
        assert np.allclose(khatri_rao(a, b), kron(a, b))

    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expect = np.column_stack(
            [np.kron(np.eye(2)[:, j], np.eye(2)[:, j]) for j in range(2)]
        )
        assert np.array_equal(out, expect)

    def test_columnwise_kron_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        out = khatri_rao(a, b)
        for j in range(2):
            assert np.allclose(out[:, j], np.kron(a[:, j], b[:, j]), atol=1e-15)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestModeKProduct:
    def test_identity(self):
        rng = np.random.default_rng(3)
        t = Tensor(rng.standard_normal((3, 4, 5)))
        for k in (1, 2, 3):
            out = mode_k_product(t, np.eye(t.dims[k - 1]), k)
            assert np.allclose(out.array, t.array, atol=0)

    def test_brute_force_contraction(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 5))
        x = rng.standard_normal((2, 4))
        out = mode_k_product(Tensor(t), x, 2).array
        expect = np.zeros((3, 2, 5))
        for i in range(3):
            for a in range(2):
                for c in range(5):
                    expect[i, a, c] = sum(t[i, j, c] * x[a, j] for j in range(4))
        assert np.allclose(out, expect, atol=1e-14)

    def test_matches_kronecker_form(self):
        # contracting trailing modes against a row vector equals the
        # unfolded matrix acting on the Kronecker square
        rng = np.random.default_rng(5)
        t = Tensor(rng.standard_normal((4, 4, 4)))
        dx = rng.standard_normal(4)
        contracted = mode_k_product(mode_k_product(t, dx[None, :], 2), dx[None, :], 3)
        vec = contracted.array.reshape(-1)
        expect = matricize_mode1(t) @ np.kron(dx, dx)
        assert np.allclose(vec, expect, rtol=1e-12, atol=1e-14)

    def test_errors(self):
        t = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mode_k_product(t, np.eye(2), 3)
        with pytest.raises(ValueError):
            mode_k_product(t, np.ones((2, 4)), 2)

    def test_distinct_mode_commutation(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = Tensor(rng.standard_normal((3, 3, 3)))
            x = rng.standard_normal((3, 3))
            y = rng.standard_normal((3, 3))
            ab = mode_k_product(mode_k_product(t, x, 1), y, 3).array
            ba = mode_k_product(mode_k_product(t, y, 3), x, 1).array
            assert np.max(np.abs(ab - ba)) < 1e-12


class TestMatricize:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 8))
        t = tensorize(m, (3, 2, 4))
        assert np.array_equal(matricize_mode1(t), m)

    def test_rank_one_layout(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(4)
        t = Tensor(np.einsum("i,j,k->ijk", a, b, c))
        assert np.allclose(matricize_mode1(t), np.outer(a, np.kron(c, b)), atol=1e-15)

    def test_storage_order(self):
        t = Tensor.from_flat(np.arange(1.0, 9.0), (2, 2, 2))
        expect = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        assert np.array_equal(matricize_mode1(t), expect)

    def test_flat_round_trip(self):
        rng = np.random.default_rng(9)
        t = Tensor(rng.standard_normal((3, 3, 3)))
        back = Tensor.from_flat(t.data, t.dims)
        assert np.array_equal(back.array, t.array)

    def test_tensorize_errors_and_degenerate(self):
        with pytest.raises(ValueError):
            tensorize(np.ones((3, 9)), (3, 2, 2))
        v = np.arange(4.0).reshape(4, 1)
        t = tensorize(v, (4, 1, 1))
        assert np.array_equal(t.array.reshape(-1), v.reshape(-1))

    def test_three_cubed(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((3, 9))
        assert np.array_equal(matricize_mode1(tensorize(m, (3, 3, 3))), m)


class TestCpDecompose:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.uniform(0.5, 1.5, size=s) for s in (4, 3, 5))
        t = Tensor(np.einsum("i,j,k->ijk", a, b, c))
        f = cp_decompose(t, 1, seed=0)
        assert f.fit >= 1 - 1e-6

    def test_rank_three_recovery(self):
        rng = np.random.default_rng(12)
        facs = [rng.uniform(0.1, 1.0, size=(n, 3)) for n in (6, 5, 4)]
        t = Tensor(np.einsum("ir,jr,kr->ijk", *facs))
        f = cp_decompose(t, 3, seed=0)
        rec = cp_reconstruct(f).array
        assert np.linalg.norm(rec - t.array) / t.norm() <= 1e-5

    def test_zero_tensor(self):
        f = cp_decompose(Tensor(np.zeros((3, 3, 3))), 2)
        assert np.all(f.weights == 0)
        assert f.fit == 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_recovery_reads_fit_one(self, seed):
        # at exact recovery the residual norm is rounding, about
        # eps * ||T||^2, whose square root would read as fit noise of 1e-8
        rng = np.random.default_rng(seed)
        facs = [rng.uniform(0.1, 1.0, size=(n, 1)) for n in (20, 15, 20)]
        f = cp_decompose(Tensor(np.einsum("ir,jr,kr->ijk", *facs)), 1, seed=0)
        assert f.fit == 1.0
        assert np.all(np.diff(f.fit_history) > -1e-10)

    def test_monotone_fit_history(self):
        rng = np.random.default_rng(13)
        t = Tensor(rng.standard_normal((5, 5, 5)))
        f = cp_decompose(t, 4, seed=1)
        assert np.all(np.diff(f.fit_history) > -1e-10)

    def test_full_rank_bound_recovery(self):
        # random tensor is exactly representable at rank n2*n3
        rng = np.random.default_rng(14)
        t = Tensor(rng.standard_normal((3, 2, 2)))
        f = cp_decompose(t, 4, seed=0, restarts=4, max_iters=2000, fit_tolerance=1e-14)
        rec = cp_reconstruct(f).array
        assert np.linalg.norm(rec - t.array) / t.norm() <= 1e-5

    def test_unit_norm_columns_and_weights(self):
        rng = np.random.default_rng(15)
        t = Tensor(rng.standard_normal((4, 4, 4)))
        f = cp_decompose(t, 3, seed=2)
        for mat in f.factors:
            assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-12)
        assert np.all(f.weights >= 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            cp_decompose(Tensor(np.ones((2, 2))), 0)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_iteration_cap_validation(self, max_iters):
        t = Tensor(np.random.default_rng(16).standard_normal((3, 3, 3)))
        with pytest.raises(ValueError, match="max_iters"):
            cp_decompose(t, 2, max_iters=max_iters)

    def test_planted_rank_three_with_zero_slices(self):
        # the kernel contracts only the nonzero slices; rows on the zero
        # slices must come back exactly zero
        rng = np.random.default_rng(16)
        dims = (9, 8, 7)
        zero = ([0, 4, 7], [2, 3], [1, 6])
        facs = []
        for n, z in zip(dims, zero):
            f = rng.uniform(0.1, 1.0, size=(n, 3))
            f[z] = 0.0
            facs.append(f)
        t = Tensor(np.einsum("ir,jr,kr->ijk", *facs))
        f = cp_decompose(t, 3, seed=0, max_iters=2000, fit_tolerance=1e-14)
        assert f.fit > 1 - 1e-6
        for mat, z in zip(f.factors, zero):
            assert np.all(mat[z] == 0.0)


class TestCpReconstructAndMode1:
    def test_single_rank_one_factor(self):
        a, b, c = np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.array([0.5, -1.0])
        f = CpFactors(
            rank=1,
            factors=[x[:, None] / np.linalg.norm(x) for x in (a, b, c)],
            weights=np.array([np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)]),
        )
        assert np.allclose(cp_reconstruct(f).array, np.einsum("i,j,k->ijk", a, b, c))

    def test_zero_weights(self):
        f = CpFactors(rank=2, factors=[np.eye(2), np.eye(2), np.eye(2)[:, :2]],
                      weights=np.zeros(2))
        assert np.all(cp_reconstruct(f).array == 0)

    def test_mode1_matrix_rank_one(self):
        rng = np.random.default_rng(16)
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        f = CpFactors(
            rank=1,
            factors=[x[:, None] / np.linalg.norm(x) for x in (a, b, c)],
            weights=np.array([np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)]),
        )
        assert np.allclose(cp_mode1_matrix(f), np.outer(a, np.kron(c, b)), atol=1e-14)

    def test_mode1_matches_reconstruction_unfolding(self):
        rng = np.random.default_rng(17)
        facs = [rng.standard_normal((n, 3)) for n in (4, 3, 5)]
        norms = [np.linalg.norm(m, axis=0) for m in facs]
        f = CpFactors(
            rank=3,
            factors=[m / nn for m, nn in zip(facs, norms)],
            weights=norms[0] * norms[1] * norms[2],
        )
        direct = cp_mode1_matrix(f)
        via_dense = matricize_mode1(cp_reconstruct(f))
        assert np.max(np.abs(direct - via_dense)) <= 1e-12

    def test_superdiagonal_identity_factors(self):
        n = 3
        f = CpFactors(rank=n, factors=[np.eye(n)] * 3, weights=np.ones(n))
        t = np.zeros((n, n, n))
        for i in range(n):
            t[i, i, i] = 1.0
        assert np.array_equal(cp_mode1_matrix(f), matricize_mode1(Tensor(t)))

    def test_factored_evaluation_identity(self):
        # O(n r) evaluation path equals the unfolded O(n^3) path
        rng = np.random.default_rng(18)
        facs = [rng.standard_normal((5, 4)) for _ in range(3)]
        norms = [np.linalg.norm(m, axis=0) for m in facs]
        f = CpFactors(
            rank=4,
            factors=[m / nn for m, nn in zip(facs, norms)],
            weights=norms[0] * norms[1] * norms[2],
        )
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        unfolded = cp_mode1_matrix(f) @ np.kron(y, x)
        factored = (f.factors[0] * f.weights) @ ((f.factors[1].T @ x) * (f.factors[2].T @ y))
        assert np.linalg.norm(unfolded - factored) / np.linalg.norm(unfolded) < 1e-10


class TestCpExact:
    @pytest.mark.parametrize("dims", [(3, 4, 2), (2, 3, 2, 2)])
    def test_exact(self, dims):
        rng = np.random.default_rng(19)
        t = Tensor(rng.standard_normal(dims))
        f = cp_exact(t)
        assert f.rank == int(np.prod(dims[1:]))
        assert f.converged and f.fit_history.size == 0  # no ALS iterations
        assert np.max(np.abs(cp_reconstruct(f).array - t.array)) < 1e-13

