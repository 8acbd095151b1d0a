import numpy as np
import pytest

from observer_kit.errors import (
    DimensionError,
    NumericalFailureError,
    SingularEquationError,
)
from observer_kit.numerics import (
    eigenvalues,
    is_negative_definite,
    is_symmetric,
    orthonormal_row_space_basis,
    rank,
    solve_lyapunov,
    spectral_norm,
    svd,
)


def kron_lyapunov_oracle(F, Q):
    """Independent route for F.T P + P F = -Q: vectorize via the Kronecker
    identity and solve the plain linear system."""
    m = F.shape[0]
    K = np.kron(np.eye(m), F.T) + np.kron(F.T, np.eye(m))
    vec = np.linalg.solve(K, -Q.flatten(order="F"))
    P = vec.reshape((m, m), order="F")
    return 0.5 * (P + P.T)


def char_poly_coefficients(A):
    """det(lambda I - A) coefficients for n <= 3, by direct cofactor algebra."""
    n = A.shape[0]
    if n == 1:
        return [1.0, -A[0, 0]]
    if n == 2:
        return [1.0, -np.trace(A), np.linalg.det(A)]
    if n == 3:
        minors = sum(
            A[i, i] * A[j, j] - A[i, j] * A[j, i]
            for i in range(3)
            for j in range(i + 1, 3)
        )
        return [1.0, -np.trace(A), minors, -np.linalg.det(A)]
    raise ValueError("oracle only covers n <= 3")


def sorted_complex(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_companion_roots(self):
        # roots of s^2 + 3 s + 2
        w = eigenvalues(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        assert np.allclose(sorted_complex(w), [-2.0, -1.0])

    def test_symmetric_sorted_ascending(self):
        w = eigenvalues(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert w.dtype.kind == "f"
        assert np.allclose(w, [1.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalFailureError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = rng.uniform(-2, 2, (n, n))
            w = eigenvalues(A)
            assert abs(w.sum() - np.trace(A)) <= 1e-8 * max(1.0, abs(np.trace(A)))
            det = np.linalg.det(A)
            assert abs(np.prod(w) - det) <= 1e-6 * max(1.0, abs(det))

    def test_symmetric_random_real(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n))
            S = B + B.T
            w = eigenvalues(S)
            assert w.dtype.kind == "f"
            assert np.all(np.diff(w) >= 0)

    def test_char_poly_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (n, n))
            expected = np.roots(char_poly_coefficients(A))
            got = eigenvalues(A)
            assert np.allclose(
                sorted_complex(got), sorted_complex(expected), atol=1e-8, rtol=1e-8
            )


class TestSvdAndRank:
    def test_identity_singular_values(self):
        assert np.allclose(svd(np.eye(2))[1], [1.0, 1.0])

    def test_rank_one_diagonal(self):
        assert np.allclose(svd(np.array([[1.0, 0.0], [0.0, 0.0]]))[1], [1.0, 0.0])

    def test_stacked_observability_product(self):
        # H = [1 0], A = [[0,1],[0,0]]: stacking H and H A gives the identity
        H = np.array([[1.0, 0.0]])
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        O = np.vstack([H, H @ A])
        assert np.allclose(O, np.eye(2))
        assert np.allclose(svd(O)[1], [1.0, 1.0])

    def test_factors_orthogonal_and_reconstruct(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m, n = rng.integers(1, 6, 2)
            M = rng.normal(size=(m, n))
            U, s, Vt = svd(M)
            assert np.linalg.norm(U.T @ U - np.eye(m)) <= 1e-10 * max(1, m)
            assert np.linalg.norm(Vt @ Vt.T - np.eye(n)) <= 1e-10 * max(1, n)
            S = np.zeros((m, n))
            S[: s.size, : s.size] = np.diag(s)
            assert np.allclose(U @ S @ Vt, M, atol=1e-12)
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_rank_examples(self):
        assert rank(np.zeros((2, 2))) == 0
        assert rank(np.eye(3)) == 3
        assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_spectral_norm_matches_largest_singular_value(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, n = rng.integers(1, 8, 2)
            M = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3)
            expected = np.linalg.norm(M, 2)
            assert abs(spectral_norm(M) - expected) <= 1e-12 * expected
        assert spectral_norm(np.zeros((3, 3))) == 0.0
        assert spectral_norm(np.zeros((0, 0))) == 0.0


class TestDefiniteness:
    def test_negative_identity(self):
        verdict = is_negative_definite(-np.eye(2))
        assert verdict.is_negative_definite
        assert verdict.margin == pytest.approx(-1.0)

    def test_semidefinite_boundary(self):
        verdict = is_negative_definite(np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert not verdict.is_negative_definite
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)

    def test_strictly_negative(self):
        verdict = is_negative_definite(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        assert verdict.is_negative_definite
        assert verdict.margin == pytest.approx(-1.0)

    def test_symmetrizes_first(self):
        # asymmetric input whose symmetric part is -I
        M = np.array([[-1.0, 5.0], [-5.0, -1.0]])
        verdict = is_negative_definite(M)
        assert verdict.is_negative_definite
        assert verdict.margin == pytest.approx(-1.0)


class TestSolveLyapunov:
    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
        assert P == pytest.approx(np.array([[0.5]]))

    def test_diagonal_decoupling(self):
        P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)

    def test_resonance_rejected(self):
        with pytest.raises(SingularEquationError):
            solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))

    def test_opposite_eigenvalues_rejected(self):
        with pytest.raises(SingularEquationError):
            solve_lyapunov(np.diag([-1.0, 1.0]), np.eye(2))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            F = rng.normal(size=(n, n)) - 2.0 * n * np.eye(n)
            B = rng.normal(size=(n, n))
            Q = B @ B.T + 0.1 * np.eye(n)
            P = solve_lyapunov(F, Q)
            expected = kron_lyapunov_oracle(F, Q)
            assert np.linalg.norm(P - expected) <= 1e-8 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_hurwitz_with_pd_rhs_gives_pd_solution(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            F = rng.normal(size=(n, n)) - 2.0 * n * np.eye(n)
            P = solve_lyapunov(F, np.eye(n))
            assert np.linalg.eigvalsh(P)[0] > 0


class TestRowSpaceBasis:
    def test_coordinate_projector(self):
        B1, B2 = orthonormal_row_space_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert B1.shape == (2, 1) and B2.shape == (2, 1)
        assert abs(B1[:, 0] @ [1.0, 0.0]) == pytest.approx(1.0)
        assert abs(B2[:, 0] @ [0.0, 1.0]) == pytest.approx(1.0)

    def test_trivial_kernel(self):
        B1, B2 = orthonormal_row_space_basis(np.eye(2))
        assert B1.shape == (2, 2) and B2.shape == (2, 0)

    def test_nilpotent_shift(self):
        B1, B2 = orthonormal_row_space_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert abs(B1[:, 0] @ [0.0, 1.0]) == pytest.approx(1.0)
        assert abs(B2[:, 0] @ [1.0, 0.0]) == pytest.approx(1.0)

    def test_zero_rows(self):
        B1, B2 = orthonormal_row_space_basis(np.zeros((0, 3)))
        assert B1.shape == (3, 0) and B2.shape == (3, 3)

    def test_random_orthogonality_and_kernel(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m, n = rng.integers(1, 6, 2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = (rng.normal(size=(m, r)) @ rng.normal(size=(r, n))) if r else np.zeros((m, n))
            B1, B2 = orthonormal_row_space_basis(M)
            Q = np.hstack([B1, B2])
            assert np.linalg.norm(Q.T @ Q - np.eye(n), "fro") <= 1e-9
            assert B1.shape[1] == rank(M)
            if B2.size:
                assert np.linalg.norm(M @ B2) <= 1e-10 * max(1.0, np.linalg.norm(M))


def test_is_symmetric_tolerance():
    assert is_symmetric(np.eye(3))
    assert not is_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
