import json

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from observer_kit.errors import (
    DimensionError,
    NumericalFailureError,
    SingularEquationError,
)
from observer_kit import numerics
from observer_kit.numerics import (
    coordinate_groups,
    eigenvalues,
    is_symmetric,
    orthonormal_row_space_basis,
    rank,
    solve_lyapunov,
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

    def test_symmetric_sorted_ascending(self):
        # no symmetric route: the values come in no set order, but are real
        # and, sorted ascending, the symmetric solver's
        S = np.array([[2.0, -1.0], [-1.0, 2.0]])
        w = eigenvalues(S)
        assert w.dtype.kind == "f"
        assert np.allclose(np.sort(w), [1.0, 3.0])
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(S))

    def test_symmetric_random_real(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n))
            S = B + B.T
            w = eigenvalues(S)
            expected = np.linalg.eigvalsh(S)
            assert w.dtype.kind == "f"
            assert np.all(np.abs(np.sort(w) - expected) <= 1e-12 * np.abs(expected).max())

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
            r = min(m, n)
            assert U.shape == (m, r) and s.shape == (r,) and Vt.shape == (n, n)
            assert np.linalg.norm(U.T @ U - np.eye(r)) <= 1e-10 * max(1, r)
            assert np.linalg.norm(Vt @ Vt.T - np.eye(n)) <= 1e-10 * max(1, n)
            assert np.allclose((U * s) @ Vt[:r], M, atol=1e-12)
            assert np.linalg.norm(M @ Vt[r:].T) <= 1e-12 * max(1.0, s[0])
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_rank_examples(self):
        assert rank(np.zeros((2, 2))) == 0
        assert rank(np.eye(3)) == 3
        assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_stacked_rank_counts_each_matrix_at_its_own_size(self):
        rng = np.random.default_rng(4)
        rows, ranks = [2, 5, 3, 4], [1, 3, 0, 2]
        stack = np.zeros((4, 5, 3))
        for M, p, r in zip(stack, rows, ranks):
            M[:p] = rng.normal(size=(p, r)) @ rng.normal(size=(r, 3))
        sizes = np.maximum(rows, 3)
        counts = rank(stack, sizes)
        assert counts.tolist() == ranks == [rank(M[:p]) for M, p in zip(stack, rows)]
        # sigma_2 = 3e-10 lies between the thresholds of 2 rows and of 10
        small = np.diag([1.0, 3e-10])
        padded = np.concatenate([small, np.zeros((8, 2))])[None]
        assert rank(small) == rank(padded, np.array([2]))[0] == 2
        assert rank(padded)[0] == 1

    def test_rank_of_a_matrix_is_a_python_int(self):
        r = rank(np.eye(3))
        assert type(r) is int and json.dumps({"rank": r}) == '{"rank": 3}'
        assert type(rank(np.zeros((0, 3)))) is int

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_rank_rejects_non_finite_entries(self, shape):
        M = np.ones(shape)
        M[..., 0, 1] = np.inf
        with pytest.raises(NumericalFailureError):
            rank(M)


class TestSolveLyapunov:
    def test_scalar(self):
        P, _ = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
        assert P == pytest.approx(np.array([[0.5]]))

    def test_diagonal_decoupling(self):
        P, _ = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)

    def test_resonance_rejected(self):
        with pytest.raises(SingularEquationError):
            solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))

    def test_opposite_eigenvalues_rejected(self):
        with pytest.raises(SingularEquationError):
            solve_lyapunov(np.diag([-1.0, 1.0]), np.eye(2))

    def test_mixed_sign_spectrum_rejected(self):
        # non-resonant (no two eigenvalues sum to zero), but not in one half-plane
        with pytest.raises(SingularEquationError):
            solve_lyapunov(np.diag([-1.0, 2.0]), np.eye(2))

    @staticmethod
    def bass_equation(A, H, alpha=1.0):
        """F and Q as `place_observer_poles` builds them: anti-Hurwitz F."""
        shift = 1.0 + np.linalg.norm(A, "fro") + 2.0 * alpha
        return A + shift * np.eye(A.shape[0]), -2.0 * H.T @ H

    def test_anti_hurwitz_matches_kronecker_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            H = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            F, Q = self.bass_equation(A, H)
            P, _ = solve_lyapunov(F, Q)
            expected = kron_lyapunov_oracle(F, Q)
            assert np.linalg.norm(P - expected) <= 1e-8 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_ill_conditioned_non_normal_anti_hurwitz(self):
        # Jordan-like coupling on diag(1..4), observed through the first state
        A = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag(np.ones(3), 1)
        F, Q = self.bass_equation(A, np.array([[1.0, 0.0, 0.0, 0.0]]))
        P, _ = solve_lyapunov(F, Q)
        expected = kron_lyapunov_oracle(F, Q)
        assert np.linalg.cond(expected) >= 1e6
        assert np.linalg.norm(P - expected) <= 1e-8 * np.linalg.norm(expected)
        assert np.linalg.eigvalsh(P)[0] > 0

    def test_residual_above_its_bound_is_rejected(self, monkeypatch):
        # above the direct cutoff: every solve of the sign steps comes back
        # off by 1e-6 I, so the refined P is too, and its residual -2e-6 I,
        # of Frobenius norm 2e-6 sqrt(7) = 5.3e-6, exceeds 1e-8 * max(1, ||Q||)
        m = numerics._DIRECT_MAX + 1
        assert m == 7
        real_solve = numerics._sign_solve
        monkeypatch.setattr(
            numerics, "_sign_solve", lambda steps, C: real_solve(steps, C) + 1e-6 * np.eye(m)
        )
        with pytest.raises(NumericalFailureError, match="Lyapunov residual 5.292e-06 exceeds"):
            solve_lyapunov(-np.eye(m), np.eye(m))

    def test_residual_bound_holds_where_squares_overflow(self, monkeypatch):
        # a solve off by a factor 3 leaves a residual of 2 ||Q||; above
        # ||Q||_F of about 1e154 both squared norms overflowed, inf <= inf
        # held, and P = 1.5e160 I came back for the exact 5e159 I
        real_solve = numerics._kronecker_solve
        monkeypatch.setattr(numerics, "_kronecker_solve", lambda F, Q: 3.0 * real_solve(F, Q))
        with pytest.raises(NumericalFailureError, match="Lyapunov residual 2.828e\\+160 exceeds"):
            solve_lyapunov(-np.eye(2), 1e160 * np.eye(2))

    def test_scaling_keeps_wide_spectra_to_few_steps(self, monkeypatch):
        # above the direct cutoff, eigenvalues over six decades: unscaled
        # Newton needs 25 steps here, the determinant-scaled iteration 8
        counts = []
        real_steps = numerics._sign_steps

        def spy(*args):
            steps = real_steps(*args)
            counts.append(len(steps))
            return steps

        monkeypatch.setattr(numerics, "_sign_steps", spy)
        m = numerics._DIRECT_MAX + 1
        F = -np.diag(np.logspace(0.0, 6.0, m)) + np.triu(np.ones((m, m)), 1)
        P, _ = solve_lyapunov(F, np.eye(m))
        expected = kron_lyapunov_oracle(F, np.eye(m))
        assert np.linalg.norm(P - expected) <= 1e-8 * np.linalg.norm(expected)
        assert counts == [8]

    @staticmethod
    def mixed_stack(m=3):
        """Three m x m equations whose sign iterations need 8, 1 and 4
        steps (at m = 3 and at the first size above the direct cutoff): a
        Hurwitz F with a spectrum over six decades, F = -I, and an
        anti-Hurwitz Bass equation of a Jordan-like block seen through
        every third coordinate."""
        bass = TestSolveLyapunov.bass_equation(
            np.diag(np.arange(1.0, m + 1)) + np.diag(np.ones(m - 1), 1), np.eye(m)[::3]
        )
        wide = -np.diag(np.logspace(0.0, 6.0, m)) + np.triu(np.ones((m, m)), 1)
        F = np.stack([wide, -np.eye(m), bass[0]])
        Q = np.stack([np.eye(m), np.diag(np.arange(1.0, m + 1)), bass[1]])
        return F, Q

    def test_stack_matches_kronecker_oracle_per_matrix(self, monkeypatch):
        counts = []
        real_steps = numerics._sign_steps

        def spy(*args):
            steps = real_steps(*args)
            counts.append(len(steps))
            return steps

        monkeypatch.setattr(numerics, "_sign_steps", spy)
        F, Q = self.mixed_stack(numerics._DIRECT_MAX + 1)
        alone = [solve_lyapunov(F_j, Q_j)[0] for F_j, Q_j in zip(F, Q)]
        assert counts == [8, 1, 4]
        P, _ = solve_lyapunov(F, Q)
        # one iteration for the stack, as long as its slowest matrix needs
        assert counts[3:] == [8]
        assert P.shape == F.shape
        for F_j, Q_j, P_j, P_alone in zip(F, Q, P, alone):
            expected = kron_lyapunov_oracle(F_j, Q_j)
            assert np.linalg.norm(P_j - expected) <= 1e-10 * np.linalg.norm(expected)
            assert np.linalg.norm(P_j - P_alone) <= 1e-10 * np.linalg.norm(expected)

    @staticmethod
    def path_spy(monkeypatch):
        """Record 'direct' or 'sign' for each solve of the two paths."""
        paths = []
        real_direct, real_steps = numerics._kronecker_solve, numerics._sign_steps

        def direct(*args):
            paths.append("direct")
            return real_direct(*args)

        def steps(*args):
            paths.append("sign")
            return real_steps(*args)

        monkeypatch.setattr(numerics, "_kronecker_solve", direct)
        monkeypatch.setattr(numerics, "_sign_steps", steps)
        return paths

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("hurwitz", [True, False], ids=["hurwitz", "anti-hurwitz"])
    @pytest.mark.parametrize("above", [False, True], ids=["at-cutoff", "above-cutoff"])
    def test_both_paths_match_scipy(self, monkeypatch, above, hurwitz, k):
        # scipy's Bartels-Stewart solver is the oracle; sizes _DIRECT_MAX
        # and _DIRECT_MAX + 1 take the two paths
        m = numerics._DIRECT_MAX + above
        rng = np.random.default_rng(100 * m + k)
        A = rng.normal(size=(k, m, m))
        F = A + (1.0 + np.linalg.norm(A, axis=(-2, -1)))[:, None, None] * np.eye(m)
        B = rng.normal(size=(k, m, m))
        Q = B @ B.swapaxes(-1, -2) + 0.1 * np.eye(m)
        if hurwitz:
            F = -F
        else:
            Q = -Q
        paths = self.path_spy(monkeypatch)
        P, _ = solve_lyapunov(F, Q)
        assert paths == ["sign" if above else "direct"]
        assert P.shape == (k, m, m)
        for F_j, Q_j, P_j in zip(F, Q, P):
            expected = scipy.linalg.solve_continuous_lyapunov(F_j.T, -Q_j)
            assert np.linalg.norm(P_j - expected) <= 1e-10 * np.linalg.norm(expected)
            assert np.array_equal(P_j, P_j.T)
            assert np.linalg.eigvalsh(P_j)[0] > 0

    @pytest.mark.parametrize("above", [False, True], ids=["direct", "sign"])
    def test_each_path_rejects_a_residual_above_its_bound(self, monkeypatch, above):
        # each path's solve comes back off by 1e-6 I: the residual -2e-6 I
        # has Frobenius norm 2e-6 sqrt(m)
        m = numerics._DIRECT_MAX + above
        name = "_sign_solve" if above else "_kronecker_solve"
        real = getattr(numerics, name)
        monkeypatch.setattr(numerics, name, lambda *args: real(*args) + 1e-6 * np.eye(m))
        with pytest.raises(NumericalFailureError,
                           match=f"Lyapunov residual {2e-6 * np.sqrt(m):.3e} exceeds"):
            solve_lyapunov(-np.eye(m), np.eye(m))

    @pytest.mark.parametrize("above", [False, True], ids=["direct", "sign"])
    def test_each_path_rejects_a_solution_that_lost_definiteness(self, monkeypatch, above):
        # Q = 1e-12 I is definite, P = 5e-13 I; each solve comes back off by
        # -1e-10 I, a residual of 2e-10 sqrt(m), inside 1e-8 * max(1, ||Q||),
        # but P is then negative definite
        m = numerics._DIRECT_MAX + above
        name = "_sign_solve" if above else "_kronecker_solve"
        real = getattr(numerics, name)
        monkeypatch.setattr(numerics, name, lambda *args: real(*args) - 1e-10 * np.eye(m))
        with pytest.raises(NumericalFailureError, match="lost positive definiteness"):
            solve_lyapunov(-np.eye(m), 1e-12 * np.eye(m))
        monkeypatch.undo()
        assert np.allclose(solve_lyapunov(-np.eye(m), 1e-12 * np.eye(m))[0], 5e-13 * np.eye(m),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_half_plane_tolerance_does_not_overflow(self, scale):
        # the norm of F overflows when squared; the tolerance of the
        # half-plane test is taken without squaring it
        F = scale * np.array([[2.0, 1.0], [0.0, 3.0]])
        P, _ = solve_lyapunov(F, -np.eye(2))
        expected = scipy.linalg.solve_continuous_lyapunov(F.T, np.eye(2))
        assert np.linalg.norm(P - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_random_stack_matches_kronecker_oracle(self):
        rng = np.random.default_rng(8)
        for m in range(1, 5):
            F = rng.normal(size=(6, m, m)) - 2.0 * m * np.eye(m)
            B = rng.normal(size=(6, m, m))
            Q = B @ B.swapaxes(-1, -2) + 0.1 * np.eye(m)
            P, _ = solve_lyapunov(F, Q)
            for F_j, Q_j, P_j in zip(F, Q, P):
                expected = kron_lyapunov_oracle(F_j, Q_j)
                assert np.linalg.norm(P_j - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_stack_with_one_matrix_off_the_half_plane_rejected(self):
        F, Q = self.mixed_stack()
        F[1] = np.diag([-1.0, -2.0, 3.0])
        with pytest.raises(SingularEquationError):
            solve_lyapunov(F, Q)

    def test_stack_with_one_asymmetric_rhs_rejected(self):
        F, Q = self.mixed_stack()
        Q[2, 0, 1] += 1.0
        with pytest.raises(DimensionError, match="Q must be symmetric"):
            solve_lyapunov(F, Q)

    def test_two_dimensional_input_stays_two_dimensional(self):
        F, Q = self.mixed_stack()
        # P keeps the shape of F, and w, the spectra of P, loses its last axis
        for F_in, Q_in in ((F[0], Q[0]), (F[:1], Q[:1]), (np.zeros((0, 0)), np.zeros((0, 0)))):
            P, w = solve_lyapunov(F_in, Q_in)
            assert P.shape == F_in.shape and w.shape == F_in.shape[:-1]
            assert np.allclose(w, np.linalg.eigvalsh(P), rtol=0, atol=1e-12 * np.abs(w).max(initial=0))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            F = rng.normal(size=(n, n)) - 2.0 * n * np.eye(n)
            B = rng.normal(size=(n, n))
            Q = B @ B.T + 0.1 * np.eye(n)
            P, _ = solve_lyapunov(F, Q)
            expected = kron_lyapunov_oracle(F, Q)
            assert np.linalg.norm(P - expected) <= 1e-8 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_hurwitz_with_pd_rhs_gives_pd_solution(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            F = rng.normal(size=(n, n)) - 2.0 * n * np.eye(n)
            P, _ = solve_lyapunov(F, np.eye(n))
            assert np.linalg.eigvalsh(P)[0] > 0


def row_space_split(M):
    """(B1, B2) of a single matrix: its row space and kernel bases."""
    V, r, _ = orthonormal_row_space_basis(np.asarray(M, dtype=float)[None])
    return V[0, :, : r[0]], V[0, :, r[0] :]


class TestRowSpaceBasis:
    def test_coordinate_projector(self):
        B1, B2 = row_space_split(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert B1.shape == (2, 1) and B2.shape == (2, 1)
        assert abs(B1[:, 0] @ [1.0, 0.0]) == pytest.approx(1.0)
        assert abs(B2[:, 0] @ [0.0, 1.0]) == pytest.approx(1.0)

    def test_trivial_kernel(self):
        B1, B2 = row_space_split(np.eye(2))
        assert B1.shape == (2, 2) and B2.shape == (2, 0)

    def test_nilpotent_shift(self):
        B1, B2 = row_space_split(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert abs(B1[:, 0] @ [0.0, 1.0]) == pytest.approx(1.0)
        assert abs(B2[:, 0] @ [1.0, 0.0]) == pytest.approx(1.0)

    def test_zero_rows(self):
        B1, B2 = row_space_split(np.zeros((0, 3)))
        assert B1.shape == (3, 0) and B2.shape == (3, 3)

    def test_unseen_coordinates_become_unit_kernel_columns(self):
        # columns 1 and 3 are exactly zero; rank 1 among the other three
        rng = np.random.default_rng(7)
        M = np.zeros((4, 5))
        M[:, [0, 2, 4]] = np.outer(rng.normal(size=4), rng.normal(size=3))
        B1, B2 = row_space_split(M)
        assert B1.shape == (5, 1) and B2.shape == (5, 4)
        assert np.array_equal(B2[:, 2:], np.eye(5)[:, [1, 3]])
        assert not np.hstack([B1, B2[:, :2]])[[1, 3]].any()
        Q = np.hstack([B1, B2])
        assert np.linalg.norm(Q.T @ Q - np.eye(5), "fro") <= 1e-12

    def test_dense_input_keeps_its_singular_basis(self):
        M = np.random.default_rng(8).normal(size=(6, 4))
        B1, B2 = row_space_split(M)
        assert np.array_equal(np.hstack([B1, B2]), np.linalg.svd(M)[2].T)

    def test_random_orthogonality_and_kernel(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m, n = rng.integers(1, 6, 2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = (rng.normal(size=(m, r)) @ rng.normal(size=(r, n))) if r else np.zeros((m, n))
            B1, B2 = row_space_split(M)
            Q = np.hstack([B1, B2])
            assert np.linalg.norm(Q.T @ Q - np.eye(n), "fro") <= 1e-9
            assert B1.shape[1] == rank(M)
            if B2.size:
                assert np.linalg.norm(M @ B2) <= 1e-10 * max(1.0, np.linalg.norm(M))

    def test_stack_matches_one_matrix_at_a_time(self):
        # one stack of matrices that see 0, 2, 3 and all 5 coordinates
        rng = np.random.default_rng(9)
        M = rng.normal(size=(6, 4, 5))
        M[0] = 0.0
        M[1, :, [0, 2, 4]] = 0.0
        M[2, :, [1, 3]] = 0.0
        M[3, :, [1, 3]] = 0.0
        M[4] = np.outer(rng.normal(size=4), rng.normal(size=5))
        V, r, thresh = orthonormal_row_space_basis(M)
        assert r.tolist() == [0, 2, 3, 3, 1, 4]
        assert np.array_equal(V[0], np.eye(5))
        for j in range(len(M)):
            V_j, r_j, thresh_j = orthonormal_row_space_basis(M[j : j + 1])
            assert np.array_equal(V[j], V_j[0]) and r[j] == r_j[0] and thresh[j] == thresh_j[0]


    @pytest.mark.parametrize("m", [3, 6], ids=["wide", "tall"])
    def test_all_seen_stack_is_the_plain_svd(self, m):
        # every matrix sees every coordinate: V is the right singular basis
        # of each matrix itself, bit for bit, as one matrix at a time
        M = np.random.default_rng(11).normal(size=(4, m, 5))
        V, r, thresh = orthonormal_row_space_basis(M)
        for M_j, V_j, r_j, thresh_j in zip(M, V, r, thresh):
            _, s, Vt = np.linalg.svd(M_j, full_matrices=m < 5)
            expected = s[0] * (max(m, 5) * numerics.RANK_RTOL)
            assert np.array_equal(V_j, Vt.T) and thresh_j == expected
            assert r_j == np.sum(s > expected)

    def test_mixed_stack_puts_unseen_coordinates_last(self):
        # next to a matrix that sees everything, one that never sees
        # coordinates 1 and 3 gets e_1 and e_3 as its last two columns
        rng = np.random.default_rng(12)
        M = rng.normal(size=(2, 3, 5))
        M[1, :, [1, 3]] = 0.0
        V, r, _ = orthonormal_row_space_basis(M)
        assert r.tolist() == [3, 3]
        assert np.array_equal(V[1][:, 3:], np.eye(5)[:, [1, 3]])
        assert not V[1][[1, 3], :3].any()
        _, _, Vt = np.linalg.svd(M[0], full_matrices=True)
        assert np.array_equal(V[0], Vt.T)


class TestStacks:
    def test_eigenvalues_of_a_stack(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, 4, 4))
        got = eigenvalues(stack)
        assert got.shape == (3, 4)
        for w, X in zip(got, stack):
            assert np.allclose(sorted_complex(w), sorted_complex(np.linalg.eigvals(X)))


class TestCoordinateGroups:
    def test_dense_stack_is_one_group(self):
        groups = coordinate_groups(np.ones((2, 3, 3)))
        assert len(groups) == 1 and np.array_equal(groups[0], [[0, 1, 2]])

    def test_diagonal_stacks_split_into_single_coordinates(self):
        groups = coordinate_groups(np.stack([np.diag([1.0, 2.0, 3.0])]), np.zeros((1, 3, 3)))
        assert len(groups) == 1 and np.array_equal(groups[0], [[0], [1], [2]])

    def test_chain_across_stacks_closes(self):
        # 0-3 in one stack, 3-5 and 5-1 in another: one group {0, 1, 3, 5},
        # reached only through two links; 2 and 4 are linked to each other
        # by an entry on one side of the diagonal only
        n = 6
        first, second = np.zeros((2, n, n)), np.zeros((1, n, n))
        first[1, 0, 3] = 1.0
        second[0, 5, 3] = second[0, 1, 5] = -2.0
        first[0, 4, 2] = 1e-30
        groups = coordinate_groups(first, second)
        assert [g.tolist() for g in groups] == [[[2, 4]], [[0, 1, 3, 5]]]

    def test_every_matrix_is_block_diagonal_in_its_groups(self):
        rng = np.random.default_rng(10)
        n = 7
        labels = rng.integers(0, 3, n)
        mask = labels[:, None] == labels[None, :]
        stacks = [rng.normal(size=(2, n, n)) * mask, rng.normal(size=(3, n, n)) * mask]
        groups = coordinate_groups(*stacks)
        members = [g for idx in groups for g in idx]
        assert sorted(np.concatenate(members).tolist()) == list(range(n))
        for g in members:
            outside = np.setdiff1d(np.arange(n), g)
            for stack in stacks:
                assert not stack[:, g][:, :, outside].any()
        # groups are the label classes, no finer: each one is linked
        assert len(members) == len(set(labels.tolist()))


    @staticmethod
    def oracle(n, *stacks):
        """The groups as connected components of the undirected link graph,
        by scipy: one (k, m) array per size m ascending, rows by their first
        coordinate."""
        links = np.zeros((n, n), dtype=bool)
        for stack in stacks:
            links |= (stack != 0).any(axis=0)
        _, labels = connected_components(links, directed=False)
        groups = sorted((np.flatnonzero(labels == c) for c in np.unique(labels)),
                        key=lambda g: (len(g), g[0]))
        sizes = sorted({len(g) for g in groups})
        return [np.array([g for g in groups if len(g) == m]) for m in sizes]

    @staticmethod
    def assert_matches_oracle(n, *stacks):
        groups = coordinate_groups(*stacks)
        expected = TestCoordinateGroups.oracle(n, *stacks)
        assert [g.shape for g in groups] == [g.shape for g in expected]
        assert all(np.array_equal(g, e) for g, e in zip(groups, expected))
        sizes = [g.shape[1] for g in groups]
        assert sizes == sorted(set(sizes))
        assert all((np.diff(row) > 0).all() for g in groups for row in g)
        return groups

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_stacks_are_one_group(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        stacks = [rng.normal(size=(int(rng.integers(1, 4)), n, n)) for _ in range(2)]
        groups = self.assert_matches_oracle(n, *stacks)
        assert len(groups) == 1 and np.array_equal(groups[0], [np.arange(n)])

    @pytest.mark.parametrize("seed", range(20))
    def test_permuted_blocks_linked_by_chains(self, seed):
        # random blocks of a random permutation, each held together by a
        # chain of single links spread over two stacks of different sizes
        # and both sides of the diagonal, plus random entries inside blocks
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        blocks = np.split(rng.permutation(n), cuts)
        stacks = [np.zeros((int(rng.integers(1, 4)), n, n)) for _ in range(2)]
        for block in blocks:
            for j, k in zip(block[:-1], block[1:]):
                stack = stacks[int(rng.integers(2))]
                pair = (j, k) if rng.integers(2) else (k, j)
                stack[(int(rng.integers(len(stack))), *pair)] = rng.normal()
            stack = stacks[int(rng.integers(2))]
            inside = np.ix_(range(len(stack)), block, block)
            stack[inside] += rng.normal(size=stack[inside].shape) * (rng.random(stack[inside].shape) < 0.2)
        groups = self.assert_matches_oracle(n, *stacks)
        assert sum(g.shape[0] for g in groups) == len(blocks)

    @pytest.mark.parametrize("seed", range(5))
    def test_diagonal_stacks_are_single_coordinates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        stacks = [np.stack([np.diag(d) for d in rng.normal(size=(k, n)) * (rng.random((k, n)) < 0.5)])
                  for k in (1, 3)]
        groups = self.assert_matches_oracle(n, *stacks)
        assert len(groups) == 1 and np.array_equal(groups[0], np.arange(n)[:, None])


def test_is_symmetric_tolerance():
    assert is_symmetric(np.eye(3))
    assert not is_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_is_symmetric_at_its_relative_tolerance(scale):
    # relative asymmetry ||M - M.T||_F / ||M||_F against SYMMETRY_RTOL =
    # 1e-10, at any scale whose squares stay in range; here it is
    # sqrt(2) * eps to first order
    for eps, symmetric in ((0.6e-10, True), (0.8e-10, False)):
        M = scale * np.array([[1.0, 1.0 + eps], [1.0 - eps, 1.0]])
        assert bool(is_symmetric(M)) is symmetric


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_is_symmetric_where_squares_overflow(scale):
    # the squared norms overflow to inf, and inf <= inf once read every
    # such matrix as symmetric, so eigenvalues took the symmetric solver
    # for a triangular one; a zero matrix next to it stays symmetric
    for eps, symmetric in ((0.6e-10, True), (0.8e-10, False)):
        M = scale * np.array([[1.0, 1.0 + eps], [1.0 - eps, 1.0]])
        assert bool(is_symmetric(M)) is symmetric
    triangular = scale * np.array([[-2.0, 1.0], [0.0, -3.0]])
    assert is_symmetric(np.stack([triangular, np.zeros((2, 2))])).tolist() == [False, True]
    assert sorted(eigenvalues(triangular).real) == [-3.0 * scale, -2.0 * scale]


@pytest.mark.parametrize("M, definite", [
    ([[2.0, 1.0], [1.0, 2.0]], True),
    ([[1.0, 2.0], [2.0, 1.0]], False),
    ([[np.inf, 0.0], [0.0, 1.0]], False),
    ([[np.inf, -np.inf], [-np.inf, np.inf]], False),
    ([[np.nan, 0.0], [0.0, 1.0]], False),
], ids=["definite", "indefinite", "inf-diagonal", "inf-block", "nan"])
def test_is_positive_definite_by_cholesky(M, definite):
    # numpy's Cholesky factors the inf and nan cases without an error
    stack = np.stack([np.eye(2), np.array(M)])
    assert numerics._is_positive_definite(stack) is definite


def test_is_symmetric_gives_one_verdict_per_matrix_of_a_stack():
    stack = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), [[1.0, 1e-12], [0.0, 1.0]]])
    assert is_symmetric(stack).tolist() == [True, False, True, True]
    assert is_symmetric(np.zeros((2, 0, 0))).tolist() == [True, True]
