import numpy as np
import pytest

from conftest import battery_instances, kalman_rank, random_dense_model, random_partial_model
from observer_kit.decomp import (
    SystemModel,
    decompose_node,
    joint_observability_rank,
    observability_matrix,
)
from observer_kit.errors import DimensionError

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]])


def sorted_complex(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


class TestSystemModel:
    def test_properties(self):
        m = SystemModel(A=np.eye(2), outputs=(np.ones((1, 2)), np.ones((2, 2))))
        assert m.n == 2 and m.node_count == 2

    def test_rejects_wrong_columns(self):
        with pytest.raises(DimensionError):
            SystemModel(A=np.eye(2), outputs=(np.ones((1, 3)),))

    def test_rejects_empty_outputs(self):
        with pytest.raises(DimensionError):
            SystemModel(A=np.eye(2), outputs=())


class TestObservabilityMatrix:
    def test_shift_with_position_output(self):
        assert np.allclose(
            observability_matrix(np.array([[1.0, 0.0]]), SHIFT), np.eye(2)
        )

    def test_shift_with_velocity_output(self):
        O = observability_matrix(np.array([[0.0, 1.0]]), SHIFT)
        assert np.allclose(O, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_output(self):
        assert np.allclose(
            observability_matrix(np.zeros((1, 3)), np.eye(3)), np.zeros((3, 3))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            observability_matrix(np.ones((1, 3)), np.eye(2))


class TestDecomposeNode:
    def test_fully_observable(self):
        d = decompose_node(np.array([[1.0, 0.0]]), SHIFT)
        assert d.v == 2
        assert d.A_ir.shape == (0, 2) and d.A_iu.shape == (0, 0)
        # A_io is an orthogonal similarity of A: same spectrum
        assert np.allclose(
            sorted_complex(np.linalg.eigvals(d.A_io)),
            sorted_complex(np.linalg.eigvals(SHIFT)),
            atol=1e-10,
        )

    def test_half_observable_blocks(self):
        d = decompose_node(np.array([[0.0, 1.0]]), SHIFT)
        assert d.v == 1
        # blocks are unique up to sign here (1-d orthogonal freedom)
        assert d.A_io == pytest.approx(np.zeros((1, 1)))
        assert d.A_iu == pytest.approx(np.zeros((1, 1)))
        assert abs(d.A_ir[0, 0]) == pytest.approx(1.0)
        assert abs(d.H_io[0, 0]) == pytest.approx(1.0)

    def test_fully_unobservable(self):
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        d = decompose_node(np.zeros((1, 2)), A)
        assert d.v == 0
        assert d.H_io.shape == (1, 0)
        assert np.allclose(
            sorted_complex(np.linalg.eigvals(d.A_iu)),
            sorted_complex(np.linalg.eigvals(A)),
            atol=1e-10,
        )

    def test_unseen_coordinates_are_exact_unit_kernel_columns(self):
        # the seed-1 n = N = 10 partial plant: each node measures the
        # coordinates it owns and never sees the others
        rng = np.random.default_rng(1)
        model = random_partial_model(rng, 10, 10)
        for H in model.outputs:
            d = decompose_node(H, model.A)
            unseen = np.flatnonzero(~H.any(axis=0))
            k = 10 - len(unseen)
            assert np.array_equal(d.T[:, k:], np.eye(10)[:, unseen])
            assert not d.T[unseen, :k].any()
            assert d.v == k

    def test_dense_pair_keeps_its_singular_basis(self):
        model = next(
            m for m, _ in battery_instances(20240817) if np.count_nonzero(m.A) == m.n**2
        )
        for H in model.outputs:
            d = decompose_node(H, model.A)
            Vt = np.linalg.svd(observability_matrix(H, model.A))[2]
            assert np.array_equal(d.T, Vt.T)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = rng.uniform(-1, 1, (n, n))
            H = rng.uniform(-1, 1, (int(rng.integers(1, 3)), n))
            if rng.random() < 0.2:
                H = np.zeros_like(H)
            d = decompose_node(H, A)
            n_ = d.n
            assert np.linalg.norm(d.T.T @ d.T - np.eye(n_), "fro") <= 1e-9
            norm_A = np.linalg.norm(A, "fro")
            assert (
                np.linalg.norm(d.T1.T @ A @ d.T2, "fro") <= 1e-8 * max(norm_A, 1e-12)
            )
            assert (
                np.linalg.norm(H @ d.T2, "fro")
                <= 1e-8 * max(np.linalg.norm(H, "fro"), 1e-12)
            )
            # spectrum preserved across the block split
            block_eigs = np.concatenate(
                [np.linalg.eigvals(d.A_io), np.linalg.eigvals(d.A_iu)]
            )
            assert np.allclose(
                sorted_complex(block_eigs),
                sorted_complex(np.linalg.eigvals(A)),
                atol=1e-6,
            )


class TestJointObservability:
    def test_complementary_diagonal_modes(self):
        m = SystemModel(
            A=np.diag([1.0, 2.0]),
            outputs=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        )
        # each node alone sees one mode; together they see both
        assert joint_observability_rank(m) == 2
        for H in m.outputs:
            assert decompose_node(H, m.A).v == 1

    def test_all_blind(self):
        m = SystemModel(A=np.eye(2), outputs=(np.zeros((1, 2)), np.zeros((1, 2))))
        assert joint_observability_rank(m) == 0

    def test_single_node_shift(self):
        m = SystemModel(A=SHIFT, outputs=(np.array([[1.0, 0.0]]),))
        assert joint_observability_rank(m) == 2

    def test_agreement_with_kalman_rank(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            N = int(rng.integers(2, 6))
            if trial % 3 == 0:
                model = random_partial_model(rng, n, N)
            elif trial % 3 == 1:
                model = random_dense_model(rng, n, N)
            else:
                # drop one node's view to get non-observable instances too
                model = random_partial_model(rng, n, N)
                outputs = list(model.outputs)
                outputs[0] = np.zeros_like(outputs[0])
                model = SystemModel(A=model.A, outputs=tuple(outputs))
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            r = joint_observability_rank(model, decomps)
            assert r == joint_observability_rank(model) == kalman_rank(model)
