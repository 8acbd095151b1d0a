import numpy as np
import pytest

from conftest import (
    battery_instances,
    decompose_node,
    kalman_rank,
    partial_instance,
    random_dense_model,
    random_partial_model,
)
from observer_kit import numerics
from observer_kit.decomp import (
    SystemModel,
    decompose_nodes,
    joint_observability_rank,
    observability_matrix,
)
from observer_kit.errors import DimensionError, NumericalFailureError

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
        with pytest.raises(DimensionError):
            observability_matrix(np.ones(2), np.eye(2))

    def test_stack_matches_one_pair_at_a_time(self):
        rng = np.random.default_rng(4)
        H, A = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 4))
        O = observability_matrix(H, A)
        assert O.shape == (3, 8, 4)
        for k in range(3):
            assert np.allclose(O[k], observability_matrix(H[k], A[k]), rtol=1e-14, atol=0)


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


def mixed_stack():
    """(outputs, A): integer data, so every product H_i A**k is exact and
    its rounding cannot depend on how many rows are stacked. Coordinates
    4 and 5 (before a permutation) never reach 0..3, so a node that
    measures only 0..3 never sees them. The nodes: a (0, n) block, an
    all-zero row, one row seeing all coordinates (v = n), two rows and one
    row on 0..3 (v = 4), three rows, and one row on 4..5 that sees all."""
    rng = np.random.default_rng(3)
    B = np.zeros((6, 6))
    B[:4, :4] = rng.integers(-2, 3, (4, 4))
    B[4:] = rng.integers(-2, 3, (2, 6))
    P = np.eye(6)[rng.permutation(6)]

    def rows(p, cols):
        H = np.zeros((p, 6))
        H[:, cols] = rng.integers(-2, 3, (p, len(cols)))
        return H @ P.T

    outputs = (
        np.zeros((0, 6)), np.zeros((1, 6)), rows(1, range(6)), rows(2, range(4)),
        rows(1, range(4)), rows(3, range(6)), rows(1, range(4, 6)),
    )
    return outputs, P @ B @ P.T, P


class TestDecomposeNodes:
    def test_stack_matches_one_node_at_a_time(self):
        outputs, A, P = mixed_stack()
        stacked = decompose_nodes(outputs, A)
        assert [d.v for d in stacked] == [0, 0, 6, 4, 4, 6, 6]
        scale = 1e-12 * np.linalg.norm(A)
        for H, d in zip(outputs, stacked):
            one = decompose_node(H, A)
            assert d.v == one.v and np.array_equal(d.T, one.T)
            for block in ("A_io", "A_ir", "A_iu", "H_io"):
                assert getattr(d, block).shape == getattr(one, block).shape
                assert np.abs(getattr(d, block) - getattr(one, block)).max(initial=0.0) <= scale
        # coordinates 4 and 5 are exact unit columns of T2 for nodes 3 and 4
        unseen = np.flatnonzero(P[:, 4] + P[:, 5])
        for d in stacked[3:5]:
            assert np.array_equal(d.T[:, 4:], np.eye(6)[:, unseen])
            assert not d.T[unseen, :4].any()
        assert np.array_equal(stacked[0].T, np.eye(6)) and stacked[0].H_io.shape == (0, 0)
        assert np.array_equal(stacked[1].T, np.eye(6)) and stacked[1].H_io.shape == (1, 0)

    def test_planted_unobservable_subspace_is_found(self):
        # x' = A x with A = Q [[A11, 0], [A21, A22]] Q.T and outputs
        # [H_i1, 0] Q.T: every node sees exactly the first 4 columns of Q
        rng = np.random.default_rng(11)
        n, v = 7, 4
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        local = rng.normal(size=(n, n))
        local[:v, v:] = 0.0
        outputs = []
        for p in (1, 2, 3, 1):
            H = np.zeros((p, n))
            H[:, :v] = rng.normal(size=(p, v))
            outputs.append(H @ Q.T)
        for d in decompose_nodes(tuple(outputs), Q @ local @ Q.T):
            assert d.v == v
            assert np.linalg.norm(Q[:, v:].T @ d.T1) <= 1e-10

    def test_forty_node_rung_splits_into_single_coordinates(self):
        model, _ = partial_instance(40)
        decomps = decompose_nodes(model.outputs, model.A)
        for H, d in zip(model.outputs, decomps):
            # the coordinates a node never sees, in ascending order
            assert np.array_equal(d.T2, np.eye(40)[:, ~H.any(axis=0)])
        projectors = np.stack([d.T1 @ d.T1.T for d in decomps])
        groups = numerics.coordinate_groups(projectors)
        assert len(groups) == 1 and groups[0].shape == (40, 1)

    def test_rank_recheck_counts_each_node_at_its_own_size(self):
        # node 0's one row sees both modes with sigma_2 / sigma_1 = 4e-10,
        # above the threshold 2e-10 of its own 2 x 2 observability matrix
        # but below the 6e-10 of the 6 rows that node 1 pads the stack to
        A = np.diag([1.0, 1.0 + 1.6e-9])
        outputs = (np.ones((1, 2)), np.eye(3, 2))
        assert [d.v for d in decompose_nodes(outputs, A)] == [2, 2]

    def test_failure_names_the_first_failing_node(self):
        # one output summing diag(1..9): the rank decision on its
        # observability matrix reads the 9 modes as fewer
        A = np.diag(np.arange(1.0, 10.0))
        total = np.ones((1, 9))
        outputs = (np.eye(9)[:1], np.zeros((1, 9)), total, total)
        with pytest.raises(NumericalFailureError, match=r"^node 2: observability decomposition"):
            decompose_nodes(outputs, A)
        with pytest.raises(NumericalFailureError, match=r"^node 0: observability decomposition"):
            decompose_node(total, A)
