import dataclasses
import logging
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    BUDGET_FLOOR,
    MIXED_OBSERVABILITY_CASES,
    battery_instances,
    decompose_node,
    dense_E,
    graph_for,
    min_coupling_budget,
    paper_design,
    partial_instance,
    random_model,
    random_partial_model,
    random_sc_digraph,
    rotated_partial_model,
    select_gamma,
)
from observer_kit import decomp, numerics, synth, verify
from observer_kit.decomp import NodeDecomposition, SystemModel, decompose_nodes
from observer_kit.errors import AssumptionViolationError, DimensionError, NumericalFailureError
from observer_kit.graph import Digraph, balance
from observer_kit.synth import (
    ObserverDesign,
    SynthesisParams,
    assemble_gains,
    check_assumptions,
    compute_epsilon,
    place_observer_poles,
    synthesize,
)
from observer_kit.verify import verify_design
from test_numerics import kron_lyapunov_oracle

UNIT_2CYCLE = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
# the README plant: two unstable modes, each seen by one node
TWO_MODES = SystemModel(A=np.diag([1.0, 2.0]), outputs=(np.eye(2)[:1], np.eye(2)[1:]))
# node 0 measures all 12 states: its Bass equation is larger than
# numerics._DIRECT_MAX and takes the sign iteration
TWELVE_STATES = SystemModel(A=np.diag(-1.0 + 0.25 * np.arange(12)),
                            outputs=(np.eye(12), np.zeros((1, 12))))

# Modes 0.5 to 20 on a ring, node k measuring mode k: every v_i is 1, and
# the observability matrices of all nodes stacked read rank 6 of 8 at the
# default rank tolerance.
SPREAD_MODEL = SystemModel(
    A=np.diag([0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0]),
    outputs=tuple(np.eye(8)[k : k + 1] for k in range(8)),
)
RING_8 = Digraph.from_edges(8, [(k, (k + 1) % 8, 1.0) for k in range(8)])


def fully_observable_decomps(n, n_nodes, rng):
    A = rng.uniform(-1, 1, (n, n))
    return [decompose_node(rng.uniform(-1, 1, (n, n)), A) for _ in range(n_nodes)]


class TestComputeEpsilon:
    def test_all_nodes_fully_observable(self):
        rng = np.random.default_rng(0)
        decomps = fully_observable_decomps(2, 3, rng)
        g = Digraph.from_edges(3, [(k, (k + 1) % 3, 1.0) for k in range(3)])
        # orthogonal block rotation of mirror x I plus the identity:
        # smallest eigenvalue is lambda_min(mirror) + 1 = 1
        eps = compute_epsilon(decomps, balance(g))
        assert eps == pytest.approx(0.9, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, N = 3, 3
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            bal = balance(g_net)
            eps = compute_epsilon(decomps, bal)
            assert eps > 0
            # independent assembly: loop over blocks entry-wise
            S = np.zeros((n * N, n * N))
            for i in range(N):
                for j in range(N):
                    S[i * n : (i + 1) * n, j * n : (j + 1) * n] = (
                        bal.mirror[i, j] * decomps[i].T.T @ decomps[j].T
                    )
            for i, d in enumerate(decomps):
                G_i = np.diag(np.concatenate([np.ones(d.v), np.zeros(n - d.v)]))
                S[i * n : (i + 1) * n, i * n : (i + 1) * n] += G_i
            lam_min = np.linalg.eigvalsh(0.5 * (S + S.T))[0]
            assert eps == pytest.approx(0.9 * lam_min, rel=1e-9)

    @staticmethod
    def dense_lambda_min(decomps, bal):
        """lambda_min of S = T.T (mirror x I_n) T + G, built densely."""
        n = decomps[0].n
        T = scipy.linalg.block_diag(*[d.T for d in decomps])
        G = scipy.linalg.block_diag(*[np.diag(np.r_[np.ones(d.v), np.zeros(n - d.v)]) for d in decomps])
        S = T.T @ np.kron(bal.mirror, np.eye(n)) @ T + G
        return np.linalg.eigvalsh(0.5 * (S + S.T))[0]

    def test_battery_and_ladder_match_dense_lambda_min(self):
        instances = battery_instances(20240817) + [partial_instance(n) for n in (2, 10, 20, 30)]
        for model, g_net in instances:
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            bal = balance(g_net)
            lam_min = self.dense_lambda_min(decomps, bal)
            eps = compute_epsilon(decomps, bal)
            assert abs(eps - 0.9 * lam_min) <= 1e-10 * 0.9 * lam_min

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES)
    def test_block_assembly_matches_kronecker_definition(self, n, owned, seed):
        rng = np.random.default_rng(seed)
        model = rotated_partial_model(rng, n, owned)
        decomps = [decompose_node(H, model.A) for H in model.outputs]
        assert [d.v for d in decomps] == [len(idx) for idx in owned]
        N = len(owned)
        bal = balance(graph_for(rng, N))
        if N > 1:
            assert not np.allclose(bal.r, 1.0)
        if N == 1:
            # a lone node with v < n is not observable: S is singular
            with pytest.raises(AssumptionViolationError):
                compute_epsilon(decomps, bal)
        else:
            lam_min = self.dense_lambda_min(decomps, bal)
            assert compute_epsilon(decomps, bal) == pytest.approx(
                0.9 * lam_min, rel=1e-9
            )


class TestSelectGamma:
    """The paper's constructive gain, kept as the oracle `conftest.select_gamma`."""

    def test_scalar_budget(self):
        # Sym(A_iu) + A_ir^2 / b - b < 0 first holds at b = 1
        dec = NodeDecomposition(
            v=1, T=np.eye(2), A_io=np.zeros((1, 1)), A_ir=np.ones((1, 1)),
            A_iu=np.zeros((1, 1)), H_io=np.ones((1, 1)),
        )
        gamma = select_gamma([dec], epsilon=0.5, alpha=0.0, margin=1.1)
        assert gamma == pytest.approx(2.2, rel=1e-6)

    def test_fully_observable_floor(self):
        rng = np.random.default_rng(4)
        decomps = fully_observable_decomps(2, 2, rng)
        assert select_gamma(decomps, epsilon=0.9, alpha=1.0) == pytest.approx(3.0)

    def test_stable_decoupled_block_floor(self):
        dec = NodeDecomposition(
            v=1, T=np.eye(3), A_io=np.zeros((1, 1)), A_ir=np.zeros((2, 1)),
            A_iu=-np.eye(2), H_io=np.ones((1, 1)),
        )
        # the inequality holds for every positive budget; the 2*alpha + 1
        # floor drives the gain
        gamma = select_gamma([dec], epsilon=0.9, alpha=1.0)
        assert gamma == pytest.approx(3.0, rel=1e-6)

    def test_domination_holds_at_returned_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, N = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            model = random_partial_model(rng, n, N)
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            eps = rng.uniform(0.05, 1.0)
            alpha = rng.uniform(0.1, 3.0)
            gamma = select_gamma(decomps, eps, alpha)
            assert gamma > 2 * alpha
            budget = gamma * eps - 2 * alpha
            assert budget > 0
            for d in decomps:
                if d.v == d.n:
                    continue
                m = d.n - d.v
                Z = (
                    d.A_iu + d.A_iu.T - budget * np.eye(m)
                    + (d.A_ir @ d.A_ir.T) / budget
                )
                assert np.linalg.eigvalsh(0.5 * (Z + Z.T))[-1] < 0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        model = random_partial_model(rng, 4, 3)
        decomps = [decompose_node(H, model.A) for H in model.outputs]
        gammas = [select_gamma(decomps, 0.4, a) for a in (0.5, 1.0, 2.0, 4.0)]
        assert all(g2 >= g1 for g1, g2 in zip(gammas, gammas[1:]))


def budget_excess(A_iu, A_ir, b):
    """lambda_max(Sym(A_iu) + A_ir A_ir.T / b) - b, the quantity the
    coupling budget drives to zero."""
    return np.linalg.eigvalsh(A_iu + A_iu.T + (A_ir @ A_ir.T) / b)[-1] - b


class TestMinCouplingBudget:
    """The per-node budget of the oracle `conftest.select_gamma`."""

    def blocks(self):
        """Unobservable blocks of random conftest plants, plus random
        (A_iu, A_ir) pairs with a nonzero (often rank-deficient) A_ir."""
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(40):
            n, N = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            model = random_model(rng, n, N)
            pairs += [
                (d.A_iu, d.A_ir)
                for d in (decompose_node(H, model.A) for H in model.outputs)
                if d.v < d.n
            ]
        for _ in range(100):
            m, v = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pairs.append((rng.normal(size=(m, m)), rng.normal(size=(m, v))))
        return pairs

    def test_budget_is_the_crossing(self):
        checked = 0
        for A_iu, A_ir in self.blocks():
            b = min_coupling_budget(A_iu, A_ir)
            assert b >= BUDGET_FLOOR
            if b > BUDGET_FLOOR:
                assert budget_excess(A_iu, A_ir, b * (1 + 1e-6)) < 0
                assert budget_excess(A_iu, A_ir, b * (1 - 1e-6)) > 0
                checked += 1
        assert checked >= 100

    def test_scalar_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            A_iu = rng.uniform(-2.0, 2.0, (1, 1))
            A_ir = rng.normal(size=(1, int(rng.integers(1, 4))))
            s, k = 2.0 * A_iu[0, 0], float(np.sum(A_ir**2))
            expected = (s + np.sqrt(s * s + 4.0 * k)) / 2.0
            assert min_coupling_budget(A_iu, A_ir) == pytest.approx(expected, rel=1e-10)


class TestPlaceObserverPoles:
    def test_scalar(self):
        L, _ = place_observer_poles(np.zeros((1, 1)), np.ones((1, 1)), alpha=1.0)
        # shift beta = 2, Gramian X = 1/3, gain 3, closed loop at -3
        assert L == pytest.approx(np.array([[3.0]]))

    def test_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        L, _ = place_observer_poles(A, H, alpha=0.0)
        assert np.allclose(L, [[4.0], [8.0]], atol=1e-9)
        w = np.linalg.eigvals(A - L @ H)
        assert np.allclose(sorted(w.real), [-2.0, -2.0], atol=1e-9)
        assert np.allclose(sorted(w.imag), [-2.0, 2.0], atol=1e-9)

    def test_already_stable_block(self):
        # the gain is rebuilt regardless; only the half-plane is promised
        L, _ = place_observer_poles(np.array([[-5.0]]), np.ones((1, 1)), alpha=1.0)
        closed = -5.0 - L[0, 0]
        assert closed < -1.0

    def test_empty_block(self):
        L, P = place_observer_poles(np.zeros((0, 0)), np.zeros((2, 0)), alpha=1.0)
        assert L.shape == (0, 2) and P.shape == (0, 0)

    def test_random_pairs_meet_margin(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 100:
            v = int(rng.integers(1, 6))
            rows_min = -(-v // 2)  # conditioning discipline, see conftest
            A = rng.uniform(-1, 1, (v, v))
            H = rng.uniform(-1, 1, (int(rng.integers(rows_min, rows_min + 2)), v))
            d = decompose_node(H, A)
            if d.v != v:
                continue
            alpha = rng.uniform(0.1, 2.0)
            L, P = place_observer_poles(A, H, alpha)
            absc = np.max(np.linalg.eigvals(A - L @ H).real)
            assert absc < -alpha - 1e-8
            # the certificate inequality, Sym(P (A - L H + alpha I)) <= -I
            lhs = P @ (A - L @ H + alpha * np.eye(v))
            assert np.linalg.eigvalsh(lhs + lhs.T)[-1] <= -1.0 + 1e-9
            done += 1

    def test_scalar_certificate(self):
        _, P = place_observer_poles(np.zeros((1, 1)), np.ones((1, 1)), alpha=1.0)
        # 2 P (0 - 3 + 1) = -1
        assert P == pytest.approx(np.array([[0.25]]))

    def test_stack_matches_each_block_alone(self):
        # beta per block; one stacked Bass solve
        rng = np.random.default_rng(11)
        A = rng.uniform(-1.0, 1.0, (4, 3, 3))
        H = rng.uniform(-1.0, 1.0, (4, 2, 3))
        L, P = place_observer_poles(A, H, alpha=0.5)
        assert L.shape == (4, 3, 2) and P.shape == (4, 3, 3)
        for A_j, H_j, L_j, P_j in zip(A, H, L, P):
            L_alone, P_alone = place_observer_poles(A_j, H_j, alpha=0.5)
            assert np.allclose(L_j, L_alone, rtol=1e-10, atol=0)
            assert np.allclose(P_j, P_alone, rtol=1e-10, atol=0)

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(DimensionError):
            place_observer_poles(np.zeros((2, 3, 3)), np.ones((3, 1, 3)), alpha=1.0)
        with pytest.raises(DimensionError):
            place_observer_poles(np.zeros((3, 3)), np.ones((1, 2)), alpha=1.0)

    def test_nodes_sharing_v_with_different_row_counts(self):
        # one stack for v = 3, its H_io padded to 3 rows: each node's gains
        # are those of its block placed alone
        rng = np.random.default_rng(12)
        A = rng.uniform(-1.0, 1.0, (3, 3))
        decomps = [decompose_node(rng.uniform(-1.0, 1.0, (p, 3)), A) for p in (2, 3, 2)]
        assert [d.v for d in decomps] == [3, 3, 3]
        L_blocks, P_blocks = synth._place_all_poles(decomps, 1.0)
        for d, L_io, P_io in zip(decomps, L_blocks, P_blocks):
            L_alone, P_alone = place_observer_poles(d.A_io, d.H_io, 1.0)
            assert L_io.shape == L_alone.shape
            assert np.allclose(L_io, L_alone, rtol=1e-10, atol=0)
            assert np.allclose(P_io, P_alone, rtol=1e-10, atol=0)

    def test_double_integrator_certificate_against_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        L, P = place_observer_poles(A, H, alpha=0.0)
        # Bass equation with beta = 1 + ||A||_F = 2, solved independently
        beta = 2.0
        X = kron_lyapunov_oracle(A + beta * np.eye(2), -2.0 * H.T @ H)
        expected = X / (2.0 * beta * np.linalg.eigvalsh(X)[0])
        assert np.allclose(P, expected, rtol=1e-12, atol=0)
        lhs = P @ (A - L @ H)
        assert np.linalg.eigvalsh(lhs + lhs.T + np.eye(2))[-1] <= 1e-12


class TestAssembleGains:
    def test_identity_transform(self):
        dec = NodeDecomposition(
            v=2, T=np.eye(2), A_io=np.zeros((2, 2)), A_ir=np.zeros((0, 2)),
            A_iu=np.zeros((0, 0)), H_io=np.eye(2),
        )
        L_io = np.array([[1.0, 0.0], [2.0, 3.0]])
        P_io = np.diag([2.0, 4.0])
        design = assemble_gains(
            [dec], [L_io], [P_io], gamma=3.0, epsilon=0.9, r=np.ones(1), alpha=1.0
        )
        node = design.nodes[0]
        assert np.allclose(node.L, L_io)
        assert np.allclose(node.M, np.diag([0.5, 0.25]))

    def test_fully_blind_node(self):
        dec = decompose_node(np.zeros((1, 2)), np.eye(2))
        design = assemble_gains(
            [dec], [np.zeros((0, 1))], [np.zeros((0, 0))],
            gamma=3.0, epsilon=0.9, r=np.ones(1), alpha=1.0,
        )
        node = design.nodes[0]
        assert np.allclose(node.L, np.zeros((2, 1)))
        assert np.allclose(node.M, np.eye(2))

    def test_rotated_node_spectrum(self):
        # M has eigenvalues {1/P_io, 1} regardless of the rotation
        dec = decompose_node(np.array([[0.0, 1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
        P_io = np.array([[4.0]])
        design = assemble_gains(
            [dec], [np.array([[2.0]])], [P_io],
            gamma=3.0, epsilon=0.9, r=np.ones(1), alpha=1.0,
        )
        w = np.linalg.eigvalsh(design.nodes[0].M)
        assert np.allclose(w, [0.25, 1.0], atol=1e-12)


    def test_indefinite_weighting_names_its_node(self):
        # P_io = -4 of node 1 inverts accurately, but M_1 = -0.25 is no
        # consensus weighting; the Cholesky factorization of the stack fails
        # and the eigenvalues name the node
        dec = NodeDecomposition(
            v=1, T=np.eye(1), A_io=np.zeros((1, 1)), A_ir=np.zeros((0, 1)),
            A_iu=np.zeros((0, 0)), H_io=np.eye(1),
        )
        with pytest.raises(NumericalFailureError,
                           match="node 1: consensus weighting M is not positive definite"):
            assemble_gains(
                [dec, dec, dec], [np.eye(1)] * 3, [np.eye(1), -4.0 * np.eye(1), -np.eye(1)],
                gamma=3.0, epsilon=0.9, r=np.ones(3), alpha=1.0,
            )

    def test_rejects_certificate_without_an_accurate_inverse(self):
        # cond(P_io) = 1e16: inv(P_io) @ P_io misses the identity by far
        # more than the 1e-8 residual bound
        dec = NodeDecomposition(
            v=2, T=np.eye(2), A_io=np.zeros((2, 2)), A_ir=np.zeros((0, 2)),
            A_iu=np.zeros((0, 0)), H_io=np.eye(2),
        )
        Q = np.linalg.qr(np.random.default_rng(5).normal(size=(2, 2)))[0]
        P_io = Q @ np.diag([1.0, 1e-16]) @ Q.T
        with pytest.raises(NumericalFailureError, match="inverse certificate residual"):
            assemble_gains(
                [dec], [np.eye(2)], [P_io], gamma=3.0, epsilon=0.9, r=np.ones(1), alpha=1.0
            )

    def test_inverse_residual_bound_holds_where_squares_overflow(self, monkeypatch):
        # P_io = 1e160 I with an "inverse" 1e160 times too large: the
        # residual, about 1e160, exceeds its bound of 1e152. Above about 1e154
        # both squared norms overflowed, and inf <= inf accepted it
        dec = NodeDecomposition(
            v=1, T=np.eye(1), A_io=np.zeros((1, 1)), A_ir=np.zeros((0, 1)),
            A_iu=np.zeros((0, 0)), H_io=np.eye(1),
        )
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: 1e160 * inv(M))
        with pytest.raises(NumericalFailureError, match="inverse certificate residual 1.000e\\+160"):
            assemble_gains(
                [dec], [np.eye(1)], [1e160 * np.eye(1)], gamma=3.0, epsilon=0.9,
                r=np.ones(1), alpha=1.0,
            )

def t_coordinate_lmi_margins(design, decomps):
    """Oracle: each node's certificate inequality of the paper, in its own
    coordinates T_i and with unit node weights,

        [[Phi + gamma*I, A_ir.T], [A_ir, Sym(A_iu) + 2*alpha*I]] - gamma*epsilon*I,

    Phi = Sym(P_io A_io) - Sym(W H_io) + 2*alpha*P_io and W = P_io L_io,
    with P_io and L_io the observable blocks of inv(M_i) and L_i. At
    epsilon <= lambda_min(S) the N inequalities imply the global
    certificate Z(gamma) < 0, but not the other way round."""
    margins = []
    for d, node in zip(decomps, design.nodes):
        P_io = d.T1.T @ np.linalg.inv(node.M) @ d.T1
        W = P_io @ (d.T1.T @ node.L)
        Phi = synth._sym(P_io @ d.A_io) - synth._sym(W @ d.H_io) + 2.0 * design.alpha * P_io
        Z = np.block([
            [Phi + design.gamma * np.eye(d.v), d.A_ir.T],
            [d.A_ir, synth._sym(d.A_iu) + 2.0 * design.alpha * np.eye(d.n - d.v)],
        ]) - design.gamma * design.epsilon * np.eye(d.n)
        margins.append(np.linalg.eigvalsh(0.5 * (Z + Z.T))[-1])
    return np.array(margins)


def scaled_first_weighting(design, factor=1e6):
    """The design with M_0 scaled by factor: still symmetric positive
    definite, but its inverse is no certificate."""
    first, *rest = design.nodes
    return dataclasses.replace(
        design, nodes=(dataclasses.replace(first, M=factor * first.M), *rest)
    )


class TestNodeLmi:
    def test_holds_for_paper_chain_designs(self):
        # the paper's per-node inequality, which its epsilon/gamma chain is
        # sized to meet, on the designs of that chain at alpha = 1
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            design, decomps = paper_design(model, g_net, 1.0)
            assert np.all(t_coordinate_lmi_margins(design, decomps) < 0)


class TestSynthesize:
    def test_two_node_scalar(self):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]], [[1.0]]))
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        # both nodes see the whole state: any gamma > 0 certifies, and the
        # gain is the margin over its floor alpha
        assert design.gamma == pytest.approx(1.1 * 1.0, rel=1e-12)
        assert design.epsilon == pytest.approx(0.9, abs=1e-12)
        # closed-loop error eigenvalues all left of -alpha
        for node in design.nodes:
            closed = model.A - node.L @ model.outputs[0]
            assert np.max(np.linalg.eigvals(closed).real) < -1.0

    def test_chain_graph_rejected(self):
        model = SystemModel(A=np.diag([1.0, 2.0]),
                            outputs=([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]))
        chain = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(AssumptionViolationError):
            synthesize(model, chain, SynthesisParams(alpha=1.0))

    def test_jointly_unobservable_rejected(self):
        model = SystemModel(A=np.diag([1.0, 2.0]),
                            outputs=([[1.0, 0.0]], [[1.0, 0.0]]))
        with pytest.raises(AssumptionViolationError):
            synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))

    def test_node_count_mismatch_rejected(self):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]],))
        with pytest.raises(Exception):
            synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))

    def test_undetectable_nodes_certified(self):
        model = SystemModel(A=np.diag([1.0, 2.0]),
                            outputs=([[1.0, 0.0]], [[0.0, 1.0]]))
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        # spot check downstream: assembled global error matrix decays at 1
        from observer_kit.verify import build_global_error_matrix

        E = dense_E(build_global_error_matrix(model, balance(UNIT_2CYCLE), design))
        assert np.max(np.linalg.eigvals(E).real) <= -1.0 + 1e-6

    def test_weighting_that_is_no_certificate_fails(self, monkeypatch):
        # the final gate reads M_i from the assembled design
        assemble = synth.assemble_gains
        monkeypatch.setattr(
            synth, "assemble_gains", lambda *a: scaled_first_weighting(assemble(*a))
        )
        with pytest.raises(NumericalFailureError, match="fails its certificate"):
            synthesize(TWO_MODES, UNIT_2CYCLE, SynthesisParams(alpha=1.0))

    def test_checks_the_certificate_that_verify_reports(self, monkeypatch):
        # one certificate: the Z blocks that synthesize factors are the ones
        # whose eigenvalues verify reads
        original, blocks = verify.certificate_blocks, []

        def recording(*args):
            blocks.append(original(*args))
            return blocks[-1]

        monkeypatch.setattr(verify, "certificate_blocks", recording)
        model, g_net = battery_instances(20240817, count=12)[11]
        design = synthesize(model, g_net, SynthesisParams(alpha=10.0))
        report = verify_design(model, g_net, design)
        assert len(blocks) == 2 and len(blocks[0]) == len(blocks[1])
        assert all(np.array_equal(a, b) for a, b in zip(*blocks))
        assert report.lyapunov_passed

    def test_final_certificate_reads_no_error_matrix(self, monkeypatch):
        # the Cholesky verdict reads the certificate blocks only, so the
        # blocks of E are never formed on the synthesize path
        def unread(self):
            raise AssertionError("synthesize formed the blocks of E")

        monkeypatch.setattr(verify.GlobalErrorSystem, "E_blocks", property(unread))
        model, g_net = battery_instances(20240817, count=12)[11]
        design = synthesize(model, g_net, SynthesisParams(alpha=10.0))
        assert design.gamma > 0

    def test_final_certificate_rejects_non_finite_blocks(self, monkeypatch):
        # numpy's Cholesky factors a matrix with an inf diagonal entry, so
        # the verdict must test finiteness itself, as verify's eigvalsh does
        original = verify.certificate_blocks

        def overflowed(*args):
            blocks = original(*args)
            blocks[0][0, 0, 0] = -np.inf
            return blocks

        monkeypatch.setattr(verify, "certificate_blocks", overflowed)
        with pytest.raises(NumericalFailureError, match="non-finite entries"):
            synthesize(TWO_MODES, UNIT_2CYCLE, SynthesisParams(alpha=1.0))

    def test_block_above_the_direct_cutoff_certifies(self, monkeypatch):
        n = TWELVE_STATES.n
        assert n > numerics._DIRECT_MAX
        calls, real_steps = [], numerics._sign_steps

        def spy(*args):
            calls.append(args[0].shape)
            return real_steps(*args)

        monkeypatch.setattr(numerics, "_sign_steps", spy)
        design = synthesize(TWELVE_STATES, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        report = verify_design(TWELVE_STATES, UNIT_2CYCLE, design)
        assert calls == [(1, n, n)] and report.passed and report.lyapunov_passed

    @pytest.mark.parametrize(
        "model, alpha",
        [pytest.param(TWO_MODES, alpha, id=f"{alpha:g}") for alpha in (1e160, 1e300)]
        + [pytest.param(TWELVE_STATES, alpha, id=f"sign-path-{alpha:g}")
           for alpha in (1e160, 1e200, 1e307)],
    )
    def test_huge_alpha_certifies(self, model, alpha):
        # the squared norms of F and E overflow above about 1e154; the
        # solver's tolerance and the symmetry test no longer square them.
        # On the sign path inv(G).T C inv(G) is about C / c^2 for a step
        # scale c of about alpha: formed before c multiplied it, it fell
        # into subnormals once alpha passed about 1e154
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=alpha))
        report = verify_design(model, UNIT_2CYCLE, design)
        assert report.passed and report.lyapunov_passed

    def test_singular_gramian_reports_condition_and_v(self):
        # one output summing diag(1..5) is observable, but its Bass Gramian
        # is too ill-conditioned to invert: both assumptions hold, so this
        # is a numerical failure
        model = SystemModel(A=np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
                            outputs=(np.ones((1, 5)), np.zeros((1, 5))))
        with pytest.raises(NumericalFailureError,
                           match=r"singular: cond\(X\) = \d.*e\+\d+ with v = 5\."):
            synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))

    def test_weak_output_certifies(self):
        # node 1's sensor in units 1e5 times larger: its Gramian is small
        # but perfectly conditioned, so it is no singular Gramian
        model = SystemModel(A=TWO_MODES.A, outputs=(TWO_MODES.outputs[0], 1e-5 * TWO_MODES.outputs[1]))
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        report = verify_design(model, UNIT_2CYCLE, design)
        assert report.passed and report.lyapunov_passed

    def test_battery_in_small_output_units_certifies(self):
        # every output rescaled by 1e-4 is a change of sensor units only
        certified = 0
        for model, g_net in battery_instances(20240817):
            scaled = SystemModel(A=model.A, outputs=tuple(1e-4 * H for H in model.outputs))
            design = synthesize(scaled, g_net, SynthesisParams(alpha=1.0))
            report = verify_design(scaled, g_net, design)
            certified += report.passed and report.lyapunov_passed
        assert certified == 100

    @pytest.mark.parametrize("s", [1e-4, 1e4])
    def test_output_units_are_exact(self, s):
        # H -> s H is a change of sensor units: L -> L / s, and M, gamma
        # and epsilon stay, to rounding; a node that sees nothing has L = 0
        for model, g_net in battery_instances(20240817, count=50):
            scaled = SystemModel(A=model.A, outputs=tuple(s * H for H in model.outputs))
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            rescaled = synthesize(scaled, g_net, SynthesisParams(alpha=1.0))
            assert rescaled.gamma == pytest.approx(design.gamma, rel=1e-10, abs=0)
            assert rescaled.epsilon == pytest.approx(design.epsilon, rel=1e-10, abs=0)
            for a, b in zip(rescaled.nodes, design.nodes):
                L_norm = np.linalg.norm(b.L)
                assert np.linalg.norm(s * a.L - b.L) <= 1e-10 * max(L_norm, 1.0)
                assert np.linalg.norm(a.M - b.M) <= 1e-10 * np.linalg.norm(b.M)

    def test_battery_at_very_fast_decay_rate_violates_no_assumption(self):
        # every instance meets both assumptions; at alpha = 1000 a few
        # Gramians are too ill-conditioned to invert, a numerical failure
        for model, g_net in battery_instances(20240817):
            try:
                synthesize(model, g_net, SynthesisParams(alpha=1000.0))
            except NumericalFailureError:
                pass

    @pytest.mark.parametrize("alpha", [10.0, 100.0])
    def test_battery_at_fast_decay_rates_certifies(self, alpha):
        # a per-node gate on these designs read margins of +1e-9 to +1e-7
        # from rounding, though their global certificate holds by far
        certified = 0
        for model, g_net in battery_instances(20240817):
            design = synthesize(model, g_net, SynthesisParams(alpha=alpha))
            report = verify_design(model, g_net, design)
            certified += report.passed and report.lyapunov_passed
        assert certified == 100

    def test_wide_mode_spread_certifies(self):
        design = synthesize(SPREAD_MODEL, RING_8, SynthesisParams(alpha=1.0))
        report = verify_design(SPREAD_MODEL, RING_8, design)
        assert report.passed and report.lyapunov_passed

    def test_weakly_observable_battery_instance_certifies(self):
        # node 3's observable pair has an observability matrix of condition
        # 4.0e3; a second Lyapunov solve on its closed loop missed its residual
        model, g_net = battery_instances(109, count=8)[7]
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        report = verify_design(model, g_net, design)
        assert report.passed and report.lyapunov_passed

    @pytest.mark.parametrize("seed, index", [(102, 9), (107, 0), (109, 7)])
    def test_rotated_observable_bases_certify(self, monkeypatch, seed, index):
        # any orthonormal basis of each observable subspace must do
        model, g_net = battery_instances(seed, count=index + 1)[index]
        rng = np.random.default_rng(seed)
        rotations = []

        def rotated(outputs, A):
            decomps = []
            for d in decompose_nodes(outputs, A):
                Q = np.linalg.qr(rng.normal(size=(d.v, d.v)))[0]
                rotations.append(d.v)
                decomps.append(dataclasses.replace(
                    d, T=np.hstack([d.T1 @ Q, d.T2]), A_io=Q.T @ d.A_io @ Q,
                    A_ir=d.A_ir @ Q, H_io=d.H_io @ Q,
                ))
            return tuple(decomps)

        monkeypatch.setattr(synth, "decompose_nodes", rotated)
        for _ in range(20):
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            report = verify_design(model, g_net, design)
            assert report.passed and report.lyapunov_passed
        # synthesize read the rotated bases of every node in every round
        assert len(rotations) == 20 * model.node_count and max(rotations) > 1

    # the multi-node cases; the single node there is not jointly observable
    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES[:2])
    def test_one_lyapunov_solve_per_observable_block(self, monkeypatch, n, owned):
        # the Gramian that defines the gain is also its certificate: every
        # block with v_i > 0 is solved exactly once, inside the one stacked
        # solve of the blocks that share its v_i
        rng = np.random.default_rng(5)
        model = rotated_partial_model(rng, n, owned)
        g_net = graph_for(rng, len(owned))
        original, stacks = numerics.solve_lyapunov, []

        def counting(F, Q, *args, **kwargs):
            stacks.append((F, Q))
            return original(F, Q, *args, **kwargs)

        monkeypatch.setattr(numerics, "solve_lyapunov", counting)
        synthesize(model, g_net, SynthesisParams(alpha=1.0))
        assert all(F.ndim == 3 for F, _ in stacks)
        assert sorted(F.shape[-1] for F, _ in stacks) == sorted({len(i) for i in owned if i})

        def solves(d, F, Q):
            # F is A_io shifted by a multiple of I, and Q = -2 H_io.T H_io
            if F.shape != d.A_io.shape:
                return False
            shift = F - d.A_io
            return np.allclose(shift, shift[0, 0] * np.eye(d.v), rtol=0, atol=1e-12) and (
                np.allclose(Q, -2.0 * d.H_io.T @ d.H_io, rtol=1e-12, atol=1e-14)
            )

        solved = [(F, Q) for Fs, Qs in stacks for F, Q in zip(Fs, Qs)]
        observable = [d for d in check_assumptions(model, g_net).decomps if d.v]
        assert len(solved) == len(observable) == sum(1 for idx in owned if idx)
        for d in observable:
            assert sum(solves(d, F, Q) for F, Q in solved) == 1

    def test_one_symmetry_test_per_stack(self, monkeypatch):
        # synthesize + verify_design tests symmetry once per stacked Bass
        # right-hand side (one per distinct v_i > 0) and once per group
        # size of the M_i, and never inside numerics.eigenvalues
        model, g_net = next(
            (m, g) for m, g in battery_instances(20240817)
            if len({d.v for d in check_assumptions(m, g).decomps} - {0}) > 1
        )
        v = {d.v for d in check_assumptions(model, g_net).decomps} - {0}
        original, callers = numerics.is_symmetric, []

        def spy(M):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(M)

        monkeypatch.setattr(numerics, "is_symmetric", spy)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        verify_design(model, g_net, design)
        groups = verify.build_global_error_matrix(model, balance(g_net), design).groups
        assert callers == ["solve_lyapunov"] * len(v) + ["error_system"] * len(groups)

    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES[:2])
    def test_one_krylov_sequence_per_model(self, monkeypatch, n, owned):
        # the observability rows of every node come from one sequence of
        # n - 1 products of the stacked outputs with A, and the rank recheck
        # takes one stack per distinct v_i > 0; the joint rank is read off
        # the decompositions
        rng = np.random.default_rng(5)
        model = rotated_partial_model(rng, n, owned)
        g_net = graph_for(rng, len(owned))
        original, calls = decomp.observability_matrix, []

        def counting(H, A):
            calls.append((H.shape, A.shape))
            return original(H, A)

        monkeypatch.setattr(decomp, "observability_matrix", counting)
        synthesize(model, g_net, SynthesisParams(alpha=1.0))
        rows = sum(max(len(idx), 1) for idx in owned)
        assert calls[0] == ((rows, n), (n, n))
        v = [len(idx) for idx in owned]
        assert [A for _, A in calls[1:]] == [(v.count(k), k, k) for k in sorted(set(v) - {0})]


@pytest.fixture(scope="module")
def threshold_problems():
    """(model, graph, D0, C, groups, mirror) of synthesize's two eigenvalue
    problems at alpha = 1, on battery 20240817 and ladder rungs 2 to 30."""
    problems = []
    for model, g_net in battery_instances(20240817) + [partial_instance(n) for n in (2, 10, 20, 30)]:
        decomps = check_assumptions(model, g_net).decomps
        D0, C = synth._certificate_pencil(decomps, *synth._place_all_poles(decomps, 1.0), 1.0)
        groups = numerics.coordinate_groups(D0, C)
        problems.append((model, g_net, D0, C, groups, balance(g_net).mirror))
    return problems


def design_scale(D0, C, groups, alpha=1.0):
    """The scale q that synthesize gives the P_io."""
    return 2.0 * max(synth._scale_threshold(D0, C, groups), alpha)


def dense_Z(D, mirror, gamma):
    """The certificate matrix Z(gamma) = blockdiag(D_i) - gamma (mirror x I), densely."""
    return scipy.linalg.block_diag(*D) - gamma * np.kron(mirror, np.eye(D.shape[-1]))


def dense_coupling_threshold(D, mirror):
    """gamma* from dense Kronecker products and scipy's generalized
    eigensolver: the Schur complement of the consensus block of Z against
    the pencil's W = diag(w[1:]) x I."""
    n = D.shape[-1]
    w, Q = np.linalg.eigh(mirror)
    U, V = np.kron(Q[:, :1], np.eye(n)), np.kron(Q[:, 1:], np.eye(n))
    Dbar = scipy.linalg.block_diag(*D)
    S = V.T @ Dbar @ V - V.T @ Dbar @ U @ np.linalg.solve(U.T @ Dbar @ U, U.T @ Dbar @ V)
    W = np.kron(np.diag(w[1:]), np.eye(n))
    return scipy.linalg.eigh(0.5 * (S + S.T), W, eigvals_only=True)[-1]


def largest_eigenvalue(M):
    return np.linalg.eigvalsh(0.5 * (M + M.T))[-1]


class TestCertificateThresholds:
    """q* and gamma*, the two generalized eigenvalue problems of synthesize."""

    def test_scale_threshold_brackets_definiteness(self, threshold_problems):
        # D_UU(q) = (1/N) sum_i (D0_i + q C_i) is negative definite exactly
        # above q*; every node seeing the whole state gives D0 = 0 and q* = 0
        bracketed = 0
        for *_, D0, C, groups, _ in threshold_problems:
            q_star = synth._scale_threshold(D0, C, groups)
            if q_star == 0.0:
                assert not D0.any()
                continue
            step = 1e-6 * abs(q_star)
            assert largest_eigenvalue((D0 + (q_star - step) * C).mean(axis=0)) > 0
            assert largest_eigenvalue((D0 + (q_star + step) * C).mean(axis=0)) < 0
            bracketed += 1
        assert bracketed >= 50

    def test_coupling_threshold_brackets_definiteness(self, threshold_problems):
        for *_, D0, C, groups, mirror in threshold_problems:
            D = D0 + design_scale(D0, C, groups) * C
            gamma_star = synth._coupling_threshold(D, mirror, groups)
            step = 1e-6 * abs(gamma_star)
            assert largest_eigenvalue(dense_Z(D, mirror, gamma_star - step)) > 0
            assert largest_eigenvalue(dense_Z(D, mirror, gamma_star + step)) < 0

    def test_design_takes_both_thresholds(self, threshold_problems):
        # q = 2 max(q*, alpha) scales every P_io and gamma = 1.1 max(gamma*, alpha)
        for model, g_net, D0, C, groups, mirror in threshold_problems[:20]:
            q = design_scale(D0, C, groups)
            gamma_star = synth._coupling_threshold(D0 + q * C, mirror, groups)
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            assert design.gamma == 1.1 * max(gamma_star, 1.0)

    def test_generalized_eigenvalues_match_scipy(self):
        rng = np.random.default_rng(21)
        for m in (1, 2, 5, 12):
            a = rng.normal(size=(30, m, m))
            a = a + a.swapaxes(-1, -2)
            B = rng.normal(size=(30, m, m))
            b = B @ B.swapaxes(-1, -2) + 1e-2 * np.eye(m)
            got = synth._largest_generalized_eigenvalues(a, b)
            expected = [scipy.linalg.eigh(a_k, b_k, eigvals_only=True)[-1] for a_k, b_k in zip(a, b)]
            assert np.allclose(got, expected, rtol=1e-10, atol=0)

    def test_thresholds_match_dense_scipy_oracles(self, threshold_problems):
        for *_, D0, C, groups, mirror in threshold_problems:
            q_star = synth._scale_threshold(D0, C, groups)
            expected = scipy.linalg.eigh(D0.sum(axis=0), -C.sum(axis=0), eigvals_only=True)[-1]
            assert abs(q_star - expected) <= 1e-10 * max(abs(expected), 1e-300)
            D = D0 + design_scale(D0, C, groups) * C
            gamma_star = synth._coupling_threshold(D, mirror, groups)
            expected = dense_coupling_threshold(D, mirror)
            assert abs(gamma_star - expected) <= 1e-10 * abs(expected)


class TestCheckAssumptions:
    def test_reports_without_deciding(self):
        model = SystemModel(A=np.diag([1.0, 2.0]),
                            outputs=([[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]))
        chain = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        check = check_assumptions(model, chain)
        assert check.strongly_connected is False
        assert check.joint_rank == 1
        assert [d.v for d in check.decomps] == [1, 1, 1]

    def test_node_count_mismatch(self):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]],))
        with pytest.raises(DimensionError):
            check_assumptions(model, UNIT_2CYCLE)

    def test_large_norm_warns_once(self, caplog):
        model = SystemModel(A=2e3 * np.eye(2), outputs=([[1.0, 0.0]], [[0.0, 1.0]]))
        with caplog.at_level(logging.WARNING, logger="observer_kit"):
            check_assumptions(model, UNIT_2CYCLE)
        assert len(caplog.records) == 1
        assert "badly conditioned" in caplog.messages[0]

    @pytest.mark.parametrize(
        "A, warns",
        [(900.0 * np.eye(4), False), (np.diag([1000.001, 0.0, 0.0, 0.0]), True)],
        ids=["2-norm-900-frobenius-1800", "rank-one-just-above"],
    )
    def test_norm_warning_reads_the_2_norm(self, caplog, A, warns):
        # norm(A, 2) decides the warning; norm(A, "fro"), its upper bound,
        # only decides whether the SVD for it is taken
        model = SystemModel(A=A, outputs=(np.eye(4)[:2], np.eye(4)[2:]))
        with caplog.at_level(logging.WARNING, logger="observer_kit"):
            check_assumptions(model, UNIT_2CYCLE)
        assert ["badly conditioned" in m for m in caplog.messages] == ([True] if warns else [])


class TestSynthesisParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            SynthesisParams(alpha=0.0)

    @pytest.mark.parametrize(
        "knob", [{"gamma_margin": 1.2}, {"rank_rtol": 1e-9}], ids=["gamma-margin", "rank-rtol"]
    )
    def test_alpha_is_the_only_input(self, knob):
        # the coupling margin and the rank tolerance are fixed constants
        with pytest.raises(TypeError):
            SynthesisParams(alpha=1.0, **knob)


class TestDesignSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        import json

        rng = np.random.default_rng(9)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        path = tmp_path / "design.json"
        with open(path, "w") as fh:
            json.dump(design.to_dict(), fh)
        with open(path) as fh:
            restored = ObserverDesign.from_dict(json.load(fh))
        assert restored.gamma == design.gamma
        assert restored.epsilon == design.epsilon
        assert np.array_equal(restored.r, design.r)
        for a, b in zip(restored.nodes, design.nodes):
            assert np.array_equal(a.L, b.L)
            assert np.array_equal(a.M, b.M)

    @pytest.mark.parametrize("bad", [True, "0.5", None], ids=["bool", "string", "null"])
    @pytest.mark.parametrize("field", ["gamma", "epsilon", "alpha", "r", "L", "M"])
    def test_rejects_non_number_entries(self, field, bad):
        # as load_design rejects them: a number field holding a JSON
        # boolean, string or null, whole or as one entry of an array
        model = SystemModel(A=[[0.7, 0.0], [0.0, -0.3]], outputs=([[1.0, 0.0]], [[0.0, 1.0]]))
        doc = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0)).to_dict()
        if field in ("gamma", "epsilon", "alpha"):
            doc[field] = bad
        elif field == "r":
            doc["r"][1] = bad
        else:
            doc["nodes"][0][field][0][-1] = bad
        with pytest.raises(DimensionError, match="malformed design document"):
            ObserverDesign.from_dict(doc)

    @pytest.mark.parametrize("r", [[1.0], [1.0, 1.0, 1.0], 1.0, [[1.0, 1.0]]])
    def test_r_must_hold_one_weight_per_node(self, r):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]], [[1.0]]))
        doc = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0)).to_dict()
        doc["r"] = r
        with pytest.raises(DimensionError):
            ObserverDesign.from_dict(doc)
