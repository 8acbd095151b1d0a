import dataclasses
import logging

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    MIXED_OBSERVABILITY_CASES,
    battery_instances,
    graph_for,
    random_dense_model,
    random_model,
    random_partial_model,
    random_sc_digraph,
    rotated_partial_model,
)
from observer_kit import decomp, numerics, synth
from observer_kit.decomp import NodeDecomposition, SystemModel, decompose_node
from observer_kit.errors import AssumptionViolationError, DimensionError, NumericalFailureError
from observer_kit.graph import Digraph, balance
from observer_kit.synth import (
    BUDGET_FLOOR,
    ObserverDesign,
    SynthesisParams,
    _min_coupling_budget,
    assemble_gains,
    check_assumptions,
    compute_epsilon,
    coupling_matrix,
    place_observer_poles,
    select_gamma,
    synthesize,
    verify_design_lmi,
)
from observer_kit.verify import verify_design
from test_numerics import kron_lyapunov_oracle

UNIT_2CYCLE = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])

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
        eps = compute_epsilon(decomps, balance(g), np.ones(3), margin=0.9)
        assert eps == pytest.approx(0.9, abs=1e-10)

    def test_zero_weights_degenerate(self):
        rng = np.random.default_rng(1)
        decomps = fully_observable_decomps(2, 2, rng)
        with pytest.raises(AssumptionViolationError):
            compute_epsilon(decomps, balance(UNIT_2CYCLE), np.zeros(2))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, N = 3, 3
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            bal = balance(g_net)
            g = rng.uniform(0.5, 2.0, N)
            eps = compute_epsilon(decomps, bal, g, margin=0.9)
            assert eps > 0
            # independent assembly: loop over blocks entry-wise
            S = np.zeros((n * N, n * N))
            for i in range(N):
                for j in range(N):
                    S[i * n : (i + 1) * n, j * n : (j + 1) * n] = (
                        bal.mirror[i, j] * decomps[i].T.T @ decomps[j].T
                    )
            for i, d in enumerate(decomps):
                G_i = np.diag(np.concatenate([np.full(d.v, g[i]), np.zeros(n - d.v)]))
                S[i * n : (i + 1) * n, i * n : (i + 1) * n] += G_i
            lam_min = np.linalg.eigvalsh(0.5 * (S + S.T))[0]
            assert eps == pytest.approx(0.9 * lam_min, rel=1e-9)

    def test_monotone_in_g(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            N = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            model = random_model(rng, n, N)
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            bal = balance(random_sc_digraph(rng, N))
            g = rng.uniform(0.5, 2.0, N)
            eps_low = compute_epsilon(decomps, bal, g, margin=1.0 - 1e-12)
            bumped = g.copy()
            bumped[rng.integers(0, N)] *= 2.0
            eps_high = compute_epsilon(decomps, bal, bumped, margin=1.0 - 1e-12)
            assert eps_high >= eps_low - 1e-10

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
        g = rng.uniform(0.5, 2.0, N)
        T = scipy.linalg.block_diag(*[d.T for d in decomps])
        G = scipy.linalg.block_diag(
            *[np.diag(np.r_[np.full(d.v, gi), np.zeros(n - d.v)]) for d, gi in zip(decomps, g)]
        )
        dense = T.T @ np.kron(bal.mirror, np.eye(n)) @ T + G
        S = coupling_matrix(decomps, bal.mirror, g)
        assert np.max(np.abs(S - dense)) <= 1e-12 * np.max(np.abs(dense))
        if N == 1:
            # a lone node with v < n is not observable: S is singular
            with pytest.raises(AssumptionViolationError):
                compute_epsilon(decomps, bal, g)
        else:
            lam_min = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
            assert compute_epsilon(decomps, bal, g, margin=0.9) == pytest.approx(
                0.9 * lam_min, rel=1e-9
            )


class TestSelectGamma:
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
            b = _min_coupling_budget(A_iu, A_ir)
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
            assert _min_coupling_budget(A_iu, A_ir) == pytest.approx(expected, rel=1e-10)


class TestPlaceObserverPoles:
    def test_scalar(self):
        L, _ = place_observer_poles(np.zeros((1, 1)), np.ones((1, 1)), alpha=1.0, gamma=4.0)
        # shift beta = 2, Gramian X = 1/3, gain 3, closed loop at -3
        assert L == pytest.approx(np.array([[3.0]]))

    def test_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        L, _ = place_observer_poles(A, H, alpha=0.0, gamma=3.0)
        assert np.allclose(L, [[4.0], [8.0]], atol=1e-9)
        w = np.linalg.eigvals(A - L @ H)
        assert np.allclose(sorted(w.real), [-2.0, -2.0], atol=1e-9)
        assert np.allclose(sorted(w.imag), [-2.0, 2.0], atol=1e-9)

    def test_already_stable_block(self):
        # the gain is rebuilt regardless; only the half-plane is promised
        L, _ = place_observer_poles(np.array([[-5.0]]), np.ones((1, 1)), alpha=1.0, gamma=4.0)
        closed = -5.0 - L[0, 0]
        assert closed < -1.0

    def test_empty_block(self):
        L, P = place_observer_poles(np.zeros((0, 0)), np.zeros((2, 0)), alpha=1.0, gamma=4.0)
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
            L, P = place_observer_poles(A, H, alpha, gamma=2.0 * alpha + 1.0)
            absc = np.max(np.linalg.eigvals(A - L @ H).real)
            assert absc < -alpha - 1e-8
            # the certificate inequality, Sym(P (A - L H + alpha I)) <= -q I
            lhs = P @ (A - L @ H + alpha * np.eye(v))
            assert np.linalg.eigvalsh(lhs + lhs.T)[-1] <= -1.0 + 1e-9
            done += 1

    def test_scalar_certificate(self):
        _, P = place_observer_poles(np.zeros((1, 1)), np.ones((1, 1)), alpha=1.0, gamma=4.0)
        # -4 P = -(gamma - 2 * alpha)
        assert P == pytest.approx(np.array([[0.5]]))

    def test_gamma_boundary_rejected(self):
        with pytest.raises(AssumptionViolationError):
            place_observer_poles(np.zeros((1, 1)), np.ones((1, 1)), alpha=1.0, gamma=2.0)

    def test_node_weight_scales_gamma(self):
        args = (np.zeros((1, 1)), np.ones((1, 1)))
        # -4 P = -(gamma * max(g_i, 1) - 2 * alpha)
        _, P = place_observer_poles(*args, alpha=1.0, gamma=4.0, g_i=2.0)
        assert P == pytest.approx(np.array([[1.5]]))
        _, P = place_observer_poles(*args, alpha=1.0, gamma=4.0, g_i=0.5)
        assert P == pytest.approx(np.array([[0.5]]))

    def test_double_integrator_certificate_against_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        L, P = place_observer_poles(A, H, alpha=0.0, gamma=3.0)
        # Bass equation with beta = 1 + ||A||_F = 2, solved independently
        beta, q = 2.0, 3.0
        X = kron_lyapunov_oracle(A + beta * np.eye(2), -2.0 * H.T @ H)
        expected = q / (2.0 * beta * np.linalg.eigvalsh(X)[0]) * X
        assert np.allclose(P, expected, rtol=1e-12, atol=0)
        lhs = P @ (A - L @ H)
        assert np.linalg.eigvalsh(lhs + lhs.T + q * np.eye(2))[-1] <= 1e-12 * q


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


class TestVerifyDesignLmi:
    def test_scalar_arithmetic(self):
        dec = NodeDecomposition(
            v=1, T=np.eye(1), A_io=np.zeros((1, 1)), A_ir=np.zeros((0, 1)),
            A_iu=np.zeros((0, 0)), H_io=np.ones((1, 1)),
        )
        verdict = verify_design_lmi(
            dec, P_io=np.array([[0.5]]),
            W=np.array([[1.5]]), gamma=4.0, epsilon=0.9, alpha=1.0, g_i=1.0,
        )
        # Phi = -2*1.5 + 2*0.5 = -2; block = -2 + 4 - 3.6 = -1.6
        assert verdict.is_negative_definite
        assert verdict.margin == pytest.approx(-1.6)

    def test_no_coupling_unstable_block_fails(self):
        dec = NodeDecomposition(
            v=0, T=np.eye(1), A_io=np.zeros((0, 0)), A_ir=np.zeros((1, 0)),
            A_iu=np.array([[0.5]]), H_io=np.zeros((1, 0)),
        )
        verdict = verify_design_lmi(
            dec, P_io=np.zeros((0, 0)), W=np.zeros((0, 1)),
            gamma=0.0, epsilon=0.9, alpha=0.5, g_i=1.0,
        )
        assert not verdict.is_negative_definite

    def test_holds_for_synthesized_designs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            params = SynthesisParams(alpha=1.0)
            design = synthesize(model, g_net, params)
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            for d, node in zip(decomps, design.nodes):
                # reconstruct the block gain and certificate from the assembled ones
                P_io = d.T1.T @ np.linalg.inv(node.M) @ d.T1
                L_io = d.T1.T @ node.L
                verdict = verify_design_lmi(
                    d, P_io, P_io @ L_io, design.gamma, design.epsilon, design.alpha,
                )
                assert verdict.is_negative_definite


class TestSynthesize:
    def test_two_node_scalar(self):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]], [[1.0]]))
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        assert design.gamma >= 2 * 1.0 + 1
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

        E = build_global_error_matrix(model, balance(UNIT_2CYCLE), design).E
        assert np.max(np.linalg.eigvals(E).real) <= -1.0 + 1e-6

    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_nondefault_g_certifies(self, weights):
        # each g_i > 1 + epsilon breaks a certificate solved as if g_i = 1
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 10)
        model = random_partial_model(rng, 10, 10)
        if weights == "uniform":
            g = np.full(10, 10.0)
        else:
            g = np.random.default_rng(2).uniform(0.2, 20.0, 10)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0, g=g))
        report = verify_design(model, g_net, design)
        assert report.passed and report.lyapunov_passed

    def test_small_node_weight_certifies(self):
        # fully observable nodes keep gamma near its floor 2*alpha + 1,
        # so gamma * g_2 is far below 2*alpha
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 3)
        model = random_dense_model(rng, 3, 3)
        g = np.array([1.0, 1.0, 0.05])
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0, g=g))
        assert design.gamma * g[2] < 2.0
        report = verify_design(model, g_net, design)
        assert report.passed and report.lyapunov_passed

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

        def rotated(H, A, rtol):
            d = decompose_node(H, A, rtol)
            Q = np.linalg.qr(rng.normal(size=(d.v, d.v)))[0]
            return dataclasses.replace(
                d, T=np.hstack([d.T1 @ Q, d.T2]), A_io=Q.T @ d.A_io @ Q,
                A_ir=d.A_ir @ Q, H_io=d.H_io @ Q,
            )

        monkeypatch.setattr(synth, "decompose_node", rotated)
        for _ in range(20):
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            report = verify_design(model, g_net, design)
            assert report.passed and report.lyapunov_passed

    # the multi-node cases; the single node there is not jointly observable
    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES[:2])
    def test_one_lyapunov_solve_per_observable_block(self, monkeypatch, n, owned):
        # the Gramian that defines the gain is also its certificate
        rng = np.random.default_rng(5)
        model = rotated_partial_model(rng, n, owned)
        g_net = graph_for(rng, len(owned))
        original, calls = numerics.solve_lyapunov, []

        def counting(F, Q, *args, **kwargs):
            calls.append(F.shape)
            return original(F, Q, *args, **kwargs)

        monkeypatch.setattr(numerics, "solve_lyapunov", counting)
        synthesize(model, g_net, SynthesisParams(alpha=1.0))
        assert calls == [(len(idx), len(idx)) for idx in owned if idx]

    def test_two_observability_matrices_per_node(self, monkeypatch):
        # one for the decomposition, one for its rank recheck (v_i > 0);
        # the joint rank is read off the decompositions
        original, calls = decomp.observability_matrix, []

        def counting(H, A):
            calls.append(H.shape)
            return original(H, A)

        monkeypatch.setattr(decomp, "observability_matrix", counting)
        synthesize(SPREAD_MODEL, RING_8, SynthesisParams(alpha=1.0))
        assert len(calls) == 2 * SPREAD_MODEL.node_count


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


class TestSynthesisParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            SynthesisParams(alpha=0.0)

    def test_rejects_bad_margins(self):
        with pytest.raises(ValueError):
            SynthesisParams(alpha=1.0, epsilon_margin=1.0)
        with pytest.raises(ValueError):
            SynthesisParams(alpha=1.0, gamma_margin=1.0)

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError):
            SynthesisParams(alpha=1.0, g=[1.0, 0.0])


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
            assert a.v == b.v

    @pytest.mark.parametrize("r", [[1.0], [1.0, 1.0, 1.0], 1.0, [[1.0, 1.0]]])
    def test_r_must_hold_one_weight_per_node(self, r):
        model = SystemModel(A=[[0.7]], outputs=([[1.0]], [[1.0]]))
        doc = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0)).to_dict()
        doc["r"] = r
        with pytest.raises(DimensionError):
            ObserverDesign.from_dict(doc)
