import numpy as np
import pytest
import scipy.linalg

from conftest import (
    MIXED_OBSERVABILITY_CASES,
    battery_instances,
    dense_matrix,
    dense_E,
    graph_for,
    node_blocks,
    partial_instance,
    random_model,
    random_sc_digraph,
    rotated_partial_model,
)
from observer_kit import verify
from observer_kit.decomp import SystemModel
from observer_kit.errors import DimensionError
from observer_kit.graph import Digraph, balance
from observer_kit.synth import NodeGains, ObserverDesign, SynthesisParams, synthesize
from observer_kit.verify import (
    build_global_error_matrix,
    certificate_blocks,
    error_system,
    lyapunov_certificate,
    spectral_abscissa_certificate,
    verify_design,
)

UNIT_2CYCLE = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])


def scalar_pair_design(l, m, gamma, alpha=1.0):
    """Hand-built two-node scalar design with identical gains."""
    node = NodeGains(L=np.array([[l]]), M=np.array([[m]]))
    return ObserverDesign(
        gamma=gamma, epsilon=0.9, alpha=alpha, r=np.ones(2), nodes=(node, node)
    )


def scalar_pair_model(a):
    return SystemModel(A=[[a]], outputs=([[1.0]], [[1.0]]))


def random_gains_instance(seed, n, owned):
    """Model, balanced graph and a design with random gains and random
    weightings (positive definite, with a small skew part that pins which
    side of the coupling M_i multiplies): every block of E and Z differs
    from every other."""
    rng = np.random.default_rng(seed)
    model = rotated_partial_model(rng, n, owned)
    bal = balance(graph_for(rng, len(owned)))
    nodes = []
    for H in model.outputs:
        B, C = rng.normal(size=(2, n, n))
        nodes.append(
            NodeGains(
                L=rng.normal(size=(n, H.shape[0])),
                M=B @ B.T + n * np.eye(n) + 0.1 * (C - C.T),
            )
        )
    design = ObserverDesign(
        gamma=rng.uniform(1.0, 5.0), epsilon=0.9, alpha=1.0, r=bal.r, nodes=tuple(nodes)
    )
    return model, bal, design


def dense_blocks(model, bal, design):
    """Lambda, Mbar and P as explicit block diagonals."""
    Lambda = scipy.linalg.block_diag(
        *[model.A - node.L @ H for node, H in zip(design.nodes, model.outputs)]
    )
    Mbar = scipy.linalg.block_diag(*[node.M for node in design.nodes])
    P = np.linalg.inv(Mbar)
    return Lambda, Mbar, 0.5 * (P + P.T)


def diagonal_blocks(D, n):
    """The n x n diagonal blocks of D as an (N, n, n) stack."""
    return np.stack([D[k : k + n, k : k + n] for k in range(0, D.shape[0], n)])


def dense_certificates(model, bal, design):
    """E, abscissa and Lyapunov margin of a design from the dense nN x nN
    E and Z, built from explicit Kronecker products."""
    n = model.n
    Lambda, Mbar, P = dense_blocks(model, bal, design)
    E = Lambda - design.gamma * Mbar @ np.kron(bal.R @ bal.laplacian, np.eye(n))
    Z = (
        P @ Lambda
        + Lambda.T @ P
        - design.gamma * np.kron(bal.mirror, np.eye(n))
        + 2.0 * design.alpha * P
    )
    return E, np.max(np.linalg.eigvals(E).real), np.linalg.eigvalsh(0.5 * (Z + Z.T))[-1]


def assert_rel_close(got, expected, rtol=1e-12):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestBuildGlobalErrorMatrix:
    def test_two_node_circulant(self):
        a, l, m, gamma = 0.3, 1.2, 0.7, 2.0
        model = scalar_pair_model(a)
        design = scalar_pair_design(l, m, gamma)
        sys_ = build_global_error_matrix(model, balance(UNIT_2CYCLE), design)
        expected = np.array(
            [[a - l - gamma * m, gamma * m], [gamma * m, a - l - gamma * m]]
        )
        assert np.allclose(dense_E(sys_), expected, atol=1e-12)
        w = np.sort(np.linalg.eigvals(dense_E(sys_)).real)
        assert np.allclose(w, sorted([a - l, a - l - 2 * gamma * m]), atol=1e-12)

    def test_single_node_no_coupling(self):
        model = SystemModel(A=[[0.4]], outputs=([[1.0]],))
        node = NodeGains(L=np.array([[2.0]]), M=np.array([[1.0]]))
        design = ObserverDesign(
            gamma=5.0, epsilon=0.9, alpha=1.0, r=np.ones(1), nodes=(node,)
        )
        g_single = Digraph(np.zeros((1, 1)))
        sys_ = build_global_error_matrix(model, balance(g_single), design)
        assert np.allclose(dense_E(sys_), [[0.4 - 2.0]])

    def test_zero_coupling_gain(self):
        model = scalar_pair_model(0.3)
        design = scalar_pair_design(1.2, 0.7, gamma=0.0)
        sys_ = build_global_error_matrix(model, balance(UNIT_2CYCLE), design)
        Lambdas = node_blocks(sys_, sys_.Lambda_blocks)
        assert np.allclose(dense_E(sys_), scipy.linalg.block_diag(*Lambdas))

    def test_depends_on_graph_only_through_balanced_product(self):
        # two different digraphs with the same product R L
        g1 = UNIT_2CYCLE
        g2 = Digraph.from_edges(2, [(0, 1, 2.0 / 3.0), (1, 0, 2.0)])
        b1, b2 = balance(g1), balance(g2)
        assert np.allclose(b1.R @ b1.laplacian, b2.R @ b2.laplacian, atol=1e-12)
        model = scalar_pair_model(0.3)
        design = scalar_pair_design(1.2, 0.7, gamma=2.0)
        E1 = dense_E(build_global_error_matrix(model, b1, design))
        E2 = dense_E(build_global_error_matrix(model, b2, design))
        assert np.allclose(E1, E2, atol=1e-12)

    def test_unit_weights_reduce_to_plain_laplacian(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 2, 3)
        ring = Digraph.from_edges(
            3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 0, 1.0), (0, 2, 1.0)]
        )
        design = synthesize(model, ring, SynthesisParams(alpha=1.0))
        bal = balance(ring)
        assert np.allclose(bal.r, 1.0, atol=1e-12)
        sys_ = build_global_error_matrix(model, bal, design)
        coupling = scipy.linalg.block_diag(*node_blocks(sys_, sys_.Lambda_blocks)) - dense_E(sys_)
        Mbar = dense_blocks(model, bal, design)[1]
        expected = design.gamma * Mbar @ np.kron(bal.laplacian, np.eye(2))
        assert np.allclose(coupling, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES)
    def test_block_assembly_matches_kronecker_definition(self, n, owned, seed):
        model, bal, design = random_gains_instance(seed, n, owned)
        if len(owned) > 1:
            assert not np.allclose(bal.r, 1.0)
        Lambda, Mbar, _ = dense_blocks(model, bal, design)
        RL = bal.R @ bal.laplacian
        dense = Lambda - design.gamma * Mbar @ np.kron(RL, np.eye(n))
        sys_ = build_global_error_matrix(model, bal, design)
        assert_rel_close(dense_E(sys_), dense)
        Lambdas = node_blocks(sys_, sys_.Lambda_blocks)
        assert Lambdas.shape == node_blocks(sys_, sys_.P_blocks).shape == (len(owned), n, n)
        assert_rel_close(Lambdas, diagonal_blocks(Lambda, n))

    def test_dimension_mismatch_rejected(self):
        model = scalar_pair_model(0.3)
        bad = ObserverDesign(
            gamma=1.0, epsilon=0.9, alpha=1.0, r=np.ones(2),
            nodes=(
                NodeGains(L=np.ones((2, 1)), M=np.eye(2)),
                NodeGains(L=np.ones((2, 1)), M=np.eye(2)),
            ),
        )
        with pytest.raises(DimensionError):
            build_global_error_matrix(model, balance(UNIT_2CYCLE), bad)


class TestSpectralAbscissa:
    def test_stable_diagonal(self):
        verdict = spectral_abscissa_certificate([-2.0 * np.eye(2)], alpha=1.0)
        assert verdict.passed
        assert verdict.abscissa == pytest.approx(-2.0)

    def test_abscissa_is_the_largest_over_all_blocks(self):
        # one (k, m, m) stack per group size, as in GlobalErrorSystem.E_blocks
        blocks = [np.array([[[-3.0]], [[-2.0]]]), np.array([[[-1.5, 4.0], [0.0, -0.5]]])]
        verdict = spectral_abscissa_certificate(blocks, alpha=1.0)
        assert not verdict.passed
        assert verdict.abscissa == pytest.approx(-0.5)

    def test_nilpotent_fails(self):
        verdict = spectral_abscissa_certificate(
            [np.array([[0.0, 1.0], [0.0, 0.0]])], alpha=0.1
        )
        assert not verdict.passed
        assert verdict.abscissa == pytest.approx(0.0, abs=1e-8)


class TestLyapunovCertificate:
    def test_synthesized_designs_certify(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            bal, sys_ = error_system(model, g_net, design)
            cert = lyapunov_certificate(sys_, bal.mirror, design.gamma, design.alpha)
            assert cert.passed
            assert cert.margin < 0

    def test_zero_coupling_with_undetectable_node_fails(self):
        model = SystemModel(
            A=np.diag([1.0, 2.0]), outputs=([[1.0, 0.0]], [[0.0, 1.0]])
        )
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        gutted = ObserverDesign(
            gamma=0.0, epsilon=design.epsilon, alpha=design.alpha,
            r=design.r, nodes=design.nodes,
        )
        bal, sys_ = error_system(model, UNIT_2CYCLE, gutted)
        cert = lyapunov_certificate(sys_, bal.mirror, gutted.gamma, gutted.alpha)
        assert not cert.passed

    def test_certificate_is_rate_specific(self):
        model = SystemModel(
            A=np.diag([1.0, 2.0]), outputs=([[1.0, 0.0]], [[0.0, 1.0]])
        )
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        bal, sys_ = error_system(model, UNIT_2CYCLE, design)
        abscissa = spectral_abscissa_certificate(sys_.E_blocks, 1.0).abscissa
        # demanding twice the achieved decay must break the certificate
        cert = lyapunov_certificate(sys_, bal.mirror, design.gamma, 2.0 * abs(abscissa))
        assert not cert.passed
        assert cert.margin >= 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, owned", MIXED_OBSERVABILITY_CASES)
    def test_block_assembly_matches_kronecker_definition(self, n, owned, seed):
        model, bal, design = random_gains_instance(seed, n, owned)
        alpha = 0.7
        Lambda, _, P = dense_blocks(model, bal, design)
        dense = (
            P @ Lambda
            + Lambda.T @ P
            - design.gamma * np.kron(bal.mirror, np.eye(n))
            + 2.0 * alpha * P
        )
        sys_ = build_global_error_matrix(model, bal, design)
        assert_rel_close(node_blocks(sys_, sys_.P_blocks), diagonal_blocks(P, n))
        Z = dense_matrix(sys_, certificate_blocks(sys_, bal.mirror, design.gamma, alpha))
        assert_rel_close(Z, dense)
        cert = lyapunov_certificate(sys_, bal.mirror, design.gamma, alpha)
        assert cert.margin == pytest.approx(
            np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1], rel=1e-9
        )


class TestLyapunovVerdict:
    """The verdict that `lyapunov_certificate` draws from given blocks of Z,
    fed in place of `certificate_blocks`: one (k, m, m) stack per entry."""

    @staticmethod
    def verdict(monkeypatch, *blocks):
        monkeypatch.setattr(verify, "certificate_blocks", lambda *args: list(blocks))
        return lyapunov_certificate(None, None, 1.0, 1.0)

    def test_negative_identity(self, monkeypatch):
        verdict = self.verdict(monkeypatch, -np.eye(2)[None])
        assert verdict.passed
        assert verdict.margin == pytest.approx(-1.0)

    def test_semidefinite_boundary(self, monkeypatch):
        # a zero margin certifies nothing
        verdict = self.verdict(monkeypatch, np.diag([0.0, -1.0])[None])
        assert not verdict.passed
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)

    def test_strictly_negative(self, monkeypatch):
        verdict = self.verdict(monkeypatch, np.array([[[-2.0, 1.0], [1.0, -2.0]]]))
        assert verdict.passed
        assert verdict.margin == pytest.approx(-1.0)

    def test_symmetrizes_first(self, monkeypatch):
        # asymmetric input whose symmetric part is -I
        verdict = self.verdict(monkeypatch, np.array([[[-1.0, 5.0], [-5.0, -1.0]]]))
        assert verdict.passed
        assert verdict.margin == pytest.approx(-1.0)

    def test_negative_only_when_every_block_is(self, monkeypatch):
        stack = np.stack([-np.eye(2), np.diag([-3.0, 0.5])])
        for blocks in ((stack,), (stack[:1], stack[1:]), (stack[1:], stack[:1])):
            verdict = self.verdict(monkeypatch, *blocks)
            assert not verdict.passed and verdict.margin == pytest.approx(0.5)
        assert self.verdict(monkeypatch, stack[:1]).margin == pytest.approx(-1.0)


class TestVerifyDesign:
    def test_report_on_synthesized_design(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        report = verify_design(model, g_net, design)
        assert report.passed and report.lyapunov_passed
        assert report.abscissa <= -1.0 + 1e-6
        assert report.lyapunov_margin < 0
        assert report.condition_numbers == pytest.approx(
            [np.linalg.cond(node.M) for node in design.nodes], rel=1e-12
        )
        doc = report.to_dict()
        assert doc["pass"] is True
        assert doc["alpha"] == 1.0

    def test_consistency_across_instances(self):
        # a passing Lyapunov certificate must imply a passing abscissa
        rng = np.random.default_rng(3)
        for _ in range(15):
            n, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            model = random_model(rng, n, N)
            g_net = random_sc_digraph(rng, N)
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            # probe at several rates, some beyond the achieved decay
            for alpha in (0.5, 1.0, 2.0, 4.0):
                report = verify_design(model, g_net, design, alpha=alpha)
                if report.lyapunov_passed:
                    assert report.passed

    def test_builds_error_system_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        calls = []
        real = verify.build_global_error_matrix

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "build_global_error_matrix", spy)
        verify_design(model, g_net, design)
        assert len(calls) == 1

    def test_stable_but_uncertified_note(self):
        # non-normal stable error dynamics: the abscissa clears -1 but the
        # identity-weighted quadratic form cannot certify that rate
        model = SystemModel(
            A=np.array([[-2.0, 10.0], [0.0, -2.0]]), outputs=(np.zeros((1, 2)),)
        )
        node = NodeGains(L=np.zeros((2, 1)), M=np.eye(2))
        design = ObserverDesign(
            gamma=1.0, epsilon=0.9, alpha=1.0, r=np.ones(1), nodes=(node,)
        )
        g_single = Digraph(np.zeros((1, 1)))
        report = verify_design(model, g_single, design, alpha=1.0)
        assert report.passed and not report.lyapunov_passed
        assert "uncertified" in report.note


class TestCoordinateGroups:
    """E and Z split along the coordinate groups; the split is exact."""

    @staticmethod
    def assert_matches_dense(model, g_net, design):
        bal, sys_ = error_system(model, g_net, design)
        E, abscissa, margin = dense_certificates(model, bal, design)
        # no entry of E falls between two groups
        assert_rel_close(dense_E(sys_), E)
        report = verify_design(model, g_net, design)
        assert abs(report.abscissa - abscissa) <= 1e-10 * abs(abscissa)
        assert abs(report.lyapunov_margin - margin) <= 1e-10 * abs(margin)

    def test_battery_matches_dense_certificates(self):
        for model, g_net in battery_instances(20240817):
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            self.assert_matches_dense(model, g_net, design)

    @pytest.mark.parametrize("n", [2, 10, 20, 30])
    def test_ladder_matches_dense_certificates(self, n):
        model, g_net = partial_instance(n)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        self.assert_matches_dense(model, g_net, design)

    def test_ladder_splits_into_one_group_per_coordinate(self):
        model, g_net = partial_instance(40)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        bal, sys_ = error_system(model, g_net, design)
        assert [idx.tolist() for idx in sys_.groups] == [[[k] for k in range(40)]]
        assert [B.shape for B in sys_.E_blocks] == [(40, 40, 40)]
        Z_blocks = certificate_blocks(sys_, bal.mirror, design.gamma, design.alpha)
        assert [Z.shape for Z in Z_blocks] == [(40, 40, 40)]

    def test_dense_plant_is_one_group(self):
        model, g_net = next(
            (m, g) for m, g in battery_instances(20240817) if np.count_nonzero(m.A) == m.n**2
        )
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        sys_ = build_global_error_matrix(model, balance(g_net), design)
        assert [idx.tolist() for idx in sys_.groups] == [[list(range(model.n))]]
        nN = model.n * model.node_count
        assert [B.shape for B in sys_.E_blocks] == [(1, nN, nN)]

    @pytest.mark.parametrize("dense", [False, True], ids=["ladder-10", "dense-battery"])
    def test_P_blocks_are_the_inverse_weightings(self, dense):
        # inverted one group at a time: ten groups of one coordinate on the
        # rung, a single group of all n on the dense plant
        if dense:
            model, g_net = next(
                (m, g) for m, g in battery_instances(20240817) if np.count_nonzero(m.A) == m.n**2
            )
        else:
            model, g_net = partial_instance(10)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        _, sys_ = error_system(model, g_net, design)
        assert [idx.shape for idx in sys_.groups] == [(1, model.n) if dense else (10, 1)]
        for P, node in zip(node_blocks(sys_, sys_.P_blocks), design.nodes):
            expected = np.linalg.inv(node.M)
            assert np.max(np.abs(P - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_weighting_that_couples_two_groups_merges_them(self):
        # a design file cannot buy itself a split: an entry of M_0 between
        # coordinates 1 and 4, kept symmetric positive definite, puts the
        # two in one group, and the certificates still match the dense ones
        model, g_net = partial_instance(6)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        bal, sys_ = error_system(model, g_net, design)
        assert [idx.shape for idx in sys_.groups] == [(6, 1)]
        M = design.nodes[0].M.copy()
        M[1, 4] = M[4, 1] = 0.5 * np.sqrt(M[1, 1] * M[4, 4])
        tampered = ObserverDesign(
            gamma=design.gamma, epsilon=design.epsilon, alpha=design.alpha, r=design.r,
            nodes=(NodeGains(L=design.nodes[0].L, M=M),)
            + design.nodes[1:],
        )
        _, sys_ = error_system(model, g_net, tampered)
        assert [idx.tolist() for idx in sys_.groups] == [[[0], [2], [3], [5]], [[1, 4]]]
        self.assert_matches_dense(model, g_net, tampered)


class TestSlowRates:
    """The abscissa slack scales with alpha below 1: at a tiny rate, an
    additive slack would pass a growing error."""

    # Lambda = 0.3 - L = +5e-7 on both nodes: the consensus mode grows
    GROWING = dict(l=0.3 - 5e-7, m=0.7, gamma=2.0, alpha=1e-9)

    def test_growing_error_fails_at_a_tiny_rate(self):
        design = scalar_pair_design(**self.GROWING)
        report = verify_design(scalar_pair_model(0.3), UNIT_2CYCLE, design)
        assert report.abscissa == pytest.approx(5e-7, rel=1e-6)
        assert not report.passed and not report.lyapunov_passed
        assert report.note == ""

    @pytest.mark.parametrize("alpha", [1e-9, 1e-3, 0.5, 1.0, 10.0])
    def test_slack_is_a_millionth_of_min_one_alpha(self, alpha):
        # unchanged from alpha = 1 on, tighter below
        slack = 1e-6 * min(1.0, alpha)
        for offset, passed in ((0.5 * slack, True), (2.0 * slack, False)):
            block = np.array([[-alpha + offset]])
            assert spectral_abscissa_certificate([block], alpha).passed is passed
