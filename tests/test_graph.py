import logging
import math

import numpy as np
import pytest

from conftest import random_sc_digraph, random_undirected_graph
from observer_kit.errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    NumericalFailureError,
)
from observer_kit.graph import Digraph, balance, is_strongly_connected, laplacian


def unit_cycle(n_nodes):
    return Digraph.from_edges(
        n_nodes, [(k, (k + 1) % n_nodes, 1.0) for k in range(n_nodes)]
    )


class TestDigraph:
    def test_edge_convention(self):
        # edge (0, 1) carries its weight at adjacency[1][0]
        g = Digraph.from_edges(2, [(0, 1, 3.0)])
        assert g.adjacency[1, 0] == 3.0
        assert g.adjacency[0, 1] == 0.0

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            Digraph.from_edges(2, [(0, 0, 1.0)])

    def test_rejects_bad_index(self):
        with pytest.raises(ConfigError):
            Digraph.from_edges(2, [(0, 2, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ConfigError):
            Digraph.from_edges(2, [(0, 1, 0.0)])

    def test_rejects_infinite_weight(self):
        # an infinite weight once passed here and failed the adjacency's
        # finiteness check as a numerical failure
        with pytest.raises(ConfigError, match="finite positive weight"):
            Digraph.from_edges(2, [(0, 1, math.inf)])

    @pytest.mark.parametrize("weight", [math.nan, -math.inf, -1.0], ids=["nan", "-inf", "negative"])
    def test_rejects_weight_not_finite_positive(self, weight):
        with pytest.raises(ConfigError, match="finite positive weight"):
            Digraph.from_edges(2, [(0, 1, weight)])

    def test_bad_index_after_a_valid_edge_is_not_a_repeat(self):
        # the index check runs before the repeat check, which would index
        # the adjacency out of range
        with pytest.raises(ConfigError, match="outside 0..1"):
            Digraph.from_edges(2, [(0, 1, 1.0), (0, 2, 1.0)])

    def test_rejects_repeated_edge(self):
        # the weight listed last once overwrote the first
        with pytest.raises(ConfigError, match=r"edge \(0, 1\) is listed twice"):
            Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 5.0)])

    def test_rejects_negative_adjacency(self):
        with pytest.raises(DimensionError):
            Digraph(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DimensionError):
            Digraph(np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestLaplacian:
    def test_unit_three_cycle(self):
        L = laplacian(unit_cycle(3))
        assert np.array_equal(
            L, np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        )

    def test_no_edges(self):
        assert np.array_equal(laplacian(Digraph(np.zeros((3, 3)))), np.zeros((3, 3)))

    def test_two_node_weighted(self):
        g = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert np.array_equal(laplacian(g), np.array([[2.0, -2.0], [-1.0, 1.0]]))

    def test_zero_row_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_sc_digraph(rng, int(rng.integers(2, 9)))
            L = laplacian(g)
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-12 * max(1.0, np.abs(L).max())
            off = L[~np.eye(L.shape[0], dtype=bool)]
            assert np.all(off <= 0)


class TestStrongConnectivity:
    def test_cycle(self):
        assert is_strongly_connected(unit_cycle(3))

    def test_chain(self):
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not is_strongly_connected(g)

    def test_single_node(self):
        assert is_strongly_connected(Digraph(np.zeros((1, 1))))

    def test_two_components(self):
        g = Digraph.from_edges(
            4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]
        )
        assert not is_strongly_connected(g)

    @pytest.mark.parametrize("density", ["sparse", "dense"])
    def test_matches_scipy_strong_components(self, density):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(300):
            N = int(rng.integers(1, 41))
            p = min(1.0, 4.0 / N) if density == "sparse" else 0.5
            A = np.where(rng.random((N, N)) < p, rng.uniform(0.5, 2.0, (N, N)), 0.0)
            np.fill_diagonal(A, 0.0)
            expected = connected_components(A, directed=True, connection="strong")[0] == 1
            assert is_strongly_connected(Digraph(A)) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestBalance:
    def test_unit_three_cycle(self):
        bal = balance(unit_cycle(3))
        assert np.allclose(bal.r, [1.0, 1.0, 1.0], atol=1e-12)
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.allclose(bal.mirror, expected, atol=1e-12)
        assert bal.lambda2 == pytest.approx(3.0)

    def test_two_node_hand_solution(self):
        g = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])
        bal = balance(g)
        assert np.allclose(bal.r, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)
        expected = (8.0 / 3.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(bal.mirror, expected, atol=1e-12)
        assert bal.lambda2 == pytest.approx(16.0 / 3.0)

    def test_undirected_gives_unit_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_undirected_graph(rng, int(rng.integers(2, 9)))
            bal = balance(g)
            assert np.allclose(bal.r, 1.0, atol=1e-10)

    def test_balanced_digraph_gives_unit_weights(self):
        # a directed cycle with equal weights has zero column sums
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.5, 2.0)
            g = Digraph.from_edges(n, [(k, (k + 1) % n, w) for k in range(n)])
            assert np.allclose(balance(g).r, 1.0, atol=1e-10)

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(AssumptionViolationError):
            balance(Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))

    def test_single_node(self):
        bal = balance(Digraph(np.zeros((1, 1))))
        assert np.allclose(bal.r, [1.0])
        assert bal.lambda2 == np.inf

    def test_mirror_spectral_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            bal = balance(random_sc_digraph(rng, n))
            L = bal.laplacian
            assert np.all(bal.r > 0)
            assert bal.r.sum() == pytest.approx(n, abs=1e-10)
            assert np.linalg.norm(bal.r @ L) <= 1e-10 * np.linalg.norm(L, "fro")
            assert np.allclose(bal.mirror, bal.mirror.T)
            assert np.max(np.abs(bal.mirror @ np.ones(n))) <= 1e-10
            assert np.max(np.abs(np.ones(n) @ bal.mirror)) <= 1e-10
            w = bal.eigenvalues
            assert np.sum(np.abs(w) <= 1e-10) == 1
            assert w[0] >= -1e-10
            assert bal.lambda2 > 0

    def test_permutation_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_sc_digraph(rng, n)
            perm = rng.permutation(n)
            g2 = Digraph(g.adjacency[np.ix_(perm, perm)])
            r1 = balance(g).r
            r2 = balance(g2).r
            assert np.allclose(r2, r1[perm], atol=1e-9)

    def test_near_disconnection_warns(self, caplog):
        g = Digraph.from_edges(2, [(0, 1, 1e-10), (1, 0, 1e-10)])
        with caplog.at_level(logging.WARNING, logger="observer_kit.graph"):
            balance(g)
        assert any("close to losing strong connectivity" in m for m in caplog.messages)

    @pytest.mark.parametrize(
        "node_count, edges",
        [(2, [(0, 1, 1e308), (1, 0, 1e308)]),
         (2, [(0, 1, 5e153), (1, 0, 5e153)]),
         (3, [(0, 2, 1e308), (1, 2, 1e308), (2, 0, 1.0), (2, 1, 1.0)])],
        ids=["norm-of-L", "norm-of-mirror", "row-sum-of-L"],
    )
    def test_huge_finite_weights_name_the_overflow(self, node_count, edges):
        # these once overflowed with RuntimeWarnings into a mirror of inf
        # and a spectrum of nan, reported as a zero eigenvalue that is not
        # simple; at 5e153 only the mirror's norm overflows, and at the
        # third graph the row sum of node 2's two in-edges
        g = Digraph.from_edges(node_count, edges)
        assert is_strongly_connected(g)
        with pytest.raises(NumericalFailureError, match="edge weights too large for the mirror"):
            balance(g)
