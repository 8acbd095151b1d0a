"""Weighted directed communication graphs and their balanced structure.

Adjacency convention: ``adjacency[i, j]`` is the weight node i places on
information received from node j, so it is nonzero exactly when the graph
has a directed edge from j to i. Edge lists in configuration files are
(from, to, weight) triples with 0-based node indices; the loader stores
the weight at ``adjacency[to, from]``.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import AssumptionViolationError, ConfigError, DimensionError, NumericalFailureError

logger = logging.getLogger(__name__)

# Second mirror eigenvalue below this emits a conditioning warning: the graph
# is numerically close to losing strong connectivity.
LAMBDA2_WARN = 1e-8


@dataclass(frozen=True)
class Digraph:
    """Simple weighted digraph on nodes 0..N-1 (zero diagonal, weights >= 0)."""

    adjacency: np.ndarray

    def __post_init__(self):
        A = numerics.as_square(np.asarray(self.adjacency, dtype=float), "adjacency")
        if np.any(A < 0):
            raise DimensionError("edge weights must be nonnegative")
        if np.any(np.diag(A) != 0):
            raise DimensionError("self-loops are not allowed (diagonal must be zero)")
        object.__setattr__(self, "adjacency", A)

    @property
    def node_count(self):
        return self.adjacency.shape[0]

    @classmethod
    def from_edges(cls, node_count, edges):
        """Build a digraph from (from, to, weight) triples, 0-based indices,
        each pair listed once with a finite positive weight."""
        A = np.zeros((node_count, node_count))
        for src, dst, weight in edges:
            if not (0 <= src < node_count and 0 <= dst < node_count):
                raise ConfigError(f"edge ({src}, {dst}) references a node outside 0..{node_count - 1}")
            if src == dst:
                raise ConfigError(f"self-loop on node {src} is not allowed")
            if A[dst, src]:
                raise ConfigError(f"edge ({src}, {dst}) is listed twice")
            if not 0 < weight < math.inf:
                raise ConfigError(
                    f"edge ({src}, {dst}) must have a finite positive weight, got {weight}"
                )
            A[dst, src] = weight
        return cls(A)


def laplacian(g):
    """Graph Laplacian L = D - A with D the diagonal of row sums of A.

    Rows of L sum to zero by construction, so L @ 1 = 0.
    """
    A = g.adjacency
    return np.diag(A.sum(axis=1)) - A


def is_strongly_connected(g):
    """True when every ordered node pair is joined by a directed path,
    that is when the closure `numerics._reachability` of the edges holds
    every pair."""
    return bool(numerics._reachability(g.adjacency > 0).all())


@dataclass(frozen=True)
class BalancedStructure:
    """Laplacian together with its balancing weights and mirror.

    Attributes
    ----------
    laplacian : (N, N) array
        Laplacian L of the original digraph.
    r : (N,) array
        The unique positive row vector with r @ L = 0 and sum(r) = N.
    mirror : (N, N) array
        Symmetric positive semidefinite matrix R L + L.T R with
        R = diag(r). Its row and column sums are zero.
    lambda2 : float
        Second-smallest eigenvalue of the mirror (``inf`` for a single
        node, where no second eigenvalue exists).
    eigenvalues : (N,) array
        All mirror eigenvalues, ascending.
    """

    laplacian: np.ndarray
    r: np.ndarray
    mirror: np.ndarray
    lambda2: float
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def R(self):
        return np.diag(self.r)


def balance(g):
    """Compute the balancing weights and mirror Laplacian of a digraph.

    The graph must be strongly connected. The weight vector r is found as
    the null vector of L.T (right singular vector of the smallest singular
    value), sign-fixed positive and scaled so that sum(r) equals the node
    count.

    Raises
    ------
    AssumptionViolationError
        If the graph is not strongly connected.
    NumericalFailureError
        If the computed weights are not strictly positive or the mirror
        fails its spectral sanity checks (both impossible for genuinely
        strongly connected weights).
    """
    if not is_strongly_connected(g):
        raise AssumptionViolationError(
            "communication graph is not strongly connected"
        )
    return _balance_connected(g)


def _balance_connected(g):
    """`balance` for a graph already known to be strongly connected.

    For callers that test connectivity themselves, so the verdict is
    drawn once; raises `NumericalFailureError` as `balance` does.
    """
    N = g.node_count
    # weights near the top of the float range overflow L, the mirror or
    # their norms: that is named here, not passed on as inf and nan
    with np.errstate(over="ignore"):
        L = laplacian(g)
        norm_L = np.linalg.norm(L, "fro")
    if not np.isfinite(norm_L):
        raise NumericalFailureError(_overflow_message(g))

    _, _, Vt = numerics.svd(L.T)
    v = Vt[-1]
    if v.sum() < 0:
        v = -v
    if np.any(v <= 0):
        raise NumericalFailureError(
            "balance weights are not strictly positive; null vector of L.T "
            f"came out as {v}"
        )
    r = v * (N / v.sum())

    if np.linalg.norm(r @ L) > 1e-10 * norm_L:
        raise NumericalFailureError("balance residual ||r L|| above tolerance")

    RL = r[:, None] * L
    with np.errstate(over="ignore"):
        mirror = RL + RL.T
        norm_mirror = np.linalg.norm(mirror, "fro")
    if not np.isfinite(norm_mirror):
        raise NumericalFailureError(_overflow_message(g))
    w = np.linalg.eigvalsh(mirror)
    if w[0] < -1e-10 * max(1.0, norm_mirror):
        raise NumericalFailureError(f"mirror Laplacian is not PSD (lambda_min = {w[0]:.3e})")
    if int(np.sum(np.abs(w) <= 1e-10)) != 1:
        raise NumericalFailureError(
            "zero eigenvalue of the mirror Laplacian is not simple; "
            f"spectrum starts {w[: min(3, N)]}"
        )
    lambda2 = float(w[1]) if N >= 2 else math.inf
    if lambda2 < LAMBDA2_WARN:
        logger.warning(
            "mirror eigenvalue lambda_2 = %.3e is nearly zero; the graph is "
            "close to losing strong connectivity",
            lambda2,
        )
    return BalancedStructure(
        laplacian=L, r=r, mirror=mirror, lambda2=lambda2, eigenvalues=w
    )


def _overflow_message(g):
    return (
        "edge weights too large for the mirror Laplacian: the norm of the "
        f"Laplacian or of its mirror overflows (largest weight {g.adjacency.max():.3g})"
    )
