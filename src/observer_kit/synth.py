"""Constructive design of the distributed observer gains.

The pipeline decouples the network topology from the local gain design:

1. decompose every node's pair (H_i, A) into observable and unobservable
   coordinates,
2. balance the communication graph and take the mirror of the balanced
   graph,
3. compute a positive constant ``epsilon`` that lower-bounds the mirror
   coupling seen through the per-node coordinate changes,
4. pick the coupling gain ``gamma`` large enough that consensus dominates
   every unobservable block at the requested decay rate; each node's
   budget is the largest eigenvalue of one quadratic eigenvalue problem,
5. stabilize each observable block by output injection with poles pushed
   left of ``-alpha``; the one small Lyapunov solution per node that
   defines the gain, scaled, is also the certificate block P_io, and
6. assemble the full-order gains L_i and M_i.

Every step is checked after the fact: the per-node matrix inequality that
certifies the global error decay is evaluated for the assembled design
and must come back strictly negative definite.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .decomp import NORM_WARN, decompose_node, joint_observability_rank
from .errors import AssumptionViolationError, DimensionError, NumericalFailureError
from .graph import _balance_connected, is_strongly_connected

logger = logging.getLogger(__name__)

# Floor for the per-node coupling budget, keeping gamma*epsilon - 2*alpha
# strictly positive when no node imposes a real constraint.
BUDGET_FLOOR = 1e-9


@dataclass
class SynthesisParams:
    """Tunable inputs of the design pipeline.

    alpha is the prescribed error decay rate. g holds the per-node positive
    weights of the epsilon bound (all ones by default). epsilon_margin
    shrinks the computed bound away from its supremum; gamma_margin
    inflates the coupling gain above its certified minimum.
    """

    alpha: float
    g: np.ndarray | None = None
    epsilon_margin: float = 0.9
    gamma_margin: float = 1.1
    rank_rtol: float = numerics.RANK_RTOL

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0 < self.epsilon_margin < 1:
            raise ValueError("epsilon_margin must lie in (0, 1)")
        if not 1 < self.gamma_margin < math.inf:
            raise ValueError(
                f"gamma_margin must be finite and exceed 1, got {self.gamma_margin}"
            )
        if not 0 < self.rank_rtol < 1:
            raise ValueError(f"rank_rtol must lie in (0, 1), got {self.rank_rtol}")
        if self.g is not None:
            g = np.asarray(self.g, dtype=float)
            if g.ndim != 1 or not np.all((0 < g) & (g < math.inf)):
                raise ValueError("g must be a 1-d array of finite positive weights")
            self.g = g


@dataclass(frozen=True)
class NodeGains:
    """Gains of a single node.

    L is the n x p_i output-injection gain, M the symmetric positive
    definite n x n consensus weighting and v the observable dimension.
    inv(M) is the node's block of the Lyapunov certificate: the v x v
    certificate of the observable block, P_io, in the observable
    coordinates, and the identity on the unobservable block, which is
    why M restricted to that subspace is the identity as well.
    """

    L: np.ndarray
    M: np.ndarray
    v: int


@dataclass(frozen=True)
class ObserverDesign:
    """Complete distributed observer: per-node gains plus shared constants."""

    gamma: float
    epsilon: float
    alpha: float
    r: np.ndarray
    nodes: tuple

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def n(self):
        return self.nodes[0].M.shape[0]

    def to_dict(self):
        """Plain-JSON representation (matrices as row-major nested lists)."""
        return {
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "r": self.r.tolist(),
            "nodes": [
                {"L": node.L.tolist(), "M": node.M.tolist(), "v": node.v}
                for node in self.nodes
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Read a `to_dict` document; keys it does not write are ignored,
        among them the ``P_io`` that older design files carry per node."""
        try:
            nodes = tuple(
                NodeGains(
                    L=numerics.as_matrix(nd["L"], "L"),
                    M=numerics.as_matrix(nd["M"], "M"),
                    v=int(nd["v"]),
                )
                for nd in data["nodes"]
            )
            r = np.asarray(data["r"], dtype=float)
            if r.shape != (len(nodes),):
                raise ValueError(f"r has shape {r.shape}, expected ({len(nodes)},)")
            scalars = {key: float(data[key]) for key in ("gamma", "epsilon", "alpha")}
            for key, value in scalars.items():
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{key} must be finite and positive, got {value}")
            return cls(r=r, nodes=nodes, **scalars)
        except (KeyError, TypeError, ValueError, NumericalFailureError) as exc:
            raise DimensionError(f"malformed design document: {exc}") from exc


def _sym(M):
    return M + M.T


def compute_epsilon(decomps, balanced, g=None, margin=0.9):
    """Positive lower bound for the coordinate-rotated mirror coupling.

    Forms S = T.T (mirror x I_n) T + G with T the block diagonal of the
    per-node orthogonal transforms and G the block diagonal of
    diag(g_i I_{v_i}, 0), see `coupling_matrix`. Joint observability
    together with strong connectivity makes S positive definite; the
    returned bound is ``margin * lambda_min(S)``.

    Raises `AssumptionViolationError` when lambda_min(S) is not safely
    positive, which signals that one of the two standing assumptions
    failed numerically.
    """
    N = len(decomps)
    if g is None:
        g = np.ones(N)
    g = np.asarray(g, dtype=float)
    if g.shape != (N,) or np.any(g < 0):
        raise DimensionError(f"g must hold {N} nonnegative weights")
    # zero weights are admitted here so the lambda_min check below can
    # report the degenerate case; the pipeline itself requires g > 0

    S = coupling_matrix(decomps, balanced.mirror, g)
    lam_min = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    if lam_min <= 1e-12:
        raise AssumptionViolationError(
            f"coupling bound failed: lambda_min = {lam_min:.3e}; joint "
            "observability or strong connectivity does not hold numerically"
        )
    return margin * lam_min


def coupling_matrix(decomps, mirror, g):
    """The matrix S = T.T (mirror x I_n) T + G of `compute_epsilon`.

    Assembled block by block: S_ij = mirror_ij * T_i.T T_j, plus g_i on
    the first v_i diagonal entries of block i. All the products T_i.T T_j
    come from one (nN x n)(n x nN) product, so the cost is O(n (nN)^2)
    rather than the (nN)^3 of multiplying out the block-diagonal and
    Kronecker factors.
    """
    n = decomps[0].n
    T_row = np.hstack([d.T for d in decomps])
    S = (T_row.T @ T_row) * np.kron(mirror, np.ones((n, n)))
    observable = np.concatenate([np.arange(n) < d.v for d in decomps])
    S[np.diag_indices_from(S)] += np.repeat(g, n) * observable
    return S


def _min_coupling_budget(A_iu, A_ir, floor=BUDGET_FLOOR):
    """Smallest b > 0 with lambda_max(Sym(A_iu) + A_ir A_ir.T / b) <= b.

    For b > 0 this is b^2 I - b S - K >= 0 with S = Sym(A_iu) and
    K = A_ir A_ir.T >= 0, so b is the largest eigenvalue of the quadratic
    pencil mu^2 I - mu S - K, i.e. of its companion [[S, K], [I, 0]]
    (Tisseur & Meerbergen, SIAM Review 2001); all of them are real since
    K >= 0. The floor is returned when it is larger, so the caller's
    budget stays strictly positive.
    """
    m = A_iu.shape[0]
    companion = np.block([[_sym(A_iu), A_ir @ A_ir.T], [np.eye(m), np.zeros((m, m))]])
    return max(float(np.max(numerics.eigenvalues(companion).real)), floor)


def select_gamma(decomps, epsilon, alpha, margin=1.1):
    """Coupling gain large enough to dominate every unobservable block.

    For each node with a nontrivial unobservable part, the minimal budget
    b_i = gamma*epsilon - 2*alpha making

        Sym(A_iu) - b I + A_ir A_ir.T / b <= 0

    is one eigenvalue problem (see `_min_coupling_budget`); the returned
    gain is

        gamma = max((margin * max_i b_i + 2*alpha) / epsilon, 2*alpha + 1).

    Fully observable nodes contribute no budget constraint, but the first
    branch still applies with the floor budget: the assembled per-node
    certificates need gamma*epsilon > 2*alpha regardless, and the floor
    keeps that inequality strict. The domination inequality is
    re-checked for every constrained node at the returned gain.
    """
    if not epsilon > 0:
        raise AssumptionViolationError(f"epsilon must be positive, got {epsilon}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    budget = BUDGET_FLOOR
    for d in decomps:
        if d.v < d.n:
            budget = max(budget, _min_coupling_budget(d.A_iu, d.A_ir))
    gamma = max((margin * budget + 2.0 * alpha) / epsilon, 2.0 * alpha + 1.0)

    b = gamma * epsilon - 2.0 * alpha
    for i, d in enumerate(decomps):
        if d.v == d.n:
            continue
        m = d.n - d.v
        test = _sym(d.A_iu) - b * np.eye(m) + (d.A_ir @ d.A_ir.T) / b
        verdict = numerics.is_negative_definite(test)
        if not verdict.is_negative_definite:
            raise NumericalFailureError(
                f"coupling gain {gamma:.6g} fails to dominate the unobservable "
                f"block of node {i} (margin {verdict.margin:.3e})"
            )
    return gamma


def place_observer_poles(A_io, H_io, alpha, gamma, g_i=1.0):
    """Output-injection gain and certificate block for an observable block.

    Shifted Lyapunov (Bass-style) construction: with At = A_io + alpha*I
    and a shift beta = 1 + ||A_io||_F + alpha that dominates the spectral
    radius of At, the equation

        (At + beta I).T X + X (At + beta I) = 2 H_io.T H_io

    has a positive definite solution X exactly when (H_io, A_io) is
    observable, and L_io = inv(X) H_io.T places every eigenvalue of
    A_io - L_io H_io on the line Re = -(alpha + beta). The same X
    certifies that closed loop: Sym(X (At - L_io H_io)) = -2 beta X, so

        P_io = q / (2 beta lambda_min(X)) * X,  q = gamma*max(g_i, 1) - 2*alpha,

    satisfies Sym(P_io (A_io - L_io H_io + alpha I)) <= -q I. q covers the
    gamma*g_i I that `verify_design_lmi` adds, or exceeds it if g_i < 1,
    which only helps. Requires gamma > 2*alpha. Returns (L_io, P_io).
    """
    if not gamma > 2.0 * alpha:
        raise AssumptionViolationError(
            f"gamma = {gamma:.6g} must exceed 2*alpha = {2.0 * alpha:.6g}"
        )
    A_io = numerics.as_square(A_io, "A_io")
    H_io = numerics.as_matrix(H_io, "H_io")
    v = A_io.shape[0]
    p = H_io.shape[0]
    if H_io.shape[1] != v:
        raise DimensionError(f"H_io has {H_io.shape[1]} columns, expected {v}")
    if v == 0:
        return np.zeros((0, p)), np.zeros((0, 0))

    beta = 1.0 + np.linalg.norm(A_io, "fro") + alpha
    F = A_io + (alpha + beta) * np.eye(v)
    X = numerics.solve_lyapunov(F, -2.0 * (H_io.T @ H_io))
    w = np.linalg.eigvalsh(X)
    if w[0] <= 1e-10 * max(1.0, w[-1]):
        raise AssumptionViolationError(
            "observability Gramian of the stabilized block is singular; the "
            "observable/unobservable split misclassified this block"
        )
    L_io = np.linalg.solve(X, H_io.T)

    closed = A_io - L_io @ H_io
    abscissa = float(np.max(numerics.eigenvalues(closed).real))
    if abscissa >= -alpha - 1e-8:
        raise NumericalFailureError(
            f"pole placement landed at spectral abscissa {abscissa:.6g}, "
            f"not below {-alpha:.6g}"
        )
    q = gamma * max(g_i, 1.0) - 2.0 * alpha
    return L_io, (q / (2.0 * beta * w[0])) * X


def assemble_gains(decomps, L_blocks, P_blocks, gamma, epsilon, r, alpha):
    """Rotate the per-block gains back to plant coordinates.

    For each node, L_i = T_i @ [L_io; 0] and
    M_i = T_i @ diag(inv(P_io), I) @ T_i.T; the identity on the
    unobservable subspace reflects the pinned unit certificate there.
    M_i is verified positive definite and its inverse verified against
    T_i @ diag(P_io, I) @ T_i.T before the design is returned.
    """
    nodes = []
    for i, (d, L_io, P_io) in enumerate(zip(decomps, L_blocks, P_blocks)):
        n, v = d.n, d.v
        p = L_io.shape[1]
        L = d.T @ np.vstack([L_io, np.zeros((n - v, p))])
        M_local, P_local = np.eye(n), np.eye(n)
        if v:
            M_local[:v, :v] = np.linalg.inv(P_io)
            P_local[:v, :v] = P_io
        M = d.T @ M_local @ d.T.T
        M = 0.5 * (M + M.T)
        if np.linalg.eigvalsh(M)[0] <= 0:
            raise NumericalFailureError(f"node {i}: consensus weighting M is not positive definite")
        P_full = d.T @ P_local @ d.T.T
        inv_residual = np.linalg.norm(M @ P_full - np.eye(n), "fro")
        if inv_residual > 1e-8 * max(1.0, np.linalg.norm(P_full, "fro")):
            raise NumericalFailureError(
                f"node {i}: inverse certificate residual {inv_residual:.3e}"
            )
        nodes.append(NodeGains(L=L, M=M, v=v))
    return ObserverDesign(
        gamma=float(gamma),
        epsilon=float(epsilon),
        alpha=float(alpha),
        r=np.asarray(r, dtype=float),
        nodes=tuple(nodes),
    )


def verify_design_lmi(dec, P_io, W, gamma, epsilon, alpha, g_i=1.0):
    """Per-node certificate inequality for the assembled design.

    Builds the block matrix

        [[Phi + gamma*g_i*I,   A_ir.T                 ]
         [A_ir,                Sym(A_iu) + 2*alpha*I  ]] - gamma*epsilon*I

    with Phi = Sym(P_io A_io) - Sym(W H_io) + 2*alpha*P_io and W = P_io L_io,
    and returns its negative-definiteness verdict with the largest
    eigenvalue as margin. A sound design makes this strictly negative for
    every node.
    """
    v = dec.v
    n = dec.n
    Phi = _sym(P_io @ dec.A_io) - _sym(W @ dec.H_io) + 2.0 * alpha * P_io
    top_left = Phi + gamma * g_i * np.eye(v)
    bottom_right = _sym(dec.A_iu) + 2.0 * alpha * np.eye(n - v)
    Z = np.block(
        [[top_left, dec.A_ir.T], [dec.A_ir, bottom_right]]
    ) - gamma * epsilon * np.eye(n)
    return numerics.is_negative_definite(Z)


class AssumptionCheck(NamedTuple):
    """Per-node decompositions and the raw standing-assumption tests."""

    decomps: tuple
    strongly_connected: bool
    joint_rank: int


def check_assumptions(model, g_net, rtol=numerics.RANK_RTOL):
    """Decompose every node and test both standing assumptions.

    Draws no verdict: the command-line ``check`` and `synthesize` each
    judge the result. Raises `DimensionError` only for a node-count
    mismatch between model and graph. Logs one warning when norm(A)
    exceeds `decomp.NORM_WARN`.
    """
    if model.node_count != g_net.node_count:
        raise DimensionError(
            f"model has {model.node_count} output blocks but the graph has "
            f"{g_net.node_count} nodes"
        )
    norm_A = np.linalg.norm(model.A, 2)
    if norm_A > NORM_WARN:
        logger.warning(
            "norm(A) = %.3e; powers up to A**%d make the observability "
            "matrices badly conditioned and the rank decisions unreliable",
            norm_A,
            model.n - 1,
        )
    decomps = tuple(decompose_node(H, model.A, rtol) for H in model.outputs)
    return AssumptionCheck(
        decomps=decomps,
        strongly_connected=is_strongly_connected(g_net),
        joint_rank=joint_observability_rank(model, decomps, rtol),
    )


def synthesize(model, g_net, params):
    """Full design pipeline: from plant, graph and decay rate to gains.

    Checks the standing assumptions (strongly connected graph, jointly
    observable system) with `check_assumptions`, runs the six
    construction steps and re-verifies the per-node certificate inequality
    for the assembled design before returning it.

    Parameters
    ----------
    model : SystemModel
    g_net : Digraph
        Communication graph; node i of the graph owns ``model.outputs[i]``.
    params : SynthesisParams

    Returns
    -------
    ObserverDesign
    """
    decomps, connected, joint = check_assumptions(model, g_net, params.rank_rtol)
    if not connected:
        raise AssumptionViolationError("communication graph is not strongly connected")
    if joint != model.n:
        raise AssumptionViolationError(
            f"system is not jointly observable: joint rank {joint} < n = {model.n}"
        )

    balanced = _balance_connected(g_net)
    g = params.g if params.g is not None else np.ones(model.node_count)
    epsilon = compute_epsilon(decomps, balanced, g, params.epsilon_margin)
    gamma = select_gamma(decomps, epsilon, params.alpha, params.gamma_margin)
    logger.info("epsilon = %.6g, gamma = %.6g", epsilon, gamma)

    L_blocks, P_blocks = zip(
        *(
            place_observer_poles(d.A_io, d.H_io, params.alpha, gamma, gi)
            for d, gi in zip(decomps, g)
        )
    )
    design = assemble_gains(
        decomps, L_blocks, P_blocks, gamma, epsilon, balanced.r, params.alpha
    )

    for i, (d, L_io, P_io, gi) in enumerate(zip(decomps, L_blocks, P_blocks, g)):
        verdict = verify_design_lmi(
            d, P_io, P_io @ L_io, gamma, epsilon, params.alpha, gi
        )
        if not verdict.is_negative_definite:
            raise NumericalFailureError(
                f"assembled design fails its certificate at node {i} "
                f"(margin {verdict.margin:.3e})"
            )
        logger.debug("node %d certificate margin %.3e", i, verdict.margin)
    return design
