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

Steps 4 and 5 are sized so that each node meets the matrix inequality
Sym(P_i Lambda_i) + 2*alpha*P_i + gamma*(g_i*Pi_i - epsilon*I) < 0, with
P_i = inv(M_i) and Pi_i the projector onto the node's observable subspace;
at epsilon <= lambda_min(S) the N inequalities imply the global
certificate Z(gamma) < 0 of `verify`, but not the other way round. The
assembled design is returned only when that global certificate, computed
from its L_i and M_i exactly as `verify` computes it, comes back strictly
negative definite.
"""

import logging
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics, verify
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

    L is the n x p_i output-injection gain and M the symmetric positive
    definite n x n consensus weighting. inv(M) is the node's block of the
    Lyapunov certificate that `verify` and `synthesize` read: the certificate
    of the observable block, P_io, in the observable coordinates, and the
    identity on the unobservable block, which is why M restricted to that
    subspace is the identity as well.
    """

    L: np.ndarray
    M: np.ndarray


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
                {"L": node.L.tolist(), "M": node.M.tolist()} for node in self.nodes
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Read a `to_dict` document; keys it does not write are ignored,
        among them the ``v`` and ``P_io`` that older design files carry per
        node."""
        try:
            nodes = tuple(
                NodeGains(
                    L=numerics.as_matrix(_numbers(nd["L"], "L"), "L"),
                    M=numerics.as_matrix(_numbers(nd["M"], "M"), "M"),
                )
                for nd in data["nodes"]
            )
            r = np.asarray(_numbers(data["r"], "r"), dtype=float)
            if r.shape != (len(nodes),):
                raise ValueError(f"r has shape {r.shape}, expected ({len(nodes)},)")
            scalars = {
                key: float(_numbers(data[key], key)) for key in ("gamma", "epsilon", "alpha")
            }
            for key, value in scalars.items():
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{key} must be finite and positive, got {value}")
            return cls(r=r, nodes=nodes, **scalars)
        except (KeyError, TypeError, ValueError, NumericalFailureError) as exc:
            raise DimensionError(f"malformed design document: {exc}") from exc


def _numbers(value, name):
    """value, if it is a number or nested sequences of numbers; a boolean,
    string or null anywhere in it raises TypeError."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise TypeError(f"{name} must hold numbers, got dtype {value.dtype}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            _numbers(item, name)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must hold numbers, got {value!r}")
    return value


def _sym(M):
    return M + M.T


def compute_epsilon(decomps, balanced, g=None, margin=0.9):
    """Positive lower bound for the coordinate-rotated mirror coupling.

    The bound is ``margin * lambda_min(S)`` for S = T.T (mirror x I_n) T
    + G, with T the block diagonal of the per-node orthogonal transforms
    and G the block diagonal of diag(g_i I_{v_i}, 0). T is orthogonal, so
    S has the eigenvalues of T S T.T = mirror x I_n + blockdiag(g_i Pi_i),
    Pi_i = T_i1 T_i1.T the projector onto node i's observable subspace.
    That matrix couples coordinate k of one node only to coordinate k of
    the others and, through the Pi_i, only inside the coordinate groups of
    `numerics.coordinate_groups`; lambda_min is the smallest over one
    eigenvalue problem of size N |g| per group g, and a dense plant is a
    single group of size n. Joint observability together with strong
    connectivity makes S positive definite.

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

    projectors = np.stack([d.T1 @ d.T1.T for d in decomps])
    weighted = g[:, None, None] * projectors
    lam_min = math.inf
    for idx in numerics.coordinate_groups(projectors):
        unit = np.eye(idx.shape[1])[None, None]
        S = numerics.coupled_blocks(
            numerics.restrict(weighted, idx), balanced.mirror, unit, -1.0
        )
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        lam_min = min(lam_min, float(np.min(np.linalg.eigvalsh(S)[:, 0])))
    if lam_min <= 1e-12:
        raise AssumptionViolationError(
            f"coupling bound failed: lambda_min = {lam_min:.3e}; joint "
            "observability or strong connectivity does not hold numerically"
        )
    return margin * lam_min


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
    """Output-injection gain and certificate block for an observable block,
    or for each block of a stack of blocks that share v and p.

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
    gamma*g_i*Pi_i of the node's matrix inequality (gamma*g_i I on this
    block; see the module docstring), or exceeds it if g_i < 1. Requires
    gamma > 2*alpha.

    A_io is v x v and H_io p x v, or a (k, v, v) and a (k, p, v) stack
    with g_i a scalar or k weights: beta and q are taken per block, and
    the k Bass equations are one stacked `numerics.solve_lyapunov` call.
    Returns (L_io, P_io), stacked as the input is.

    `decomp.decompose_node` has confirmed the rank of the block's
    observability matrix, so an X too ill-conditioned to invert raises
    `NumericalFailureError`, not a violated assumption.
    """
    if not gamma > 2.0 * alpha:
        raise AssumptionViolationError(
            f"gamma = {gamma:.6g} must exceed 2*alpha = {2.0 * alpha:.6g}"
        )
    A_io = numerics._as_squares(A_io, "A_io")
    H_io = np.asarray(H_io, dtype=float)
    if H_io.ndim != A_io.ndim or H_io.shape[:-2] + H_io.shape[-1:] != A_io.shape[:-1]:
        raise DimensionError(f"H_io has shape {H_io.shape}, A_io has shape {A_io.shape}")
    stacked = A_io.ndim == 3
    if not stacked:
        A_io, H_io = A_io[None], H_io[None]
    k, v = A_io.shape[:2]
    if v == 0:
        L_io, P_io = np.zeros((k, 0, H_io.shape[1])), np.zeros((k, 0, 0))
    else:
        beta = 1.0 + np.linalg.norm(A_io, axis=(-2, -1)) + alpha
        F = A_io + (alpha + beta)[:, None, None] * np.eye(v)
        X = numerics.solve_lyapunov(F, -2.0 * (H_io.swapaxes(-1, -2) @ H_io))
        w = np.linalg.eigvalsh(X)
        singular = w[:, 0] <= 1e-10 * w[:, -1]
        if singular.any():
            lo, hi = w[singular][0, [0, -1]]
            cond = hi / lo if lo > 0 else np.inf
            raise NumericalFailureError(
                f"observability Gramian of the stabilized block is singular: "
                f"cond(X) = {cond:.3g} with v = {v}. Its outputs see its {v} "
                f"modes too weakly, or the observable/unobservable split "
                f"misclassified the block"
            )
        L_io = np.linalg.solve(X, H_io.swapaxes(-1, -2))

        abscissa = float(np.max(numerics.eigenvalues(A_io - L_io @ H_io).real))
        if abscissa >= -alpha - 1e-8:
            raise NumericalFailureError(
                f"pole placement landed at spectral abscissa {abscissa:.6g}, "
                f"not below {-alpha:.6g}"
            )
        q = gamma * np.maximum(g_i, 1.0) - 2.0 * alpha
        P_io = (q / (2.0 * beta * w[:, 0]))[:, None, None] * X
    return (L_io, P_io) if stacked else (L_io[0], P_io[0])


def _place_all_poles(decomps, alpha, gamma, g):
    """`place_observer_poles` for every node: one stacked call per distinct
    v_i > 0. The H_io of a stack are padded to its largest row count
    with zero rows, which add nothing to the Gramian and give zero columns
    of L_io, cut off again. Returns the per-node lists of L_io and P_io;
    a node with v_i = 0 gets empty blocks."""
    L_blocks = [np.zeros((0, d.H_io.shape[0])) for d in decomps]
    P_blocks = [np.zeros((0, 0))] * len(decomps)
    for v in sorted({d.v for d in decomps} - {0}):
        nodes = [i for i, d in enumerate(decomps) if d.v == v]
        rows = [decomps[i].H_io.shape[0] for i in nodes]
        H_io = np.zeros((len(nodes), max(rows), v))
        for j, i in enumerate(nodes):
            H_io[j, : rows[j]] = decomps[i].H_io
        A_io = np.stack([decomps[i].A_io for i in nodes])
        L_io, P_io = place_observer_poles(A_io, H_io, alpha, gamma, g[nodes])
        for j, i in enumerate(nodes):
            L_blocks[i], P_blocks[i] = L_io[j, :, : rows[j]], P_io[j]
    return L_blocks, P_blocks


def assemble_gains(decomps, L_blocks, P_blocks, gamma, epsilon, r, alpha):
    """Rotate the per-block gains back to plant coordinates.

    For each node, L_i = T_i @ [L_io; 0] and
    M_i = T_i @ diag(inv(P_io), I) @ T_i.T; the identity on the
    unobservable subspace reflects the pinned unit certificate there.
    The M_i are formed as one (N, n, n) stack of batched products, with
    the P_io inverted in one stack per distinct v_i. Each inv(P_io) is
    verified as the inverse of P_io: T_i is orthogonal, so that residual
    is the one of M_i against T_i @ diag(P_io, I) @ T_i.T, whose
    Frobenius norm squared is ||P_io||_F^2 + n - v. Each M_i is verified
    positive definite, one coordinate group of the M_i at a time.
    """
    T = np.stack([d.T for d in decomps])
    n = T.shape[-1]
    local = np.broadcast_to(np.eye(n), T.shape).copy()
    for v in sorted({d.v for d in decomps} - {0}):
        nodes = [i for i, d in enumerate(decomps) if d.v == v]
        P_io = np.stack([P_blocks[i] for i in nodes])
        local[nodes, :v, :v] = inv_P_io = np.linalg.inv(P_io)
        inv_residual = np.linalg.norm(inv_P_io @ P_io - np.eye(v), axis=(-2, -1))
        scale = np.sqrt(np.linalg.norm(P_io, axis=(-2, -1)) ** 2 + n - v)
        inaccurate = ~(inv_residual <= 1e-8 * np.maximum(1.0, scale))
        if inaccurate.any():
            j = int(np.argmax(inaccurate))
            raise NumericalFailureError(
                f"node {nodes[j]}: inverse certificate residual {inv_residual[j]:.3e}"
            )
    M = T @ local @ T.swapaxes(-1, -2)
    M = 0.5 * (M + M.swapaxes(-1, -2))
    indefinite = numerics._smallest_eigenvalues(M) <= 0
    if indefinite.any():
        raise NumericalFailureError(
            f"node {int(np.argmax(indefinite))}: consensus weighting M is not positive definite"
        )
    nodes = tuple(
        NodeGains(L=d.T1 @ L_io, M=M_i) for d, L_io, M_i in zip(decomps, L_blocks, M)
    )
    return ObserverDesign(
        gamma=float(gamma),
        epsilon=float(epsilon),
        alpha=float(alpha),
        r=np.asarray(r, dtype=float),
        nodes=nodes,
    )


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
    construction steps and returns the assembled design only when
    `verify`'s Lyapunov certificate Z(gamma) < 0 holds on it.

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
    logger.info(
        "epsilon = %.6g, gamma = %.6g, per-node v = %s", epsilon, gamma, [d.v for d in decomps]
    )

    L_blocks, P_blocks = _place_all_poles(decomps, params.alpha, gamma, g)
    design = assemble_gains(
        decomps, L_blocks, P_blocks, gamma, epsilon, balanced.r, params.alpha
    )

    cert = verify.lyapunov_certificate(
        verify.build_global_error_matrix(model, balanced, design),
        balanced.mirror, gamma, params.alpha,
    )
    logger.debug("certificate margin %s", cert.margin)
    if not cert.passed:
        raise NumericalFailureError(
            f"assembled design fails its certificate (margin {cert.margin:.3e})"
        )
    return design
