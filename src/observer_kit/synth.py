"""Design of the distributed observer gains by their certificate.

1. Decompose every node's pair (H_i, A) into observable and unobservable
   coordinates, and balance the communication graph.
2. Stabilize each observable block by output injection with poles left
   of ``-alpha``; the Lyapunov solution that defines the gain, at unit
   margin, is also the shape of the certificate block P_io.
3. Size the two free scalars of the certificate exactly: the common scale
   q of the P_io and the coupling gain gamma.
4. Assemble the full-order gains L_i and M_i.

`verify`'s certificate is Z(gamma) = blockdiag(D_i) - gamma (mirror x I_n)
< 0, with D_i = Sym(P_i Lambda_i) + 2*alpha*P_i and P_i = inv(M_i). For the
gains of step 2, D_i(q) = D0_i + q C_i is affine in q and Z is affine in
gamma, so the smallest certifying q and gamma are generalized eigenvalue
problems (Boyd, El Ghaoui, Feron and Balakrishnan, "Linear Matrix
Inequalities in System and Control Theory", SIAM 1994, section 2.2.3),
each split along the coordinate groups of the plant. The design takes
q = 2 max(q*, alpha) and gamma = 1.1 max(gamma*, alpha). The decay rate
alpha is the one input of the design; the factors 2 and 1.1 are fixed. The
design is returned only when the global certificate, computed from its
L_i and M_i exactly as `verify` computes it, is negative definite, which
a Cholesky factorization of its negative confirms without eigenvalues.

The rule commutes with a relabeling of the nodes and with an orthogonal
change of state coordinates. It is not covariant under a change of time
unit (A -> sA, alpha -> s alpha): the constant 1 in the shift beta of step
2 does not scale, and gamma and the abscissa have been measured to miss
s times their values by up to 71 % (s = 0.1).

The epsilon of the paper's constructive bound sizes nothing here; it is
computed as the numerical check of the standing assumptions and reported.
"""

import logging
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics, verify
from .decomp import NORM_WARN, decompose_nodes, joint_observability_rank
from .errors import AssumptionViolationError, DimensionError, NumericalFailureError
from .graph import _balance_connected, is_strongly_connected

logger = logging.getLogger(__name__)

# Shrinks the reported epsilon away from lambda_min(S).
_EPSILON_MARGIN = 0.9

# The design's scale q of the P_io, as a multiple of the threshold q*; the
# consensus block of the certificate then has room for a moderate gamma.
_SCALE_FACTOR = 2.0

# The design's coupling gain gamma, as a multiple of the threshold gamma*.
_GAMMA_MARGIN = 1.1


@dataclass
class SynthesisParams:
    """The one input of the design pipeline: alpha, the prescribed error
    decay rate, finite and positive. Once alpha is given the gains are
    fixed.
    """

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")


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


def compute_epsilon(decomps, balanced):
    """Positive lower bound for the coordinate-rotated mirror coupling.

    The bound is 0.9 * lambda_min(S) for S = T.T (mirror x I_n) T + G,
    with T the block diagonal of the per-node orthogonal transforms and
    G the block diagonal of diag(I_{v_i}, 0). T is orthogonal, so S has
    the eigenvalues of T S T.T = mirror x I_n + blockdiag(Pi_i),
    Pi_i = T_i1 T_i1.T the projector onto node i's observable subspace.
    That matrix couples coordinate k of one node only to coordinate k of
    the others and, through the Pi_i, only inside the coordinate groups of
    `numerics.coordinate_groups`; lambda_min is the smallest over one
    eigenvalue problem of size N |g| per group g, and a dense plant is a
    single group of size n. Joint observability together with strong
    connectivity makes S positive definite.

    Raises `AssumptionViolationError` when lambda_min(S) is not safely
    positive, which signals that one of the two standing assumptions
    failed numerically; `synthesize` computes epsilon for this check only.
    """
    projectors = np.array([d.T1 @ d.T1.T for d in decomps])
    lam_min = math.inf
    for idx in numerics.coordinate_groups(projectors):
        unit = np.eye(idx.shape[1])[None, None]
        S = numerics.coupled_blocks(
            numerics.restrict(projectors, idx), balanced.mirror, unit, -1.0
        )
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        lam_min = min(lam_min, float(np.min(np.linalg.eigvalsh(S)[:, 0])))
    if lam_min <= 1e-12:
        raise AssumptionViolationError(
            f"coupling bound failed: lambda_min = {lam_min:.3e}; joint "
            "observability or strong connectivity does not hold numerically"
        )
    return _EPSILON_MARGIN * lam_min


def place_observer_poles(A_io, H_io, alpha):
    """Output-injection gain and unit-scale certificate block for an
    observable block, or for each block of a stack of blocks that share v
    and p.

    Shifted Lyapunov (Bass-style) construction: with At = A_io + alpha*I
    and a shift beta = 1 + ||A_io||_F + alpha that dominates the spectral
    radius of At, the equation

        (At + beta I).T X + X (At + beta I) = 2 H_io.T H_io

    has a positive definite solution X exactly when (H_io, A_io) is
    observable, and L_io = inv(X) H_io.T places every eigenvalue of
    A_io - L_io H_io on the line Re = -(alpha + beta). The same X
    certifies that closed loop: Sym(X (At - L_io H_io)) = -2 beta X, so

        P_io = X / (2 beta lambda_min(X))

    satisfies Sym(P_io (A_io - L_io H_io + alpha I)) <= -I. `synthesize`
    scales every P_io by one common q.

    A_io is v x v and H_io p x v, or a (k, v, v) and a (k, p, v) stack:
    beta is taken per block, and the k Bass equations are one stacked
    `numerics.solve_lyapunov` call, whose eigenvalues of X, taken for its
    definiteness check, serve the conditioning check and the scale of
    P_io here too. Returns (L_io, P_io), stacked as the input is.

    `decomp.decompose_nodes` has confirmed the rank of the block's
    observability matrix, so an X too ill-conditioned to invert raises
    `NumericalFailureError`, not a violated assumption.
    """
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
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(A_io, axis=(-2, -1))
        if norms.max() == math.inf:
            # a square overflowed (entries above about 1e154): the norms are
            # taken scaled instead of numpy's, on which beta rests bit for bit
            norms = numerics._frobenius_norm(A_io)
        # the largest shift alpha + beta, in the order of operations below,
        # and 2 (||A_io||_F + alpha + beta), on Python floats, which overflow
        # to inf without a warning: that bounds the diagonal F_ii + F_jj of
        # the Bass equation's Kronecker form, twice every eigenvalue of F,
        # and the diagonal 2 (alpha + beta) of Sym(A_io - L_io H_io)
        norm = float(norms.max())
        if 2.0 * (norm + (alpha + (1.0 + norm + alpha))) == math.inf:
            raise NumericalFailureError(
                f"the pole-placement shift alpha + beta = 2 alpha + 1 + ||A_io||_F, "
                f"or 2 (||A_io||_F + alpha + beta) on the diagonal of the Bass "
                f"equation, overflows at alpha = {alpha:.6g} and ||A_io||_F = {norm:.6g}"
            )
        beta = 1.0 + norms + alpha
        F = A_io + (alpha + beta)[:, None, None] * np.eye(v)
        X, w = numerics.solve_lyapunov(F, -2.0 * (H_io.swapaxes(-1, -2) @ H_io))
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
        P_io = (1.0 / (2.0 * beta * w[:, 0]))[:, None, None] * X
    return (L_io, P_io) if stacked else (L_io[0], P_io[0])


def _place_all_poles(decomps, alpha):
    """`place_observer_poles` for every node: one stacked call per distinct
    v_i > 0. The H_io of a stack are padded to its largest row count
    with zero rows, which add nothing to the Gramian and give zero columns
    of L_io, cut off again. Returns the per-node lists of L_io and of the
    unit-scale P_io; a node with v_i = 0 gets empty blocks."""
    L_blocks = [np.zeros((0, d.H_io.shape[0])) for d in decomps]
    P_blocks = [np.zeros((0, 0))] * len(decomps)
    for v in sorted({d.v for d in decomps} - {0}):
        nodes = [i for i, d in enumerate(decomps) if d.v == v]
        rows = [decomps[i].H_io.shape[0] for i in nodes]
        H_io = np.zeros((len(nodes), max(rows), v))
        for j, i in enumerate(nodes):
            H_io[j, : rows[j]] = decomps[i].H_io
        A_io = np.array([decomps[i].A_io for i in nodes])
        L_io, P_io = place_observer_poles(A_io, H_io, alpha)
        for j, i in enumerate(nodes):
            L_blocks[i], P_blocks[i] = L_io[j, :, : rows[j]], P_io[j]
    return L_blocks, P_blocks


def _certificate_pencil(decomps, L_blocks, P_blocks, alpha):
    """(D0, C): the (N, n, n) stacks with D_i(q) = D0[i] + q C[i], where
    D_i = Sym(P_i Lambda_i) + 2*alpha*P_i is the certificate's diagonal
    block at P_i = T_i diag(q P_io, I) T_i.T. In node coordinates

        D0 = [[0, A_ir.T], [A_ir, Sym(A_iu) + 2*alpha*I]],
        C  = [[Sym(P_io (A_io - L_io H_io + alpha*I)), 0], [0, 0]] <= -diag(I, 0)

    for the unit-scale P_io of `place_observer_poles`."""
    T = np.array([d.T for d in decomps])
    local = np.zeros((2, *T.shape))
    for i, (d, L_io, P_io) in enumerate(zip(decomps, L_blocks, P_blocks)):
        v = d.v
        local[0, i, v:, :v] = d.A_ir
        local[0, i, :v, v:] = d.A_ir.T
        local[0, i, v:, v:] = _sym(d.A_iu) + 2.0 * alpha * np.eye(d.n - v)
        local[1, i, :v, :v] = _sym(P_io @ (d.A_io - L_io @ d.H_io)) + 2.0 * alpha * P_io
    return T @ local @ T.swapaxes(-1, -2)


def _largest_generalized_eigenvalues(a, b):
    """Largest lambda with a x = lambda b x, for each pencil of (k, m, m)
    stacks of symmetric a and positive definite b: the largest eigenvalue
    of inv(K) a inv(K).T, K the Cholesky factor of b."""
    try:
        K = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"generalized eigenvalue problem: {exc}") from exc
    reduced = np.linalg.solve(K, np.linalg.solve(K, a).swapaxes(-1, -2))
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.swapaxes(-1, -2)))[:, -1]


def _scale_threshold(D0, C, groups):
    """q* = lambda_max(Cbar^(-1/2) D0bar Cbar^(-1/2)), D0bar and -Cbar the
    means of D0 and C: the smallest q with D_UU(q) = D0bar - q Cbar < 0, the
    consensus block of Z, which no gamma moves. Cbar > 0 exactly when the
    observable subspaces span the state. One problem per coordinate group."""
    return max(
        float(np.max(_largest_generalized_eigenvalues(
            numerics.restrict(D0, idx).sum(axis=0), -numerics.restrict(C, idx).sum(axis=0)
        )))
        for idx in groups
    )


def _coupling_threshold(D, mirror, groups):
    """gamma* = lambda_max(W^(-1/2) S W^(-1/2)), the smallest gamma with
    Z(gamma) = blockdiag(D_i) - gamma (mirror x I_n) < 0.

    In the basis Q x I of mirror = Q diag(w) Q.T, w[0] = 0 on the
    consensus direction U, Z < 0 holds exactly when D_UU < 0 and the Schur
    complement S = D_VV - D_VU inv(D_UU) D_UV lies below gamma W, W =
    diag(w[1:]) x I. With D_UU not negative definite, gamma* means
    nothing, and the final certificate of `synthesize` fails. One problem
    of size |g| (N - 1) per coordinate group g; a lone node has none.
    gamma* is inf where the products that form S overflow.
    """
    N = D.shape[0]
    if N == 1:
        return -math.inf
    w, Q = np.linalg.eigh(mirror)
    gamma_star = -math.inf
    for idx in groups:
        k, m = idx.shape
        # (Q x I).T blockdiag(D_i) (Q x I), block (a, b): sum_i Q[i, a] Q[i, b] D_i
        left = Q.T[:, :, None, None] * numerics.restrict(D, idx).swapaxes(0, 1)[:, None]
        Z = (left.transpose(0, 1, 3, 4, 2) @ Q).transpose(0, 1, 2, 4, 3)
        Z = Z.reshape(k, N * m, N * m)
        try:
            coupling = np.linalg.solve(Z[:, :m, :m], Z[:, :m, m:])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"consensus block of the certificate: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            schur = Z[:, m:, m:] - Z[:, m:, :m] @ coupling
            scale = np.repeat(w[1:], m) ** -0.5
            scaled = scale[:, None] * schur * scale
            symmetric = 0.5 * (scaled + scaled.swapaxes(-1, -2))
        if not np.isfinite(symmetric).all():
            return math.inf
        lam = np.linalg.eigvalsh(symmetric)[:, -1]
        gamma_star = max(gamma_star, float(lam.max()))
    return gamma_star


def assemble_gains(decomps, L_blocks, P_blocks, gamma, epsilon, r, alpha):
    """Rotate the per-block gains back to plant coordinates.

    For each node, L_i = T_i @ [L_io; 0] and
    M_i = T_i @ diag(inv(P_io), I) @ T_i.T; the identity on the
    unobservable subspace reflects the pinned unit certificate there.
    The M_i are formed as one (N, n, n) stack of batched products, with
    the P_io inverted in one stack per distinct v_i. Each inv(P_io) is
    verified as the inverse of P_io: T_i is orthogonal, so that residual
    is the one of M_i against T_i @ diag(P_io, I) @ T_i.T, whose
    Frobenius norm, taken without overflow, is hypot(||P_io||_F,
    sqrt(n - v)). Each M_i is verified positive definite by one Cholesky
    factorization of the (N, n, n) stack; only when it fails are the
    eigenvalues taken, to name the node.
    """
    T = np.array([d.T for d in decomps])
    n = T.shape[-1]
    local = np.broadcast_to(np.eye(n), T.shape).copy()
    for v in sorted({d.v for d in decomps} - {0}):
        nodes = [i for i, d in enumerate(decomps) if d.v == v]
        P_io = np.array([P_blocks[i] for i in nodes])
        local[nodes, :v, :v] = inv_P_io = np.linalg.inv(P_io)
        inv_residual = numerics._frobenius_norm(inv_P_io @ P_io - np.eye(v))
        scale = np.hypot(numerics._frobenius_norm(P_io), math.sqrt(n - v))
        inaccurate = ~(inv_residual <= 1e-8 * np.maximum(1.0, scale))
        if inaccurate.any():
            j = int(np.argmax(inaccurate))
            raise NumericalFailureError(
                f"node {nodes[j]}: inverse certificate residual {inv_residual[j]:.3e}"
            )
    M = T @ local @ T.swapaxes(-1, -2)
    M = 0.5 * (M + M.swapaxes(-1, -2))
    if not numerics._is_positive_definite(M):
        # the first node with a non-positive eigenvalue, else the least one
        smallest = np.linalg.eigvalsh(M)[:, 0]
        node = int(np.argmax(smallest <= max(smallest.min(), 0.0)))
        raise NumericalFailureError(
            f"node {node}: consensus weighting M is not positive definite"
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


def check_assumptions(model, g_net):
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
    # norm(A, 2) <= norm(A, "fro"): the SVD only runs when the Frobenius
    # norm, which needs none and which math.hypot takes without overflow,
    # is within rounding of the bound or above it
    if math.hypot(*model.A.ravel().tolist()) > (1.0 - 1e-12) * NORM_WARN:
        norm_A = np.linalg.norm(model.A, 2)
        if norm_A > NORM_WARN:
            logger.warning(
                "norm(A) = %.3e; powers up to A**%d make the observability "
                "matrices badly conditioned and the rank decisions unreliable",
                norm_A,
                model.n - 1,
            )
    decomps = decompose_nodes(model.outputs, model.A)
    return AssumptionCheck(
        decomps=decomps,
        strongly_connected=is_strongly_connected(g_net),
        joint_rank=joint_observability_rank(model, decomps),
    )


def synthesize(model, g_net, params):
    """Full design pipeline: from plant, graph and decay rate to gains.

    Checks the standing assumptions (strongly connected graph, jointly
    observable system) with `check_assumptions`, runs the construction
    steps of the module docstring and returns the assembled design only when
    `verify`'s Lyapunov certificate Z(gamma) < 0 holds on it: a Cholesky
    factorization of -Z, on the blocks of `verify.certificate_blocks`.

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
    decomps, connected, joint = check_assumptions(model, g_net)
    if not connected:
        raise AssumptionViolationError("communication graph is not strongly connected")
    if joint != model.n:
        raise AssumptionViolationError(
            f"system is not jointly observable: joint rank {joint} < n = {model.n}"
        )

    balanced = _balance_connected(g_net)
    alpha = params.alpha
    epsilon = compute_epsilon(decomps, balanced)
    L_blocks, P_blocks = _place_all_poles(decomps, alpha)
    D0, C = _certificate_pencil(decomps, L_blocks, P_blocks, alpha)
    groups = numerics.coordinate_groups(D0, C)
    q = _SCALE_FACTOR * max(_scale_threshold(D0, C, groups), alpha)
    gamma_star = _coupling_threshold(D0 + q * C, balanced.mirror, groups)
    gamma = _GAMMA_MARGIN * max(gamma_star, alpha)
    # on Python floats, like the shift of `place_observer_poles`
    if gamma == math.inf:
        raise NumericalFailureError(
            f"the coupling gain gamma = {_GAMMA_MARGIN} max(gamma*, alpha), or the "
            f"products that give gamma*, overflows at alpha = {alpha:.6g}"
        )
    logger.info(
        "q = %.6g, gamma* = %.6g, gamma = %.6g, epsilon = %.6g, per-node v = %s",
        q, gamma_star, gamma, epsilon, [d.v for d in decomps],
    )

    design = assemble_gains(
        decomps, L_blocks, [q * P for P in P_blocks], gamma, epsilon, balanced.r, alpha
    )

    # verify reads the eigenvalues of Z/2 + Z.T/2; Z < 0 exactly when that
    # matrix times -1 has a Cholesky factor
    err_sys = verify.build_global_error_matrix(model, balanced, design)
    blocks = verify.certificate_blocks(err_sys, balanced.mirror, gamma, alpha)
    negated = (-0.5 * Z - 0.5 * Z.swapaxes(-1, -2) for Z in blocks)
    if not all(numerics._is_positive_definite(H) for H in negated):
        margin = verify.lyapunov_certificate(err_sys, balanced.mirror, gamma, alpha).margin
        raise NumericalFailureError(
            f"assembled design fails its certificate (margin {margin:.3e})"
        )
    return design
