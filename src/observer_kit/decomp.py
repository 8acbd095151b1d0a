"""Per-node observability decomposition and the joint observability rank.

Each node sees only its own output block, so the pair (H_i, A) is usually
not observable on its own. An orthogonal change of coordinates splits the
state space into the part node i can reconstruct from its measurements
and the part it cannot; the toolkit leans on the network to recover the
latter. The decomposition is unique only up to orthogonal transformations
inside each block, so everything downstream is written against the block
invariants, never against particular entries.

All nodes are decomposed in one stacked pass (`decompose_nodes`): one
sequence of n - 1 products of the stacked outputs with A gives every
node's observability rows, nodes that share a row count and a count of
seen coordinates take one batched SVD, and the rotations and their checks
run on (N, n, n) stacks. The rank decisions stay per node: each node's
threshold is read off its own observability matrix.

The network observes the span of the per-node observable bases, so joint
observability is read off those bases (`joint_observability_rank`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, NumericalFailureError

# Conditioning of a node's observability matrix degrades like norm(A)**n;
# above this norm `synth.check_assumptions` flags the rank decisions rather
# than silently trusting them.
NORM_WARN = 1e3


@dataclass(frozen=True)
class SystemModel:
    """LTI plant x' = A x with the output partitioned across N nodes.

    ``outputs[i]`` is the p_i x n map of the measurements available at
    node i; the full output map is their vertical stack.
    """

    A: np.ndarray
    outputs: tuple

    def __post_init__(self):
        A = numerics.as_square(np.asarray(self.A, dtype=float), "A")
        if not self.outputs:
            raise DimensionError("at least one output block is required")
        blocks = []
        for i, H in enumerate(self.outputs):
            H = numerics.as_matrix(np.asarray(H, dtype=float), f"outputs[{i}]")
            if H.shape[1] != A.shape[0]:
                raise DimensionError(
                    f"outputs[{i}] has {H.shape[1]} columns, expected {A.shape[0]}"
                )
            blocks.append(H)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "outputs", tuple(blocks))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def node_count(self):
        return len(self.outputs)


@dataclass(frozen=True)
class NodeDecomposition:
    """Observability decomposition of one node's pair (H_i, A).

    T is orthogonal with T = [T1 T2]; the columns of T1 span the subspace
    node i can observe (the row space of its stacked observability matrix)
    and the columns of T2 span the kernel. In these coordinates

        T.T @ A @ T = [[A_io, 0], [A_ir, A_iu]],   H_i @ T = [H_io, 0]

    with A_io the v x v observable block, A_iu the unobservable block and
    A_ir the cross-coupling feeding the unobservable part.
    """

    v: int
    T: np.ndarray
    A_io: np.ndarray
    A_ir: np.ndarray
    A_iu: np.ndarray
    H_io: np.ndarray

    @property
    def n(self):
        return self.T.shape[0]

    @property
    def T1(self):
        return self.T[:, : self.v]

    @property
    def T2(self):
        return self.T[:, self.v :]


def observability_matrix(H, A):
    """Stack H, H A, ..., H A**(n-1) into the (n p) x n observability matrix.

    H and A may also be a (k, p, n) and a (k, n, n) stack; the result is
    then the (k, n p, n) stack of their observability matrices. The n - 1
    products with A are made once for all rows of H.
    """
    A = numerics._as_squares(A, "A")
    H = np.asarray(H, dtype=float)
    if H.ndim != A.ndim or H.shape[:-2] + H.shape[-1:] != A.shape[:-1]:
        raise DimensionError(f"H has shape {H.shape} but A has shape {A.shape}")
    if H.size and not np.isfinite(H).all():
        raise NumericalFailureError("H contains non-finite entries")
    rows = [H]
    for _ in range(A.shape[-1] - 1):
        rows.append(rows[-1] @ A)
    return np.concatenate(rows, axis=-2)


def _observable_bases(outputs, A):
    """Orthogonal T_i = [T_i1 T_i2] and v_i for every node at once, as an
    (N, n, n) stack and an (N,) array; the first v_i columns of T_i span
    the row space of node i's observability matrix.

    The observability rows of every node come from one sequence of n - 1
    products of the stacked outputs [H_1; ...; H_N] with A. Nodes with
    the same row count p_i take one `numerics.orthonormal_row_space_basis`
    call, which splits them further by the number of coordinates they
    see. Raises `NumericalFailureError`, naming the first such node, when
    a kernel basis T_i2 leaves a residual ||O_i T_i2|| above ten times the
    node's rank threshold (at least 1e-12).
    """
    N, n = len(outputs), A.shape[0]
    rows = np.array([H.shape[0] for H in outputs])
    starts = np.cumsum(rows) - rows
    # krylov[k] = [H_1; ...; H_N] A**k
    krylov = observability_matrix(np.vstack(outputs), A).reshape(n, -1, n)
    T = np.empty((N, n, n))
    v = np.empty(N, dtype=int)
    kernel, bound = np.empty(N), np.empty(N)
    for p in sorted(set(rows.tolist())):
        nodes = np.flatnonzero(rows == p)
        O = krylov[:, starts[nodes, None] + np.arange(p)]
        O = O.transpose(1, 0, 2, 3).reshape(len(nodes), n * p, n)
        V, r, thresh = numerics.orthonormal_row_space_basis(O)
        T[nodes], v[nodes] = V, r
        kernel_cols = np.where(np.arange(n) >= r[:, None, None], O @ V, 0.0)
        kernel[nodes] = numerics._frobenius_norm(kernel_cols)
        bound[nodes] = np.maximum(10.0 * thresh, 1e-12)
    bad = kernel > bound
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalFailureError(
            f"node {i}: kernel basis residual {kernel[i]:.3e} above tolerance"
        )
    return T, v


def decompose_nodes(outputs, A):
    """Observability decomposition of every pair (H_i, A), i = 1..N.

    ``outputs`` are the N validated p_i x n output blocks (p_i may be 0)
    and A the validated n x n plant. The orthonormal bases come from
    `_observable_bases`: SVD bases of the row space and the kernel of each
    node's observability matrix, all nodes from one Krylov sequence.
    Every node's A and H are then rotated into those coordinates on
    (N, n, n) stacks, and every structural invariant is verified before
    returning: T_i orthogonal, the upper-right block of T_i.T A T_i
    (numerically) zero, H_i zero on the kernel, and the observable
    sub-pair actually observable, by a rank recheck that takes one
    stacked SVD per distinct v_i > 0. A failure raises
    `NumericalFailureError` that names the first failing node.

    A plant coordinate whose column of a node's observability matrix is
    exactly zero, one the node never sees, is a unit column of its T2,
    and the SVD covers the other columns only. No column of T then mixes
    it with the seen coordinates, which keeps the gains free of the 1e-17
    entries that would couple it to them and lets `verify` and
    `compute_epsilon` split the network along coordinate groups. A pair
    with no zero column keeps the SVD basis of the whole matrix.

    The fully observable (v = n) and fully unobservable (v = 0, e.g.
    H = 0) cases are both admitted; the corresponding blocks come back
    empty. Returns a tuple of N `NodeDecomposition`s.
    """
    N, n = len(outputs), A.shape[0]
    T, v = _observable_bases(outputs, A)
    At = T.swapaxes(-1, -2) @ A @ T
    # the output blocks, padded with zero rows to the largest p_i
    rows = np.array([H.shape[0] for H in outputs])
    H = np.zeros((N, rows.max(), n))
    for H_pad, H_i in zip(H, outputs):
        H_pad[: len(H_i)] = H_i
    HT = H @ T

    kernel_cols = np.arange(n) >= v[:, None]
    upper_right = ~kernel_cols[:, :, None] & kernel_cols[:, None, :]
    norm_A = max(math.hypot(*A.ravel().tolist()), 1e-300)
    norm_H = np.maximum(np.linalg.norm(H, axis=(-2, -1)), 1e-300)
    orth = np.linalg.norm(T.swapaxes(-1, -2) @ T - np.eye(n), axis=(-2, -1))
    cross = numerics._frobenius_norm(np.where(upper_right, At, 0.0))
    kern = np.linalg.norm(np.where(kernel_cols[:, None, :], HT, 0.0), axis=(-2, -1))
    failed = (orth > 1e-10) | (cross > 1e-8 * norm_A) | (kern > 1e-8 * norm_H)
    if failed.any():
        i = int(np.argmax(failed))
        problems = []
        if orth[i] > 1e-10:
            problems.append(f"||T.T T - I|| = {orth[i]:.3e}")
        if cross[i] > 1e-8 * norm_A:
            problems.append(f"upper-right block residual {cross[i]:.3e}")
        if kern[i] > 1e-8 * norm_H[i]:
            problems.append(f"||H T2|| = {kern[i]:.3e}")
        raise NumericalFailureError(
            f"node {i}: observability decomposition violated its invariants: "
            + "; ".join(problems)
        )

    short = []
    for k in sorted(set(v.tolist()) - {0}):
        nodes = np.flatnonzero(v == k)
        p = rows[nodes]
        O = observability_matrix(HT[nodes, : p.max(), :k], At[nodes, :k, :k])
        # the padding rows are zero: the threshold counts node i's own rows
        short += nodes[numerics.rank(O, np.maximum(k * p, k)) != k].tolist()
    if short:
        raise NumericalFailureError(
            f"node {min(short)}: observable sub-pair failed its rank recheck; the "
            f"rank decision at tolerance {numerics.RANK_RTOL:g} is inconsistent"
        )
    return tuple(
        NodeDecomposition(
            v=int(v[i]), T=T[i], A_io=At[i, : v[i], : v[i]], A_ir=At[i, v[i] :, : v[i]],
            A_iu=At[i, v[i] :, v[i] :], H_io=HT[i, : rows[i], : v[i]],
        )
        for i in range(N)
    )


def joint_observability_rank(model, decomps=None):
    """Rank of [T_11 ... T_N1], the per-node observable bases side by side.

    The network can reconstruct the full state exactly when this equals
    the state dimension. Without ``decomps`` the bases come from the basis
    step of `decompose_nodes`. No rank is taken of all nodes'
    observability matrices stacked: its threshold grows like
    norm(A)**(n-1).
    """
    if decomps is None:
        T, v = _observable_bases(model.outputs, model.A)
        bases = [T_i[:, :v_i] for T_i, v_i in zip(T, v)]
    else:
        bases = [d.T1 for d in decomps]
    return numerics.rank(np.hstack(bases))
