"""Per-node observability decomposition and the joint observability rank.

Each node sees only its own output block, so the pair (H_i, A) is usually
not observable on its own. An orthogonal change of coordinates splits the
state space into the part node i can reconstruct from its measurements
and the part it cannot; the toolkit leans on the network to recover the
latter. The decomposition is unique only up to orthogonal transformations
inside each block, so everything downstream is written against the block
invariants, never against particular entries.

The network observes the span of the per-node observable bases, so joint
observability is read off those bases (`joint_observability_rank`).
"""

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
    """Stack H, H A, ..., H A**(n-1) into the (n p) x n observability matrix."""
    H = numerics.as_matrix(H, "H")
    A = numerics.as_square(A, "A")
    if H.shape[1] != A.shape[0]:
        raise DimensionError(
            f"H has {H.shape[1]} columns but A is {A.shape[0]}x{A.shape[0]}"
        )
    rows = [H]
    for _ in range(A.shape[0] - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def decompose_node(H, A, rtol=numerics.RANK_RTOL):
    """Observability decomposition of the pair (H, A).

    Builds SVD-based orthonormal bases for the row space and kernel of the
    stacked observability matrix, rotates A and H into those coordinates
    and verifies every structural invariant before returning: T orthogonal,
    the upper-right block of the rotated A (numerically) zero, H zero on
    the kernel and the observable sub-pair actually observable by a rank
    recheck.

    A plant coordinate whose column of the observability matrix is exactly
    zero, one the node never sees, is a unit column of T2, and the SVD
    covers the other columns only (`numerics.orthonormal_row_space_basis`).
    No column of T then mixes it with the seen coordinates, which keeps the
    gains free of the 1e-17 entries that would couple it to them and lets
    `verify` and `compute_epsilon` split the network along coordinate
    groups. A pair with no zero column keeps the SVD basis of the whole
    matrix.

    The fully observable (v = n) and fully unobservable (v = 0, i.e. H = 0)
    cases are both admitted; the corresponding blocks come back empty.
    """
    H = numerics.as_matrix(H, "H")
    A = numerics.as_square(A, "A")
    O = observability_matrix(H, A)
    B1, B2 = numerics.orthonormal_row_space_basis(O, rtol)
    v = B1.shape[1]
    n = A.shape[0]
    T = np.hstack([B1, B2])

    At = T.T @ A @ T
    A_io = At[:v, :v]
    A_ir = At[v:, :v]
    A_iu = At[v:, v:]
    H_io = H @ B1

    norm_A = max(np.linalg.norm(A, "fro"), 1e-300)
    norm_H = max(np.linalg.norm(H, "fro"), 1e-300)
    problems = []
    orth = np.linalg.norm(T.T @ T - np.eye(n), "fro")
    if orth > 1e-10:
        problems.append(f"||T.T T - I|| = {orth:.3e}")
    cross = np.linalg.norm(At[:v, v:], "fro")
    if cross > 1e-8 * norm_A:
        problems.append(f"upper-right block residual {cross:.3e}")
    kern = np.linalg.norm(H @ B2, "fro")
    if kern > 1e-8 * norm_H:
        problems.append(f"||H T2|| = {kern:.3e}")
    if problems:
        raise NumericalFailureError(
            "observability decomposition violated its invariants: "
            + "; ".join(problems)
        )
    if v > 0 and numerics.rank(observability_matrix(H_io, A_io), rtol) != v:
        raise NumericalFailureError(
            "observable sub-pair failed its rank recheck; the rank decision "
            f"at tolerance {rtol:g} is inconsistent"
        )
    return NodeDecomposition(v=v, T=T, A_io=A_io, A_ir=A_ir, A_iu=A_iu, H_io=H_io)


def joint_observability_rank(model, decomps=None, rtol=numerics.RANK_RTOL):
    """Rank of [T_11 ... T_N1], the per-node observable bases side by side.

    The network can reconstruct the full state exactly when this equals
    the state dimension. Without ``decomps`` each basis comes from the
    row-space split that `decompose_node` starts with. No rank is taken of
    all nodes' observability matrices stacked: its threshold grows like
    norm(A)**(n-1).
    """
    if decomps is None:
        bases = [
            numerics.orthonormal_row_space_basis(observability_matrix(H, model.A), rtol)[0]
            for H in model.outputs
        ]
    else:
        bases = [d.T1 for d in decomps]
    return numerics.rank(np.hstack(bases), rtol)
