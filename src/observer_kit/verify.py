"""Independent certification of an assembled design.

Two certificates are computed for the networked error dynamics. The
spectral abscissa of the global error matrix is the ground truth: the
design achieves decay rate alpha exactly when every eigenvalue sits left
of -alpha. The Lyapunov certificate is the constructive counterpart the
synthesis promises: a block-diagonal quadratic form, with the inverted
consensus weightings inv(M_i) as blocks, whose derivative along the
error flow is provably below -2*alpha times itself. Both are computed
from the gains L_i and M_i alone, the gains the observers run on. A
design can be stable yet uncertified at the requested rate (Lyapunov
false, abscissa pass); the reverse disagreement would mean one of the
two computations is wrong and is treated as a hard error.
`build_global_error_matrix` is the one build of the error system; on
top of it `error_system` checks the M_i for both `verify_design` and
`sim`. `synth.synthesize` returns a design only when the same Lyapunov
certificate holds on it, which it proves by a Cholesky factorization of
the same blocks, without forming the blocks of E.

Neither certificate forms a dense nN x nN matrix. The graph couples each
plant coordinate only to the same coordinate of the other nodes, so the
error matrix and the quadratic form split exactly into one block per
group of coordinates that no Lambda_i or M_i couples (inv(M_i) has the
block structure of M_i, so it couples none either); the groups are read
off the design's own gains, so a design file cannot buy itself a split.
The build restricts Lambda_i and M_i to the groups once; every block is
held per group from then on, and each M_i is checked and inverted one
group at a time. The abscissa is the largest over the blocks and the
Lyapunov margin the largest eigenvalue over them, one eigenvalue problem
of size N |g| per group g, in one stacked call per group size. A dense
plant is a single group.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DimensionError, NumericalFailureError
from .graph import balance

# Strict inequalities cannot be asserted at machine precision; the
# abscissa check passes up to a slack of this factor times min(1, alpha),
# so that a slow rate is not passed by a growing error.
ABSCISSA_TOL = 1e-6


@dataclass(frozen=True)
class GlobalErrorSystem:
    """Stacked error dynamics e' = E e of the networked observer.

    E = blockdiag(Lambda_i) - gamma * blockdiag(M_i) @ kron(R L, I_n) is
    nN x nN, with Lambda_i = A - L_i H_i, M_i the consensus weightings
    and R the balancing of the graph Laplacian L. The graph couples
    coordinate k of one node only to coordinate k of the others, so E
    splits exactly along the coordinate groups that no Lambda_i or M_i
    couples (`numerics.coordinate_groups`): group g owns the N |g| rows
    (i, k), k in g, node-major, and E has no entry between two groups.
    groups[c] is a (k, m) array of the k groups of size m and E_blocks[c]
    the (k, Nm, Nm) stack of their diagonal blocks of E. A dense plant is
    one group, whose block is E itself.

    Lambda_blocks[c], M_blocks[c] and P_blocks[c] are the (N, k, m, m)
    arrays of the blocks, in the groups of size m, of the Lambda_i, the M_i
    and the symmetrized P_i = inv(M_i) of the certificate's quadratic form.
    P_blocks is formed when first read, one stacked inversion per group
    size at N sum_g |g|^3, since M_i is block diagonal in the groups. So is
    E_blocks, at O(sum_g (N |g|)^2), which the Lyapunov certificate never
    reads; an entry of it beyond the float range raises
    `NumericalFailureError`.
    """

    groups: tuple
    Lambda_blocks: tuple
    M_blocks: tuple
    RL: np.ndarray
    gamma: float

    @cached_property
    def P_blocks(self):
        inverses = (np.linalg.inv(M_g) for M_g in self.M_blocks)
        return tuple(0.5 * (P + np.swapaxes(P, -1, -2)) for P in inverses)

    @cached_property
    def E_blocks(self):
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = tuple(
                numerics.coupled_blocks(Lam_g, self.RL, M_g, self.gamma)
                for Lam_g, M_g in zip(self.Lambda_blocks, self.M_blocks)
            )
        if not all(np.isfinite(B).all() for B in blocks):
            raise NumericalFailureError(
                f"error matrix overflows: an entry of delta_ij Lambda_i - gamma (R L)_ij M_i "
                f"is beyond the float range (gamma = {self.gamma:.6g})"
            )
        return blocks

    def group_rows(self):
        """One (k, Nm) array per entry of groups: the rows of E that each
        group owns, in the order of its block."""
        N = self.RL.shape[0]
        n = sum(idx.size for idx in self.groups)
        return [
            (n * np.arange(N)[:, None] + idx[:, None, :]).reshape(len(idx), -1)
            for idx in self.groups
        ]


def _check_compatible(model, design):
    if design.node_count != model.node_count:
        raise DimensionError(
            f"design has {design.node_count} nodes, model has {model.node_count}"
        )
    n = model.n
    for i, (node, H) in enumerate(zip(design.nodes, model.outputs)):
        if node.M.shape != (n, n):
            raise DimensionError(f"node {i}: M has shape {node.M.shape}, expected ({n}, {n})")
        if node.L.shape != (n, H.shape[0]):
            raise DimensionError(
                f"node {i}: L has shape {node.L.shape}, expected ({n}, {H.shape[0]})"
            )


def build_global_error_matrix(model, balanced, design):
    """Assemble the global error system for a design on a balanced graph.

    Lambda_i and M_i are restricted to their coordinate groups here, once.
    Block (i, j) of E is delta_ij (A - L_i H_i) - gamma (R L)_ij M_i,
    formed from those blocks, not as blockdiag(M_i) kron(R L, I_n), when
    `GlobalErrorSystem.E_blocks` is first read; the same holds for
    P_i = inv(M_i). The coupling term uses the balancing
    weights recomputed from the graph, which is what makes the result
    depend on the graph only through the product R L.
    """
    _check_compatible(model, design)
    if balanced.laplacian.shape[0] != design.node_count:
        raise DimensionError("graph size does not match the design")
    # an overflow here reaches E, whose first read names it
    with np.errstate(over="ignore", invalid="ignore"):
        Lambdas = np.array([model.A - nd.L @ H for nd, H in zip(design.nodes, model.outputs)])
    Ms = np.array([node.M for node in design.nodes])
    groups = tuple(numerics.coordinate_groups(Lambdas, Ms))
    Lambda_blocks = tuple(numerics.restrict(Lambdas, idx) for idx in groups)
    M_blocks = tuple(numerics.restrict(Ms, idx) for idx in groups)
    RL = balanced.R @ balanced.laplacian
    return GlobalErrorSystem(groups, Lambda_blocks, M_blocks, RL, design.gamma)


def error_system(model, g_net, design):
    """Balance the graph and build the error system of a design on it.

    Returns (balanced, GlobalErrorSystem). Raises `DimensionError` for a
    design whose r is not the graph's balancing (rtol 1e-9), whose gains
    do not fit the model or whose M_i is not symmetric positive definite,
    so `verify_design` and `sim.integrate` reject the same designs. M_i
    passes when each of its blocks in the build's coordinate groups,
    which `P_blocks` inverts, does; this is tested before any inversion.
    """
    balanced = balance(g_net)
    if design.r.shape != balanced.r.shape or not (
        np.abs(design.r - balanced.r) <= 1e-9 * np.abs(balanced.r)
    ).all():
        raise DimensionError(f"design r = {design.r} does not balance the graph")
    err_sys = build_global_error_matrix(model, balanced, design)
    rejected = np.zeros(design.node_count, dtype=bool)
    for M_g in err_sys.M_blocks:
        N, k, m = M_g.shape[:3]
        symmetric = numerics.is_symmetric(M_g.reshape(N * k, m, m)).reshape(N, k)
        rejected |= ~(symmetric & (np.linalg.eigvalsh(M_g)[..., 0] > 0)).all(axis=1)
    if rejected.any():
        raise DimensionError(
            f"node {int(np.argmax(rejected))}: M is not symmetric positive definite"
        )
    return balanced, err_sys


class AbscissaCertificate(NamedTuple):
    passed: bool
    abscissa: float


def spectral_abscissa_certificate(E_blocks, alpha):
    """Ground-truth decay check: max Re eig(E) <= -alpha + tol, with the
    slack tol = ABSCISSA_TOL * min(1, alpha) below alpha itself.

    E_blocks is the sequence `GlobalErrorSystem.E_blocks` of the group
    blocks that the error matrix E is permutation-similar to the block
    diagonal of; the abscissa is the largest over all blocks.
    """
    abscissa = max(float(np.max(numerics.eigenvalues(B).real)) for B in E_blocks)
    tol = ABSCISSA_TOL * min(1.0, alpha)
    return AbscissaCertificate(abscissa <= -alpha + tol, abscissa)


class LyapunovCertificate(NamedTuple):
    passed: bool
    margin: float


def lyapunov_certificate(err_sys, mirror, gamma, alpha):
    """Quadratic-form certificate of decay rate alpha for an error system.

    Builds Z = P Lambda + Lambda.T P - gamma * kron(mirror, I_n) + 2*alpha*P
    (see `certificate_blocks`) from the blocks of ``err_sys``, as built by
    `error_system`: P is the block diagonal of the inverted consensus
    weightings inv(M_i), and mirror is the mirror of the balanced graph.
    Each block of Z is symmetrized as Z/2 + Z.T/2, which overflows only
    where Z does; the margin is the largest eigenvalue over all blocks,
    and Z passes when it is negative.
    A non-finite entry raises `NumericalFailureError`.
    """
    margin = -np.inf
    for Z in certificate_blocks(err_sys, mirror, gamma, alpha):
        if not np.isfinite(Z).all():
            raise NumericalFailureError("certificate matrix Z contains non-finite entries")
        w = np.linalg.eigvalsh(0.5 * Z + 0.5 * Z.swapaxes(-1, -2))
        margin = max(margin, float(w[..., -1].max()))
    return LyapunovCertificate(margin < 0.0, margin)


def certificate_blocks(err_sys, mirror, gamma, alpha):
    """The matrix Z of the Lyapunov certificate, one block per coordinate group.

    Z_ij = delta_ij (P_i Lambda_i + Lambda_i.T P_i + 2*alpha*P_i)
    - gamma * mirror_ij * I_n, with the group blocks of P_i and Lambda_i
    read from ``err_sys.P_blocks`` and ``err_sys.Lambda_blocks``. The
    mirror couples equal coordinates only and P_i Lambda_i stays inside
    the groups of ``err_sys``, so Z is permutation-similar to the block
    diagonal of the returned blocks: one (k, Nm, Nm) stack per entry of
    ``err_sys.groups``, rows ordered as in `GlobalErrorSystem.group_rows`.
    Only products of blocks of at most n x n are formed.
    """
    blocks = []
    for idx, P, Lam in zip(err_sys.groups, err_sys.P_blocks, err_sys.Lambda_blocks):
        local = P @ Lam + np.swapaxes(Lam, -1, -2) @ P + 2.0 * alpha * P
        unit = np.eye(idx.shape[1])[None, None]
        blocks.append(numerics.coupled_blocks(local, mirror, unit, gamma))
    return blocks


@dataclass(frozen=True)
class VerificationReport:
    """Both certificates for one design, plus consistency bookkeeping."""

    abscissa: float
    alpha: float
    lyapunov_margin: float
    passed: bool
    lyapunov_passed: bool
    condition_numbers: tuple
    note: str = ""

    def to_dict(self):
        return {
            "abscissa": self.abscissa,
            "alpha": self.alpha,
            "lyapunov_margin": self.lyapunov_margin,
            "pass": self.passed,
            "lyapunov_pass": self.lyapunov_passed,
            "condition_numbers": list(self.condition_numbers),
            "note": self.note,
        }


def verify_design(model, g_net, design, alpha=None):
    """Run both certificates and cross-check their consistency.

    The global error system is built once, by `error_system`, and shared
    by both; the designs it rejects raise `DimensionError`. The report
    carries the condition number of each M_i, so a near-singular
    inversion is visible.

    A true Lyapunov certificate implies exponential decay at the same
    rate, so (Lyapunov pass, abscissa fail) is impossible for correct
    arithmetic and raises `NumericalFailureError`. The opposite split is
    legitimate and reported as stable but uncertified.
    """
    if alpha is None:
        alpha = design.alpha
    balanced, err_sys = error_system(model, g_net, design)
    spect = spectral_abscissa_certificate(err_sys.E_blocks, alpha)
    lyap = lyapunov_certificate(err_sys, balanced.mirror, design.gamma, alpha)

    if lyap.passed and not spect.passed:
        raise NumericalFailureError(
            "certificates disagree: Lyapunov margin "
            f"{lyap.margin:.3e} is negative but the spectral abscissa is "
            f"{spect.abscissa:.6g} > {-alpha:.6g}"
        )
    note = ""
    if spect.passed and not lyap.passed:
        note = f"stable but uncertified at rate {alpha:g}"
    conds = np.linalg.cond(np.array([node.M for node in design.nodes]))
    return VerificationReport(
        abscissa=spect.abscissa,
        alpha=float(alpha),
        lyapunov_margin=lyap.margin,
        passed=spect.passed,
        lyapunov_passed=lyap.passed,
        condition_numbers=tuple(conds.tolist()),
        note=note,
    )
