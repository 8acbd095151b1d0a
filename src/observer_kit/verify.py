"""Independent certification of an assembled design.

Two certificates are computed for the networked error dynamics. The
spectral abscissa of the global error matrix is the ground truth: the
design achieves decay rate alpha exactly when every eigenvalue sits left
of -alpha. The Lyapunov certificate is the constructive counterpart the
synthesis promises: a block-diagonal quadratic form whose derivative
along the error flow is provably below -2*alpha times itself. A design
can be stable yet uncertified at the requested rate (Lyapunov false,
abscissa pass); the reverse disagreement would mean one of the two
computations is wrong and is treated as a hard error. `error_system`
reads and builds the error matrix for both `verify_design` and `sim`.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DimensionError, NumericalFailureError
from .graph import balance

# Strict inequalities cannot be asserted at machine precision; the
# abscissa check passes up to this additive slack.
ABSCISSA_TOL = 1e-6


@dataclass(frozen=True)
class GlobalErrorSystem:
    """Stacked error dynamics e' = E e of the networked observer.

    E = blockdiag(Lambda_i) - gamma * blockdiag(M_i) @ kron(R L, I_n) is
    dense nN x nN, with Lambda_i = A - L_i H_i, M_i the consensus
    weightings and R the balancing of the graph Laplacian L. The (N, n, n)
    stacks Lambda_blocks and P_blocks hold the Lambda_i and the inverted
    weightings P_i, the blocks of the certificate's quadratic form.
    Building the system costs O((nN)^2) plus N small inversions.
    """

    E: np.ndarray
    Lambda_blocks: np.ndarray
    P_blocks: np.ndarray
    condition_numbers: tuple


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

    Block (i, j) of E is delta_ij (A - L_i H_i) - gamma (R L)_ij M_i,
    formed directly from the blocks instead of multiplying blockdiag(M_i)
    by kron(R L, I_n). The coupling term uses the balancing weights
    recomputed from the graph, which is what makes the result depend on
    the graph only through the product R L.
    """
    _check_compatible(model, design)
    if balanced.laplacian.shape[0] != design.node_count:
        raise DimensionError("graph size does not match the design")
    Lambda_blocks = np.stack(
        [model.A - node.L @ H for node, H in zip(design.nodes, model.outputs)]
    )
    N, n = design.node_count, model.n
    Ms = np.stack([node.M for node in design.nodes])
    RL = balanced.R @ balanced.laplacian
    # Lambda_i first (through a 4-d view of E), coupling subtracted after:
    # the other order flips the sign of E's zero entries, and eig's
    # Householder steps follow that sign into the last digits
    E = np.zeros((N * n, N * n))
    nodes = np.arange(N)
    E.reshape(N, n, N, n)[nodes, :, nodes, :] = Lambda_blocks
    E -= design.gamma * (RL[:, None, :, None] * Ms[:, :, None, :]).reshape(E.shape)

    P = np.linalg.inv(Ms)
    conds = tuple(np.linalg.cond(Ms).tolist())
    return GlobalErrorSystem(E, Lambda_blocks, 0.5 * (P + P.transpose(0, 2, 1)), conds)


def error_system(model, g_net, design):
    """Balance the graph and build the error system of a design on it.

    Returns (balanced, GlobalErrorSystem). Raises `DimensionError` for a
    design whose r is not the graph's balancing (rtol 1e-9), whose gains
    do not fit the model, whose M_i is not symmetric positive definite or
    whose P_io contradicts M_i, so `verify_design` and `sim.integrate`
    reject the same designs.
    """
    balanced = balance(g_net)
    if design.r.shape != balanced.r.shape or not np.allclose(design.r, balanced.r, 1e-9, 0):
        raise DimensionError(f"design r = {design.r} does not balance the graph")
    for i, node in enumerate(design.nodes):
        _check_weighting(i, node)
    return balanced, build_global_error_matrix(model, balanced, design)


def _check_weighting(i, node):
    """Reject an M_i or P_io that is not SPD, and a P_io that contradicts M_i.

    M_i = T diag(inv(P_io), I) T.T with T orthogonal, so the eigenvalues of
    M_i are those of inv(P_io) together with n - v ones; they must agree
    to 1e-9 of the largest.
    """
    if not (numerics.is_symmetric(node.M) and numerics.is_symmetric(node.P_io)):
        raise DimensionError(f"node {i}: M or P_io is not symmetric")
    w, p = np.linalg.eigvalsh(node.M), np.linalg.eigvalsh(node.P_io)
    if w[0] <= 0 or np.any(p <= 0) or node.v > w.size:
        raise DimensionError(f"node {i}: M or P_io is not positive definite, or v exceeds n")
    mismatch = np.max(np.abs(w - np.sort(np.concatenate([1.0 / p, np.ones(w.size - node.v)]))))
    if mismatch > 1e-9 * w[-1]:
        raise DimensionError(f"node {i}: P_io contradicts M (eigenvalue mismatch {mismatch:.3e})")


class AbscissaCertificate(NamedTuple):
    passed: bool
    abscissa: float


def spectral_abscissa_certificate(E, alpha, tol=ABSCISSA_TOL):
    """Ground-truth decay check: max Re eig(E) <= -alpha + tol."""
    E = numerics.as_square(E, "E")
    abscissa = float(np.max(numerics.eigenvalues(E).real))
    return AbscissaCertificate(abscissa <= -alpha + tol, abscissa)


class LyapunovCertificate(NamedTuple):
    passed: bool
    margin: float
    condition_numbers: tuple


def lyapunov_certificate(model, balanced, design, alpha=None):
    """Quadratic-form certificate of decay rate alpha.

    Builds Z = P Lambda + Lambda.T P - gamma * kron(mirror, I_n) + 2*alpha*P
    with P the block diagonal of the inverted consensus weightings (see
    `certificate_matrix`), and tests it for negative definiteness. The
    per-node condition numbers of the weightings are reported so a
    near-singular inversion is visible.
    """
    if alpha is None:
        alpha = design.alpha
    err_sys = build_global_error_matrix(model, balanced, design)
    return _lyapunov_certificate(err_sys, balanced.mirror, design.gamma, alpha)


def _lyapunov_certificate(err_sys, mirror, gamma, alpha):
    verdict = numerics.is_negative_definite(
        certificate_matrix(err_sys, mirror, gamma, alpha)
    )
    return LyapunovCertificate(
        verdict.is_negative_definite, verdict.margin, err_sys.condition_numbers
    )


def certificate_matrix(err_sys, mirror, gamma, alpha):
    """The matrix Z of the Lyapunov certificate, assembled block by block.

    Z_ij = delta_ij (P_i Lambda_i + Lambda_i.T P_i + 2*alpha*P_i)
    - gamma * mirror_ij * I_n, with P_i and Lambda_i read from
    ``err_sys.P_blocks`` and ``err_sys.Lambda_blocks``. Only N products of
    n x n blocks are formed, never a product of nN x nN matrices.
    """
    n = err_sys.P_blocks.shape[1]
    Z = -gamma * np.kron(mirror, np.eye(n))
    for i, (P_i, Lambda_i) in enumerate(zip(err_sys.P_blocks, err_sys.Lambda_blocks)):
        blk = slice(i * n, (i + 1) * n)
        Z[blk, blk] += P_i @ Lambda_i + Lambda_i.T @ P_i + 2.0 * alpha * P_i
    return Z


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
    by both; the designs it rejects raise `DimensionError`.

    A true Lyapunov certificate implies exponential decay at the same
    rate, so (Lyapunov pass, abscissa fail) is impossible for correct
    arithmetic and raises `NumericalFailureError`. The opposite split is
    legitimate and reported as stable but uncertified.
    """
    if alpha is None:
        alpha = design.alpha
    balanced, err_sys = error_system(model, g_net, design)
    spect = spectral_abscissa_certificate(err_sys.E, alpha)
    lyap = _lyapunov_certificate(err_sys, balanced.mirror, design.gamma, alpha)

    if lyap.passed and not spect.passed:
        raise NumericalFailureError(
            "certificates disagree: Lyapunov margin "
            f"{lyap.margin:.3e} is negative but the spectral abscissa is "
            f"{spect.abscissa:.6g} > {-alpha:.6g}"
        )
    note = ""
    if spect.passed and not lyap.passed:
        note = f"stable but uncertified at rate {alpha:g}"
    return VerificationReport(
        abscissa=spect.abscissa,
        alpha=float(alpha),
        lyapunov_margin=lyap.margin,
        passed=spect.passed,
        lyapunov_passed=lyap.passed,
        condition_numbers=lyap.condition_numbers,
        note=note,
    )
