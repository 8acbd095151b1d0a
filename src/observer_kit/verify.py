"""Independent certification of an assembled design.

Two certificates are computed for the networked error dynamics. The
spectral abscissa of the global error matrix is the ground truth: the
design achieves decay rate alpha exactly when every eigenvalue sits left
of -alpha. The Lyapunov certificate is the constructive counterpart the
synthesis promises: a block-diagonal quadratic form whose derivative
along the error flow is provably below -2*alpha times itself. A design
can be stable yet uncertified at the requested rate (Lyapunov false,
abscissa pass); the reverse disagreement would mean one of the two
computations is wrong and is treated as a hard error.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import numerics
from .errors import DimensionError, NumericalFailureError
from .graph import balance

# Strict inequalities cannot be asserted at machine precision; the
# abscissa check passes up to this additive slack.
ABSCISSA_TOL = 1e-6


@dataclass(frozen=True)
class GlobalErrorSystem:
    """Stacked error dynamics e' = E e of the networked observer.

    E = Lambda - gamma * Mbar @ kron(R L, I_n) where Lambda is the block
    diagonal of the decoupled per-node error maps A - L_i H_i, Mbar the
    block diagonal of the consensus weightings and R the balancing of the
    graph Laplacian L. P is the block diagonal of the inverted weightings,
    the matrix of the certificate's quadratic form. All four are dense
    nN x nN arrays; E is assembled from its n x n blocks, so building the
    system costs O((nN)^2) plus N small inversions.
    """

    E: np.ndarray
    Lambda: np.ndarray
    Mbar: np.ndarray
    P: np.ndarray
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
    formed directly from the blocks instead of multiplying Mbar by
    kron(R L, I_n). The coupling term uses the balancing weights
    recomputed from the graph, which is what makes the result depend on
    the graph only through the product R L.
    """
    _check_compatible(model, design)
    if balanced.laplacian.shape[0] != design.node_count:
        raise DimensionError("graph size does not match the design")
    Lambda = scipy.linalg.block_diag(
        *[model.A - node.L @ H for node, H in zip(design.nodes, model.outputs)]
    )
    Ms = np.stack([node.M for node in design.nodes])
    Mbar = scipy.linalg.block_diag(*Ms)
    RL = balanced.R @ balanced.laplacian
    coupling = (RL[:, None, :, None] * Ms[:, :, None, :]).reshape(Lambda.shape)
    E = Lambda - design.gamma * coupling

    blocks, conds = [], []
    for node in design.nodes:
        conds.append(float(np.linalg.cond(node.M)))
        P_i = np.linalg.inv(node.M)
        blocks.append(0.5 * (P_i + P_i.T))
    P = scipy.linalg.block_diag(*blocks)
    return GlobalErrorSystem(
        E=E, Lambda=Lambda, Mbar=Mbar, P=P, condition_numbers=tuple(conds)
    )


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
    - gamma * mirror_ij * I_n, where P_i and Lambda_i are the diagonal
    blocks of ``err_sys.P`` and ``err_sys.Lambda``. Only N products of
    n x n blocks are formed, never a product of nN x nN matrices.
    """
    N = mirror.shape[0]
    n = err_sys.P.shape[0] // N
    Z = -gamma * np.kron(mirror, np.eye(n))
    for i in range(N):
        blk = slice(i * n, (i + 1) * n)
        P_i = err_sys.P[blk, blk]
        Lambda_i = err_sys.Lambda[blk, blk]
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

    The global error system is built once and shared by both. A design
    whose r is not the graph's balancing (rtol 1e-9) raises `DimensionError`.

    A true Lyapunov certificate implies exponential decay at the same
    rate, so (Lyapunov pass, abscissa fail) is impossible for correct
    arithmetic and raises `NumericalFailureError`. The opposite split is
    legitimate and reported as stable but uncertified.
    """
    if alpha is None:
        alpha = design.alpha
    balanced = balance(g_net)
    if design.r.shape != balanced.r.shape or not np.allclose(design.r, balanced.r, 1e-9, 0):
        raise DimensionError(f"design r = {design.r} does not balance the graph")
    err_sys = build_global_error_matrix(model, balanced, design)
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
