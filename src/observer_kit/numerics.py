"""Dense linear-algebra kernels shared by the rest of the toolkit.

Thin, defensive wrappers around numpy/scipy dense routines: eigenvalues,
SVD-based rank and subspace bases, definiteness tests and a small-scale
Lyapunov solver. Everything here is a pure function sized for desk-scale
problems (a few dozen states), where exactness and clear failure modes
matter more than asymptotic speed.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalFailureError, SingularEquationError

# Relative asymmetry below which a matrix is treated as symmetric.
SYMMETRY_RTOL = 1e-10

# Default relative factor for numerical-rank decisions:
# sigma > sigma_max * max(rows, cols) * RANK_RTOL counts toward the rank.
RANK_RTOL = 1e-10


def as_matrix(M, name="matrix"):
    """Coerce to a finite 2-d float array, raising on bad shape or NaN/Inf."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise NumericalFailureError(f"{name} contains non-finite entries")
    return M


def as_square(M, name="matrix"):
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def is_symmetric(M, rtol=SYMMETRY_RTOL):
    """True when the relative asymmetry of a square matrix is below rtol."""
    M = as_square(M)
    if M.size == 0:
        return True
    scale = np.linalg.norm(M, "fro")
    if scale == 0.0:
        return True
    return np.linalg.norm(M - M.T, "fro") <= rtol * scale


def eigenvalues(M):
    """Eigenvalues of a square matrix, with algebraic multiplicity.

    Symmetric input (relative asymmetry below ``SYMMETRY_RTOL``) is routed
    to the symmetric solver and yields a real array in ascending order.
    General input yields a complex array in no particular order.
    """
    M = as_square(M)
    if M.size == 0:
        return np.zeros(0)
    try:
        if is_symmetric(M):
            return np.linalg.eigvalsh(0.5 * (M + M.T))
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigenvalue iteration failed on {M.shape[0]}x{M.shape[1]} input: {exc}"
        ) from exc


def svd(M):
    """Full singular value decomposition M = U @ diag(s) @ Vt.

    Returns (U, s, Vt) with singular values descending and U, V orthogonal.
    """
    M = as_matrix(M)
    try:
        return np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed to converge: {exc}") from exc


def rank(M, rtol=RANK_RTOL):
    """Numerical rank: count of singular values above the relative threshold."""
    M = as_matrix(M)
    if M.size == 0:
        return 0
    s = svd(M)[1]
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * max(M.shape) * rtol))


def spectral_norm(M):
    """2-norm of a matrix, as the square root of the largest eigenvalue of M.T M.

    Only that one eigenvalue is computed, which is much cheaper than the
    full SVD behind ``np.linalg.norm(M, 2)``.
    """
    M = as_matrix(M)
    if M.size == 0:
        return 0.0
    gram = M.T @ M
    top = scipy.linalg.eigvalsh(gram, subset_by_index=[gram.shape[0] - 1] * 2)
    return float(np.sqrt(max(top[0], 0.0)))


class Definiteness(NamedTuple):
    """Verdict of a negative-definiteness test plus its eigenvalue margin."""

    is_negative_definite: bool
    margin: float  # largest eigenvalue of the symmetrized input


def is_negative_definite(M):
    """Test whether the symmetric part of M is negative definite.

    The input is symmetrized as (M + M.T)/2 before testing, which removes
    spurious asymmetry from accumulated rounding. Returns a `Definiteness`
    with the verdict and the largest eigenvalue as certificate margin.
    """
    M = as_square(M)
    if M.size == 0:
        return Definiteness(True, -np.inf)
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    margin = float(w[-1])
    return Definiteness(margin < 0.0, margin)


def solve_lyapunov(F, Q, residual_rtol=1e-8):
    """Solve F.T @ P + P @ F = -Q for symmetric P.

    Parameters
    ----------
    F : (m, m) array
        Coefficient matrix. No two eigenvalues of F may sum to zero,
        otherwise the equation is singular and `SingularEquationError`
        is raised.
    Q : (m, m) array
        Symmetric right-hand side.
    residual_rtol : float
        Acceptance bound: the Frobenius residual must satisfy
        ``norm(F.T P + P F + Q) <= residual_rtol * max(1, norm(Q))``.

    Returns
    -------
    P : (m, m) array, symmetric. When F is Hurwitz and Q is positive
        definite, P is verified positive definite before returning.
    """
    F = as_square(F, "F")
    Q = as_square(Q, "Q")
    if F.shape != Q.shape:
        raise DimensionError(f"F and Q shapes differ: {F.shape} vs {Q.shape}")
    if F.size == 0:
        return np.zeros((0, 0))
    if not is_symmetric(Q):
        raise DimensionError("Q must be symmetric")
    Q = 0.5 * (Q + Q.T)

    lam = eigenvalues(F)
    sums = np.abs(lam[:, None] + lam[None, :])
    # max(1, norm) so that F = 0 (resonant by lam_i + lam_j = 0) is rejected too
    if np.min(sums) < 1e-9 * max(1.0, np.linalg.norm(F, "fro")):
        raise SingularEquationError(
            "Lyapunov equation is singular: two eigenvalues of F sum to (near) zero"
        )

    try:
        P = scipy.linalg.solve_continuous_lyapunov(F.T, -Q)
        P = 0.5 * (P + P.T)
        # one step of iterative refinement; cheap at this scale and shaves
        # an order of magnitude off the residual of hard problems
        correction = scipy.linalg.solve_continuous_lyapunov(
            F.T, -(F.T @ P + P @ F + Q)
        )
        P = P + 0.5 * (correction + correction.T)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"Lyapunov solve failed: {exc}") from exc

    residual = np.linalg.norm(F.T @ P + P @ F + Q, "fro")
    if residual > residual_rtol * max(1.0, np.linalg.norm(Q, "fro")):
        raise NumericalFailureError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance"
        )

    lam_real = lam.real if np.iscomplexobj(lam) else lam
    if np.max(lam_real) < 0 and np.linalg.eigvalsh(Q)[0] > 0:
        if np.linalg.eigvalsh(P)[0] <= 0:
            raise NumericalFailureError(
                "Lyapunov solution lost positive definiteness despite Hurwitz F"
            )
    return P


def orthonormal_row_space_basis(M, rtol=RANK_RTOL):
    """Orthonormal bases for the row space of M and for its kernel.

    Returns (B1, B2) where the columns of B1 span im M.T, the columns of
    B2 span ker M, and [B1 B2] is square orthogonal. B1 has rank(M)
    columns; either block may be empty.
    """
    M = as_matrix(M)
    U, s, Vt = svd(M)
    if s.size == 0 or s[0] == 0.0:
        r, thresh = 0, 0.0
    else:
        thresh = s[0] * max(M.shape) * rtol
        r = int(np.sum(s > thresh))
    V = Vt.T
    B1, B2 = V[:, :r], V[:, r:]
    if B2.size:
        kernel_residual = np.linalg.norm(M @ B2, "fro")
        if kernel_residual > max(10.0 * thresh, 1e-12):
            raise NumericalFailureError(
                f"kernel basis residual {kernel_residual:.3e} above tolerance"
            )
    return B1, B2
