"""Dense linear-algebra kernels shared by the rest of the toolkit.

Thin, defensive wrappers around numpy dense routines: eigenvalues,
SVD-based rank and subspace bases, symmetry and definiteness tests, and
a small-scale Lyapunov solver (one LU solve of the Kronecker system for
equations of size up to 6, where that is the cheaper method, and a
scaled Newton iteration for the matrix sign function above it).
Everything here is a pure function sized for desk-scale
problems (a few dozen states), where exactness and clear failure modes
matter more than asymptotic speed. The symmetry, eigenvalue,
definiteness and Lyapunov routines take a square matrix or a (k, m, m)
stack of them; a stack costs one numpy call per step for all k
matrices, where a loop would cost k.

On the smallest designs (n and N of a few) each numpy call costs more
than its arithmetic, so each question is one function, which validates
its input, with one route: `eigenvalues` takes the general solver, with
no symmetry test, as its callers read real parts only; every rank
decision is `_rank_threshold`; `solve_lyapunov` returns the spectrum of
P that its definiteness check takes; `coordinate_groups` reads the
nonzero patterns of all its stacks in one pass and returns a fully
linked pattern as one group without any closure;
`orthonormal_row_space_basis` takes a stack whose every column is seen
as it is; the small Lyapunov equations take a direct solve, a few numpy
calls, where the sign iteration takes 2-5 steps of several calls each;
and `is_symmetric` compares squared norms, one einsum each, unless a
square overflows (entries above about 1e154), where it scales by the
largest entry, as does `_frobenius_norm` for the solver's half-plane
tolerance and residual bound. One question is still asked twice:
`eigenvalues(F)` and `is_symmetric(Q)` validate the F and Q that
`solve_lyapunov` has just validated. Stacks of equal-shape arrays are
built with np.array, one C call, where np.stack makes a Python-level
call per array.

Only numpy is used. Importing scipy.linalg would take about 0.3 s, about
half the start-up of a command-line call.
"""

import numpy as np

from .errors import DimensionError, NumericalFailureError, SingularEquationError

# Relative asymmetry below which a matrix is treated as symmetric.
SYMMETRY_RTOL = 1e-10

# Relative factor of every numerical-rank decision:
# sigma > sigma_max * (max(rows, cols) * RANK_RTOL) counts toward the rank.
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


def is_symmetric(M):
    """True when the relative asymmetry (Frobenius norms) of a square
    matrix is below ``SYMMETRY_RTOL``; for a (k, m, m) stack, a boolean
    array of one such verdict per matrix. A zero or empty matrix is
    symmetric. Norms are compared squared unless a square overflows
    (entries above about 1e154); then every matrix is compared scaled by
    its largest entry."""
    M = _as_squares(M)
    size = _frobenius_squared(M)
    if np.isinf(size).any():
        M = _unit_scaled(M)[1]
        size = _frobenius_squared(M)
    return _frobenius_squared(M - M.swapaxes(-1, -2)) <= SYMMETRY_RTOL**2 * size


def _frobenius_squared(M):
    """Squared Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.einsum("...ij,...ij->...", M, M)


def _unit_scaled(M):
    """(peak, M / peak) with peak the largest |entry| of the matrix, or of
    each matrix of a stack; a zero matrix keeps its zeros."""
    peak = np.abs(M).max(axis=(-2, -1), keepdims=True)
    return peak, M / np.where(peak > 0.0, peak, 1.0)


def _frobenius_norm(M):
    """Frobenius norm of a matrix, or of each matrix of a stack, without
    overflow: where a square overflows (entries above about 1e154),
    max|M| times the norm of M / max|M|."""
    squared = _frobenius_squared(M)
    if np.isinf(squared).any():
        peak, unit = _unit_scaled(M)
        return peak[..., 0, 0] * np.sqrt(_frobenius_squared(unit))
    return np.sqrt(squared)


def _as_squares(M, name="matrix"):
    """Coerce to a finite float square matrix or (k, m, m) stack of them."""
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"{name} must be square or a stack of squares, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise NumericalFailureError(f"{name} contains non-finite entries")
    return M


def eigenvalues(M):
    """Eigenvalues of a square matrix, or of each matrix of a (k, m, m)
    stack, with algebraic multiplicity, in no particular order: real where
    numpy finds every one real, complex otherwise. One general solver
    serves every input, with no symmetry test; the callers read real parts.
    """
    M = _as_squares(M)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigenvalue iteration failed on input of shape {M.shape}: {exc}"
        ) from exc


def svd(M):
    """Singular value decomposition M = U @ diag(s) @ Vt of an m x k matrix.

    Returns (U, s, Vt) with the min(m, k) singular values descending, U
    with orthonormal columns, one per singular value, and V square
    orthogonal: the rows of Vt past the singular values span ker M.
    """
    M = as_matrix(M)
    return _svd(M, full_matrices=M.shape[0] < M.shape[1])


def _svd(M, **options):
    """np.linalg.svd, raising `NumericalFailureError` where it fails."""
    try:
        return np.linalg.svd(M, **options)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed to converge: {exc}") from exc


def rank(M, size=None):
    """Numerical rank: the count of singular values above the threshold
    `_rank_threshold`, with size = max(rows, cols) unless given. A 2-d M
    gives an int; a (c, m, k) stack takes one SVD and gives one count per
    matrix, and size may hold one value per matrix, so that a matrix
    padded with zero rows keeps its own."""
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3):
        raise DimensionError(f"matrix must be 2-d or a stack of 2-d, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalFailureError("matrix contains non-finite entries")
    counts = np.zeros(M.shape[:-2], dtype=int)
    if M.size:
        s = _svd(M, compute_uv=False)
        size = max(M.shape[-2:]) if size is None else size
        counts = (s > _rank_threshold(s, size)[..., None]).sum(axis=-1)
    return int(counts) if M.ndim == 2 else counts


def _rank_threshold(s, size):
    """sigma_max * (size * RANK_RTOL) for descending singular values
    (..., r): scaled before sigma_max multiplies in, so the threshold of a
    finite sigma_max is finite."""
    return s[..., 0] * (size * RANK_RTOL)


def _is_positive_definite(M):
    """True when every matrix of a symmetric (..., m, m) stack has a
    Cholesky factor, the cheapest test of definiteness. numpy factors inf
    and nan entries without complaint, so a stack with one is False."""
    if not np.isfinite(M).all():
        return False
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


# Largest size m of a Lyapunov equation solved directly, as its
# m^2 x m^2 Kronecker system. That system costs m^4 memory and m^6 work
# against the sign iteration's few m^3 steps. Timed on stacks of 1, 3 and
# 10 Bass equations (2-core VM, one BLAS thread), the direct solve was the
# faster one at every m <= 6, by 1.4-9x; at m = 7 and 8 it still won on
# stacks of 1 and 3 but lost by 1.4-2.7x on stacks of 10.
_DIRECT_MAX = 6

# Cap on Newton steps for the matrix sign function. The iteration runs
# only on equations larger than _DIRECT_MAX, which no observable block of
# the benchmark battery (m <= 6) or ladder (m <= 5) is; with determinant
# scaling it takes 8 steps on the tests' spectra over six decades.
# The cap only stops a runaway loop.
_SIGN_MAX_STEPS = 50

# Relative change (Frobenius norm) of the sign iterate below which it has
# converged. Convergence is quadratic, so the step after a change of 1e-8
# is exact to rounding.
_SIGN_STEP_RTOL = 1e-8


def _sign_steps(G, lam):
    """Scaled Newton iteration G <- (G/c + c inv(G))/2 towards sign(G),
    on a (k, m, m) stack G at once.

    Returns the (c_k, inv(G_k)) pairs of every step, c_k a (k, 1, 1)
    array. The determinant scaling c_k = |det G_k|^(1/m) (Byers, 1987) is
    the geometric mean of |lam|, the (k, m) eigenvalues of G_k, which
    each step maps as it maps G. The stack steps until its last matrix
    has converged; a matrix that converged earlier sits at its sign,
    where a step with c = 1 changes it by rounding only.
    """
    m = G.shape[-1]
    steps = []
    for _ in range(_SIGN_MAX_STEPS):
        G_inv = np.linalg.inv(G)
        # the mean of log|lam|, summed and divided as ndarray.mean does
        c = np.exp(np.add.reduce(np.log(np.abs(lam)), axis=-1, keepdims=True) / m)
        c_mat = c[..., None]
        steps.append((c_mat, G_inv))
        G_next = (0.5 / c_mat) * G + (0.5 * c_mat) * G_inv
        change = _frobenius_squared(G_next - G)
        G = G_next
        if (change <= _SIGN_STEP_RTOL**2 * _frobenius_squared(G)).all():
            return steps
        lam = 0.5 * (lam / c + c / lam)
    raise NumericalFailureError(
        f"sign iteration did not converge in {_SIGN_MAX_STEPS} steps"
    )


def _sign_solve(steps, C):
    """Solutions X of G.T X + X G = -C for a Hurwitz (k, m, m) stack G,
    from G's sign steps.

    The sign of [[G, 0], [C, -G.T]] is [[-I, 0], [2X, I]] (Roberts, 1980);
    its lower-left block follows C <- (C/c + c inv(G).T C inv(G))/2.
    c multiplies inv(G).T before the products: inv(G).T C inv(G) is
    about C / c^2, which falls into subnormals once c passes about 1e154.
    """
    for c, G_inv in steps:
        C = 0.5 * (C / c + (c * G_inv.swapaxes(-1, -2)) @ C @ G_inv)
    return 0.25 * (C + C.swapaxes(-1, -2))


def _kronecker_solve(F, Q):
    """Solutions P of F.T P + P F = -Q for a (k, m, m) stack F and a
    symmetric stack Q, from the m^2 x m^2 Kronecker systems
    (I x F.T + F.T x I) vec P = -vec Q, one stacked LU solve."""
    k, m = F.shape[:2]
    Ft = F.swapaxes(-1, -2)
    eye = np.eye(m)
    # entry (a, i), (b, j) of the system: delta_ab F.T[i, j] + F.T[a, b] delta_ij
    K = eye[None, :, None, :, None] * Ft[:, None, :, None, :]
    K = K + Ft[:, :, None, :, None] * eye[None, None, :, None, :]
    # row a m + i of vec Q is Q[i, a], which is Q[a, i] for symmetric Q
    X = np.linalg.solve(K.reshape(k, m * m, m * m), -Q.reshape(k, m * m, 1))
    X = X.reshape(k, m, m)
    return 0.5 * (X + X.swapaxes(-1, -2))


def solve_lyapunov(F, Q):
    """Solve F.T @ P + P @ F = -Q for symmetric P, or each equation of a
    stack of them.

    Method, by the size m of the equations: up to ``_DIRECT_MAX``, one
    LU solve of the m^2 x m^2 Kronecker system
    (I x F.T + F.T x I) vec P = -vec Q, where a handful of numpy calls
    cost less than any iteration. Above it, the Newton iteration for the
    matrix sign function of G = +-F, whichever sign makes G Hurwitz
    (Roberts, Int. J. Control 32(4), 1980), with determinant scaling
    (Byers, Linear Algebra Appl. 85, 1987); the same steps then solve
    the equation again for the residual, one step of iterative
    refinement. A stack takes one stacked solve, or runs one iteration,
    for all its equations; every check below applies on both paths, to
    each equation on its own.

    Parameters
    ----------
    F : (m, m) array or (k, m, m) stack
        Coefficient matrices, each with its spectrum in one open
        half-plane: every eigenvalue has negative real part, or every one
        has positive real part. Otherwise (including an eigenvalue on or
        near the imaginary axis) `SingularEquationError` is raised.
    Q : array of F's shape
        Symmetric right-hand sides.

    Returns
    -------
    P : array of F's shape, symmetric. Each Frobenius residual must
        satisfy ``norm(F.T P + P F + Q) <= 1e-8 * max(1, norm(Q))``, or
        `NumericalFailureError` is raised. Where F is Hurwitz and Q is
        positive definite, or -F is Hurwitz and Q is negative definite, P
        is verified positive definite before returning.
    w : the ascending eigenvalues of each P, which that check takes.
    """
    F = _as_squares(F, "F")
    Q = _as_squares(Q, "Q")
    if F.shape != Q.shape:
        raise DimensionError(f"F and Q shapes differ: {F.shape} vs {Q.shape}")
    if F.size == 0:
        return np.zeros(F.shape), np.zeros(F.shape[:-1])
    if not is_symmetric(Q).all():
        raise DimensionError("Q must be symmetric")
    shape = F.shape
    F = F.reshape(-1, *shape[-2:])
    Q = Q.reshape(F.shape)
    Q = 0.5 * (Q + Q.swapaxes(-1, -2))

    # 2 Re(lam) is the sum of lam and its conjugate; max(1, norm) so that
    # F = 0 is rejected too
    lam = eigenvalues(F)
    tol = 1e-9 * np.maximum(1.0, _frobenius_norm(F))[:, None]
    hurwitz = (2.0 * lam.real < -tol).all(axis=-1)
    if not (hurwitz | (2.0 * lam.real > tol).all(axis=-1)).all():
        raise SingularEquationError(
            "Lyapunov equation is outside the solver's contract: the spectrum "
            "of F is not in one open half-plane (an eigenvalue on or near the "
            "imaginary axis, or eigenvalues on both sides of it)"
        )

    # G = sign*F is Hurwitz and G.T P + P G = -sign*Q
    sign = np.where(hurwitz, 1.0, -1.0)[:, None, None]
    try:
        if shape[-1] <= _DIRECT_MAX:
            P = _kronecker_solve(F, Q)
        else:
            steps = _sign_steps(sign * F, sign[:, 0] * lam)
            P = _sign_solve(steps, sign * Q)
            # one step of iterative refinement; cheap at this scale and
            # shaves an order of magnitude off the residual of hard problems
            P = P + _sign_solve(steps, sign * (F.swapaxes(-1, -2) @ P + P @ F + Q))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Lyapunov solve failed: {exc}") from exc

    residual = _frobenius_norm(F.swapaxes(-1, -2) @ P + P @ F + Q)
    inaccurate = ~(residual <= 1e-8 * np.maximum(1.0, _frobenius_norm(Q)))
    if inaccurate.any():
        raise NumericalFailureError(
            f"Lyapunov residual {residual[inaccurate][0]:.3e} exceeds tolerance"
        )

    # one stacked call for the spectra of sign*Q and of P
    w_Q, w = np.linalg.eigvalsh(np.array([sign * Q, P]))
    if ((w_Q[:, 0] > 0) & (w[:, 0] <= 0)).any():
        raise NumericalFailureError(
            "Lyapunov solution lost positive definiteness despite a definite "
            "right-hand side"
        )
    return P.reshape(shape), w.reshape(shape[:-1])


def orthonormal_row_space_basis(M):
    """Orthonormal bases for the row space and the kernel of each matrix of
    a (c, m, n) stack.

    Returns (V, r, thresh). V is a (c, n, n) stack of orthogonal matrices:
    the first r[j] columns of V[j] span im M[j].T and the others span
    ker M[j]. r[j] counts the singular values of M[j] above the rank
    threshold thresh[j] = sigma_max * (max(m, n) * RANK_RTOL), so a kernel
    column's residual ||M[j] V[j][:, k]|| is about a singular value below
    thresh[j]. A coordinate whose column of M[j] is exactly zero lies in
    the kernel: it becomes a unit column at the end of V[j], and the SVD
    is taken of the other columns only, so no basis vector mixes it with
    the coordinates M[j] sees. Without such columns V[j] is the right
    singular basis of M[j] itself. The matrices that see the same number
    of columns take one stacked SVD; when every matrix sees every
    coordinate, that is one SVD of the stack as it is, unpermuted.
    """
    c, m, n = M.shape
    seen = M.any(axis=1)
    if seen.all():
        return _right_singular_bases(M, max(m, n))
    counts = seen.sum(axis=1)
    # per matrix: its seen coordinates ascending, then the unseen ones
    order = np.argsort(~seen, axis=1, kind="stable")
    stack = np.arange(c)[:, None]
    M = M[stack[:, :, None], np.arange(m)[:, None], order[:, None, :]]
    # in that order, V[j] = blockdiag(right singular basis, I)
    V = np.repeat(np.eye(n)[None], c, axis=0)
    r = np.zeros(c, dtype=int)
    thresh = np.zeros(c)
    for k in sorted(set(counts.tolist()) - {0}):
        sel = np.flatnonzero(counts == k)
        V[sel, :k, :k], r[sel], thresh[sel] = _right_singular_bases(M[sel, :, :k], max(m, n))
    # back to plant coordinate order
    V[stack, order] = V.copy()
    return V, r, thresh


def _right_singular_bases(M, size):
    """(V, r, thresh) of a (c, m, k) stack: V[j] the k x k right singular
    basis of M[j], r[j] the count of its singular values above
    thresh[j] = sigma_max * (size * RANK_RTOL)."""
    _, s, Vt = _svd(M, full_matrices=M.shape[1] < M.shape[2])
    thresh = _rank_threshold(s, size)
    return Vt.swapaxes(-1, -2).copy(), (s > thresh[:, None]).sum(axis=1), thresh


def coordinate_groups(*stacks):
    """Coordinates 0..n-1 split into the groups that the (N, n, n) stacks
    never couple.

    Coordinates j and k are linked when some matrix of some stack has a
    nonzero entry at (j, k) or (k, j); the groups are the connected
    components of that relation, read off its `_reachability`. When every
    pair is linked, as on a dense plant, that is the single group, and no
    closure is taken. After one permutation of its rows and columns every
    matrix of the stacks is block diagonal, one block per group, exactly.

    Returns one (k, m) integer array per group size m, ascending in m,
    whose k rows are the groups of that size, each in ascending order. A
    single group comes back as [arange(n)[None]].
    """
    n = stacks[0].shape[-1]
    links = np.concatenate(stacks).any(axis=0)
    links = links | links.T
    if links.all():
        return [np.arange(n)[None]]
    reach = _reachability(links)
    # one row per group: the row of its first coordinate
    members = reach[reach.argmax(axis=1) == np.arange(n)]
    sizes = members.sum(axis=1)
    return [np.nonzero(members[sizes == m])[1].reshape(-1, m) for m in sorted(set(sizes.tolist()))]


def _reachability(links):
    """Reflexive transitive closure of the relation of a boolean square
    matrix: entry (j, k) is True when a chain of links leads from j to k.

    The boolean matrix is squared, self pairs included, until its count
    of True entries stops growing; each squaring doubles the longest chain
    covered, so at most (n - 1).bit_length() + 1 squarings are made.
    """
    reach = links | np.eye(links.shape[0], dtype=bool)
    # reach @ reach holds reach, so an equal count means no new pair
    while np.count_nonzero(wider := reach @ reach) > np.count_nonzero(reach):
        reach = wider
    return reach


def restrict(stack, idx):
    """Each matrix of the (N, n, n) stack restricted to each group, a row
    of the (k, m) array idx, as an (N, k, m, m) array. A single group is a
    view of the whole stack."""
    if idx.shape[1] == stack.shape[-1]:
        return stack[:, None]
    return stack[:, idx[:, :, None], idx[:, None, :]]


def coupled_blocks(diagonal, W, C, scale):
    """Stack of k block matrices of N x N blocks of size m: block (i, j)
    of matrix c is delta_ij diagonal[i, c] - scale * W_ij C[i, c].

    diagonal is (N, k, m, m), W is N x N and C broadcasts to
    (N, k, m, m). Returns a (k, Nm, Nm) array.

    The diagonal blocks are placed first and the coupling subtracted
    after: the other order flips the sign of the zero entries, and eig's
    Householder steps follow that sign into the last digits.
    """
    N, k, m = diagonal.shape[:3]
    out = np.zeros((k, N, m, N, m))
    nodes = np.arange(N)
    out[:, nodes, :, nodes, :] = diagonal
    out -= scale * (W[:, None, :, None] * np.swapaxes(C, 0, 1)[:, :, :, None, :])
    return out.reshape(k, N * m, N * m)
