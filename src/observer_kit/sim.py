"""Time-domain simulation of the plant coupled with its observer network.

Fixed-step classical Runge-Kutta keeps runs bit-reproducible for a given
configuration and seed, and makes the comparison against the
matrix-exponential closed form of the linear error system clean. Ideal
continuous communication links are assumed throughout; there is no
measurement noise, packet loss or sampling.

The run steps the plant state x together with the estimation error
e = xhat - 1 (x) x rather than the estimates themselves, so e keeps its
digits while x grows. Its field is blockdiag(A, E), E the error matrix
`verify` certifies, from the same `verify.error_system`; `rhs` states the
observer equations behind E. The dynamics are linear, so one RK4 step is
one fixed step matrix P, and blocks of `_BLOCK` consecutive states
advance together through a single product with P**_BLOCK. Replacing P
with the exact propagator expm(dt M) would turn the same loop into an
exact simulation.
"""

import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import numerics
from .errors import DimensionError, DivergenceError, InsufficientDataError
from .verify import error_system

logger = logging.getLogger(__name__)

# States advanced per matrix-matrix product once the first block is filled.
_BLOCK = 64


@dataclass
class SimulationConfig:
    """Run length, step size, initial conditions and fit window.

    Initial conditions left as None are drawn uniformly from [-1, 1] per
    coordinate with the seeded generator, so runs are reproducible while
    still exercising arbitrary initial errors. The decay-rate fit window
    defaults to [0.2, 0.9] * t_final, skipping the initial transient.
    """

    t_final: float
    dt: float = 1e-3
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    seed: int = 0
    record_stride: int = 1
    fit_window: tuple | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 10 * self.dt:
            raise ValueError("t_final must cover at least 10 steps")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not (0 <= lo < hi <= self.t_final):
                raise ValueError(
                    f"fit_window {self.fit_window} must lie inside [0, {self.t_final}]"
                )

    def resolved_fit_window(self):
        if self.fit_window is not None:
            return tuple(self.fit_window)
        return (0.2 * self.t_final, 0.9 * self.t_final)


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded samples of one run.

    e_norms[k, i] is the estimation error norm of node i at times[k];
    e_global stacks all nodes. fitted_rate is the negated least-squares
    slope of log ||e|| over the fit window, or None when the error was
    identically (numerically) zero there.
    """

    times: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    e_norms: np.ndarray
    e_global: np.ndarray
    fitted_rate: float | None


def rhs(state, model, g_net, design):
    """Vector field of the stacked plant + observers state.

    The layout is (x, xhat_1, ..., xhat_N). Each observer runs a copy of
    the plant corrected by output injection on its own measurement and by
    the weighted disagreement with its in-neighbors' estimates. ``state``
    is one state of shape (dim,) or a batch of m states as the columns of
    a (dim, m) array, with dim = n (N + 1); the result has the same shape.
    """
    n = model.n
    N = model.node_count
    dim = n * (N + 1)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise DimensionError(
            f"state must have shape ({dim},) or ({dim}, m), got {state.shape}"
        )
    A = model.A
    adjacency = g_net.adjacency
    degree = adjacency.sum(axis=1)
    x = state[:n]
    xhat = state[n:].reshape(N, n, *state.shape[1:])
    # node estimates as rows, batch columns flattened into each row
    xhat_rows = state[n:].reshape(N, -1)
    out = np.empty_like(state)
    out[:n] = A @ x
    for i in range(N):
        H = model.outputs[i]
        node = design.nodes[i]
        innovation = node.L @ (H @ (x - xhat[i]))
        neighbors = (adjacency[i] @ xhat_rows).reshape(xhat[i].shape)
        disagreement = neighbors - degree[i] * xhat[i]
        out[n * (i + 1) : n * (i + 2)] = (
            A @ xhat[i]
            + innovation
            + design.gamma * design.r[i] * (node.M @ disagreement)
        )
    return out


def integrate(config, model, g_net, design):
    """Fixed-step classical 4th-order Runge-Kutta run of the coupled dynamics.

    The run steps y = (x, e), the plant state and the stacked estimation
    error e = xhat - 1 (x) x, so e keeps its digits while x grows; the
    recorded estimates are xhat = x + e. In these coordinates the field is
    blockdiag(A, E), with E the error matrix of `verify.error_system`, so
    a design `verify` rejects is rejected here with the same error; one
    RK4 step is the fixed matrix P of `_rk4_step_matrix`.
    The first `_BLOCK` states are stepped one at a time; each later block
    of `_BLOCK` states is P**_BLOCK times the previous block, one
    matrix-matrix product. A block with a non-finite entry is redone one
    step at a time from the last finite state.

    Deterministic for fixed inputs and seed. Divergence aborts with
    `DivergenceError` naming the first step whose x or e is non-finite;
    that is the expected outcome when simulating an invalid design.
    """
    n = model.n
    N = model.node_count
    rng = np.random.default_rng(config.seed)
    x0 = config.x0 if config.x0 is not None else rng.uniform(-1.0, 1.0, n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionError(f"x0 must have length {n}")
    if config.xhat0 is not None:
        xhat0 = np.asarray(config.xhat0, dtype=float)
        if xhat0.shape != (N, n):
            raise DimensionError(f"xhat0 must have shape ({N}, {n})")
    else:
        xhat0 = rng.uniform(-1.0, 1.0, (N, n))

    E = error_system(model, g_net, design)[1].E
    step_scale = config.dt * numerics.spectral_norm(E)
    if step_scale > 0.5:
        warnings.warn(
            f"dt * ||E|| = {step_scale:.3g} > 0.5; the fixed step may be too "
            "coarse for this error system",
            stacklevel=2,
        )

    dt = config.dt
    steps = int(round(config.t_final / dt))
    rec_steps = np.arange(0, steps + 1, config.record_stride)
    if rec_steps[-1] != steps:
        rec_steps = np.append(rec_steps, steps)

    M = scipy.linalg.block_diag(model.A, E)
    y0 = np.concatenate([x0, (xhat0 - x0).ravel()])
    ys = _propagate(_rk4_step_matrix(M, dt), y0, rec_steps, dt)

    xs = ys[:, :n].copy()  # a view would keep all of ys alive in the trace
    errors = ys[:, n:].reshape(len(rec_steps), N, n)
    trace = SimulationTrace(
        times=rec_steps * dt,
        x=xs,
        xhat=xs[:, None, :] + errors,
        e_norms=np.linalg.norm(errors, axis=2),
        e_global=np.linalg.norm(ys[:, n:], axis=1),
        fitted_rate=None,
    )
    try:
        rate = estimate_decay_rate(trace, config.resolved_fit_window())
    except InsufficientDataError as exc:
        logger.warning("decay-rate fit skipped: %s", exc)
        rate = None
    return replace(trace, fitted_rate=rate)


def _rk4_step_matrix(M, h):
    """P with y_{k+1} = P y_k for one classical RK4 step of y' = M y.

    P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, in Horner form.
    """
    hM = h * M
    eye = np.eye(M.shape[0])
    P = eye + hM / 4.0
    for divisor in (3.0, 2.0, 1.0):
        P = eye + (hM @ P) / divisor
    return P


def _propagate(P, y0, rec_steps, dt):
    """States y_k = P^k y0 at the ascending steps rec_steps, one per row."""
    steps = int(rec_steps[-1])
    out = np.empty((len(rec_steps), y0.size))
    width = min(_BLOCK, steps + 1)
    jump = None
    start = 0  # step of the first column of block
    # overflow is detected explicitly; keep numpy quiet on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        block = np.column_stack([y0, _step_one_at_a_time(P, y0, 1, width - 1, dt)])
        while True:
            lo, hi = np.searchsorted(rec_steps, [start, start + width])
            out[lo:hi] = block[:, rec_steps[lo:hi] - start].T
            start += width
            if start > steps:
                return out
            if jump is None:
                jump = np.linalg.matrix_power(P, width)
            cols = min(width, steps + 1 - start)
            following = jump @ block[:, :cols]
            if not np.isfinite(following).all():
                following = _step_one_at_a_time(P, block[:, -1], start, cols, dt)
            block = following


def _step_one_at_a_time(P, y, start, count, dt):
    """States start, ..., start + count - 1 as columns, stepped one at a
    time from y, the state at step start - 1.

    Raises `DivergenceError` at the first step with a non-finite entry.
    """
    block = np.empty((y.size, count))
    for col in range(count):
        y = P @ y
        if not np.isfinite(y).all():
            k = start + col
            raise DivergenceError(
                f"state became non-finite at step {k} (t = {k * dt:.6g})",
                step=k,
                time=k * dt,
            )
        block[:, col] = y
    return block


def estimate_decay_rate(trace, fit_window):
    """Exponential decay rate fitted to the global error norm.

    Least-squares slope of log ||e(t)|| against t over the window, negated.
    Samples from the first nonpositive error norm onward are dropped (the
    norm must stay positive for the log), with a warning; fewer than 10
    usable samples raise `InsufficientDataError`.
    """
    lo, hi = fit_window
    mask = (trace.times >= lo) & (trace.times <= hi)
    t = trace.times[mask]
    e = trace.e_global[mask]
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        warnings.warn(
            f"error norm hit zero inside the fit window at t = {t[bad[0]]:.6g}; "
            "shrinking the window to the positive samples before it",
            stacklevel=2,
        )
        t, e = t[: bad[0]], e[: bad[0]]
    if t.size < 10:
        raise InsufficientDataError(
            f"only {t.size} usable samples in fit window [{lo:g}, {hi:g}]"
        )
    slope = np.polyfit(t, np.log(e), 1)[0]
    return float(-slope)


def write_csv(trace, stream, include_states=False):
    """Write a trace as CSV with 17-significant-digit floats.

    Columns: t, the global error norm, one error norm per node and, when
    include_states is set, the plant state and every observer state.
    """
    N = trace.e_norms.shape[1]
    n = trace.x.shape[1]
    header = ["t", "e_global"] + [f"e_{i + 1}" for i in range(N)]
    if include_states:
        header += [f"x_{j + 1}" for j in range(n)]
        header += [f"xhat_{i + 1}_{j + 1}" for i in range(N) for j in range(n)]
    stream.write(",".join(header) + "\n")
    columns = [trace.times, trace.e_global, trace.e_norms]
    if include_states:
        columns += [trace.x, trace.xhat.reshape(trace.times.size, N * n)]
    table = np.column_stack(columns)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(row_format * table.shape[0] % tuple(table.ravel().tolist()))
