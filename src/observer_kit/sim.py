"""Time-domain simulation of the plant coupled with its observer network.

Fixed-step classical Runge-Kutta keeps runs bit-reproducible for a given
configuration and seed, and makes the comparison against the
matrix-exponential closed form of the linear error system clean. Ideal
continuous communication links are assumed throughout; there is no
measurement noise, packet loss or sampling.
"""

import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DivergenceError, InsufficientDataError
from .graph import balance
from .verify import build_global_error_matrix

logger = logging.getLogger(__name__)


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


def closed_loop_matrix(model, g_net, design):
    """Matrix F with rhs(z) = F z, found by applying rhs once to the identity."""
    dim = model.n * (model.node_count + 1)
    return rhs(np.eye(dim), model, g_net, design)


def integrate(config, model, g_net, design):
    """Fixed-step 4th-order Runge-Kutta run of the coupled dynamics.

    Deterministic for fixed inputs and seed. Divergence (any non-finite
    state) aborts with the first bad step; that is the expected outcome
    when simulating an invalid design.
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

    F = closed_loop_matrix(model, g_net, design)
    err_sys = build_global_error_matrix(model, balance(g_net), design)
    step_scale = config.dt * np.linalg.norm(err_sys.E, 2)
    if step_scale > 0.5:
        warnings.warn(
            f"dt * ||E|| = {step_scale:.3g} > 0.5; the fixed step may be too "
            "coarse for this error system",
            stacklevel=2,
        )

    dt = config.dt
    steps = int(round(config.t_final / dt))
    z = np.concatenate([x0, xhat0.ravel()])

    rec_steps = list(range(0, steps + 1, config.record_stride))
    if rec_steps[-1] != steps:
        rec_steps.append(steps)
    rec_set = set(rec_steps)

    times = np.empty(len(rec_steps))
    xs = np.empty((len(rec_steps), n))
    xhats = np.empty((len(rec_steps), N, n))
    cursor = 0

    def record(k):
        nonlocal cursor
        times[cursor] = k * dt
        xs[cursor] = z[:n]
        xhats[cursor] = z[n:].reshape(N, n)
        cursor += 1

    record(0)
    # overflow is detected explicitly below; keep numpy quiet on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = F @ z
            k2 = F @ (z + 0.5 * dt * k1)
            k3 = F @ (z + 0.5 * dt * k2)
            k4 = F @ (z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise DivergenceError(
                    f"state became non-finite at step {k} (t = {k * dt:.6g})",
                    step=k,
                    time=k * dt,
                )
            if k in rec_set:
                record(k)

    errors = xhats - xs[:, None, :]
    e_norms = np.linalg.norm(errors, axis=2)
    e_global = np.linalg.norm(errors.reshape(len(rec_steps), -1), axis=1)

    trace = SimulationTrace(
        times=times, x=xs, xhat=xhats, e_norms=e_norms, e_global=e_global,
        fitted_rate=None,
    )
    try:
        rate = estimate_decay_rate(trace, config.resolved_fit_window())
    except InsufficientDataError as exc:
        logger.warning("decay-rate fit skipped: %s", exc)
        rate = None
    return replace(trace, fitted_rate=rate)


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
