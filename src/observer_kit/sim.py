"""Time-domain simulation of the plant coupled with its observer network.

The dynamics are linear, so each fixed step is exact: the state advances
by the matrix exponential of dt times the field, whatever dt is, and runs
are bit-reproducible for a given configuration and seed. Ideal continuous
communication links are assumed throughout; there is no measurement
noise, packet loss or sampling.

Each observer runs a copy of the plant corrected by output injection on
its own measurement and by the weighted disagreement with its
in-neighbors' estimates. The run steps the estimation error
e = xhat - 1 (x) x alone. Its field is E, the error matrix `verify`
certifies, from the same `verify.error_system`, and it never reads the
plant state x. e advances one coordinate group of the error system at a
time, by exp(dt E_g), E_g the group's block of E, `_BLOCK` consecutive
states per matrix-matrix product. A dense plant is a single group,
stepped by exp(dt E). Norms whose squares pass the largest float are
taken of the block scaled by its largest entry, so a norm reads inf only
when it passes the largest float itself.

The error is held in panels: one contiguous (k, rows, N |g|) array per
group size of the error system, group-major, so each jump of `_BLOCK`
steps is one batched product per group size on contiguous memory. The
node error norms, the finiteness test and the recording are taken once
per span, as many consecutive blocks as fit in `_SPAN_BYTES`, while the
span is in cache. The plant state x, by exp(dt A), and the full states
(x, e) are stepped only when a caller reads them from the trace, once,
by a replay of the same run with x as one more panel. The run and the
replay share one loop, `_run`, which keeps the node norms of each span
in the one and the span gathered back into coordinate order in the
other.

`write_csv` writes a trace as CPython's %.17g text, formatted with numpy
a chunk of values at a time on one worker per usable CPU; the workers
release the interpreter lock in numpy's loops and run side by side.
"""

import logging
import math
import numbers
import os
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial

import numpy as np

from .errors import DimensionError, DivergenceError, InsufficientDataError
from .verify import error_system

logger = logging.getLogger(__name__)

# States advanced per matrix-matrix product once the first block is filled.
_BLOCK = 64
# Bytes of state in a span, the consecutive blocks whose node norms,
# finiteness test and recording are taken at once while they are in
# cache: at least one block, and as many more as fit.
_SPAN_BYTES = 1 << 19


@dataclass
class SimulationConfig:
    """Run length, step size, initial conditions and fit window.

    Initial conditions left as None are drawn uniformly from [-1, 1] per
    coordinate with the seeded generator, so runs are reproducible while
    still exercising arbitrary initial errors; given ones must be finite.
    The decay-rate fit window defaults to [0.2, 0.9] * t_final, skipping
    the initial transient.
    """

    t_final: float
    dt: float = 1e-3
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    seed: int = 0
    record_stride: int = 1
    fit_window: tuple | None = None

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 10 * self.dt <= self.t_final < math.inf:
            raise ValueError(
                f"t_final must be finite and cover at least 10 steps, got {self.t_final}"
            )
        # the run indexes its round(t_final / dt) + 1 steps with numpy
        if not self.t_final / self.dt < np.iinfo(np.intp).max:
            raise ValueError(
                f"t_final / dt = {self.t_final / self.dt:.3g} steps is more than "
                f"numpy can index"
            )
        for name in ("x0", "xhat0"):
            state = getattr(self, name)
            if state is not None and not np.all(np.isfinite(np.asarray(state, dtype=float))):
                raise ValueError(f"{name} must be finite")
        for name, least in (("seed", 0), ("record_stride", 1)):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not integral or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
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

    e_norms[k, i] is the norm of node i's estimation error at times[k];
    e_global stacks all nodes. fitted_rate is the negated least-squares
    slope of log ||e|| over the fit window, or None when the error was
    identically (numerically) zero there.

    states[k] is the state (x, e) at times[k]: the plant state followed
    by the stacked estimation errors e = xhat - 1 (x) x. It is made by
    the zero-argument callable replay on the first read of states, x, e
    or xhat, kept read-only, and not made at all when none is read. The
    plant state x[k], the node errors e[k, i] and the estimates
    xhat[k, i] = x[k] + e[k, i] are read from it. A replay that raises,
    such as `DivergenceError` for a plant that overflows, raises on every
    read and leaves the norms and the fitted rate usable.
    """

    times: np.ndarray
    e_norms: np.ndarray
    e_global: np.ndarray
    fitted_rate: float | None
    replay: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def states(self):
        states = self.replay()
        states.flags.writeable = False
        return states

    @property
    def x(self):
        return self.states[:, : self._n]

    @property
    def e(self):
        rows, N = self.e_norms.shape
        return self.states[:, self._n :].reshape(rows, N, -1)

    @property
    def xhat(self):
        return self.e + self.x[:, None, :]

    @property
    def _n(self):
        return self.states.shape[1] // (self.e_norms.shape[1] + 1)


def integrate(config, model, g_net, design):
    """Exact fixed-step run of the networked error dynamics.

    The run steps the stacked estimation error e = xhat - 1 (x) x alone:
    e' = E e, with E the error matrix of `verify.error_system`, never
    reads the plant state x, so a design `verify` certifies simulates
    whatever x does, and a design `verify` rejects is rejected here with
    the same error. One step multiplies the error of each coordinate
    group by exp(dt E_g), E_g its block of E, exact to rounding. The error
    is held in one contiguous panel per group size, the groups of that
    size one after another, so a step is one batched product per group
    size. `_run` steps the first `_BLOCK` states one at a time and each
    later block in one product with the `_BLOCK`-th power of the step,
    into one of two scratch spans of consecutive blocks, whose node norms
    are taken once per span while it is in cache. A span whose norms are
    not finite and that holds a non-finite entry is redone one step at a
    time from the state before it; one whose norms overflow from finite
    entries has them taken again, block by block, of the block scaled by
    its largest entry, and e_global is summed by `np.hypot` where the
    norm of the node norms overflows. No state is kept: the trace holds
    the per-node error norms at the recorded steps.

    The plant state x, by exp(dt A), and the states (x, e) are stepped
    only when the trace's states, x, e or xhat are first read: a replay of
    the run over (x, e) through the same `_run`, with x as one more panel
    in front of the same panels and spans of e, whose steps of e are
    those of this run, gathering each span back into coordinate order.
    It raises `DivergenceError` naming the first step whose x is
    non-finite.

    Deterministic for fixed inputs and seed. Divergence aborts with
    `DivergenceError` naming the first step whose e is non-finite; that
    is the expected outcome when simulating an invalid design.
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

    err_sys = error_system(model, g_net, design)[1]
    dt = config.dt
    steps = int(round(config.t_final / dt))
    rec_steps = np.arange(0, steps + 1, config.record_stride)
    if rec_steps[-1] != steps:
        rec_steps = np.append(rec_steps, steps)

    # the coordinates of e that each group of each size class owns, one
    # (k, N |g|) array per class: the rows of its panel
    columns = err_sys.group_rows()
    e = (xhat0 - x0).ravel()
    e0 = [e[rows] for rows in columns]
    # states are rows, so one step is e_g @ exp(dt E_g).T per group g;
    # overflow is detected explicitly, so numpy stays quiet on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        step = [_expm(dt * blocks).transpose(0, 2, 1) for blocks in err_sys.E_blocks]
        e_norms = _run(step, e0, rec_steps, dt, "estimation error", partial(_node_norms, N=N))
        e_global = np.linalg.norm(e_norms, axis=1)
        overflowed = ~np.isfinite(e_global)
        e_global[overflowed] = np.hypot.reduce(e_norms[overflowed], axis=1)
    trace = SimulationTrace(
        times=rec_steps * dt,
        e_norms=e_norms,
        e_global=e_global,
        fitted_rate=None,
        replay=partial(_replay, model.A, step, x0, e0, columns, rec_steps, dt),
    )
    try:
        rate = estimate_decay_rate(trace, config.resolved_fit_window())
    except InsufficientDataError as exc:
        logger.warning("decay-rate fit skipped: %s", exc)
        rate = None
    return replace(trace, fitted_rate=rate)


def _replay(A, e_step, x0, e0, columns, rec_steps, dt):
    """The states (x, e) of a run at the ascending steps rec_steps, one
    per row, in coordinate order: x by exp(dt A) as one more panel next
    to the run's panels of e, stepped by `_run`, each span gathered back
    into coordinate order by `_gather`."""
    n = len(x0)
    columns = [np.arange(n)[None], *(n + rows for rows in columns)]
    with np.errstate(over="ignore", invalid="ignore"):
        step = [_expm(dt * A[None]).transpose(0, 2, 1), *e_step]
        gather = partial(_gather, columns=columns)
        return _run(step, [x0[None], *e0], rec_steps, dt, "plant state x", gather)


def _run(step, y0, rec_steps, dt, name, reduce):
    """reduce(panels) at the ascending steps rec_steps, one row per step,
    where panels holds consecutive states y_k from y_0 = y0 and y_{k+1} =
    y_k times the block-diagonal matrix of the stacks of step.

    A state is held in panels, one per (k, m, m) stack T of step: the
    contiguous (k, rows, m) array whose [c, r] is the part of state r
    that T[c] steps, as y0 holds the (k, m) parts of y_0. The first
    `_BLOCK` states are stepped one at a time, and each later block of
    `_BLOCK` rows in one product per panel, of the block before it with
    the `_BLOCK`-th power of T. Spans of as many consecutive blocks as fit
    in `_SPAN_BYTES`, at least one, alternate between two scratch panels,
    and reduce runs once per span, of which only the recorded rows are
    kept. reduce must be positively homogeneous and non-finite on a state
    with a non-finite entry. A span whose reduction is not finite and
    that holds a non-finite entry is redone one step at a time from the
    last state before it, which raises `DivergenceError` naming the state
    as name at the first non-finite step; a finite one is reduced block by
    block by `_finite_reduction`.
    """
    steps = int(rec_steps[-1])
    width = min(_BLOCK, steps + 1)
    span = width * max(1, _SPAN_BYTES // (8 * width * sum(part.size for part in y0)))
    scratch = [np.empty((2, len(T), span, T.shape[1])) for T in step]
    for buffers, part in zip(scratch, y0):
        buffers[0, :, 0] = part
    jump = [np.linalg.matrix_power(T, width) for T in step]
    out = None
    previous = None  # the last block of the span before
    start = 0  # step of the first row of the span
    while start <= steps:
        rows = min(span, steps + 1 - start)
        panels = [buffers[start // span % 2, :, :rows] for buffers in scratch]
        # the state before the first row that a redo steps, and that row
        if previous is None:
            before, first = _rows(panels, 0, 1), 1
        else:
            before, first = _rows(previous, width - 1, width), 0
        for lo in range(0, rows, width):
            hi = min(lo + width, rows)
            if lo == 0 and previous is None:
                following = _rows(panels, first, hi)
                _step_one_at_a_time(step, before, start + first, following, dt, name)
            else:
                source = _rows(panels, lo - width, hi - width) if lo else _rows(previous, 0, hi)
                for y, T, following in zip(source, jump, _rows(panels, lo, hi)):
                    np.matmul(y, T, out=following)
        kept = reduce(panels)
        if not np.isfinite(kept).all():
            if not all(np.isfinite(panel).all() for panel in panels):
                following = _rows(panels, first, rows)
                _step_one_at_a_time(step, before, start + first, following, dt, name)
            blocks = range(0, rows, width)
            kept = np.concatenate(
                [_finite_reduction(reduce, _rows(panels, lo, lo + width)) for lo in blocks]
            )
        if out is None:
            out = np.empty((len(rec_steps), *kept.shape[1:]))
        lo, hi = np.searchsorted(rec_steps, [start, start + rows])
        out[lo:hi] = kept[rec_steps[lo:hi] - start]
        previous = _rows(panels, rows - width, rows)
        start += rows
    return out


def _rows(panels, lo, hi):
    """The rows lo to hi of each panel."""
    return [panel[:, lo:hi] for panel in panels]


def _finite_reduction(reduce, panels):
    """reduce(panels) of finite states, each entry of it that is not finite
    taken again of the panels divided by their largest entry: a sum of
    squares of entries above the square root of the largest float
    overflows, their norm need not."""
    kept = reduce(panels)
    overflowed = ~np.isfinite(kept)
    if overflowed.any():
        scale = max(np.abs(panel).max() for panel in panels)
        kept[overflowed] = (reduce([panel / scale for panel in panels]) * scale)[overflowed]
    return kept


def _node_norms(panels, N):
    """Norms of the N node errors of the states of panels, one row each,
    squared and summed inside each size class: [c, r] of a panel holds
    the N |g| coordinates (i, k) of state r, k in group c, node-major."""
    rows = panels[0].shape[1]
    squares = np.zeros((rows, N))
    for panel in panels:
        part = panel.reshape(len(panel), rows, N, -1)
        squares += np.einsum("krim,krim->ri", part, part)
    return np.sqrt(squares)


def _gather(panels, columns):
    """The states of panels, one per row, in coordinate order: columns[p]
    is the (k, m) array of the coordinates that panel p holds."""
    states = np.empty((panels[0].shape[1], sum(cols.size for cols in columns)))
    for panel, cols in zip(panels, columns):
        states[:, cols] = panel.swapaxes(0, 1)
    return states


def _expm(M):
    """exp(M) by scaling and squaring of its degree-12 Taylor polynomial
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), for a square matrix
    or each matrix of a (k, m, m) stack.

    M is halved s times, to a 1-norm of at most 0.5 for every matrix of
    it. The polynomial in Y = M / 2^s is evaluated from Y^2, Y^3 and Y^4
    with Horner steps in Y^4 (Paterson-Stockmeyer), then squared s times.
    """
    s = max(0, math.frexp(np.max(np.sum(np.abs(M), axis=-2)))[1] + 1)
    Y = M / 2.0**s
    Y2 = Y @ Y
    Y4 = Y2 @ Y2
    powers = (np.eye(M.shape[-1]), Y, Y2, Y2 @ Y)
    # P = B_0 + Y^4 (B_1 + Y^4 (B_2 + Y^4 / 12!)) with B_j = sum_i Y^i / (4j + i)!
    B = [sum(Yi / math.factorial(4 * j + i) for i, Yi in enumerate(powers)) for j in range(3)]
    P = B[0] + Y4 @ (B[1] + Y4 @ (B[2] + Y4 / math.factorial(12)))
    for _ in range(s):
        P = P @ P
    return P


def _step_one_at_a_time(step, y, start, out, dt, name):
    """Fill the rows of the panels out with the states start, start + 1,
    ..., stepped one at a time from y, the one-row panels of the state at
    step start - 1.

    Raises `DivergenceError` at the first step with a non-finite entry,
    naming the state as name.
    """
    previous = y
    for row in range(out[0].shape[1]):
        current = _rows(out, row, row + 1)
        for y_part, T, part in zip(previous, step, current):
            np.matmul(y_part, T, out=part)
        if not all(np.isfinite(part).all() for part in current):
            k = start + row
            raise DivergenceError(
                f"{name} became non-finite at step {k} (t = {k * dt:.6g})",
                step=k,
                time=k * dt,
            )
        previous = current


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
    Every value is written byte for byte as CPython's ``'%.17g' % value``,
    by `_write_table`, a chunk of the table at a time. The chunks are
    formatted by one worker per usable CPU, at most one per chunk: the
    calling thread and threads started for the call, every one of which
    has ended when write_csv returns or raises. Each chunk is written in
    table order as soon as it and the chunks before it are ready, so the
    text does not depend on the number of workers.
    """
    N = trace.e_norms.shape[1]
    header = ["t", "e_global"] + [f"e_{i + 1}" for i in range(N)]
    columns = [trace.times, trace.e_global, trace.e_norms]
    if include_states:
        x = trace.x
        n = x.shape[1]
        header += [f"x_{j + 1}" for j in range(n)]
        header += [f"xhat_{i + 1}_{j + 1}" for i in range(N) for j in range(n)]
        columns += [x, trace.xhat.reshape(trace.times.size, N * n)]
    stream.write(",".join(header) + "\n")
    _write_table(np.column_stack(columns), stream.write)


# Values formatted at a time: whole-table temporaries cost more than the
# per-chunk calls they save.
_CSV_CHUNK = 1 << 15
# Bytes per value before the padding goes: the longest %.17g text,
# "-1.2345678901234567e-308", and a separator.
_CSV_SLOT = 25
# Layout codes: 0 .. 20 fixed notation for the decimal exponents -4 .. 16,
# then d.ddde+XX, then the values left to CPython.
_EXPONENTIAL = 21
_UNDECIDED = 22


def _write_table(table, write):
    """Write the rows of the 2-D float table as CSV text by write, one
    string per `_CSV_CHUNK` values, in table order.

    Worker w of W formats the chunks w, w + W, ..., where W is the number
    of usable CPUs, at most one per chunk; the calling thread is worker 0
    and the others are threads started here. `_format_chunk` reads only
    its own chunk, and its numpy loops release the interpreter lock, so
    the workers run side by side and the text does not depend on W. Each
    chunk is written as soon as it is formatted and the chunk before it
    is written. After an error no worker writes again, each stops once
    its current chunk is formatted, the threads are joined, and the first
    error is raised.
    """
    cols = table.shape[1]
    values = table.astype(float, copy=False).ravel()
    tables = _decimal_tables()
    row_seps = np.full(cols, ord(","), np.uint8)
    row_seps[-1] = ord("\n")
    starts = range(0, values.size, _CSV_CHUNK)
    workers = max(1, min(_usable_cpus(), len(starts)))
    # written[i] is set once chunk i is written, and every one on an error
    written = [threading.Event() for _ in starts]
    errors = []

    def fail(exc):
        errors.append(exc)
        for event in written:
            event.set()

    def work(first):
        try:
            for i in range(first, len(starts), workers):
                chunk = values[starts[i] : starts[i] + _CSV_CHUNK]
                seps = np.resize(np.roll(row_seps, -(starts[i] % cols)), chunk.size)
                text = _format_chunk(chunk, seps, tables)
                if i:
                    written[i - 1].wait()
                if errors:
                    return
                write(text)
                written[i].set()
        except BaseException as exc:  # raised again below, in the caller
            fail(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
    except BaseException as exc:  # a thread that could not start
        fail(exc)
    work(0)
    for thread in threads:
        if thread.is_alive():
            thread.join()
    if errors:
        raise errors[0]


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_chunk(x, seps, tables):
    """``'%.17g' % v`` for each value v of x, each followed by its byte of
    seps, as one string.

    A finite nonzero v is written from D, its 17 significant digits, and
    X, its decimal exponent: |v| rounds to D 10^(X - 16), 10^16 <= D <
    10^17. The guess k = floor(log10 |v|) gives y = |v| 10^(16 - k) as the
    double-double yh + yl of `_scale`, and k moves by one where yh falls
    outside [10^16, 10^17). D is y rounded to an integer, and X = k. The
    entries of 10^s are exact to 2^-105 and the product and its sum to
    2^-104, relative, so yh + yl is within 2^-46 of y < 2^57. The rounding
    is then CPython's, unless the fraction of y is within 2^-30 of 1/2,
    as it is at every exact tie, or y is within a few units of 10^16 or
    10^17, where the decade is in doubt. Those undecided values of the
    chunk are formatted by one CPython ``%`` over their tuple, so their
    text is CPython's correctly rounded one (Gay, AT&T report 90-10,
    1990) by construction. Zeros, infinities and NaN are written directly.

    The digits of D come from the table of the 10 000 four-digit strings,
    its trailing zeros are dropped, and the values are stable-sorted by
    layout, so that each layout is written by slices into a slot of
    `_CSV_SLOT` zero bytes per value. Fixed notation serves -4 <= X < 17
    and d.ddde+XX the rest, each without trailing zeros or a bare point.
    One comparison drops the padding, the zero bytes: the spaces that pad
    CPython's text to a slot are turned to zeros first.
    """
    slots = np.zeros((x.size, _CSV_SLOT), np.uint8)
    a = np.abs(x)
    finite = np.isfinite(a) & (a != 0)
    at = np.flatnonzero(finite)
    a = a[at]
    k = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scale(a, 16 - k, tables)
    low, high = yh < 1e16, yh >= 1e17
    moved = np.flatnonzero(low | high)
    if moved.size:
        k[moved] += high[moved].astype(np.int64) - low[moved]
        yh[moved], yl[moved] = _scale(a[moved], 16 - k[moved], tables)
    whole = np.floor(yl)
    frac = yl - whole
    code = np.where((k >= -4) & (k < 17), k + 4, _EXPONENTIAL).astype(np.int8)
    edge = (np.abs(yh - 1e16) < 4) | (np.abs(yh - 1e17) < 32)
    code[(np.abs(frac - 0.5) < 2.0**-30) | edge] = _UNDECIDED
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(_UNDECIDED + 1))
    fast = order[: bounds[-1]]
    D = (yh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5))[fast]
    X = k[fast]
    digits, last = _digits(D, X, tables)
    out = np.zeros((fast.size, _CSV_SLOT), np.uint8)
    for c in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[c], bounds[c + 1])
        e = c - 4  # the exponent X of fixed notation
        if c == _EXPONENTIAL:
            out[rows, 1] = digits[rows, 0]
            out[rows, 2] = (last[rows] > 0) * np.uint8(ord("."))
            out[rows, 3:19] = digits[rows, 1:]
            out[rows, 19:24] = tables.exponents[X[rows] - tables.X_MIN]
        elif e < 0:
            out[rows, 1:3] = np.frombuffer(b"0.", np.uint8)
            out[rows, 3 : 2 - e] = ord("0")
            out[rows, 2 - e : 19 - e] = digits[rows]
        else:
            out[rows, 1 : e + 2] = digits[rows, : e + 1]
            out[rows, e + 2] = (last[rows] > e) * np.uint8(ord("."))
            out[rows, e + 3 : 19] = digits[rows, e + 1 :]
    slot = np.dtype((np.void, _CSV_SLOT))
    slots.view(slot)[at[fast], 0] = out.view(slot)[:, 0]
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    special = np.flatnonzero(~finite)
    if special.size:
        v = x[special]
        slots[special, 0] = (np.signbit(v) & ~np.isnan(v)) * np.uint8(ord("-"))
        slots[special, 1] = ord("0")
        slots[special[np.isinf(v)], 1:4] = np.frombuffer(b"inf", np.uint8)
        slots[special[np.isnan(v)], 1:4] = np.frombuffer(b"nan", np.uint8)
    undecided = at[order[bounds[-1] :]]
    if undecided.size:
        # %.17g writes no space, so the padding of each slot becomes zeros
        text = f"%-{_CSV_SLOT}.17g" * undecided.size % tuple(x[undecided].tolist())
        text = text.encode("ascii").replace(b" ", b"\0")
        slots.view(slot)[undecided, 0] = np.frombuffer(text, slot)
    slots[:, -1] = seps
    return str(slots[slots != 0], "ascii")


def _scale(a, s, tables):
    """a 10^s as the double-double yh + yl, |yl| <= ulp(yh) / 2, for
    positive finite a and each a 10^s in [10^15, 10^18].

    10^s = (t + t_lo) 2^E from the tables, a 2^E exact by `np.ldexp`, and
    its product with t exact by Dekker's method (Numer. Math. 18, 1971)
    with Veltkamp's split, its product with t_lo rounded once.
    """
    E, t, t_hi, t_mid, t_lo = tables.powers(s)
    m = np.ldexp(a, E)
    split = 134217729.0 * m  # 2^27 + 1
    m_hi = split - (split - m)
    m_lo = m - m_hi
    p = m * t
    err = ((m_hi * t_hi - p) + m_hi * t_mid + m_lo * t_hi) + m_lo * t_mid + m * t_lo
    yh = p + err
    return yh, err - (yh - p)


def _digits(D, X, tables):
    """The 17 digits of each D in [10^16, 10^17), one ASCII row each, with
    the trailing zeros of the fraction of its %.17g text at exponent X
    turned to zero bytes, and the index of each D's last nonzero digit."""
    # floor division by a scalar runs on libdivide's multiplications, where
    # np.divmod divides in hardware: the remainders are multiply-subtracts
    lead = D // 10**16
    rest = D - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((D.size, 4), np.int64)
    groups[:, 0] = high // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 2] = low // 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4
    zeros = tables.trailing_zeros[groups]
    count = zeros[:, 3].copy()
    run = count == 4
    for j in (2, 1, 0):
        count += run * zeros[:, j]
        run &= zeros[:, j] == 4
    last = 16 - count
    keep = np.where((X >= 0) & (X < 17), np.maximum(last, X), last)
    # the lead digit is byte 7 of the first word, the others the next two
    words = np.zeros((D.size, 6), np.uint32)
    words[:, 2:] = tables.words[groups]
    digits = words.view(np.uint8)[:, 7:]
    digits[:, 0] = lead + ord("0")
    pairs = words.view(np.uint64)
    pairs[:, 1] &= tables.masks[np.clip(keep, 0, 8)]
    pairs[:, 2] &= tables.masks[np.clip(keep - 8, 0, 8)]
    return digits, last


class _DecimalTables:
    """The tables of `_format_chunk`.

    10^s for s = 16 - k, each guess k of a decimal exponent of a float64,
    as (t + t_lo) 2^E with t in [0.5, 1) and t = t_hi + t_mid split by
    Veltkamp; each s is taken from Python ints on its first use. The
    10 000 four-digit ASCII strings as uint32 words and their counts of
    trailing zeros, the masks of the first c bytes of a uint64, and the
    exponent suffixes e-324 .. e+308 padded with zero bytes.
    """

    # float64 decimal exponents run from -324 to 308, and a guess is off
    # by at most one
    X_MIN, X_MAX = -324, 308
    S_MIN, S_MAX = 16 - (X_MAX + 1), 16 - (X_MIN - 1)

    def __init__(self):
        size = self.S_MAX - self.S_MIN + 1
        self._known = np.zeros(size, bool)
        self._exponent = np.zeros(size, np.intc)  # what np.ldexp takes
        self._parts = np.zeros((4, size))
        self._lock = threading.Lock()
        # the decimal digits of 0 .. 9999, four per row
        digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
        self.words = digits.astype(np.uint8).view(np.uint32).ravel()
        self.trailing_zeros = np.zeros(10**4, np.int8)
        for step in (10, 100, 1000, 10**4):
            self.trailing_zeros[::step] += 1
        masks = b"".join(b"\xff" * c + b"\0" * (8 - c) for c in range(9))
        self.masks = np.frombuffer(masks, np.uint64)
        # e, the sign and the digits of |X|, at least two
        X = np.arange(self.X_MIN, self.X_MAX + 1)
        digits = np.abs(X)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
        wide = np.abs(X) >= 100
        self.exponents = np.zeros((X.size, 5), np.uint8)
        self.exponents[:, 0] = ord("e")
        self.exponents[:, 1] = np.where(X < 0, ord("-"), ord("+"))
        self.exponents[:, 2:4] = np.where(wide[:, None], digits[:, :2], digits[:, 1:])
        self.exponents[wide, 4] = digits[wide, 2]

    def powers(self, s):
        """E, t, t_hi, t_mid and t_lo of 10^s for each entry of s."""
        j = s - self.S_MIN
        lo, hi = (int(j.min()), int(j.max()) + 1) if j.size else (0, 0)
        if not self._known[lo:hi].all():
            # writers of the CSV share the tables; an entry is marked known
            # only once it is written
            with self._lock:
                seen = np.zeros(hi - lo, bool)
                seen[j - lo] = True
                for i in lo + np.flatnonzero(seen & ~self._known[lo:hi]):
                    self._add(int(i))
        return self._exponent[j], *(part[j] for part in self._parts)

    def _add(self, i):
        s = i + self.S_MIN
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        # 10^s = (num / den) 2^E with num / den in [0.5, 1)
        E = num.bit_length() - den.bit_length()
        num, den = (num, den << E) if E >= 0 else (num << -E, den)
        if num >= den:
            E, den = E + 1, 2 * den
        t = num / den  # int division is correctly rounded
        p, q = t.as_integer_ratio()
        t_lo = (num * q - p * den) / (den * q)
        split = 134217729.0 * t
        t_hi = split - (split - t)
        self._parts[:, i] = t, t_hi, t - t_hi, t_lo
        self._exponent[i] = E
        self._known[i] = True


@cache
def _decimal_tables():
    return _DecimalTables()
