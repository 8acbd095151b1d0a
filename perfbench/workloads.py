"""The benchmark workloads: battery, ladder and cli.

Each workload makes its inputs in `setup`, ending with one warm-up call,
and `run_pass` then runs every input once and returns a `PassResult`. The
package is always called through the ``observer_kit`` namespace, so that
the wrappers a `tracer.Tracer` installs see the calls.

An operation is one synthesize, verify or integrate call, or one CLI
invocation. It fails when it raises, exits non-zero, misses its decay
target, or fails a correctness cross-check; the workload carries on.
"""

import json
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import observer_kit as ok
from instances import (
    BATTERY_SEED,
    BATTERY_SIZE,
    CLI_PARTIAL_SIZE,
    INSTANCE_SEED,
    LADDER_SIZES,
    README_CONFIG,
    battery_instances,
    config_document,
    partial_instance,
    readme_instance,
)

HERE = Path(__file__).resolve().parent
PARAMS = ok.SynthesisParams(alpha=1.0)
SIM_T_FINAL = 10.0
SIM_DT = 1e-3
# The CLI's decay rule: a final error this small, or a fitted rate of at
# least this share of alpha.
CONVERGED_ERROR = 1e-10
RATE_SHARE = 0.95
CLI_TIMEOUT_S = 60

# Machine-speed reference. The benchmark runs on shared cores whose speed
# drifts by a third over tens of seconds, which no run length averages
# out. Each timed segment is therefore bracketed by a fixed kernel (a
# Python loop and BLAS matrix products, independent of observer_kit) and
# its wall time is scaled by REF_NOMINAL_S over the kernel's time. The
# nominal value is the kernel's time on an idle 2-core Intel Xeon VM.
REF_NOMINAL_S = 0.0105
REF_MATRIX = np.random.default_rng(0).uniform(-1.0, 1.0, (300, 300))
WALLS = ("op_wall", "design_wall")
BATTERY_CHUNK = 10


def reference_seconds():
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(10):
        REF_MATRIX @ REF_MATRIX
    return time.perf_counter() - start


@contextmanager
def speed_factor(factors):
    """Append REF_NOMINAL_S over the mean reference time around the block."""
    before = reference_seconds()
    yield
    factors.append(REF_NOMINAL_S / (0.5 * (before + reference_seconds())))


def decays(final_error, fitted_rate, alpha=1.0):
    return final_error <= CONVERGED_ERROR or (
        fitted_rate is not None and fitted_rate >= RATE_SHARE * alpha
    )


def error_matrix(model, g_net, design):
    """Stacked error dynamics the simulator integrates,
    blockdiag(A - L_i H_i) - gamma Mbar kron(R L, I) with R = diag(design.r).

    Built here from the design's fields rather than by the package, so the
    figure does not change when the package's own assembly does."""
    n = model.n
    adjacency = g_net.adjacency
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    local = scipy.linalg.block_diag(
        *[model.A - node.L @ H for node, H in zip(design.nodes, model.outputs)]
    )
    Mbar = scipy.linalg.block_diag(*[node.M for node in design.nodes])
    coupling = np.kron(np.diag(design.r) @ laplacian, np.eye(n))
    return local - design.gamma * Mbar @ coupling


def step_stiffness(model, g_net, design, dt):
    """dt times the spectral radius of the error matrix."""
    return float(dt * np.max(np.abs(np.linalg.eigvals(error_matrix(model, g_net, design)))))


@dataclass
class PassResult:
    """Counts and wall seconds of one pass; `scaled` holds the walls at the
    reference speed."""

    attempted: int = 0
    failed: int = 0
    op_wall: float = 0.0
    instances: int = 0
    designs: int = 0
    design_wall: float = 0.0
    sims: int = 0
    sims_ok: int = 0
    sim_time_ok: float = 0.0
    sim_wall: float = 0.0
    csv_bytes: int = 0
    command_walls: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    records: list = field(default_factory=list)
    child_traces: list = field(default_factory=list)
    traced: bool = False
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=lambda: dict.fromkeys(WALLS, 0.0))
    speeds: list = field(default_factory=list)

    @contextmanager
    def segment(self):
        """Time the block's operations at the reference speed too."""
        start = {w: getattr(self, w) for w in WALLS}
        with speed_factor(self.speeds):
            yield
        for w in WALLS:
            self.scaled[w] += (getattr(self, w) - start[w]) * self.speeds[-1]

    def op(self, wall, succeeded, why=""):
        self.attempted += 1
        self.op_wall += wall
        if not succeeded:
            self.failed += 1
            self.errors.append(why)

    def mismatch(self, why):
        """A cross-check failed: the operation that produced the output
        counts as failed."""
        self.failed += 1
        self.mismatches.append(why)


def design_and_verify(res, model, g_net, label):
    """synthesize then verify_design; returns (design, report), either of
    which is None when its call raised."""
    res.instances += 1
    t0 = time.perf_counter()
    try:
        design = ok.synthesize(model, g_net, PARAMS)
    except Exception as exc:  # an operation failure is tallied, not fatal
        wall = time.perf_counter() - t0
        res.design_wall += wall
        res.op(wall, False, f"{label} synthesize: {exc!r}")
        return None, None
    t1 = time.perf_counter()
    res.op(t1 - t0, True)
    try:
        report = ok.verify_design(model, g_net, design)
    except Exception as exc:
        t2 = time.perf_counter()
        res.design_wall += t2 - t0
        res.op(t2 - t1, False, f"{label} verify: {exc!r}")
        return design, None
    t2 = time.perf_counter()
    res.design_wall += t2 - t0
    res.op(t2 - t1, report.passed, f"{label} verify: abscissa {report.abscissa!r} not certified")
    res.designs += report.passed
    return design, report


def check_repeatable(res, first, outputs, label):
    """Every pass must reproduce the first pass's outputs exactly."""
    for k, (want, got) in enumerate(zip(first, outputs)):
        if want != got:
            res.mismatch(f"{label}[{k}] differs from the first pass: {got} != {want}")


class Battery:
    """100 tiny random instances, in-process synthesize -> verify_design."""

    name = "battery"

    def __init__(self, seed, workdir, size=BATTERY_SIZE):
        self.seed = seed
        self.size = size
        self.first = None

    def setup(self):
        self.instances = battery_instances(self.seed, self.size)
        ok.synthesize(*self.instances[0], PARAMS)

    def run_pass(self, tracer=None):
        res = PassResult()
        outputs = []
        # a pass takes about half a second, long enough for the machine's
        # speed to change, so it is scaled in chunks
        for start in range(0, len(self.instances), BATTERY_CHUNK):
            with res.segment():
                for k in range(start, min(start + BATTERY_CHUNK, len(self.instances))):
                    model, g_net = self.instances[k]
                    if tracer is not None:
                        tracer.op = f"battery[{k}]"
                    design, report = design_and_verify(res, model, g_net, f"battery[{k}]")
                    outputs.append((
                        None if design is None else design.gamma,
                        None if report is None else report.abscissa,
                    ))
        if self.first is None:
            self.first = outputs
        check_repeatable(res, self.first, outputs, "battery")
        return res

    def stiffness_records(self):
        return []


class Ladder:
    """n = N ladder, in-process synthesize -> verify_design -> integrate at
    the default simulation settings."""

    name = "ladder"

    def __init__(self, seed, workdir, sizes=LADDER_SIZES):
        self.seed = seed
        self.sizes = sizes
        self.first = None
        self.designs = {}

    def setup(self):
        self.rungs = [(n, *partial_instance(n, INSTANCE_SEED)) for n in self.sizes]
        ok.synthesize(*self.rungs[0][1:], PARAMS)

    def run_pass(self, tracer=None):
        res = PassResult()
        for n, model, g_net in self.rungs:
            label = f"ladder[n={n}]"
            if tracer is not None:
                tracer.op = label
            record = {"n": n, "N": n}
            res.records.append(record)
            with res.segment():
                design, report = design_and_verify(res, model, g_net, label)
            if design is None:
                continue
            self.designs[n] = design
            record.update(gamma=design.gamma, epsilon=design.epsilon)
            if report is not None:
                record.update(abscissa=report.abscissa, lyapunov_margin=report.lyapunov_margin)
            with res.segment():
                self._simulate(res, record, model, g_net, design, label)
        if self.first is None:
            self.first = res.records
        check_repeatable(res, self.first, res.records, "ladder")
        return res

    def _simulate(self, res, record, model, g_net, design, label):
        config = ok.SimulationConfig(t_final=SIM_T_FINAL, dt=SIM_DT, seed=self.seed)
        record["divergence_step"] = None
        t0 = time.perf_counter()
        try:
            trace = ok.integrate(config, model, g_net, design)
        except ok.DivergenceError as exc:
            wall = time.perf_counter() - t0
            record["divergence_step"] = exc.step
            res.sims += 1
            res.sim_wall += wall
            res.op(wall, False, f"{label} integrate: diverged at step {exc.step}")
            return
        except Exception as exc:
            wall = time.perf_counter() - t0
            res.sims += 1
            res.sim_wall += wall
            res.op(wall, False, f"{label} integrate: {exc!r}")
            return
        wall = time.perf_counter() - t0
        final_error = float(trace.e_global[-1])
        record.update(final_error=final_error, fitted_rate=trace.fitted_rate)
        good = decays(final_error, trace.fitted_rate, design.alpha)
        res.sims += 1
        res.sim_wall += wall
        res.sims_ok += good
        res.sim_time_ok += SIM_T_FINAL if good else 0.0
        res.op(wall, good, f"{label} integrate: no decay (final {final_error!r})")

    def stiffness_records(self):
        return [
            {"n": n, "dt_rho_E": step_stiffness(model, g_net, self.designs[n], SIM_DT)}
            for n, model, g_net in self.rungs
            if n in self.designs
        ]


@dataclass
class CliCase:
    name: str
    config: Path
    design: Path
    csv: Path
    states: bool
    model: object
    g_net: object
    t_final: float
    dt: float
    reference: dict = None
    abscissa: float = None
    ref_design: object = None


class Cli:
    """`python -m observer_kit.cli` check, synthesize, verify and simulate,
    one subprocess at a time, on the README config and an n = N partial
    config."""

    name = "cli"
    COMMANDS = ("check", "synthesize", "verify", "simulate")

    def __init__(self, seed, workdir, partial_size=CLI_PARTIAL_SIZE):
        self.seed = seed
        self.workdir = Path(workdir)
        self.partial_size = partial_size

    def setup(self):
        partial = partial_instance(self.partial_size, INSTANCE_SEED)
        docs = {
            "readme": (README_CONFIG, readme_instance(), False),
            "partial": (config_document(*partial, self.seed), partial, True),
        }
        self.cases = []
        for name, (doc, (model, g_net), states) in docs.items():
            sim = doc["params"].get("sim", {})
            case = CliCase(
                name=name,
                config=self.workdir / f"{name}-config.json",
                design=self.workdir / f"{name}-design.json",
                csv=self.workdir / f"{name}-trace.csv",
                states=states, model=model, g_net=g_net,
                t_final=float(sim.get("t_final", SIM_T_FINAL)),
                dt=float(sim.get("dt", SIM_DT)),
            )
            case.config.write_text(json.dumps(doc))
            self.cases.append(case)
        # in-process reference results for the cross-checks; the first
        # synthesize is the warm-up call
        for case in self.cases:
            case.ref_design = ok.synthesize(case.model, case.g_net, PARAMS)
            case.reference = json.loads(json.dumps(case.ref_design.to_dict()))
            case.abscissa = ok.verify_design(case.model, case.g_net, case.ref_design).abscissa

    def _invoke(self, res, argv, traced):
        if traced:
            spans_path = self.workdir / "child-spans.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "observer_kit.cli", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=self.workdir,
            )
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        res.command_walls.setdefault(argv[0], []).append(wall)
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text())
            trace["process"] = " ".join(argv[:1] + [Path(a).name for a in argv[1:]])
            res.child_traces.append(trace)
        return proc, wall

    def run_pass(self, tracer=None):
        res = PassResult()
        traced = tracer is not None
        for case in self.cases:
            record = {"config": case.name, "n": case.model.n, "N": case.model.node_count}
            res.records.append(record)
            # verify and simulate must never read files of an earlier pass
            case.design.unlink(missing_ok=True)
            case.csv.unlink(missing_ok=True)
            config, design, csv = str(case.config), str(case.design), str(case.csv)
            argvs = {
                "check": ["check", config],
                "synthesize": ["synthesize", config, "-o", design],
                "verify": ["verify", config, design],
                "simulate": ["simulate", config, design, "-o", csv]
                + (["--states"] if case.states else []),
            }
            res.instances += 1
            succeeded = {}
            for command in self.COMMANDS:
                with res.segment():
                    succeeded[command] = self._run_command(
                        res, case, command, argvs[command], traced, record
                    )
            res.designs += succeeded["synthesize"] and succeeded["verify"]
        return res

    def _run_command(self, res, case, command, argv, traced, record):
        """One invocation with its cross-check; True when both succeed."""
        label = f"cli {command} {case.name}"
        proc, wall = self._invoke(res, argv, traced)
        if command in ("synthesize", "verify"):
            res.design_wall += wall
        if command == "simulate":
            res.sims += 1
            res.sim_wall += wall
        if proc is None or proc.returncode != 0:
            code = "timeout" if proc is None else proc.returncode
            stderr = "" if proc is None else proc.stderr.strip()
            res.op(wall, False, f"{label}: exit {code} {stderr}")
            diverged = re.search(r"non-finite at step (\d+)", stderr)
            if diverged:
                record["divergence_step"] = int(diverged.group(1))
            return False
        res.op(wall, True)
        try:
            problem = self._cross_check(case, command, proc.stdout, record)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            res.mismatch(f"{label}: {problem}")
            return False
        if command == "simulate":
            res.sims_ok += 1
            res.sim_time_ok += case.t_final
            res.csv_bytes += case.csv.stat().st_size
        return True

    def _cross_check(self, case, command, stdout, record):
        """Compare a command's output with the in-process reference; returns
        a description of the first disagreement, or ''."""
        if command == "check":
            report = json.loads(stdout)
            if not (report["strongly_connected"] and report["joint_rank"] == case.model.n):
                return f"check report {report}"
        elif command == "synthesize":
            doc = json.loads(case.design.read_text())
            record.update(gamma=doc["gamma"], epsilon=doc["epsilon"])
            if doc != case.reference:
                return "design file differs from the in-process design"
        elif command == "verify":
            report = json.loads(stdout)
            record.update(abscissa=report["abscissa"], lyapunov_margin=report["lyapunov_margin"])
            if not report["pass"] or report["abscissa"] != case.abscissa:
                return f"abscissa {report['abscissa']!r} != in-process {case.abscissa!r}"
        elif command == "simulate":
            summary = json.loads(stdout)
            record.update(
                final_error=summary["final_error"], fitted_rate=summary["fitted_rate"],
                divergence_step=None,
            )
            rows = case.csv.read_bytes().count(b"\n") - 1
            want = int(round(case.t_final / case.dt)) + 1
            if rows != want:
                return f"CSV has {rows} rows, expected {want}"
        return ""

    def stiffness_records(self):
        return [
            {"config": case.name,
             "dt_rho_E": step_stiffness(case.model, case.g_net, case.ref_design, case.dt)}
            for case in self.cases
        ]


WORKLOADS = {w.name: w for w in (Battery, Ladder, Cli)}
DEFAULT_SEEDS = {"battery": BATTERY_SEED, "ladder": INSTANCE_SEED, "cli": INSTANCE_SEED}
