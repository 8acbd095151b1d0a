"""observer-kit benchmark: one command for every end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {battery,ladder,cli} [--seed N]
        [--seconds S] [--trace {0,1}]

The package is imported from ``src/`` of the checkout; without it the
command exits with an error and prints no result. Set-up is timed
SETUP_REPEATS times, each in a fresh interpreter, and reported as the
median. Then whole passes over the workload's inputs run, one process at a
time, until S seconds have gone by.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

    setup_s         import the package, make the inputs, one warm-up call
    designs_per_s   certified designs per second of synthesize+verify
                    (in-process, or CLI invocations on the cli workload),
                    median over passes; a failed synthesis adds time only
    certified_frac  share of instances whose design verify passes
    ok_frac         share of operations that succeeded, that is
                    1 - failed/attempted
    ok_ops_per_s    succeeded operations per second of all operations,
                    median over passes; a failure adds time only

Their seconds are wall seconds at the reference machine speed (see
`workloads.REF_NOMINAL_S`): the cores are shared and their speed drifts,
so each timed stretch is scaled by a reference kernel timed around it.
Earlier lines give, by name and unit, the unscaled values and the median
speed factor, the workload-specific figures (failed_frac, sim_throughput,
sim_ok_frac and the median wall time of each CLI command with its sample
count), the correctness outputs of each input and the environment.

With ``--trace 1`` passes alternate between untraced and traced, and the
last line holds the per-layer metrics of the traced passes, per pass:
``<module>.<function>.s`` (self time), ``.calls`` and ``.failed`` (calls
that raised); ``cli.import.s`` (median fresh interpreter
``import observer_kit.cli``), ``sim.write_csv.bytes``,
``sim.throughput`` and ``sim.ok_frac``; and ``overhead.<metric>``, the
traced minus the untraced end-to-end value. Per-layer seconds are
unscaled. The package makes one call at a time and nothing queues, so no
layer waits and no waiting time is reported. Spans and the full result
are written under ``.perfbench_work/``.
"""

import argparse
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("designs_per_s", "designs/s"),
    ("certified_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("ok_ops_per_s", "ops/s"),
)
OVERHEAD = ("designs_per_s", "ok_ops_per_s")


def per_layer_units():
    from tracer import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.failed"] = "count"
    units["cli.import.s"] = "s"
    units["sim.write_csv.bytes"] = "B"
    units["sim.throughput"] = "sim-s/s"
    units["sim.ok_frac"] = "fraction"
    for name in OVERHEAD:
        units[f"overhead.{name}"] = dict(END_TO_END)[name]
    return units


def prepare_environment():
    """Point imports at src/ and cap BLAS threads at the usable cores."""
    if not (SRC / "observer_kit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no observer_kit package under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(SRC))
    return nproc


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "commit": commit,
        "processes": "one at a time, no pool",
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def count(value):
    """A median of counts, as an integer when it is one."""
    return int(value) if float(value).is_integer() else value


def time_setup(workload, seed, workdir):
    """Set-up seconds of fresh interpreters, unscaled and at the reference
    speed."""
    from workloads import speed_factor

    samples, factors = [], []
    for _ in range(SETUP_REPEATS):
        with speed_factor(factors):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
            )
        samples.append(float(proc.stdout.split()[-1]))
    return samples, [s * f for s, f in zip(samples, factors)]


def end_to_end(passes, scaled=True):
    """End-to-end metrics other than setup_s, from walls at the reference
    speed or, unscaled, as measured."""
    def wall(p, name):
        return p.scaled[name] if scaled else getattr(p, name)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "designs_per_s": median(
            p.designs / wall(p, "design_wall") for p in passes if p.design_wall > 0
        ),
        "certified_frac": sum(p.designs for p in passes) / max(1, sum(p.instances for p in passes)),
        "ok_frac": 1.0 - failed / max(1, attempted),
        "ok_ops_per_s": median(
            (p.attempted - p.failed) / wall(p, "op_wall") for p in passes if p.op_wall > 0
        ),
    }


def workload_details(passes, setup_raw):
    """Unscaled and workload-specific figures, printed beside the metrics."""
    sims = sum(p.sims for p in passes)
    attempted = sum(p.attempted for p in passes)
    raw = end_to_end(passes, scaled=False)
    details = {
        "speed_factor": (median(f for p in passes for f in p.speeds), "reference/actual"),
        "unscaled_setup_s": (median(setup_raw), "s"),
        "unscaled_designs_per_s": (raw["designs_per_s"], "designs/s"),
        "unscaled_ok_ops_per_s": (raw["ok_ops_per_s"], "ops/s"),
        "failed_frac": (sum(p.failed for p in passes) / max(1, attempted), "fraction"),
    }
    if sims:
        details["sim_throughput"] = (
            median(p.sim_time_ok / p.sim_wall for p in passes if p.sim_wall > 0), "sim-s/s",
        )
        details["sim_ok_frac"] = (sum(p.sims_ok for p in passes) / sims, "fraction")
    commands = {}
    for p in passes:
        for command, walls in p.command_walls.items():
            commands.setdefault(command, []).extend(walls)
    for command, walls in commands.items():
        details[f"cli_{command}_s"] = (median(walls), f"s (median of {len(walls)})")
    return details


def layer_totals(tracer_spans, child_traces):
    from tracer import aggregate

    totals = {}
    for spans in [tracer_spans] + [c["spans"] for c in child_traces]:
        for name, t in aggregate(spans).items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
    return totals


def per_layer(traced, untraced):
    from tracer import SPAN_NAMES

    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "failed": 0}
    values = {}
    for name in SPAN_NAMES:
        stats = [p.layers.get(name, zero) for p in traced]
        values[f"{name}.s"] = median(s["self_s"] for s in stats)
        values[f"{name}.calls"] = count(median(s["calls"] for s in stats))
        values[f"{name}.failed"] = count(median(s["failed"] for s in stats))
    values["cli.import.s"] = median(c["import_s"] for p in traced for c in p.child_traces)
    values["sim.write_csv.bytes"] = count(median(p.csv_bytes for p in traced))
    values["sim.throughput"] = median(
        p.sim_time_ok / p.layers["sim.integrate"]["total_s"]
        for p in traced
        if p.layers.get("sim.integrate", zero)["total_s"] > 0
    )
    sims = sum(p.sims for p in traced)
    values["sim.ok_frac"] = sum(p.sims_ok for p in traced) / sims if sims else 0.0
    on, off = end_to_end(traced), end_to_end(untraced)
    for name in OVERHEAD:
        values[f"overhead.{name}"] = on[name] - off[name]
    return values


def run_passes(workload, seconds, trace):
    from tracer import Tracer

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if traced:
            tracer.install()
        try:
            result = workload.run_pass(tracer)
        finally:
            if traced:
                tracer.uninstall()
        result.traced = traced
        if traced:
            result.spans = tracer.spans
            result.layers = layer_totals(tracer.spans, result.child_traces)
        passes.append(result)
        if len(passes) >= (2 if trace else 1) and time.perf_counter() >= deadline:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("battery", "ladder", "cli"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = prepare_environment()
    warnings.simplefilter("ignore")
    logging.getLogger("observer_kit").setLevel(logging.ERROR)
    import observer_kit
    import workloads

    if not Path(observer_kit.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: observer_kit was imported from {observer_kit.__file__}")
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(nproc)

    setup_raw, setup_samples = time_setup(args.workload, seed, workdir)
    workload = workloads.WORKLOADS[args.workload](seed, workdir)
    workload.setup()
    passes = run_passes(workload, args.seconds, bool(args.trace))

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    e2e = dict(end_to_end(untraced), setup_s=median(setup_samples))
    units = dict(END_TO_END)
    result = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": {"unscaled": setup_raw, "scaled": setup_samples},
        "end_to_end": {name: [e2e[name], unit] for name, unit in END_TO_END},
        "details": workload_details(untraced, setup_raw),
        "records": untraced[0].records,
        "mismatches": [m for p in passes for m in p.mismatches],
        "errors": sorted({e for p in passes for e in p.errors}),
    }
    if args.trace:
        result["traced_end_to_end"] = end_to_end(traced)
        result["stiffness"] = workload.stiffness_records()
        layer_units = per_layer_units()
        layers = per_layer(traced, untraced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_units.items()}
        spans = [
            {"pass": i, "process": "in-process", "spans": p.spans}
            for i, p in enumerate(passes) if p.traced
        ] + [
            {"pass": i, "process": c["process"], "spans": c["spans"]}
            for i, p in enumerate(passes) if p.traced for c in p.child_traces
        ]
        spans_path = WORK / f"spans-{args.workload}-{seed}.json"
        spans_path.write_text(json.dumps(spans))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in units.items()}
    (WORK / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, default=str)
    )

    print(f"environment {json.dumps(env)}")
    print(f"passes untraced={len(untraced)} traced={len(traced)}")
    for name, (value, unit) in result["details"].items():
        print(f"detail {name} {value!r} {unit}")
    for record in result["records"] + result.get("stiffness", []):
        print(f"record {json.dumps(record)}")
    if args.trace:
        for name, value in result["traced_end_to_end"].items():
            print(f"traced {name} {value!r} {units[name]}")
    for message in result["mismatches"][:10] + result["errors"][:10]:
        print(f"failure {message}")
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": not result["mismatches"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
