"""Command-line front end: check, synthesize, verify and simulate.

Exit codes form a contract so CI harnesses can assert outcomes without
parsing text: 0 success, 1 a check failed (verification or simulated
decay below target), 2 a standing assumption is violated, 3 the input
files or command-line arguments are unreadable or inconsistent, 4 a
numerical routine failed.
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .config import build_sim_config, load_config, load_design, save_design
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    DivergenceError,
    NumericalFailureError,
)
from .sim import integrate, write_csv
from .synth import check_assumptions, synthesize
from .verify import verify_design

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ASSUMPTION = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

# Simulated error this small counts as converged even when no decay rate
# can be fitted (an identically zero error has no log slope).
CONVERGED_ERROR = 1e-10

logger = logging.getLogger(__name__)


def _setup_logging():
    level_name = os.environ.get("OBSERVER_KIT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _emit(report, path=None):
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_check(args):
    loaded = load_config(args.config)
    decomps, connected, joint = check_assumptions(loaded.model, loaded.graph)
    report = {
        "strongly_connected": connected,
        "joint_rank": joint,
        "n": loaded.model.n,
        "per_node_v": [d.v for d in decomps],
    }
    _emit(report, args.output)
    ok = connected and joint == loaded.model.n
    return EXIT_OK if ok else EXIT_ASSUMPTION


def cmd_synthesize(args):
    loaded = load_config(args.config)
    params = loaded.params
    if args.alpha is not None:
        params = dataclasses.replace(params, alpha=args.alpha)
    design = synthesize(loaded.model, loaded.graph, params)
    save_design(design, args.output)
    summary = {
        "gamma": design.gamma,
        "epsilon": design.epsilon,
        "alpha": design.alpha,
        "design_path": args.output,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args):
    loaded = load_config(args.config)
    design = load_design(args.design)
    report = verify_design(loaded.model, loaded.graph, design, alpha=args.alpha)
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args):
    loaded = load_config(args.config)
    design = load_design(args.design)
    sim_config = build_sim_config(loaded, t_final=args.t_final, dt=args.dt, seed=args.seed)
    trace = integrate(sim_config, loaded.model, loaded.graph, design)
    if args.states:
        # step the plant now: one that overflows exits before the CSV is opened
        trace.states
    with open(args.output, "w") as fh:
        write_csv(trace, fh, include_states=args.states)
    final_error = float(trace.e_global[-1])
    summary = {
        "fitted_rate": trace.fitted_rate,
        "final_error": final_error,
        "alpha": design.alpha,
        "trace_path": args.output,
    }
    print(json.dumps(summary, indent=2))
    if final_error <= CONVERGED_ERROR:
        return EXIT_OK
    if trace.fitted_rate is not None and trace.fitted_rate >= 0.95 * design.alpha:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def _decay_rate(text):
    """argparse type of --alpha: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="observer-kit",
        description="Design, certify and simulate distributed observers "
        "for LTI plants over directed communication graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test the standing assumptions of a config")
    p.add_argument("config")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="design observer gains for a config")
    p.add_argument("config")
    p.add_argument("--alpha", type=_decay_rate, help="override the decay rate from the config")
    p.add_argument("-o", "--output", default="design.json", help="design file to write")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="certify a design against a config")
    p.add_argument("config")
    p.add_argument("design")
    p.add_argument("--alpha", type=_decay_rate, help="certify at this rate instead of the design's")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="integrate the networked dynamics")
    p.add_argument("config")
    p.add_argument("design")
    p.add_argument("--t-final", type=float, dest="t_final")
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--states", action="store_true", help="include state columns in the CSV")
    p.add_argument("-o", "--output", default="trace.csv", help="CSV trace to write")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        # argparse has printed the usage error; its own exit code 2 would
        # read as a violated standing assumption
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ConfigError, DimensionError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssumptionViolationError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except DivergenceError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
