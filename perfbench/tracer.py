"""Outside-in spans around the public functions of each observer_kit layer.

The package is not edited: `Tracer.install` replaces every binding of a
listed function across the loaded ``observer_kit`` modules with a wrapper,
because callers import by name (``from .graph import balance``) and
patching only the home module would miss their calls. `uninstall` puts the
originals back. A listed function that does not exist is skipped, so it
reports zero calls.

Spans live in memory as ``[name, start, end, parent, failed, op]``: parent
is the index of the enclosing span or -1, failed marks an exception, op
labels the benchmark operation that caused the span. The package runs one
call at a time with no queue, so no layer ever waits and spans carry no
waiting time.
"""

import functools
import sys
import time

# Layer functions the traced run measures, by module. Trivial helpers such
# as numerics.as_matrix are left out: they are called hundreds of times per
# design and their wrappers would cost more than their bodies.
TRACED = {
    "config": ("load_config", "load_design", "save_design"),
    "decomp": ("decompose_node", "joint_observability_rank"),
    "graph": ("is_strongly_connected", "balance"),
    "numerics": ("eigenvalues", "svd", "rank", "solve_lyapunov", "is_negative_definite"),
    "synth": (
        "synthesize", "compute_epsilon", "select_gamma", "place_observer_poles",
        "solve_design_lyapunov", "assemble_gains", "verify_design_lmi",
    ),
    "verify": (
        "verify_design", "build_global_error_matrix",
        "spectral_abscissa_certificate", "lyapunov_certificate",
    ),
    "sim": ("integrate", "closed_loop_matrix", "estimate_decay_rate", "write_csv"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = ""
        self._stack = []
        self._patched = []

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "observer_kit" or name.startswith("observer_kit."))
        ]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules.get(f"observer_kit.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, original):
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper


def aggregate(spans):
    """Per span name: self seconds, inclusive seconds, calls and failures.

    Self time is a span's duration minus the durations of its direct
    children. Names with no span are absent.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, failed, op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, failed, op) in enumerate(spans):
        t = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "failed": 0})
        t["self_s"] += end - start - child[i]
        t["total_s"] += end - start
        t["calls"] += 1
        t["failed"] += failed
    return totals
