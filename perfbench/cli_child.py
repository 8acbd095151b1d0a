"""Run one observer-kit CLI command with the layer functions traced.

Usage: python3 cli_child.py SPANS_OUT COMMAND [ARGS...]

Times ``import observer_kit.cli`` in this fresh interpreter, runs the
command through ``observer_kit.cli.main``, writes the import time and the
spans to SPANS_OUT as JSON and exits with the command's exit code.
"""

import json
import sys
import time

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import observer_kit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.op = argv[0]
    tracer.install()
    try:
        code = observer_kit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
