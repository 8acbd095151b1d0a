"""Time one workload set-up in this fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing the package, making the workload's inputs and one
warm-up call. Prints the elapsed seconds as the last line.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
import warnings  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and observer_kit)


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    warnings.simplefilter("ignore")
    workloads.WORKLOADS[name](seed, workdir).setup()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
