"""One set-up of a benchmark run, timed from inside a fresh interpreter:
import the library and generate the workload's inputs from the seed.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds.  run.py starts several of these and reports
their median as setup_s, since an import can only be timed once per process.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - START))
