"""Set-up probe: import prefixcode and write one workload's seeded inputs.

    python3 perfbench/probe.py WORKLOAD SEED DIR

Prints the seconds that took and the mean seconds of the host-speed
reference task timed right after; ``run.py`` runs the probe several times
and reports the median, scaled to the reference speed, as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_REPEATS = 40
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import prefixcode  # noqa: E402,F401  (the import is part of set-up)
import workloads  # noqa: E402

workloads.write_inputs(workloads.plan(sys.argv[1], int(sys.argv[2])), Path(sys.argv[3]))
SETUP = time.perf_counter() - START

import hostspeed  # noqa: E402

print(SETUP, hostspeed.time_reference(REFERENCE_REPEATS))
