"""Set-up probe: import the library as every CLI call does, then report.

Prints the CLOCK_MONOTONIC time (ns) at which the imports finished and the
seconds the imports took inside this interpreter. The parent compares the
first number with the time it started this process.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ergodic_vc  # noqa: E402,F401
import ergodic_vc.cli  # noqa: E402,F401

print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), time.perf_counter() - t0)
