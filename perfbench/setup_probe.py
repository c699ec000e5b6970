"""Time one fresh set-up: imports plus input generation for a workload.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <reference kind>
Prints the elapsed seconds, measured inside this process from before the
first import of the program to the end of input generation, and the factor
to the reference speed from reference samples of the workload's kind taken
just after it (after, so that the samples do not load numpy or scipy before
the timed imports; see speed.py).
run.py calls it several times, scales each time to the reference speed and
reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

REF_SAMPLES = 80

if __name__ == "__main__":
    import speed

    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    workloads.make_workload(sys.argv[1], int(sys.argv[2]))
    elapsed = time.perf_counter() - t0
    kind = sys.argv[3]
    samples = [speed.reference_sample(kind) for _ in range(REF_SAMPLES)]
    print(repr(elapsed), repr(speed.scale(samples, kind)))
