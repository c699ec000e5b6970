"""The machine's speed at the moment, from a fixed reference computation.

On a shared host the speed of the same code moves by tens of percent from
second to second and drifts by as much over minutes (the CPU time moves with
it, so it is not scheduling). The benchmark therefore times a reference
sample between its operations and reports every time scaled to a fixed
reference speed:

    reported = measured * REF_S[kind] / (median reference-sample time around it)

A time reported this way is the time the operation would take on a machine
where a sample takes REF_S[kind] seconds; REF_S holds a sample's typical time
on the 2-core Intel Xeon box the baseline was recorded on, so reported times
there are close to measured ones. A sample does not touch the program, so a
change to the program moves the reported time exactly as it moves the
measured one.

A slow spell does not slow every kind of work alike, so each workload names
the kind of sample that tracks its own work (workloads.WORKLOADS):

- "python": a pure-Python integer loop. It tracks the array workloads,
  whose time is numpy calls driven from Python loops.
- "python+quad": the geometric mean of that loop and a scipy `quad` of a
  numpy-scalar integrand, the kind of work `bihari_bound` does. Either part
  alone tracked bihari_grid less well than the two together.
"""

from __future__ import annotations

import math
import statistics
import time

REF_LOOP = 2000
REF_S = {"python": 1.6e-4, "python+quad": 6.2e-5}


def python_loop() -> float:
    """Seconds of one run of the pure-Python reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def quad_call() -> float:
    """Seconds of one scipy quadrature with a numpy-scalar integrand."""
    # Imported on first use: the runner caps BLAS threads before numpy loads,
    # and the set-up probe times the first import of numpy and scipy.
    import numpy as np
    from scipy.integrate import quad

    start = time.perf_counter()
    quad(lambda x: 1.0 / float(np.sqrt(np.asarray(x, dtype=float))), 1.0, 2.0, epsrel=1e-10)
    return time.perf_counter() - start


def reference_sample(kind: str = "python") -> float:
    """Seconds of one reference sample of `kind`."""
    if kind == "python":
        return python_loop()
    if kind == "python+quad":
        return math.sqrt(python_loop() * quad_call())
    raise ValueError(f"unknown reference kind {kind!r}")


def scale(ref_times, kind: str = "python") -> float:
    """Factor that turns seconds measured beside these reference samples into reported seconds."""
    return REF_S[kind] / statistics.median(ref_times)
