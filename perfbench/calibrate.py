"""A fixed reference computation that measures how fast the host runs now.

On a shared machine the same code runs up to ~30% slower for minutes at a
time, in CPU time as much as in wall time, so a raw time measures the host
as much as the program.  Each benchmark invocation runs this kernel just
before and just after the timed ``qvotes`` call.  The kernel is frozen: it
belongs to the benchmark, not to the program, so no change to ``qvotes``
can move it.  Its mix resembles the sweep's: many small numpy calls from
a Python loop (draws, ranks, means, dot products) and a bootstrap-sized
resample.

``REFERENCE_S`` is roughly the kernel's median time on the machine the
bounds were set on (2-core shared x86-64 VM, Python 3.11, numpy 2.4).  A
timing ``t`` from an invocation whose kernel runs took ``k`` seconds on
average is reported as ``t * REFERENCE_S / k``: the time the call would
take on a host where the kernel takes ``REFERENCE_S``.  Wall times are
scaled by the kernel's wall time and CPU times by its CPU time, because
time the host takes away from the VM shows in the one and not the other.
Scaling each invocation and then taking the median over a 50 s run works
better than scaling the run's median: the speed changes within seconds.
On that machine, over sets of five to ten seeds, the run medians of the
sweep time spread (interquartile range over median) 7-21% raw and 3-6%
scaled.  The raw times are kept in the report.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.2
ROUNDS = 3000


def kernel() -> float:
    """Run the reference computation once and return a checksum."""
    rng = np.random.default_rng(12345)
    pool = rng.integers(1, 6, size=(ROUNDS, 120)).astype(float)
    total = 0.0
    for row in pool:
        sample = row[rng.integers(0, row.size, size=60)]
        ranks = np.argsort(np.argsort(sample)).astype(float)
        ranks -= ranks.mean()
        total += float(ranks @ ranks) / sample.size + float(np.sqrt(sample.var()))
        if rng.random() < 0.05:
            boot = sample[rng.integers(0, sample.size, size=(200, sample.size))].mean(axis=1)
            total += float(np.percentile(boot, 97.5) - np.percentile(boot, 2.5))
    return total


def timed() -> tuple[float, float]:
    """Wall and CPU time of one kernel run, in seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0
