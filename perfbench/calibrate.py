"""A fixed unit of CPU work, timed next to the program to track the host's speed.

The speed of a shared virtual machine drifts: on the 2-CPU one described in
NOTES.md the same pass over the same ops took 0.53 s and 0.92 s within one
run, with seconds-long fast and slow stretches.  A `sample()` taken just
before and just after each timed call measures the host's speed at that
moment with code that never changes, so

    reference seconds = measured seconds * REFERENCE_S / mean(before, after)

is the time the call would take on a host where one sample takes
REFERENCE_S.  A change to the program moves the measured seconds and not
the samples; a change in the host's speed moves both.  The raw seconds are
reported beside the reference seconds.

A sample mixes interpreter work (dict updates on small ints, like the exact
kernel) with dense LAPACK (three SVDs, like the float path); the two track
each other on the host (correlation about 0.9).

Set-up time (process start and imports) follows a different part of the
host: over 277 set-up processes it correlated at 0.16 with `sample()` and
at 0.64 with the time to start and stop a bare interpreter, so set-up
processes are bracketed by `spawn_sample()` instead, with its own
reference time REFERENCE_SPAWN_S.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import numpy as np

# One sample at the reference speed, by definition.  On the 2-CPU machine
# described in NOTES.md a sample takes 0.013-0.030 s and a spawn sample
# about 0.067 s.
REFERENCE_S = 0.020
REFERENCE_SPAWN_S = 0.050

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def sample() -> float:
    """Seconds that one fixed unit of work takes now (garbage collection off)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + i * 3
        for _ in range(3):
            np.linalg.svd(_MATRIX)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def spawn_sample(env: dict[str, str]) -> float:
    """Seconds that starting and stopping a bare interpreter takes now."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.monotonic() - start


def to_reference(seconds: float, before: float, after: float,
                 reference: float = REFERENCE_S) -> float:
    """`seconds` measured between samples `before` and `after`, in reference seconds."""
    return seconds * reference * 2 / (before + after)
