"""Fixed reference computation: the yardstick the benchmark's times are
divided by.

A shared host runs the benchmark at a speed that drifts by tens of
percent over minutes, as other tenants load the machine; a time in
milliseconds follows that drift. This kernel is timed just before and
just after every command, so the command's time divided by it measures
the program's cost in units of a computation that never changes. The
kernel streams arrays of 256x256x3 float64 (1.5 MB, one 256x256 colour
image) through elementwise passes, shifts and cumulative sums, so it
runs at the speed the host's caches and memory allow at the moment, which
is what the other tenants change. In trials on a 2-vCPU host it steadied
the ratio on all three workloads better than a kernel of small-array
numpy calls in Python loops (conv2d-like on 64x64), alone or combined.

Started by client.py as a process of its own, so that nothing the program
under test does to its process can change the kernel's speed: for every
line read on standard input it runs the kernel once and writes the
seconds it took. It ends at the end of its input.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

_IMAGE = np.random.default_rng(0).random((256, 256, 3))
WARM_UP = 3


def kernel() -> float:
    """Run the reference computation once; returns its checksum."""
    total = 0.0
    for _ in range(3):
        b = _IMAGE
        for _ in range(5):
            b = np.sqrt(b * b + 0.5) * 0.7
            b = 0.25 * (b + np.roll(b, 1, 0) + np.roll(b, 1, 1) + b[::-1])
            c = np.cumsum(b, axis=0)
        total += float(c.sum())
    return total


def main() -> int:
    for _ in range(WARM_UP):
        kernel()
    for _ in sys.stdin:
        started = perf_counter()
        kernel()
        print(perf_counter() - started, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
