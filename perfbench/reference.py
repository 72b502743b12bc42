"""A fixed reference kernel that measures how fast the machine runs now.

On a shared virtual machine the same code runs up to 1.7 times slower in
some stretches than in others, for seconds or minutes at a time.  Workers
time this kernel between items, and each item's time is scaled by how
long the kernel took around it:

    time at reference speed = measured time * REFERENCE_S / kernel time

The kernel does the kind of work `modunits` does (big-integer products,
gcds, dict updates, `Fraction` sums) and never changes, so a change to
`modunits` moves the scaled times while a slow stretch of the machine
moves the kernel and the item alike.
"""

import math
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of one `kernel()` call on the machine where the bounds in
# BENCHMARK.json were set (2 vCPUs of an Intel Xeon, CPython 3.11.7).
# Scaled times are seconds on a machine that runs the kernel this fast.
REFERENCE_S = 0.026

CALLS_PER_SAMPLE = 3
SAMPLE_EVERY_S = 1.5  # of item time, between two samples


def kernel() -> int:
    a = [(i * 7919 + 13) ** 3 for i in range(120)]
    b = [(i * 104729 - 7) ** 2 for i in range(120)]
    for _ in range(3):
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        a = [v % (10**40 + 7) for v in c[:120]]
    g = 0
    for i in range(1, 20000):
        g += math.gcd(i * 7919, 30030 + i)
    counts: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 3000):
        counts[i % 997] = counts.get(i % 997, 0) + i * i
        acc += Fraction(1, i % 97 + 1)
    return a[0] + g + len(counts) + acc.numerator


def sample() -> float:
    """Median time of a few kernel calls."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
