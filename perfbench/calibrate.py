"""Calibration loops for the nega3 benchmark, run in a child process.

For each line read from stdin, runs three fixed loops (Python integer and
small-array numpy work; Python objects and big-int bit operations; a numpy
sweep of a 2 MB array) and prints the geometric means of their wall and CPU
seconds.  It runs in its own process so that its arrays never count toward
the peak RSS of the benchmark process.  Exits at end of input.
"""

import random
import statistics
import sys
import time

import numpy as np


def loops():
    s = 0
    for i in range(500_000):
        s += i * i % 7
    small = np.arange(1 << 17, dtype=np.uint64)
    for _ in range(20):
        s += int(np.bitwise_count(small ^ (small >> np.uint64(3))).sum())
    yield
    rng = random.Random(5)
    table = {}
    for i in range(30_000):
        a, b = rng.getrandbits(108), rng.getrandbits(108)
        s ^= ((a | b) ^ (a & b)).bit_count()
        table[i % 997] = tuple(rng.randrange(3) for _ in range(4))
    yield
    wide = np.arange(1 << 18, dtype=np.uint64)
    for _ in range(24):
        s += int(np.bitwise_count(wide ^ (wide >> np.uint64(1))).sum())
    yield


def measure() -> tuple[float, float]:
    walls, cpus = [], []
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in loops():
        c1, t1 = time.process_time(), time.perf_counter()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        c0, t0 = c1, t1
    return statistics.geometric_mean(walls), statistics.geometric_mean(cpus)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(*measure(), flush=True)
