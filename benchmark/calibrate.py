"""Fixed calibration kernel: how fast the machine runs right now.

A shared host's speed drifts by tens of percent over minutes, and a
run's job times drift with it.  Each set-up probe of ``run.py`` also
times this kernel, which does the same fixed work every time and uses
nothing of the program, and the run scales its times by the kernel's
median, so that runs made at different host speeds compare.

The kernel mixes the three kinds of work the jobs do: a pure Python
loop (interpreter overhead), many numpy operations on small arrays
(per-call overhead, as in the optimizer and the per-node loops) and
streaming passes over arrays of 16 MB (bandwidth, as in the solver and
the trajectory stacks).
"""

import time

import numpy as np

SMALL = np.linspace(0.0, 1.0, 3 * 9 * 9 * 9).reshape(3, 9, 9, 9)
LARGE_N = 2_000_000


def _py(reps):
    s = 0
    for i in range(reps):
        s += (i * i) % 7
    return s


def _small(reps):
    a = SMALL
    s = 0.0
    for _ in range(reps):
        b = a * 1.0001 + a
        s += float(np.einsum("cijk,cijk->", b, a))
    return s


def _large(reps):
    x = np.linspace(0.0, 1.0, LARGE_N)
    y = np.empty_like(x)
    for _ in range(reps):
        np.multiply(x, 1.0001, out=y)
        np.add(y, x, out=x)
    return float(x[0])


PARTS = ((_py, 1_800_000), (_small, 18_000), (_large, 30))


def measure():
    """Seconds the kernel takes, after one untimed warm-up pass of each part."""
    total = 0.0
    for fn, reps in PARTS:
        fn(max(reps // 20, 1))
        start = time.perf_counter()
        fn(reps)
        total += time.perf_counter() - start
    return total
