"""A fixed reference loop that measures how fast the machine runs right now.

The box the benchmark was built on changes speed by up to 1.7x within
seconds. Timing this loop next to the program, in the same thread, gives a
speed to rescale the program's times by. It uses no package code, so it
measures the machine, not the program.
"""

import time

import numpy as np

# microseconds per iteration on the 2-core box at its usual speed; rescaled
# times are times on a machine that runs the loop at this speed
NOMINAL_US = 18.0


def seconds(iterations):
    """Wall seconds for `iterations` small numpy updates shaped like a step."""
    x = np.linspace(0.1, 1.0, 100)
    y = x[::-1].copy()
    lo, hi = np.zeros(100), np.ones(100)
    t0 = time.perf_counter()
    for _ in range(iterations):
        g = 0.5 * (x - y) + 0.1 * float(np.dot(x, y)) * y
        x = np.clip(x - 1e-3 * g, lo, hi)
        y = np.clip(y + 1e-3 * (x - y), lo, hi)
        if not np.isfinite(x).all():
            raise FloatingPointError("reference loop diverged")
    return time.perf_counter() - t0


def scale(durations, iterations):
    """Mean of nominal / measured speed over samples of `iterations` each.

    Samples taken at even intervals weight each moment equally, so the mean
    of the per-sample ratios rescales a wall time spent across them.
    """
    return float(np.mean([NOMINAL_US * 1e-6 * iterations / d
                          for d in durations]))
