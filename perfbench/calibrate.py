"""Fixed kernels that measure how fast the machine runs while a run lasts.

On a shared host the same work can take up to twice as long from one
minute to the next, and the slowdown differs with the kind of work: an
interpreter-bound loop of small numpy calls slows far more than a large
vectorised draw.  A run therefore times, before every invocation, a short
kernel that does the same kind of work as its workload's hot loop (and
never calls itslab), and scales its mean invocation time by the ratio of
the kernel's reference time to its mean time in the run:

    wall_s = mean(invocation seconds) * REFERENCE_S[kernel] / mean(kernel seconds)

Means, not medians: the share of the run the machine spends slow is what
both sides must agree on, and a median of a two-speed mixture jumps
between the speeds.  This reports every run at the speed the machine had
when REFERENCE_S was measured.  The raw median is printed next to it.
"""

import statistics
import time

import numpy as np


def _draws(rng):
    """Large normal draws, squares and an argmin selection (best-of-k)."""
    for _ in range(3):
        y = rng.standard_normal((20, 10000))
        loss = (y - 0.1) ** 2
        pen = (y - 0.2) ** 2
        np.take_along_axis(loss, np.argmin(pen, axis=1)[:, None], axis=1)


def _softmax(rng):
    """Softmax-weighted losses over growing prefixes of small draw blocks."""
    for _ in range(8):
        y = rng.standard_normal((200, 96))
        loss = (y - 0.1) ** 2
        pen = (y - 0.2) ** 2
        for k in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96):
            p = pen[:, :k]
            w = np.exp((p.min(axis=1, keepdims=True) - p) / 0.5)
            ((w * loss[:, :k]).sum(axis=1) / w.sum(axis=1)).sum()


def _python_loop(rng):
    """A Python loop of permutations and tiny softmaxes (judge subsets)."""
    reward = rng.normal(size=64)
    correct = (rng.random(64) < 0.5).astype(float)
    acc = 0.0
    for _ in range(1000):
        idx = np.sort(rng.permutation(64)[:8])
        r = reward[idx]
        w = np.exp((r - r.max()) / 0.5)
        acc += float(np.sum(w * correct[idx]) / np.sum(w))


KERNELS = {"draws": _draws, "softmax": _softmax, "python_loop": _python_loop}

# Set-up time is scaled by a fresh interpreter that imports what itslab
# imports from numpy and scipy, run as its own process (see run.py).
IMPORTS_KERNEL = "import time, json, numpy, scipy.linalg, scipy.special; print(repr(time.monotonic()))"

# Median seconds of each kernel on the reference machine (see README.md).
REFERENCE_S = {"draws": 0.018, "softmax": 0.012, "python_loop": 0.022, "imports": 0.5}


def measure(kernel: str) -> float:
    """Seconds one call of ``kernel`` takes now."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    KERNELS[kernel](rng)
    return time.perf_counter() - t0


def scaled(seconds: list, kernel_seconds: list, kernel: str) -> float:
    """Mean of ``seconds`` at the machine speed of REFERENCE_S."""
    if not seconds or not kernel_seconds:
        return float("nan")
    return statistics.fmean(seconds) * REFERENCE_S[kernel] / statistics.fmean(kernel_seconds)
