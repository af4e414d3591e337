"""A fixed calibration block that tracks the speed the host gives this process.

On a shared host the speed of one process moves by up to 2x over tens of
seconds (measured on a 2-vCPU VM: plateaus of 10-60 s at either level), so a
wall time says as much about the neighbours as about the program.  The
benchmark times this block, which uses only Python and numpy and never
matsync, every INTERVAL_S of wall time (from a SIGALRM handler, so also in
the middle of a long op), and scales each op's own time, the handler's time
taken out, by

    NOMINAL_S / (block time over the op's span)

The result is the op's time on a host where the block takes NOMINAL_S: a
change to matsync moves it, a change in the host's speed mostly does not.

    python3 perfbench/calib.py     # prints block times, to re-derive NOMINAL_S
"""

import signal
import statistics
import time

import numpy as np

# Block time at the fast level of a 2-vCPU shared x86-64 VM (numpy on
# OpenBLAS, one thread).  It only fixes the scale of the reported seconds.
NOMINAL_S = 0.002
INTERVAL_S = 0.2    # wall time between two samples
REPEAT = 3          # blocks per sample; a sample is their median

_rng = np.random.default_rng(20140806)
_M = _rng.standard_normal((24, 24))
_S = _M + _M.T
_v = _rng.standard_normal(24)
# bound now, so that the span recorder's wrappers never see these calls
_eigvals, _eigh, _solve = np.linalg.eigvals, np.linalg.eigh, np.linalg.solve


def block():
    """One pass of a fixed mix of interpreter work, small array ops and
    LAPACK calls, like the CLI's own; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += (i % 7) * 0.5
    x = _v
    for _ in range(200):
        x = np.tanh(_M @ x) + 0.1 * x
        acc += float(np.abs(x).max())
    _eigvals(_M)
    _eigh(_S)
    _solve(_S + 30.0 * np.eye(24), _v)
    return time.perf_counter() - t0 + 0.0 * acc


def sample():
    return statistics.median(block() for _ in range(REPEAT))


class Tracker:
    """Calibration samples over one run.  With `timer`, a sample is taken every
    INTERVAL_S of wall time, in the middle of an op if one is running;
    `spent` is the time the samples took, which the caller takes out of op time."""

    def __init__(self, timer):
        self.timer = timer
        self.times, self.values = [], []
        self.spent = 0.0
        self.taking = False

    def take(self, *_):
        if self.taking:     # a signal that arrives while a sample is taken
            return
        self.taking = True
        t0 = time.perf_counter()
        self.values.append(sample())
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.spent += t1 - t0
        self.taking = False

    def __enter__(self):
        self.take()
        if self.timer:
            signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def scaled(self, t0, t1, own):
        """`own` seconds of op time spent between perf_counter times t0 and t1,
        scaled to the nominal speed by the block time interpolated over the span."""
        block = np.interp(np.linspace(t0, t1, 33), self.times, self.values)
        return own * NOMINAL_S * float(np.mean(1.0 / block))

    def summary(self):
        return dict(samples=len(self.values), block_median_s=statistics.median(self.values),
                    block_min_s=min(self.values), block_max_s=max(self.values))


if __name__ == "__main__":
    xs = [sample() for _ in range(400)]
    q = statistics.quantiles(xs, n=20)
    print(f"block median {statistics.median(xs):.6f} s  p5 {q[0]:.6f}  p95 {q[-1]:.6f}  "
          f"min {min(xs):.6f}  max {max(xs):.6f}")
