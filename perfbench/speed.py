"""Host-speed sampling, so that timings can be rescaled to a fixed speed.

The benchmark shares a few cores of a host whose speed, for this
interpreter-bound program, changes by up to 2x within seconds and for minutes
at a time (other tenants on the same physical cores).  Wall times alone then
spread past any useful bound.  So a fixed calibration kernel (exact rational
arithmetic and dict updates, the program's own mix, but run from the
benchmark's code, which no change to ``src/`` can speed up) is timed every
PERIOD_S of wall time while a job runs, and once just before and after it.
A job's time at reference speed is

    (wall time - time spent in the kernel) * mean(REF_KERNEL_S / kernel time)

i.e. the job's wall time multiplied by the mean host speed over the job,
measured in units of the speed at which the kernel takes REF_KERNEL_S.
"""

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# kernel time on a 2-core shared VM (Python 3.11, fractions) in its usual,
# slower speed regime; only a scale factor: it is the same for every commit
REF_KERNEL_S = 1.0e-3


def kernel():
    acc, x, seen = Fraction(0), Fraction(3, 7), {}
    for i in range(1, 150):
        acc += x * Fraction(i, i + 1)
        seen[i & 63] = acc.denominator & 1023
        if i % 32 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(wall, kernel_times):
    """Wall time at reference speed, given the kernel times sampled over it."""
    return wall * sum(REF_KERNEL_S / k for k in kernel_times) / len(kernel_times)


class Sampler:
    """Times the kernel every PERIOD_S from a SIGALRM handler (no threads)."""

    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(time_kernel())

    def _tick(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run fn(); return (its result, its wall time less the kernel's time
        inside it, the same at reference speed).  The kernel runs just before
        and just after, so that a job shorter than PERIOD_S still has samples
        around it."""
        self.sample()
        first = len(self.times) - 1
        t0 = time.perf_counter()
        return_value = fn()
        wall = time.perf_counter() - t0
        inside = self.times[first + 1:]
        self.sample()
        net = wall - sum(inside)
        return return_value, net, rescale(net, self.times[first:])
