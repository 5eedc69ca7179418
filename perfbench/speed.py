"""Correcting measured times for the machine's speed at the time.

On the shared 2-vCPU host this benchmark was built on, the speed a process
gets flips between states up to 1.8x apart, often within seconds, and
process CPU time slows down with wall time.  Raw op times of identical
work spread by 20-30% between ops and drifted by 1.6x between runs minutes
apart.

So the benchmark times a fixed kernel (no liaisonlab code, so no change to
the library moves it) next to the work it measures, and reports times in
reference seconds: raw seconds times the machine's mean speed while the
work ran, relative to the speed at which the kernel takes REF_KERNEL_S.
During ops a SIGALRM handler runs the kernel every PROBE_INTERVAL_S; its
time is taken out of the op's time.  A set-up is corrected by samples taken
right after it.  The raw times are kept in the run's record.
"""

import signal
import statistics
import time

REF_KERNEL_S = 0.6e-3  # kernel() time at the reference speed (fast state, Python 3.11)
PROBE_INTERVAL_S = 0.05


def kernel():
    """Fixed work of the kind the library does: tuple-keyed dict updates,
    modular int arithmetic, and small int64 numpy slices, arithmetic,
    concatenations and comparisons."""
    import numpy as np  # imported by every set-up before the first call

    s = 0
    d = {}
    for i in range(1200):
        s += i * i % 7
        d[(i & 255, i & 7)] = s
    a = np.arange(384, dtype=np.int64).reshape(64, 6)
    for i in range(40):
        b = (a[i % 64:] * 3 + 1) % 32003
        c = np.concatenate([a, b])
        s += int((c[:, 0] <= c[0, 1]).sum())
    return s


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def correction(samples):
    """Reference seconds per raw second over a span whose kernel times were
    sampled uniformly in time.  That is the span's mean speed relative to
    the reference: a mean of inverse kernel times, not the inverse of their
    mean, which would under-weight the fast stretches."""
    return REF_KERNEL_S * statistics.fmean(1.0 / k for k in samples)


def scale_now(samples=40):
    """Correction factor from kernel samples taken now."""
    return correction([kernel_time() for _ in range(samples)])


class Probe:
    """Samples kernel() periodically while active.

    ``spent_wall``/``spent_cpu`` accumulate the handler's own time, which
    callers subtract from what they timed; ``scale`` is the correction
    factor for the time the probe was active.
    """

    def __init__(self):
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self, signum=None, frame=None):
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_wall += dt
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self.samples.append(kernel_time())  # one sample however short the span
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def scale(self):
        return correction(self.samples)
