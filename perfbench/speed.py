"""Machine-speed sampling, so that timings survive a shared host.

On a few cores of a shared host the same pass can take 1.6 times as long from
one minute to the next, with the process on the CPU the whole time: the
machine itself runs slower.  A ``Sampler`` runs a fixed reference computation
every ``TICK_S`` seconds from a SIGALRM handler, in the timed process, between
the program's own bytecodes.  An interval of the program is then scaled by
``(REF_S / r) ** EXPONENT``, where ``r`` is the median reference duration
sampled around the interval: the result is about the interval's length in seconds
at the speed at which the reference takes ``REF_S``.  The handler's own time
is subtracted from the interval first.  A process's set-up is scaled with
``SETUP_EXPONENT`` instead.

The reference lives here, not in weylbranch, so a change to the package
cannot change it.  It mixes the package's kinds of work: dict and tuple
updates with integer arithmetic, and small int64 numpy array operations.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

TICK_S = 0.1
# Duration of reference() on the 2-core Xeon host the benchmark was defined
# on, in its faster periods; a fixed unit, never re-measured.
REF_S = 0.0025
# The program slows a little less than the reference in slow periods.  On
# that host, with exponent 1 passes in slow periods read 4-11% lower than in
# fast ones; with 0.9, the scaled metrics still grew as r ** 0.03 to r ** 0.07
# (wall_s) and r ** 0.15 (item_p50_ms on scan_p0) with the reference duration r.
EXPONENT = 0.95
# A set-up (process start, imports, first-touch page faults) slows less still:
# single set-ups took about r ** 0.6 (scan_p0, freudenthal_sweep) to r ** 0.8
# (verify_tables) between fast (r near 2.35 ms) and slow (r near 4.6 ms)
# periods, so scaled with 0.9 they read up to 17% lower in slow periods.
SETUP_EXPONENT = 0.7
clock = time.monotonic


def reference():
    """Fixed work whose duration measures the machine's current speed."""
    counts = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 7, x % 11, i % 5)
        counts[key] = counts.get(key, 0) + 1
    a = np.arange(64, dtype=np.int64)
    for i in range(300):
        a = (a * 3 + i) % 1009
        b = a.reshape(8, 8) @ a.reshape(8, 8)
    return len(counts) + int(b[0, 0])


def sample(n):
    """n reference samples taken now, as (time, duration) pairs."""
    out = []
    for _ in range(n):
        t = clock()
        reference()
        out.append((t, clock() - t))
    return out


class Sampler:
    """Reference samples taken every TICK_S seconds while started.

    ``spent`` is the handler's total time so far; callers subtract its change
    over an interval.  With ``stack`` (a ``layers.Tracer`` span stack) the
    handler's time also counts as a child span of the innermost open span,
    so it stays out of every layer's self time.
    """

    def __init__(self, stack=None):
        self.samples = []
        self.spent = 0.0
        self.stack = stack
        self._previous = None

    def _tick(self, signum, frame):
        t = clock()
        reference()
        done = clock()
        self.samples.append((t, done - t))
        self.spent += done - t
        if self.stack:
            self.stack[-1][1] += done - t

    def start(self):
        self._tick(None, None)  # a process shorter than a tick still gets a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


class Scale:
    """Maps an interval to (REF_S / median reference duration near it) ** exponent."""

    def __init__(self, samples, window_s=1.5 * TICK_S, exponent=EXPONENT):
        if not samples:
            raise ValueError("no reference samples")
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]
        self.window_s = window_s
        self.exponent = exponent

    def ref_s(self, t0, t1):
        """Median reference duration from window_s before t0 to window_s after t1.

        When that window holds fewer than three samples (the ends of a run,
        or a long native call that held the handler off), the three samples
        nearest the interval's middle are used instead.
        """
        lo = bisect.bisect_left(self.times, t0 - self.window_s)
        hi = bisect.bisect_right(self.times, t1 + self.window_s)
        window = self.samples[lo:hi]
        if len(window) < 3:
            mid = (t0 + t1) / 2
            i = bisect.bisect_left(self.times, mid)
            window = sorted(self.samples[max(0, i - 3):i + 3], key=lambda s: abs(s[0] - mid))[:3]
        return statistics.median(d for _, d in window)

    def __call__(self, t0, t1, seconds):
        """``seconds`` of work done between t0 and t1, at reference speed."""
        return seconds * (REF_S / self.ref_s(t0, t1)) ** self.exponent
