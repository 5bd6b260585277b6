"""The machine's speed while timed work runs, from a fixed reference kernel.

The speed of the 2-core KVM guest this benchmark was written on wanders by
20-30% from one second to the next (the reference kernel's medians over
0.25 s blocks spread 0.29 IQR/median over 90 s, and lose their correlation
within about 2 s), so even a median over a 20 s run moves with the seconds
it ran in.  Each timed block is therefore scaled by the speed the kernel
measured during that same block:

    scaled = (wall - kernel time inside) * REFERENCE_S / median kernel time

While a Speedometer runs, a SIGALRM timer interrupts the timed work every
PERIOD_S and runs the kernel once, between two bytecodes of the main thread;
the block's clock leaves that time out.  One more timing is taken right
before and right after the block.  The kernel runs no fracfund code, so a
change to fracfund moves the scaled times by the same factor as the wall
times; REFERENCE_S is about what the kernel takes on that machine, so scaled
seconds read close to its wall seconds.
"""

import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.010
PERIOD_S = 0.25
# A fresh import of fracfund takes about 0.4 s: sampled more often, so that
# its scale rests on several timings
STARTUP_PERIOD_S = 0.05
_DATA = np.random.default_rng(0).random(200_000)
_BUFFER = np.empty_like(_DATA)
_ROWS = np.zeros((201, 201))


def reference_kernel():
    """A fixed mix of the kinds of work fracfund's time goes to, using no
    fracfund code: an interpreter loop, powers over short rows written into
    a matrix, in-place passes over a 1.6 MB array, and float formatting.
    It allocates no large array, so its time does not depend on what the
    allocator kept from the work before it."""
    acc = 0.0
    for i in range(30_000):
        acc += i * 0.5
    for k in range(1, _ROWS.shape[0]):
        d = np.arange(k, 0, -1, dtype=float)
        _ROWS[k, :k] = d ** 0.37 - (d - 1.0) ** 0.37
    np.copyto(_BUFFER, _DATA)
    for _ in range(10):
        np.add(_BUFFER, 1.0, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
    text = ",".join("%.17g" % v for v in _DATA[:3000])
    return acc + float(_BUFFER[0]) + len(text)


class Speedometer:
    """Kernel timings, taken every `period` seconds of a timed block (none
    when period is None) and right before and after it."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []  # seconds per kernel run
        self.paused = 0.0  # seconds spent in the kernel, in total
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # the timer fired during a timing
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_kernel()
            took = time.perf_counter() - start
        finally:
            self._busy = False
        self.samples.append(took)
        self.paused += took

    def _timer(self, seconds):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    @contextlib.contextmanager
    def running(self):
        """Sample every period while the block runs."""
        if self.period is not None:
            signal.signal(signal.SIGALRM, self.sample)
        self._timer(self.period)
        try:
            yield
        finally:
            self._timer(0.0)

    @contextlib.contextmanager
    def idle(self):
        """No sampling while this process waits for a child: the kernel
        would run beside the child, on another core."""
        remaining = signal.getitimer(signal.ITIMER_REAL)[0]
        self._timer(0.0)
        try:
            yield
        finally:
            if remaining:
                self._timer(self.period)

    def mark(self):
        return len(self.samples), self.paused

    def since(self, mark):
        """Kernel timings and kernel seconds since mark()."""
        n, paused = mark
        return self.samples[n:], self.paused - paused


def scaled(wall, samples):
    return wall * REFERENCE_S / statistics.median(samples)


class Block:
    """Times one block with the speedometer running: `wall` leaves out the
    kernel runs inside it, and `scaled` is that time at the speed the kernel
    measured right before, inside and right after it."""

    def __init__(self, speed):
        self.speed = speed

    def __enter__(self):
        self.speed.sample()
        self.mark = self.speed.mark()
        self._running = self.speed.running()
        self._running.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._running.__exit__(None, None, None)
        elapsed = time.perf_counter() - self.start
        samples, paused = self.speed.since(self.mark)
        self.wall = elapsed - paused
        before = self.speed.samples[self.mark[0] - 1]
        self.speed.sample()
        self.scaled = scaled(self.wall, [before, *samples,
                                         self.speed.samples[-1]])
        return False
