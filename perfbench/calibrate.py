"""Host-speed calibration.

On a shared host the same code runs up to about 1.6x slower for a minute or
two at a time, which swamps the differences the benchmark exists to see.
The remedy: interleave short samples of a fixed calibration loop with the
program, and scale each measured interval by ``REFERENCE_S`` over the mean
sample time around and inside it. A reported time is then in reference
seconds: the time the interval would take on a host where one sample takes
``REFERENCE_S``. The raw times are kept next to the scaled ones.

The loop is Python bytecode, small dense matmuls and elementwise updates of
a large array, all into preallocated buffers: the kinds of work the program
spends its time in (the backward sweep, the drug encoder, Adam on a wide
cell layer). It allocates nothing while it runs, because a loop that
allocates tracks the allocator's state rather than the host's speed. It
uses only numpy and the standard library, never cdrpipe, so no change to
the program can move it.

Inside a unit, samples are taken at ``forward_batch`` calls (once per
training step or prediction batch), at most every ``EVERY_S`` seconds.
Their time is excluded from the unit's own timings through
:meth:`SpeedProbe.clock`.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from perfbench.tracing import patched

REFERENCE_S = 0.010        # one sample on a quiet 2-core x86-64 host
EVERY_S = 0.25             # sampling period inside a unit
BRACKET = 8                # samples before and after each measured interval
# where the program calls forward_batch: train() and predict_records()
HOOKS = (("cdrpipe.training", "forward_batch"), ("cdrpipe.model", "forward_batch"))


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(100, 100))
        self._b = rng.normal(size=(100, 256))
        self._out = np.empty((100, 256))
        self._big = rng.normal(size=640_000)     # the size of a wide cell layer
        self._big_out = np.empty(640_000)
        self.samples: list[float] = []
        self.paused = 0.0           # total time spent sampling
        self._last = time.perf_counter()

    def clock(self) -> float:
        """Wall time minus the time spent in calibration samples."""
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(60):
            np.matmul(self._a, self._b, out=self._out)
        np.multiply(self._big, 0.9, out=self._big_out)
        np.add(self._big_out, self._big, out=self._big_out)
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.paused += self._last - t0

    def bracket(self) -> None:
        for _ in range(BRACKET):
            self.sample()

    def _probed(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if time.perf_counter() - self._last >= EVERY_S:
                self.sample()
            return fn(*args, **kwargs)
        return probed

    def interleaved(self):
        """Sample at every :data:`HOOKS` call for the duration of the block."""
        return patched([(hook, self._probed) for hook in HOOKS])

    def factor(self, since: int) -> float:
        """REFERENCE_S over the mean of the samples taken since index ``since``."""
        return REFERENCE_S / float(np.mean(self.samples[since:]))
