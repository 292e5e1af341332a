"""Host-speed scaling of timings taken on a shared host.

On a shared host another tenant's work on the same physical core slows this
process by up to about 1.5x, for seconds to minutes at a time, and CPU time
slows as much as wall time. A run that falls into a slow or a fast stretch
then reads slow or fast as a whole, and no statistic over the run's own
samples removes that.

So the benchmark times a fixed *reference* loop, which stands for the
program's mix of small numpy operations and interpreter work, right before
and right after each timed event, and scales the event's time by how fast
the reference ran around it: an event that took ``t`` while the reference
took ``r`` on average reads ``t * NOMINAL_S / r``, its time on a host where
the reference takes ``NOMINAL_S``. The reference is not the program, so it
does not move when the program changes. Reference samples are taken outside
the timed intervals.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 1e-3    # about the reference's quickest on a 2-vCPU Xeon VM
_REPEATS = 3

# A chain of small matrix products over a working set of about 1 MB, and a
# few 64x64 products: of the loops tried, the one whose slowdowns tracked
# the program's eval and training steps most closely.
_rng = np.random.default_rng(0)
_CHAIN = [_rng.standard_normal((32, 32)) for _ in range(100)]
_SQUARE = _rng.standard_normal((64, 64))


def _loop():
    acc = _CHAIN[0]
    for m in _CHAIN:
        acc = np.tanh(acc @ m * 0.01 + m)
    for _ in range(20):
        _SQUARE @ _SQUARE


def reference_s(clock=time.perf_counter) -> float:
    """Mean time of a few runs of the fixed reference loop, with the garbage
    collector off, so that a collection the program's allocations have made
    due runs in the program's next timed event, not here."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(_REPEATS):
            _loop()
        return (clock() - t0) / _REPEATS
    finally:
        if was_enabled:
            gc.enable()


class HostScale:
    """Reference samples around timed events, and the events' scaled times.

    Call ``ref`` right before an event starts, unless the previous event
    ended just before it; call ``scaled`` right after an event ends. Every
    event needs a reference sample before it.
    """

    def __init__(self, reference=reference_s):
        self.reference = reference
        self.samples: list[float] = []
        self._last = None

    def ref(self):
        self._last = self.reference()
        self.samples.append(self._last)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of an event that has just ended, scaled by the mean of
        the reference samples right before and right after it."""
        before = self._last
        self.ref()
        return seconds * NOMINAL_S / (0.5 * (before + self._last))
