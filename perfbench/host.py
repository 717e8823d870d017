"""Host speed, measured next to the work it corrects.

The shared 2-vCPU host this benchmark was tuned on slowed identical
pure-Python work by 1.3-2x, in stretches from milliseconds to minutes.
It was not CPU steal: process time slowed as much as wall time.  No
statistic over a run's own timings removes a slow stretch that covers
the whole run: the fastest trials, the median trial and the per-request
minimum over trials all moved by 20-35 % between runs of identical work.

So the benchmark also measures the host.  A :class:`HostMeter` times a
fixed reference loop (:func:`reference_loop`, plain objects, dicts and
a sort, like the program's own code) whenever :data:`CHUNK_S` of work
has passed since its last sample, and every timing is reported scaled
to the reference speed::

    scaled = raw * REFERENCE_S / local

``local`` is the median of the :data:`WINDOW` reference samples nearest
the timing.  The program never runs inside the reference loop, so a
change to the program moves the scaled figures as it moves the raw ones;
only the host's speed cancels.  On admit_churn the run-to-run spread
(IQR/median over eight seeds) of decisions/s fell from 0.26 raw to 0.03
scaled, of the decision p50 from 0.11 to 0.05 and of its p99 from 0.18
to 0.03.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

#: The reference loop's time on this host when it ran fast (the low
#: end of its samples on a quiet 2-vCPU x86-64 VM, CPython 3).  Only a
#: unit: scaled figures read as times on a host where the loop takes
#: this long.
REFERENCE_S = 0.0007
#: Work between two reference samples.
CHUNK_S = 0.005
#: Reference samples whose median sets the local speed of a timing.
WINDOW = 5


class _Item:
    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group


def reference_loop(size: int = 1000) -> int:
    """Fixed pure-Python work; never changes, never calls the program."""
    items = []
    groups = {}
    for index in range(size):
        item = _Item(index, (index * 7919) % 1009)
        items.append(item)
        groups.setdefault(item.group, []).append(item.key)
    items.sort(key=lambda item: (item.group, item.key))
    return sum(len(keys) * group for group, keys in groups.items())


class HostMeter:
    """Reference samples taken between pieces of work.

    Call :meth:`tick` before each piece of work; it samples when
    :data:`CHUNK_S` has passed since the last sample and returns the
    index of the sample the work belongs to.  After the run,
    :meth:`scale` turns raw timings into reference-speed timings.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], object] = reference_loop,
                 chunk_s: float = CHUNK_S) -> None:
        self._clock = clock
        self._probe = probe
        self._chunk_s = chunk_s
        self._last = 0.0
        self.samples: List[float] = []

    def tick(self) -> int:
        if not self.samples or self._clock() - self._last >= self._chunk_s:
            return self.sample()
        return len(self.samples) - 1

    def sample(self) -> int:
        """Time the reference loop once; returns the sample's index."""
        started = self._clock()
        self._probe()
        self._last = self._clock()
        self.samples.append(self._last - started)
        return len(self.samples) - 1

    def factors(self) -> List[float]:
        """Per sample: the local reference time over :data:`REFERENCE_S`
        (the median of the :data:`WINDOW` nearest samples)."""
        half = WINDOW // 2
        count = len(self.samples)
        factors = []
        for index in range(count):
            start = min(max(index - half, 0), max(count - WINDOW, 0))
            window = sorted(self.samples[start:start + WINDOW])
            factors.append(window[len(window) // 2] / REFERENCE_S)
        return factors

    def scale(self, values: Sequence[float],
              ticks: Sequence[int]) -> List[float]:
        """``values[i]`` (a time measured in the work of tick
        ``ticks[i]``) at the reference speed."""
        factors = self.factors()
        return [value / factors[tick] for value, tick in zip(values, ticks)]

    def speed(self) -> float:
        """Median local factor: above 1 when the host ran slow."""
        factors = sorted(self.factors())
        return factors[len(factors) // 2]
