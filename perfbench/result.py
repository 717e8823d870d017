"""What one workload run hands back to :mod:`perfbench.run`."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TypeVar

from perfbench.host import HostMeter

T = TypeVar("T")
#: Host samples before each set-up and after the last.
SETUP_HOST_SAMPLES = 2


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: failed correctness checks; any entry fails the run
    problems: List[str]
    setup_s: float
    #: end-to-end metrics (untraced run) or per-layer metrics (traced)
    metrics: Dict[str, float]
    #: human-readable detail printed to stderr: the workload's own
    #: metric names, sample counts, samples beyond each tail
    report: Dict[str, object] = field(default_factory=dict)


def median_setup(set_up: Callable[[], T], repeats: int) -> Tuple[T, float]:
    """Run ``set_up`` ``repeats`` times; return the last result and the
    median duration in seconds, each scaled to the reference host speed
    by host samples taken around it (:mod:`perfbench.host`)."""
    meter = HostMeter()
    durations: List[float] = []
    ticks: List[int] = []
    result = None
    for _ in range(repeats):
        for _ in range(SETUP_HOST_SAMPLES):
            tick = meter.sample()
        started = time.perf_counter()
        result = set_up()
        durations.append(time.perf_counter() - started)
        ticks.append(tick)
    for _ in range(SETUP_HOST_SAMPLES):
        meter.sample()
    scaled = sorted(meter.scale(durations, ticks))
    return result, scaled[len(scaled) // 2]


def own_peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (``ru_maxrss``
    is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
