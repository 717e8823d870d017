"""Latency recording and statistics — the evaluation toolkit's meter.

Latency is the paper's Sec. VI-A3 definition: the time between the
*reception of the last frame* of a message and the *sending of the first*
(for ECT, the event occurrence — queueing at the source is part of the
measured latency).  Jitter is the standard deviation of latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.histogram import nearest_rank
from repro.sim.frames import SimFrame


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one stream's delivered messages."""

    count: int
    average_ns: float
    minimum_ns: int
    maximum_ns: int
    stddev_ns: float

    @property
    def jitter_ns(self) -> float:
        """The paper measures jitter as the standard deviation of latency."""
        return self.stddev_ns


class LatencyRecorder:
    """Collects per-stream message latencies as frames arrive.

    Duplicate frames — e.g. from 802.1CB-style redundant copies arriving
    over a second path — are eliminated per ``(stream, message, frame)``,
    the R-TAG sequence-recovery function of a FRER listener.  A message
    completes when each distinct frame index has arrived once; later
    copies are ignored.
    """

    def __init__(self) -> None:
        self._arrived: Dict[Tuple[str, int], set] = {}
        self._completed: set = set()
        self._duplicates = 0
        self._latencies: Dict[str, List[int]] = {}
        self._injected: Dict[str, int] = {}
        self._injected_ids: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    def on_inject(self, stream: str, message_id: Optional[int] = None) -> None:
        """A message entered the network (for loss accounting).

        Passing ``message_id`` additionally enables the per-message
        :meth:`lost_frames` detail view; without it only the aggregate
        :meth:`lost` count is available for the stream.
        """
        self._injected[stream] = self._injected.get(stream, 0) + 1
        if message_id is not None:
            self._injected_ids.setdefault(stream, []).append(message_id)

    def on_deliver(self, frame: SimFrame, arrival_ns: int) -> None:
        """A frame reached its listener."""
        key = (frame.stream, frame.message_id)
        if key in self._completed:
            self._duplicates += 1
            return
        seen = self._arrived.setdefault(key, set())
        if frame.frame_index in seen:
            self._duplicates += 1
            return
        seen.add(frame.frame_index)
        if len(seen) < frame.frames_in_message:
            return
        del self._arrived[key]
        self._completed.add(key)
        latency = arrival_ns - frame.created_ns
        self._latencies.setdefault(frame.stream, []).append(latency)

    @property
    def duplicates_eliminated(self) -> int:
        """Redundant-copy frames discarded (FRER elimination count)."""
        return self._duplicates

    # ------------------------------------------------------------------
    def streams(self) -> List[str]:
        return sorted(self._latencies)

    def latencies(self, stream: str) -> List[int]:
        return list(self._latencies.get(stream, ()))

    def delivered(self, stream: str) -> int:
        return len(self._latencies.get(stream, ()))

    def injected(self, stream: str) -> int:
        return self._injected.get(stream, 0)

    def in_flight(self) -> int:
        """Messages with some but not all frames delivered."""
        return len(self._arrived)

    def lost(self, stream: str) -> int:
        """Messages injected but never completed (loss or still queued)."""
        return self.injected(stream) - self.delivered(stream)

    def lost_frames(self) -> List[Tuple[str, int]]:
        """Every (stream, message_id) injected but never completed.

        The detail view behind :meth:`lost`: which messages are missing,
        not just how many.  A message whose frames partially arrived
        (still in flight) appears exactly once — per-frame arrivals
        never multiply the entry.  Only sources that report message ids
        to :meth:`on_inject` contribute.
        """
        return [
            (stream, message_id)
            for stream, ids in sorted(self._injected_ids.items())
            for message_id in ids
            if (stream, message_id) not in self._completed
        ]

    def stats(self, stream: str) -> LatencyStats:
        values = self._latencies.get(stream)
        if not values:
            raise KeyError(f"no delivered messages recorded for {stream!r}")
        count = len(values)
        mean = sum(values) / count
        variance = sum((v - mean) ** 2 for v in values) / count
        return LatencyStats(
            count=count,
            average_ns=mean,
            minimum_ns=min(values),
            maximum_ns=max(values),
            stddev_ns=math.sqrt(variance),
        )

    def percentile(self, stream: str, fraction: float) -> int:
        """Latency at a CDF fraction (nearest-rank); ``ValueError`` for
        a fraction outside ``(0, 1]``."""
        values = self._latencies.get(stream)
        if not values:
            raise KeyError(f"no delivered messages recorded for {stream!r}")
        return nearest_rank(sorted(values), fraction)

    def cdf(self, stream: str) -> List[Tuple[int, float]]:
        """(latency, cumulative fraction) points for plotting."""
        values = sorted(self._latencies.get(stream, ()))
        n = len(values)
        return [(v, (i + 1) / n) for i, v in enumerate(values)]
