"""Exact percentiles over raw samples, and the layer-sum identity.

Every timing percentile the benchmark reports is the classical
nearest-rank order statistic of the raw samples
(:func:`repro.obs.histogram.nearest_rank`), never a log-bucketed
estimate: the histogram's bucket error (up to ~19 %) is wider than the
bounds the benchmark gates on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.obs.histogram import nearest_rank

#: A tail percentile is reported only with at least this many samples
#: strictly above it; below that it is just the slowest few samples.
MIN_BEYOND = 10


class TooFewSamples(RuntimeError):
    """A tail percentile was requested from too small a sample."""


@dataclass(frozen=True)
class Percentile:
    """One percentile with the sample facts that make it meaningful."""

    fraction: float
    value: float
    count: int
    #: samples strictly greater than ``value``
    beyond: int


def percentile(samples: Sequence[float], fraction: float) -> Percentile:
    ordered = sorted(samples)
    value = nearest_rank(ordered, fraction)
    beyond = len(ordered) - bisect_right(ordered, value)
    return Percentile(fraction, value, len(ordered), beyond)


def tail(samples: Sequence[float], fraction: float) -> Percentile:
    """:func:`percentile`, refusing a tail with fewer than
    :data:`MIN_BEYOND` samples beyond it."""
    result = percentile(samples, fraction)
    if result.beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {result.count} samples has only "
            f"{result.beyond} beyond it (need {MIN_BEYOND})"
        )
    return result


def min_samples_for(fraction: float) -> int:
    """Smallest sample count whose ``fraction`` percentile can have
    :data:`MIN_BEYOND` distinct samples beyond it."""
    return int(round(MIN_BEYOND / (1.0 - fraction)))


def unattributed_ms(self_ms: Dict[str, float], wall_ms: float) -> float:
    """Wall time no layer accounts for: ``wall - sum(self times)``.

    By construction ``sum(self_ms.values()) + unattributed_ms == wall``.
    """
    return wall_ms - sum(self_ms.values())


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0
