"""Spans recorded around calls into the program's public entry points.

The traced run wraps entry points from outside (nothing under ``src/``
changes) and records one span per call: layer, start, end, parent and
whether it raised.  A layer's self time is its spans' durations minus
the part their child spans cover, so the self times of all layers plus
the time outside every span add up exactly to the traced wall time.

Parents come from one stack shared by all threads, not a per-thread
one: the admission service runs a rung's solver on a watchdog thread
while the calling thread blocks on it, and the solve must still nest
under the ``service.submit`` span that is waiting for it.  The
benchmark drives each process from a single caller, so calls into
wrapped functions never overlap in time.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; read them after the traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._open: List[int] = []
        self.spans: List[Span] = []

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        start = self._clock()
        with self._lock:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(layer, start, parent))
            self._open.append(index)
        failed = True
        try:
            yield
            failed = False
        finally:
            end = self._clock()
            with self._lock:
                record = self.spans[index]
                record.end = end
                record.failed = failed
                self._open.remove(index)

    def wrap(self, function: Callable, layer: str) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return function(*args, **kwargs)

        return wrapper

    def self_ms(self) -> Dict[str, float]:
        """Self time per layer, in ms."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.seconds
        totals: Dict[str, float] = {}
        for span, children in zip(self.spans, child_s):
            totals[span.layer] = (
                totals.get(span.layer, 0.0) + (span.seconds - children) * 1e3
            )
        return totals

    def total_ms(self, layer: str) -> float:
        return sum(s.seconds for s in self.spans if s.layer == layer) * 1e3

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer)

    def failures(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer and s.failed)


class NullRecorder:
    """The untraced stand-in: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        yield


#: (owner, attribute, layer): an entry point to wrap, named where the
#: program looks it up at call time.
Target = Tuple[object, str, str]


@contextlib.contextmanager
def installed(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for owner, attribute, layer in targets:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(original, layer))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
