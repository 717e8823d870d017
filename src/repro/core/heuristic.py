"""Incremental earliest-fit scheduler with restart-based backtracking.

The SMT backend is the faithful formalization, but its Eq. 5 clause count
grows with (streams x frames x hyperperiod repetitions)^2, which is heavy
for the 40-stream simulation topology.  The paper notes (Sec. VII-C) that
incremental backtracking in the style of Steiner [18] applies directly to
its formulation; this module is that scheduler.

The semantics are identical to the SMT formulation — both backends feed
the same independent validator — only the search differs:

* streams are placed one at a time, tightest first;
* each frame takes the earliest offset that respects the window (Eq. 1),
  occurrence time (Eq. 2), same-link ordering (Eq. 3), adjacency (Eq. 7),
  and non-overlap against everything already placed (Eq. 5, with the
  E-TSN exemptions);
* an end-to-end violation (Eq. 4) pushes the stream's release later and
  retries; a placement failure promotes the stream to the front of the
  order and restarts.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import build_frames, window_max_ns
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import (
    InfeasibleError,
    NetworkSchedule,
    ScheduleError,
    earliest_gap_shift,
    validate,
)
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import EctStream, Priorities, Stream, StreamType, may_overlap
from repro.model.topology import Topology
from repro.model.units import ceil_to_multiple


class _PlacementFailure(Exception):
    """A stream cannot be placed against the current occupancy."""

    def __init__(self, stream: str, detail: str) -> None:
        super().__init__(f"{stream}: {detail}")
        self.stream = stream


class _Occupancy:
    """Placed slots per link, for conflict queries during the search.

    ``by_link`` seeds it with a schedule's link index
    (:meth:`NetworkSchedule.link_index`).  Those lists are shared, never
    mutated: :meth:`add` copies a link's list the first time it appends
    to it, so :attr:`by_link` can become the next schedule's index.
    """

    def __init__(
        self,
        streams_by_name: Dict[str, Stream],
        by_link: Optional[Dict[Tuple[str, str], List[FrameSlot]]] = None,
    ) -> None:
        self._streams = streams_by_name
        self.by_link: Dict[Tuple[str, str], List[FrameSlot]] = dict(
            by_link or {}
        )
        self._shared = set(self.by_link)
        # may_overlap() is pure in the stream pair; the fit loop asks the
        # same pairs thousands of times, so memoize by name pair
        self._exempt: Dict[Tuple[str, str], bool] = {}

    def add(self, slot: FrameSlot) -> None:
        key = slot.link
        if key in self._shared:
            self._shared.discard(key)
            self.by_link[key] = self.by_link[key] + [slot]
        else:
            self.by_link.setdefault(key, []).append(slot)

    def earliest_fit(
        self, stream: Stream, frame: FrameVar, lower_bound_ns: int, tu_ns: int
    ) -> int:
        """Earliest conflict-free offset >= lower bound, or raise.

        The slots the frame may not overlap are swept round-robin until
        one whole lap leaves the offset unchanged.  Each shift moves the
        offset only past offsets that collide with that slot, so the
        offset never passes the least conflict-free one and any visiting
        order reaches the same answer.
        """
        window_max = window_max_ns(stream, frame)
        phi = ceil_to_multiple(max(lower_bound_ns, 0), tu_ns)
        if phi > window_max:
            raise _PlacementFailure(
                stream.name,
                f"frame {frame.index} lower bound {lower_bound_ns} beyond "
                f"window max {window_max} on {frame.link}",
            )
        others = self.by_link.get(frame.link, ())
        exempt = self._exempt
        blocking = []
        for slot in others:
            pair = (stream.name, slot.stream)
            exempted = exempt.get(pair)
            if exempted is None:
                exempted = may_overlap(stream, self._streams[slot.stream])
                exempt[pair] = exempted
            if not exempted:
                blocking.append(slot)
        # Clearing one pattern can re-enter another's forbidden residue a
        # few times before escaping; the bound on shifts is generous.
        guard = max(1024, 32 * (len(others) + 2))
        duration, period = frame.duration_ns, frame.period_ns
        clean = shifts = 0
        for slot in itertools.cycle(blocking):
            if clean == len(blocking):
                break
            try:
                shift = earliest_gap_shift(
                    phi, duration, period,
                    slot.offset_ns, slot.duration_ns, slot.period_ns,
                )
            except ScheduleError as exc:
                raise _PlacementFailure(stream.name, str(exc)) from exc
            if not shift:
                clean += 1
                continue
            phi += shift
            if phi > window_max:
                raise _PlacementFailure(
                    stream.name,
                    f"frame {frame.index} pushed past window max "
                    f"{window_max} on {frame.link}",
                )
            shifts += 1
            if shifts > guard:
                raise _PlacementFailure(
                    stream.name,
                    f"no fixpoint for frame {frame.index} on {frame.link}",
                )
            # the slot just cleared is clean at the new offset
            clean = 1
        return phi


def _try_place(
    stream: Stream,
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
    release_ns: int,
) -> List[FrameSlot]:
    """Place all frames of one stream, earliest-fit, first frame >= release."""
    placed: List[FrameSlot] = []
    prev_slots: Optional[List[FrameSlot]] = None
    prev_link = None
    for link in stream.path:
        frame_vars = frames[(stream.name, link.key)]
        link_slots: List[FrameSlot] = []
        sequencing_lb = 0
        for j, fv in enumerate(frame_vars):
            lb = sequencing_lb
            if prev_slots is None:
                if j == 0:
                    lb = max(lb, release_ns)
            else:
                o = max(len(prev_slots) - len(frame_vars), 0)
                partner = prev_slots[min(j + o, len(prev_slots) - 1)]
                lb = max(lb, partner.end_ns + prev_link.propagation_ns)
            phi = occupancy.earliest_fit(stream, fv, lb, link.time_unit_ns)
            slot = fv.scheduled(phi)
            link_slots.append(slot)
            sequencing_lb = slot.end_ns
        placed.extend(link_slots)
        prev_slots = link_slots
        prev_link = link
    return placed


def _place_stream(
    stream: Stream,
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
) -> List[FrameSlot]:
    """Place one stream, iterating the release time until Eq. 4 holds."""
    last_link = stream.path[-1]
    if stream.type == StreamType.PROB:
        release = stream.occurrence_ns
    else:
        release = 0
    tu = stream.path[0].time_unit_ns
    while True:
        slots = _try_place(stream, frames, occupancy, release)
        last = [s for s in slots if s.link == last_link.key][-1]
        finish = last.end_ns + last_link.propagation_ns
        start_ref = (
            stream.occurrence_ns
            if stream.type == StreamType.PROB
            else [s for s in slots if s.link == stream.path[0].key][0].offset_ns
        )
        if finish - start_ref <= stream.e2e_ns:
            return slots
        if stream.type == StreamType.PROB:
            raise _PlacementFailure(
                stream.name,
                f"latency {finish - start_ref} exceeds budget {stream.e2e_ns} "
                f"and the occurrence time is fixed",
            )
        # Delaying the release shrinks (finish - first.φ); iterate.
        release = max(finish - stream.e2e_ns, release + tu)


def _placement_order(streams: Sequence[Stream]) -> List[Stream]:
    """Tightest-first: short periods, then small latency budgets.

    Probabilistic possibilities go last — the overlap exemptions make
    them cheap to fit around an existing TCT schedule — ordered by parent
    and occurrence time so superposition slots coalesce naturally.
    """
    tct = [s for s in streams if s.type == StreamType.DET]
    prob = [s for s in streams if s.type == StreamType.PROB]
    tct.sort(key=lambda s: (s.period_ns, s.e2e_ns, s.name))
    prob.sort(key=lambda s: (s.parent or "", s.occurrence_ns, s.name))
    return tct + prob


def schedule_heuristic(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream] = (),
    validate_result: bool = True,
    max_restarts: Optional[int] = None,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
) -> NetworkSchedule:
    """Compute a joint E-TSN schedule with the incremental backend.

    Raises :class:`InfeasibleError` after the restart budget is spent.
    """
    streams: List[Stream] = list(tct_streams)
    ects = list(ect_streams)
    for ect in ects:
        streams.extend(expand_ect(ect, topology))
    for stream in streams:
        Priorities.check(stream)

    plan = prudent_reservation(streams, mode=reservation_mode)
    frames = build_frames(streams, plan, guard_margin_ns)
    streams_by_name = {s.name: s for s in streams}
    order = _placement_order(streams)
    if max_restarts is None:
        max_restarts = 2 * len(streams) + 4

    last_failure = ""
    for _ in range(max_restarts + 1):
        occupancy = _Occupancy(streams_by_name)
        slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]] = {}
        failed: Optional[str] = None
        for stream in order:
            try:
                placed = _place_stream(stream, frames, occupancy)
            except _PlacementFailure as exc:
                failed = stream.name
                last_failure = str(exc)
                break
            for slot in placed:
                occupancy.add(slot)
                slots.setdefault((slot.stream, slot.link), []).append(slot)
        if failed is None:
            for frame_list in slots.values():
                frame_list.sort(key=lambda s: s.index)
            schedule = NetworkSchedule(
                topology=topology,
                streams=streams,
                slots=slots,
                ect_streams=ects,
                meta={
                    "backend": "heuristic",
                    "extra_slots": sum(plan.extras.values()),
                },
            )
            if validate_result:
                validate(schedule)
            return schedule
        # Promote the failed stream to the front and retry, unless it
        # already led the order (then more restarts cannot help).
        if order[0].name == failed:
            break
        order.sort(key=lambda s: s.name != failed)
    raise InfeasibleError(
        f"heuristic scheduler: could not place all {len(streams)} streams "
        f"after {max_restarts} restarts (last failure: {last_failure})"
    )
