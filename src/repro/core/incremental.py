"""Online (incremental) scheduling — the paper's future-work direction.

Sec. VII-C motivates *online* scheduling: links fail, applications come
and go, and recomputing the whole network schedule on every change is too
slow.  This module adds streams to an existing :class:`NetworkSchedule`
without moving any already-granted slot:

* :func:`add_tct_stream` — admit one new TCT stream; existing slots are
  frozen, the new stream is placed earliest-fit around them (the
  incremental step of Steiner's backtracking approach [18]).
* :func:`add_ect_stream` — admit one new ECT stream.  Its probabilistic
  possibilities are placed around the frozen schedule.  TCT streams that
  share their slots with the new ECT need fresh prudent-reservation
  extras, and appending extras on one link shifts the adjacent-link
  pairing (paper Fig. 8) — so exactly those streams are *re-placed*;
  every other stream's slots are frozen.
* :func:`remove_stream` — retire a stream and release its slots (for an
  ECT stream, all its possibilities; the extras it induced stay).

Every operation returns a **new** schedule object and leaves the input
untouched; admission failure raises :class:`InfeasibleError` (admission
control semantics).  With ``validate_result`` (the default) the result
passes the full :func:`validate`; the fast path turns that off and runs
:func:`repro.core.schedule.validate_delta` over the changed streams.

The cost of one operation follows the change, not the network.  The
result shares every untouched slot list with its input, and it inherits
the input's per-link index (:meth:`NetworkSchedule.link_index`) with only
the links of the added or removed streams rebuilt.  Placement reads that
index instead of re-collecting every slot per link.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.constraints import build_frames
from repro.core.heuristic import _Occupancy, _place_stream, _PlacementFailure
from repro.core.probabilistic import expand_ect
from repro.core.reservation import ReservationPlan, prudent_reservation
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Priorities, Stream, StreamType


LinkIndex = Dict[Tuple[str, str], List[FrameSlot]]


def _without(index: LinkIndex, victims: Sequence[Stream]) -> LinkIndex:
    """``index`` minus the victims' slots; only their links are rebuilt."""
    names = {s.name for s in victims}
    result = dict(index)
    for key in {link.key for s in victims for link in s.path}:
        kept = [s for s in result.get(key, ()) if s.stream not in names]
        if kept:
            result[key] = kept
        else:
            result.pop(key, None)
    return result


def _clone(schedule: NetworkSchedule) -> NetworkSchedule:
    # slot lists are shared, not copied: a built schedule is never
    # mutated, and the primitives below only add or drop whole keys
    return NetworkSchedule(
        topology=schedule.topology,
        streams=list(schedule.streams),
        slots=dict(schedule.slots),
        ect_streams=list(schedule.ect_streams),
        meta=dict(schedule.meta),
    )


def _admit_det(
    schedule: NetworkSchedule,
    stream: Stream,
    plan: ReservationPlan,
    guard_margin_ns: int,
    validate_result: bool,
) -> NetworkSchedule:
    """Place one deterministic stream earliest-fit around the frozen
    schedule and return the schedule with it added."""
    Priorities.check(stream)
    if any(s.name == stream.name for s in schedule.streams):
        raise ValueError(f"stream {stream.name!r} already scheduled")
    frames = build_frames([stream], plan, guard_margin_ns)
    # the occupancy copies a link's list on its first append, so its
    # by_link becomes the result's index
    streams_by_name = {s.name: s for s in schedule.streams}
    streams_by_name[stream.name] = stream
    occupancy = _Occupancy(streams_by_name, schedule.link_index())
    try:
        placed = _place_stream(stream, frames, occupancy)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {stream.name}: {exc}") from exc

    result = _clone(schedule)
    result.streams.append(stream)
    for slot in placed:
        occupancy.add(slot)
        result.slots.setdefault((slot.stream, slot.link), []).append(slot)
    result.carry_link_index(occupancy.by_link)
    result.meta["incremental_additions"] = (
        schedule.meta.get("incremental_additions", 0) + 1
    )
    if validate_result:
        validate(result)
    return result


def affected_sharing_streams(
    schedule: NetworkSchedule, ect: EctStream
) -> List[Stream]:
    """The sharing TCT streams whose reservations a new ECT reshapes.

    Exactly the deterministic ``share=True`` streams crossing any link
    of the ECT's route: prudent reservation (Alg. 1) adds extras per
    (sharing TCT x ECT) pair per shared link, so these — and only
    these — need re-placement when ``ect`` is admitted.
    """
    ect_links = {link.key for link in ect.route(schedule.topology)}
    return [
        s for s in schedule.streams
        if s.type == StreamType.DET and s.share
        and any(link.key in ect_links for link in s.path)
    ]


def add_tct_stream(
    schedule: NetworkSchedule,
    stream: Stream,
    guard_margin_ns: int = 0,
    validate_result: bool = True,
) -> NetworkSchedule:
    """Admit one TCT stream into a frozen schedule.

    The new stream must not share slots with ECT (``share=False``); use
    :func:`add_shared_tct_stream` for sharing streams, whose own
    reservations depend on the existing ECT set.
    """
    if stream.type != StreamType.DET:
        raise ValueError("add_tct_stream takes a deterministic stream")
    if stream.share and schedule.ect_streams:
        raise InfeasibleError(
            f"{stream.name}: admitting a *sharing* TCT stream online would "
            f"re-shape existing ECT reservations; re-run the offline "
            f"scheduler for that"
        )
    return _admit_det(
        schedule, stream, prudent_reservation([stream]), guard_margin_ns,
        validate_result,
    )


def add_shared_tct_stream(
    schedule: NetworkSchedule,
    stream: Stream,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
) -> NetworkSchedule:
    """Admit one *sharing* TCT stream into a frozen schedule.

    Prudent reservation (Alg. 1) computes a stream's extras from that
    stream's own ``share`` flag and the ECT possibilities on its links —
    never from the other TCT streams.  A new sharing stream therefore
    adds only *its own* extra slots; every existing stream's slot list
    (extras included) is unchanged.  That makes online admission sound:
    freeze everything, compute the candidate's reservation against the
    ECT possibilities, and place its base+extra frames earliest-fit.

    The blanket refusal in :func:`add_tct_stream` predates this
    analysis and is kept there so the ladder's full re-solve rung still
    exercises the offline path when the fast path is disabled.
    """
    if stream.type != StreamType.DET:
        raise ValueError("add_shared_tct_stream takes a deterministic stream")
    if not stream.share:
        return add_tct_stream(
            schedule, stream, guard_margin_ns, validate_result
        )
    # the candidate's extras depend only on the ECT possibilities sharing
    # its links (Alg. 1), so the plan over those plus the candidate gives
    # the candidate exactly the rows a plan over the whole population would
    plan = prudent_reservation(
        schedule.probabilistic_streams() + [stream], mode=reservation_mode
    )
    return _admit_det(
        schedule, stream, plan, guard_margin_ns, validate_result
    )


def add_ect_stream(
    schedule: NetworkSchedule,
    ect: EctStream,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
) -> NetworkSchedule:
    """Admit one ECT stream into a mostly-frozen schedule.

    Slots of streams unrelated to the new ECT never move.  Sharing TCT
    streams crossed by the new ECT need more reservation, and extras on
    one link shift the Eq. 7 pairing, so those streams are re-placed
    from scratch around everything else.
    """
    if any(e.name == ect.name for e in schedule.ect_streams):
        raise ValueError(f"ECT stream {ect.name!r} already scheduled")
    possibilities = expand_ect(ect, schedule.topology)
    # a possibility named like a scheduled stream would append to that
    # stream's slot list, which the input schedule shares
    taken = {s.name for s in schedule.streams}
    clash = next((p.name for p in possibilities if p.name in taken), None)
    if clash is not None:
        raise ValueError(f"stream {clash!r} already scheduled")
    affected = affected_sharing_streams(schedule, ect)
    # only the affected streams' and the possibilities' plan rows are
    # used, and those depend on nothing but the probabilistic streams
    # and the row's own stream (Alg. 1)
    plan_after = prudent_reservation(
        schedule.probabilistic_streams() + possibilities + affected,
        mode=reservation_mode,
    )

    result = _clone(schedule)
    result.streams.extend(possibilities)
    result.ect_streams.append(ect)
    # drop the affected streams' slots; they are re-placed below
    for stream in affected:
        for link in stream.path:
            result.slots.pop((stream.name, link.key), None)
    occupancy = _Occupancy(
        {s.name: s for s in result.streams},
        _without(schedule.link_index(), affected),
    )

    try:
        frames = build_frames(
            affected + possibilities, plan_after, guard_margin_ns
        )
        # re-place the sharing streams first (tighter), then the
        # possibilities (they may overlap the sharing streams anyway)
        for stream in affected + possibilities:
            for slot in _place_stream(stream, frames, occupancy):
                occupancy.add(slot)
                result.slots.setdefault((slot.stream, slot.link), []).append(slot)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {ect.name}: {exc}") from exc

    result.carry_link_index(occupancy.by_link)
    result.meta["incremental_additions"] = (
        schedule.meta.get("incremental_additions", 0) + 1
    )
    if validate_result:
        validate(result)
    return result


def remove_stream(
    schedule: NetworkSchedule, name: str, validate_result: bool = True
) -> NetworkSchedule:
    """Retire a TCT stream or an ECT stream (with all its possibilities).

    Removing an ECT stream leaves the other streams' extra reservations
    in place (they are still valid, just more generous than needed); a
    periodic offline re-run reclaims them.
    """
    ect = next((e for e in schedule.ect_streams if e.name == name), None)
    if ect is not None:
        victims = [s for s in schedule.streams
                   if s.type == StreamType.PROB and s.parent == name]
    else:
        victims = [s for s in schedule.streams if s.name == name]
        if not victims:
            raise KeyError(f"no stream named {name!r}")
    names = {s.name for s in victims}
    result = _clone(schedule)
    if ect is not None:
        result.ect_streams = [e for e in result.ect_streams if e.name != name]
    result.streams = [s for s in result.streams if s.name not in names]
    for stream in victims:
        for link in stream.path:
            result.slots.pop((stream.name, link.key), None)
    if schedule.has_link_index:
        # derive from the victims' paths; an unbuilt index stays lazy
        result.carry_link_index(_without(schedule.link_index(), victims))
    if validate_result:
        validate(result)
    return result
