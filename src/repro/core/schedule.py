"""Schedule result model and the independent constraint validator.

Every scheduler backend in this library — the SMT scheduler, the
incremental-backtracking heuristic, and the PERIOD/AVB baselines —
produces a :class:`NetworkSchedule`.  :func:`validate` re-checks the
semantics of paper Eqs. 1-7 directly on the slot table, so a bug in any
backend is caught before a schedule reaches GCL synthesis or simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Stream, StreamType, may_overlap
from repro.model.topology import Topology
from repro.model.units import format_ns, hyperperiod


class ScheduleError(ValueError):
    """Raised when a schedule violates the E-TSN constraint semantics."""


class InfeasibleError(RuntimeError):
    """Raised when a scheduler backend cannot satisfy the requirements."""


class CertifiedInfeasibleError(InfeasibleError):
    """Infeasibility whose UNSAT proof passed independent checking.

    Raised instead of the plain :class:`InfeasibleError` when the SMT
    backend ran with proof logging: the attached certificate was
    replayed by :mod:`repro.check.proof` before this exception left the
    scheduler, so the rejection is machine-checked, not just asserted.
    """

    def __init__(self, message: str, certificate=None, proof_steps: int = 0):
        super().__init__(message)
        self.certificate = certificate
        self.proof_steps = proof_steps


@dataclass
class NetworkSchedule:
    """A complete joint schedule for one TSN network.

    slots
        ``(stream name, link key) -> ordered frame slots`` with concrete
        offsets; extras from prudent reservation included.
    streams
        All scheduled streams (TCT and probabilistic possibilities).
    ect_streams
        The original ECT specifications, kept for the simulator's event
        sources and for GCL synthesis.

    A schedule is treated as immutable once built: the incremental
    primitives (:mod:`repro.core.incremental`) share slot lists and the
    per-link index (:meth:`link_index`) between a schedule and the ones
    derived from it.
    """

    topology: Topology
    streams: List[Stream]
    slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]]
    ect_streams: List[EctStream] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    _link_index: Optional[Dict[Tuple[str, str], List[FrameSlot]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def stream(self, name: str) -> Stream:
        for s in self.streams:
            if s.name == name:
                return s
        raise KeyError(f"no stream named {name!r} in this schedule")

    def stream_slots(self, stream_name: str, link_key: Tuple[str, str]) -> List[FrameSlot]:
        return self.slots[(stream_name, link_key)]

    def link_index(self) -> Dict[Tuple[str, str], List[FrameSlot]]:
        """``link key -> every slot on that link``, derived from ``slots``.

        Built on first use and kept; the incremental primitives hand it
        on to the schedules they derive, rebuilding only the links of the
        stream they add or remove.  Neither the dict nor its lists may be
        mutated.  :func:`validate` and :func:`validate_delta` never read
        it, so a stale index fails delta validation instead of passing a
        bad schedule.
        """
        if self._link_index is None:
            index: Dict[Tuple[str, str], List[FrameSlot]] = {}
            for (_, key), frames in self.slots.items():
                if frames:
                    index.setdefault(key, []).extend(frames)
            self._link_index = index
        return self._link_index

    @property
    def has_link_index(self) -> bool:
        """Whether :meth:`link_index` was built or carried already."""
        return self._link_index is not None

    def carry_link_index(
        self, index: Dict[Tuple[str, str], List[FrameSlot]]
    ) -> None:
        """Adopt ``index``, derived from the schedule this one came from.

        The incremental primitives call this with their input's index
        with only the changed links rebuilt.  It must equal what
        :meth:`link_index` would build from ``slots``; validation never
        reads it, so a wrong index cannot pass a bad schedule.
        """
        self._link_index = index

    def link_slots(self, link_key: Tuple[str, str]) -> List[FrameSlot]:
        """All slots on one directed link, sorted by offset."""
        return sorted(
            self.link_index().get(link_key, ()),
            key=lambda f: (f.offset_ns, f.stream, f.index),
        )

    @property
    def hyperperiod_ns(self) -> int:
        """LCM of all scheduled periods (the GCL cycle).

        A schedule with no time-triggered slots at all (e.g. the AVB
        baseline with only event traffic) falls back to the ECT streams'
        minimum inter-event times so GCL synthesis still has a cycle.
        """
        if self.streams:
            return hyperperiod(s.period_ns for s in self.streams)
        if self.ect_streams:
            return hyperperiod(e.min_interevent_ns for e in self.ect_streams)
        raise ValueError("schedule is empty: no streams and no ECT")

    def tct_streams(self) -> List[Stream]:
        return [s for s in self.streams if s.type == StreamType.DET]

    def probabilistic_streams(self) -> List[Stream]:
        return [s for s in self.streams if s.type == StreamType.PROB]

    def scheduled_latency_ns(self, stream_name: str) -> int:
        """Worst-case end-to-end latency implied by the slot table.

        For TCT: last-frame reception minus first-frame sending.  For a
        probabilistic stream: last-frame reception minus the occurrence
        time (paper Eq. 4's two branches).
        """
        stream = self.stream(stream_name)
        first_link = stream.path[0]
        last_link = stream.path[-1]
        first = self.slots[(stream_name, first_link.key)][0]
        last_frames = self.slots[(stream_name, last_link.key)]
        last = last_frames[-1]
        finish = last.end_ns + last_link.propagation_ns
        if stream.type == StreamType.PROB:
            return finish - stream.occurrence_ns
        return finish - first.offset_ns

    def ect_guarantee_ns(self, ect_name: str) -> int:
        """Formal worst-case delivery bound for one ECT stream's events.

        Two terms:

        1. quantization delay — an event at time ``t`` is carried by the
           next possibility, at most ``T/N`` later (paper Sec. III-B);
        2. the worst possibility's scheduled slot chain (Eqs. 2/4/7).

        Non-preemption blocking — a term the paper's formalization
        omits — is absorbed at scheduling time: every probabilistic slot
        is padded by one MTU wire time (see
        :func:`repro.model.frame.build_frame_vars`), because a reserved
        EP slot may *overlap* a shared TCT slot (the superposition
        design) whose frame is already mid-transmission when the event's
        frame arrives.  Without the pad, one blocked hop cascades into
        missing the next hop's reserved window — up to a full
        quantization step of extra delay.

        The bound holds for any occurrence time and is realized by the
        ``etsn-strict`` GCL (best-effort frames are also covered: they
        are at most one MTU).  The default ``etsn`` GCL is empirically
        far faster at run time.
        """
        possibilities = [
            s for s in self.streams
            if s.type == StreamType.PROB and s.parent == ect_name
        ]
        if not possibilities:
            raise KeyError(f"no probabilistic streams for ECT {ect_name!r}")
        step_ns = possibilities[0].period_ns // len(possibilities)
        worst = max(
            self.scheduled_latency_ns(ps.name) for ps in possibilities
        )
        return step_ns + worst

    def describe(self) -> str:
        """Per-link text table of the schedule (paper Fig. 4/6 style)."""
        lines = [
            f"NetworkSchedule: {len(self.streams)} streams, "
            f"hyperperiod {format_ns(self.hyperperiod_ns)}"
        ]
        by_link: Dict[Tuple[str, str], List[FrameSlot]] = {}
        for (_, key), frames in self.slots.items():
            by_link.setdefault(key, []).extend(frames)
        for key in sorted(by_link):
            lines.append(f"  link <{key[0]},{key[1]}>")
            for slot in sorted(by_link[key], key=lambda f: (f.offset_ns, f.stream)):
                tag = " extra" if slot.extra else ""
                lines.append(
                    f"    [{format_ns(slot.offset_ns):>10} +{format_ns(slot.duration_ns)}] "
                    f"{slot.stream}[{slot.index}] /T={format_ns(slot.period_ns)}{tag}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# periodic-interval arithmetic
# ----------------------------------------------------------------------
def periodic_overlap(
    offset_a: int, len_a: int, period_a: int,
    offset_b: int, len_b: int, period_b: int,
) -> bool:
    """Do ``[offset_a + x*period_a, +len_a)`` and the b-pattern intersect?

    Classic CRT argument: the achievable differences ``offset_b - offset_a
    + y*period_b - x*period_a`` form the residue class of
    ``offset_b - offset_a`` modulo ``g = gcd(period_a, period_b)``; the
    patterns overlap iff some member of that class lies in
    ``(-len_b, len_a)``.
    """
    g = math.gcd(period_a, period_b)
    r = (offset_b - offset_a) % g
    return r < len_a or r > g - len_b


def earliest_gap_shift(
    offset_a: int, len_a: int, period_a: int,
    offset_b: int, len_b: int, period_b: int,
) -> int:
    """Smallest ``delta >= 0`` so that shifting pattern *a* later by
    ``delta`` removes the overlap with pattern *b*.

    Returns 0 when there is no overlap.  Raises :class:`ScheduleError`
    when no shift can ever separate them (``len_a + len_b > gcd``).
    """
    g = math.gcd(period_a, period_b)
    if len_a + len_b > g:
        raise ScheduleError(
            f"patterns of lengths {len_a}+{len_b} can never avoid each other "
            f"under gcd period {g}"
        )
    r = (offset_b - offset_a) % g
    if len_a <= r <= g - len_b:
        return 0
    # Shifting a later by delta turns r into (r - delta) mod g; aim for
    # the start of the free band, r' = g - len_b.
    return (r + len_b) % g


# ----------------------------------------------------------------------
# validation of Eqs. 1-7
# ----------------------------------------------------------------------
def validate(schedule: NetworkSchedule) -> None:
    """Re-check every constraint class on a finished schedule.

    Raises :class:`ScheduleError` with a precise message on the first
    violation.  This validator is intentionally independent of all solver
    code paths: it recomputes the semantics from the slot table alone.
    """
    _validate_completeness(schedule)
    _validate_time_constraints(schedule)
    _validate_sequencing(schedule)
    _validate_e2e(schedule)
    _validate_overlap(schedule)
    _validate_adjacent_links(schedule)
    _validate_alignment(schedule)


def validate_delta(schedule: NetworkSchedule, changed_names) -> None:
    """Validate only the constraints that involve the changed streams.

    Sound shortcut for incremental edits: when ``schedule`` was derived
    from a fully validated schedule by adding/re-placing exactly the
    streams in ``changed_names`` (all other slots untouched), every
    constraint class is either per-stream (windows, sequencing, e2e,
    adjacency, alignment, completeness — unaffected streams still hold
    by assumption) or pairwise on a link (overlap — pairs of unchanged
    streams still hold by assumption).  Checking the changed streams
    per-stream plus changed-vs-all overlap therefore decides exactly
    what :func:`validate` would, at a cost proportional to the edit
    instead of the whole schedule.
    """
    changed = set(changed_names)
    streams = [s for s in schedule.streams if s.name in changed]
    missing = changed - {s.name for s in streams}
    if missing:
        raise ScheduleError(
            f"validate_delta: changed streams {sorted(missing)} are not "
            f"in the schedule"
        )
    _validate_completeness(schedule, streams)
    _validate_time_constraints(schedule, streams)
    _validate_sequencing(schedule, streams)
    _validate_e2e(schedule, streams)
    _validate_overlap_delta(schedule, changed)
    _validate_adjacent_links(schedule, streams)
    _validate_alignment(schedule, streams)


def _validate_overlap_delta(schedule: NetworkSchedule, changed) -> None:
    """Eq. 5 restricted to pairs with at least one changed stream.

    One pass over the slot table gathers the slots of the links the
    changed streams cross; each changed slot is then checked against
    every other slot on its link, and unchanged pairs are never visited.
    """
    streams = {s.name: s for s in schedule.streams}
    by_link: Dict[Tuple[str, str], List[FrameSlot]] = {
        link.key: [] for name in changed for link in streams[name].path
    }
    for (_, key), frames in schedule.slots.items():
        bucket = by_link.get(key)
        if bucket is not None:
            bucket.extend(frames)
    exempt: Dict[Tuple[str, str], bool] = {}
    for key, frames in by_link.items():
        for i, a in enumerate(frames):
            if a.stream not in changed:
                continue
            for j, b in enumerate(frames):
                # a changed-vs-changed pair is checked from its first slot
                if b.stream == a.stream or (j < i and b.stream in changed):
                    continue
                pair = (a.stream, b.stream)
                if pair not in exempt:
                    exempt[pair] = may_overlap(
                        streams[a.stream], streams[b.stream]
                    )
                if not exempt[pair]:
                    _check_pair(key, a, b)


def _check_pair(key: Tuple[str, str], a: FrameSlot, b: FrameSlot) -> None:
    """Eq. 5 for two slots on link ``key`` that may not overlap."""
    if periodic_overlap(
        a.offset_ns, a.duration_ns, a.period_ns,
        b.offset_ns, b.duration_ns, b.period_ns,
    ):
        raise ScheduleError(
            f"link <{key[0]},{key[1]}>: {a.stream}[{a.index}] and "
            f"{b.stream}[{b.index}] overlap but are not allowed to"
        )


def _validate_completeness(schedule: NetworkSchedule, streams=None) -> None:
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            key = (stream.name, link.key)
            if key not in schedule.slots or not schedule.slots[key]:
                raise ScheduleError(f"{stream.name}: no slots on link {link}")
            base = stream.frames_per_period()
            if len(schedule.slots[key]) < base:
                raise ScheduleError(
                    f"{stream.name} on {link}: {len(schedule.slots[key])} slots "
                    f"but the message needs {base} frames"
                )


def _validate_time_constraints(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 1 (window) and Eq. 2 (occurrence time)."""
    for stream in schedule.streams if streams is None else streams:
        # A probabilistic possibility with a late occurrence time may
        # spill into the next cycle (paper Fig. 6); its window widens to
        # ot + T.  The slot still repeats every T, modulo the cycle.
        slack = stream.occurrence_ns if stream.type == StreamType.PROB else 0
        for link in stream.path:
            for slot in schedule.slots[(stream.name, link.key)]:
                if slot.offset_ns < 0:
                    raise ScheduleError(f"{slot.stream}[{slot.index}]: negative offset")
                if slot.end_ns > slot.period_ns + slack:
                    raise ScheduleError(
                        f"{slot.stream}[{slot.index}] on {link}: slot "
                        f"[{slot.offset_ns},{slot.end_ns}) leaves window "
                        f"{slot.period_ns + slack}"
                    )
        if stream.type == StreamType.PROB:
            first = schedule.slots[(stream.name, stream.path[0].key)][0]
            if first.offset_ns < stream.occurrence_ns:
                raise ScheduleError(
                    f"{stream.name}: first slot at {first.offset_ns} precedes "
                    f"occurrence time {stream.occurrence_ns} (Eq. 2)"
                )


def _validate_sequencing(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 3: frames of one stream leave a link in order."""
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            frames = schedule.slots[(stream.name, link.key)]
            for a, b in zip(frames, frames[1:]):
                if a.end_ns > b.offset_ns:
                    raise ScheduleError(
                        f"{stream.name} on {link}: frame {a.index} ends at "
                        f"{a.end_ns} after frame {b.index} starts at {b.offset_ns}"
                    )


def _validate_e2e(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 4, tightened to count the last frame's wire time and
    propagation (reception-based latency, matching Sec. VI-A3)."""
    for stream in schedule.streams if streams is None else streams:
        latency = schedule.scheduled_latency_ns(stream.name)
        if latency > stream.e2e_ns:
            raise ScheduleError(
                f"{stream.name}: scheduled worst-case latency "
                f"{format_ns(latency)} exceeds budget {format_ns(stream.e2e_ns)}"
            )


def _validate_overlap(schedule: NetworkSchedule) -> None:
    """Paper Eq. 5 with the two E-TSN overlap exemptions."""
    streams = {s.name: s for s in schedule.streams}
    by_link: Dict[Tuple[str, str], List[FrameSlot]] = {}
    for (_, key), frames in schedule.slots.items():
        by_link.setdefault(key, []).extend(frames)
    for key, frames in by_link.items():
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                a, b = frames[i], frames[j]
                if a.stream == b.stream:
                    continue  # covered by sequencing + window checks
                if not may_overlap(streams[a.stream], streams[b.stream]):
                    _check_pair(key, a, b)


def _validate_adjacent_links(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 7 with the prudent-reservation offset ``o``."""
    for stream in schedule.streams if streams is None else streams:
        for up, down in zip(stream.path, stream.path[1:]):
            up_frames = schedule.slots[(stream.name, up.key)]
            down_frames = schedule.slots[(stream.name, down.key)]
            o = max(len(up_frames) - len(down_frames), 0)
            for j, down_frame in enumerate(down_frames):
                # Surplus downstream slots (downstream-only sharing) pair
                # with the last upstream frame.
                partner = min(j + o, len(up_frames) - 1)
                up_frame = up_frames[partner]
                earliest = up_frame.end_ns + up.propagation_ns
                if down_frame.offset_ns < earliest:
                    raise ScheduleError(
                        f"{stream.name}: frame {j} on {down} starts at "
                        f"{down_frame.offset_ns} before upstream frame "
                        f"{partner} is fully received at {earliest} (Eq. 7)"
                    )


def _validate_alignment(schedule: NetworkSchedule, streams=None) -> None:
    """Every slot boundary must be drivable by its link's gate."""
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            for slot in schedule.slots[(stream.name, link.key)]:
                if slot.offset_ns % link.time_unit_ns != 0:
                    raise ScheduleError(
                        f"{slot.stream}[{slot.index}] on {link}: offset "
                        f"{slot.offset_ns} not aligned to tu {link.time_unit_ns}"
                    )
