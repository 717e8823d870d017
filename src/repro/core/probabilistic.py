"""Probabilistic streams — technique 1 of E-TSN (paper Sec. III-B).

An ECT stream with minimum inter-event time ``T`` may start transmitting
at any instant.  To make it schedulable, E-TSN derives ``N`` periodic
*probabilistic streams* ``ps_1 .. ps_N``: possibility ``i`` starts at
``ot_i = (i-1) * T / N`` and repeats every ``T``.  An event arriving
between ``ot_{i-1}`` and ``ot_i`` is delayed at most ``T/N`` to ride
``ps_i``'s slots, so each possibility's latency budget shrinks by the
quantization step: ``ps.e2e = s.e2e - T/N``.

If a schedule satisfies every possibility, it satisfies the ECT stream no
matter when the event fires; possibilities of the same parent may share
(overlap) time-slots because at most one of them materializes.
"""

from __future__ import annotations

from typing import List

from repro.model.stream import EctStream, Priorities, Stream, StreamError, StreamType
from repro.model.topology import Topology
from repro.model.units import is_multiple


def expand_ect(ect: EctStream, topology: Topology) -> List[Stream]:
    """Derive the ``N`` probabilistic streams of one ECT stream.

    The minimum inter-event time must split evenly into ``N`` macrotick-
    aligned occurrence offsets, and the latency budget left after the
    quantization delay must remain positive — otherwise ``N`` is too small
    (too coarse) or too large (no budget left) for this stream.
    """
    n = ect.possibilities
    if ect.min_interevent_ns % n != 0:
        raise StreamError(
            f"{ect.name}: possibilities N={n} must divide the minimum "
            f"inter-event time {ect.min_interevent_ns} ns evenly"
        )
    step_ns = ect.min_interevent_ns // n
    macrotick = topology.macrotick_ns()
    if not is_multiple(step_ns, macrotick):
        raise StreamError(
            f"{ect.name}: occurrence step {step_ns} ns is not a multiple of "
            f"the network macrotick {macrotick} ns; choose a different N"
        )
    budget_ns = ect.effective_e2e_ns - step_ns
    if budget_ns <= 0:
        raise StreamError(
            f"{ect.name}: e2e budget {ect.effective_e2e_ns} ns does not "
            f"survive the {step_ns} ns quantization delay; increase N"
        )
    path = ect.route(topology)
    possibilities = []
    for i, name in enumerate(possibility_names(ect)):
        possibilities.append(
            Stream(
                name=name,
                path=path,
                e2e_ns=budget_ns,
                priority=Priorities.EP,
                length_bytes=ect.length_bytes,
                period_ns=ect.min_interevent_ns,
                type=StreamType.PROB,
                share=False,
                occurrence_ns=i * step_ns,
                parent=ect.name,
            )
        )
    return possibilities


def possibility_names(ect: EctStream) -> List[str]:
    """The stream names :func:`expand_ect` gives ``ect``'s possibilities."""
    return [f"{ect.name}#ps{i + 1}" for i in range(ect.possibilities)]


def quantization_delay_ns(ect: EctStream) -> int:
    """Worst extra wait an event suffers before its possibility starts.

    This is the ``T/N`` bound of paper Sec. III-B — the design knob traded
    against schedule size when choosing ``N``.
    """
    return ect.min_interevent_ns // ect.possibilities


def possibility_for_occurrence(ect: EctStream, occurrence_ns: int) -> int:
    """Index (0-based) of the possibility that carries an event at ``t``.

    An event at ``t`` rides the first possibility whose occurrence offset
    is at or after ``t mod T``; events exactly on an offset ride it with
    zero delay.
    """
    if occurrence_ns < 0:
        raise ValueError(f"negative occurrence time {occurrence_ns}")
    step_ns = quantization_delay_ns(ect)
    phase = occurrence_ns % ect.min_interevent_ns
    index = -(-phase // step_ns)  # ceil
    return index % ect.possibilities
