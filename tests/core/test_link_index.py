"""The per-link slot index the incremental primitives carry forward.

``NetworkSchedule.link_index`` is built once per schedule and then
handed on copy-on-write by every admit and remove.  These tests drive
seeded random operation sequences and check after *every* step that:

* the carried index equals one rebuilt from ``slots`` (as a multiset of
  slots per link), and the result passes the full validator;
* the input schedule and its index are never mutated, accepted or not;
* the same operation on a fresh schedule built from the same slots (no
  carried index) makes the same verdict and the identical slot table.
"""

import random
from collections import Counter

import pytest

from repro.core.incremental import (
    add_ect_stream,
    add_shared_tct_stream,
    add_tct_stream,
    remove_stream,
)
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.stream import EctStream, Priorities, Stream
from repro.model.units import milliseconds

DEVICES = ("D1", "D2", "D3", "D4")


def _multiset(index):
    return {key: Counter(slots) for key, slots in index.items() if slots}


def _fresh(schedule):
    """The same schedule with no index built yet."""
    return NetworkSchedule(
        topology=schedule.topology,
        streams=list(schedule.streams),
        slots=dict(schedule.slots),
        ect_streams=list(schedule.ect_streams),
        meta=dict(schedule.meta),
    )


def _random_op(rng, topo, schedule, counter):
    """One random admit (sharing or not), ECT admit, or remove."""
    roll = rng.random()
    live = [s.name for s in schedule.tct_streams()]
    live += [e.name for e in schedule.ect_streams]
    if roll < 0.25 and live:
        name = rng.choice(live)
        return "remove", lambda s: remove_stream(s, name)
    source, destination = rng.sample(DEVICES, 2)
    name = f"op{counter}"
    if roll < 0.4:
        ect = EctStream(
            name, source, destination,
            min_interevent_ns=milliseconds(rng.choice((8, 16))),
            length_bytes=rng.choice((300, 800, 1500)),
            possibilities=rng.choice((2, 4)),
        )
        return "ect", lambda s: add_ect_stream(s, ect)
    period = milliseconds(rng.choice((2, 4, 8)))
    share = roll < 0.65
    stream = Stream(
        name=name, path=tuple(topo.shortest_path(source, destination)),
        e2e_ns=period,
        priority=Priorities.SH_PL if share else Priorities.NSH_PL,
        length_bytes=rng.choice((200, 900, 1500, 3000)),
        period_ns=period, share=share,
    )
    if share:
        return "shared", lambda s: add_shared_tct_stream(s, stream)
    return "tct", lambda s: add_tct_stream(s, stream)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_carried_index_matches_rebuild_after_every_step(
    two_switch_topology, seed
):
    topo = two_switch_topology
    rng = random.Random(seed)
    schedule = NetworkSchedule(topology=topo, streams=[], slots={})
    accepted = Counter()
    for step in range(60):
        kind, op = _random_op(rng, topo, schedule, step)
        before = _multiset(schedule.link_index())
        before_slots = dict(schedule.slots)
        try:
            after = op(schedule)
        except InfeasibleError:
            after = None
        # the input and its index are untouched either way
        assert _multiset(schedule.link_index()) == before
        assert schedule.slots == before_slots
        try:
            twin = op(_fresh(schedule))
        except InfeasibleError:
            twin = None
        if after is None:
            assert twin is None, f"step {step}: {kind} verdicts differ"
            continue
        accepted[kind] += 1
        assert twin is not None, f"step {step}: {kind} verdicts differ"
        assert after.slots == twin.slots
        carried = after._link_index
        assert carried is not None, f"step {step}: {kind} dropped the index"
        assert _multiset(carried) == _multiset(_fresh(after).link_index())
        validate(after)
        schedule = after
    assert all(accepted[kind] for kind in ("remove", "ect", "shared", "tct"))


def test_remove_leaves_an_unbuilt_index_lazy(two_switch_topology):
    topo = two_switch_topology
    stream = Stream(
        name="a", path=tuple(topo.shortest_path("D1", "D4")),
        e2e_ns=milliseconds(4), priority=Priorities.NSH_PL,
        length_bytes=900, period_ns=milliseconds(4),
    )
    admitted = _fresh(add_tct_stream(
        NetworkSchedule(topology=topo, streams=[], slots={}), stream
    ))
    removed = remove_stream(admitted, "a")
    assert removed._link_index is None
    assert removed.link_index() == {}
