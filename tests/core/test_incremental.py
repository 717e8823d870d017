"""Online (incremental) scheduling tests."""

import random

import pytest

from repro.core.baselines import schedule_etsn
from repro.core.incremental import add_ect_stream, add_tct_stream, remove_stream
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.stream import EctStream, Priorities, Stream, TctRequirement
from repro.model.units import milliseconds
from tests.conftest import MTU_WIRE_NS


def _tct(topo, name, src="D1", dst="D3", share=False, period=None, length=1500):
    period = period or milliseconds(8)
    return Stream(
        name=name, path=tuple(topo.shortest_path(src, dst)),
        e2e_ns=period, priority=Priorities.SH_PL if share else Priorities.NSH_PL,
        length_bytes=length, period_ns=period, share=share,
    )


def _base_schedule(topo):
    return schedule_etsn(topo, [_tct(topo, "base1"),
                                _tct(topo, "base2", src="D2")], [])


class TestAddTct:
    def test_admission_keeps_existing_slots(self, star_topology):
        before = _base_schedule(star_topology)
        frozen = {k: list(v) for k, v in before.slots.items()}
        after = add_tct_stream(before, _tct(star_topology, "new1", src="D2"))
        validate(after)
        for key, slots in frozen.items():
            assert after.slots[key] == slots
        assert after.stream("new1")
        # and the input schedule is untouched
        assert all("new1" != s.name for s in before.streams)

    def test_duplicate_rejected(self, star_topology):
        schedule = _base_schedule(star_topology)
        with pytest.raises(ValueError):
            add_tct_stream(schedule, _tct(star_topology, "base1"))

    def test_admission_control_when_full(self, star_topology):
        period = 6 * MTU_WIRE_NS
        streams = [
            _tct(star_topology, f"s{i}", src="D1" if i % 2 else "D2",
                 period=period)
            for i in range(5)
        ]
        schedule = schedule_etsn(star_topology, streams, [])
        with pytest.raises(InfeasibleError):
            add_tct_stream(schedule, _tct(star_topology, "overload",
                                          src="D2", period=period))
        # rejected admission leaves the schedule valid and unchanged
        validate(schedule)
        assert len(schedule.streams) == 5

    def test_sharing_stream_needs_offline_run(self, star_topology):
        schedule = schedule_etsn(
            star_topology, [_tct(star_topology, "base1")],
            [EctStream("e", "D2", "D3", min_interevent_ns=milliseconds(16),
                       length_bytes=1500, possibilities=4)],
        )
        with pytest.raises(InfeasibleError):
            add_tct_stream(schedule, _tct(star_topology, "shared-new",
                                          src="D2", share=True))

    def test_chain_of_admissions(self, star_topology):
        schedule = _base_schedule(star_topology)
        for i in range(4):
            schedule = add_tct_stream(
                schedule, _tct(star_topology, f"grow{i}", src="D2",
                               period=milliseconds(16)))
        validate(schedule)
        assert schedule.meta["incremental_additions"] == 4


class TestAddEct:
    def test_possibilities_added_and_validated(self, star_topology):
        before = schedule_etsn(
            star_topology,
            [_tct(star_topology, "sh", share=True)],
            [],
        )
        ect = EctStream("alarm", "D2", "D3",
                        min_interevent_ns=milliseconds(16),
                        length_bytes=1500, possibilities=4)
        after = add_ect_stream(before, ect)
        validate(after)
        assert len(after.probabilistic_streams()) == 4
        assert [e.name for e in after.ect_streams] == ["alarm"]

    def test_extras_appended_without_moving_message_slots(self, star_topology):
        before = schedule_etsn(
            star_topology, [_tct(star_topology, "sh", share=True)], [],
        )
        base_slots = {
            key: list(slots) for key, slots in before.slots.items()
        }
        ect = EctStream("alarm", "D2", "D3",
                        min_interevent_ns=milliseconds(16),
                        length_bytes=1500, possibilities=4)
        after = add_ect_stream(before, ect)
        # the pre-existing message slot of "sh" on the overlap link is
        # unchanged; an extra slot was appended after it
        key = ("sh", ("SW1", "D3"))
        assert after.slots[key][0] == base_slots[key][0]
        assert len(after.slots[key]) > len(base_slots[key])
        assert after.slots[key][-1].extra

    def test_duplicate_ect_rejected(self, star_topology):
        before = schedule_etsn(star_topology,
                               [_tct(star_topology, "sh", share=True)], [])
        ect = EctStream("alarm", "D2", "D3",
                        min_interevent_ns=milliseconds(16),
                        length_bytes=1500, possibilities=4)
        mid = add_ect_stream(before, ect)
        with pytest.raises(ValueError):
            add_ect_stream(mid, ect)

    def test_possibility_name_clash_rejected(self, star_topology):
        # the TCT holds the name the ECT's first possibility would get;
        # admitting the ECT must refuse, not append to the shared list
        before = add_tct_stream(
            NetworkSchedule(topology=star_topology, streams=[], slots={}),
            _tct(star_topology, "e#ps1", src="D2"),
        )
        frozen = {k: list(v) for k, v in before.slots.items()}
        index = {k: list(v) for k, v in before.link_index().items()}
        ect = EctStream("e", "D2", "D3",
                        min_interevent_ns=milliseconds(16),
                        length_bytes=1500, possibilities=4)
        with pytest.raises(ValueError, match="e#ps1"):
            add_ect_stream(before, ect)
        assert {k: list(v) for k, v in before.slots.items()} == frozen
        assert before.link_index() == index

    def test_second_ect_stream(self, two_switch_topology):
        before = schedule_etsn(
            two_switch_topology,
            [_tct(two_switch_topology, "sh", src="D1", dst="D4", share=True)],
            [EctStream("e1", "D2", "D4", min_interevent_ns=milliseconds(16),
                       length_bytes=1500, possibilities=4)],
        )
        after = add_ect_stream(
            before,
            EctStream("e2", "D2", "D3", min_interevent_ns=milliseconds(16),
                      length_bytes=1500, possibilities=4),
        )
        validate(after)
        assert len(after.ect_streams) == 2
        assert len(after.probabilistic_streams()) == 8


class TestRemove:
    def test_remove_tct(self, star_topology):
        schedule = _base_schedule(star_topology)
        after = remove_stream(schedule, "base2")
        validate(after)
        assert all(s.name != "base2" for s in after.streams)
        assert all(key[0] != "base2" for key in after.slots)

    def test_remove_ect_removes_possibilities(self, star_topology):
        schedule = schedule_etsn(
            star_topology, [_tct(star_topology, "sh", share=True)],
            [EctStream("alarm", "D2", "D3",
                       min_interevent_ns=milliseconds(16),
                       length_bytes=1500, possibilities=4)],
        )
        after = remove_stream(schedule, "alarm")
        validate(after)
        assert not after.probabilistic_streams()
        assert not after.ect_streams

    def test_remove_unknown_raises(self, star_topology):
        with pytest.raises(KeyError):
            remove_stream(_base_schedule(star_topology), "ghost")

    def test_remove_then_readmit(self, star_topology):
        schedule = _base_schedule(star_topology)
        smaller = remove_stream(schedule, "base2")
        again = add_tct_stream(smaller, _tct(star_topology, "base2", src="D2"))
        validate(again)


class TestServiceEquivalence:
    """Equivalence stress: random admit/remove sequences through the
    AdmissionService must end in a schedule that (a) passes the
    independent validator and (b) matches the feasibility verdict of a
    from-scratch ``schedule_etsn`` over the same final stream set."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_storm_matches_offline_feasibility(self, star_topology, seed):
        from repro.service import (AdmissionService, AdmitEct, AdmitTct,
                                   Remove, ScheduleStore, empty_schedule)

        rng = random.Random(seed)
        service = AdmissionService(ScheduleStore(empty_schedule(star_topology)))
        devices = ("D1", "D2", "D3")
        for i in range(80):
            schedule = service.store.schedule
            victims = sorted(
                {s.name for s in schedule.streams if s.parent is None}
                | {e.name for e in schedule.ect_streams}
            )
            roll = rng.random()
            if roll < 0.3 and victims:
                service.submit(Remove(rng.choice(victims)))
            elif roll < 0.4:
                src, dst = rng.sample(devices, 2)
                service.submit(AdmitEct(EctStream(
                    name=f"e{i}", source=src, destination=dst,
                    min_interevent_ns=milliseconds(rng.choice((16, 32))),
                    length_bytes=512, possibilities=2,
                )))
            else:
                src, dst = rng.sample(devices, 2)
                service.submit(AdmitTct(TctRequirement(
                    name=f"t{i}", source=src, destination=dst,
                    period_ns=milliseconds(rng.choice((8, 16))),
                    length_bytes=rng.choice((400, 1500)),
                    priority=Priorities.NSH_PH,
                )))

        final = service.store.schedule
        validate(final)
        # from-scratch re-solve of the surviving population agrees that
        # the set is feasible (same verdict as the accepted online state)
        offline = schedule_etsn(
            star_topology,
            [s for s in final.streams if s.parent is None],
            final.ect_streams,
        )
        validate(offline)
        assert {s.name for s in offline.streams} == {
            s.name for s in final.streams
        }
        assert [e.name for e in offline.ect_streams] == [
            e.name for e in final.ect_streams
        ]
