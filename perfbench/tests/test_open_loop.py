import asyncio

import pytest

from perfbench import frontend


class FakeClock:
    """Time moves only when the sender sleeps or a write stalls."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _send(due, stalls):
    clock = FakeClock()
    writes = []

    async def write(index):
        writes.append((index, clock.now))
        clock.now += stalls.get(index, 0.0)

    async def sleep(seconds):
        clock.now += max(seconds, 0.0)

    sent = asyncio.run(
        frontend.send_open_loop(len(due), due, write, clock, sleep))
    return sent, writes


def test_sends_on_schedule_without_stalls():
    due = [100.0 + k * 0.002 for k in range(5)]
    sent, writes = _send(due, {})
    assert sent == pytest.approx(due)
    assert [i for i, _ in writes] == list(range(5))


def test_a_stall_makes_later_requests_late_and_they_go_out_at_once():
    due = [100.0 + k * 0.002 for k in range(6)]
    # request 1's write stalls the sender for 5 ms
    sent, _ = _send(due, {1: 0.005})
    late_ms = [(s - d) * 1e3 for d, s in zip(due, sent)]
    assert late_ms[:2] == pytest.approx([0.0, 5.0])
    # requests 2 and 3 were due during the stall: sent immediately, late
    assert late_ms[2:4] == pytest.approx([3.0, 1.0])
    assert late_ms[4:] == pytest.approx([0.0, 0.0])


def test_round_trips_are_timed_from_the_due_time():
    due = [10.0, 10.002, 10.004]
    sent = [10.0, 10.007, 10.007]
    answers = [
        (10.001, {"ok": True}),
        (10.008, {"ok": True}),
        None,
    ]
    phase = frontend.account("500/s", due, sent, answers)
    assert phase.rtt_ms == pytest.approx([1.0, 6.0])
    assert phase.late_ms == pytest.approx([0.0, 5.0, 3.0])
    assert phase.unanswered == 1
    assert phase.failed == 1
    assert phase.attempted == 3


def test_error_answers_are_failures_not_round_trips():
    due = [0.0, 0.001]
    answers = [(0.002, {"ok": False, "error": "server_busy"}),
               (0.003, {"ok": True})]
    phase = frontend.account("1000/s", due, due, answers)
    assert phase.errors == {"server_busy": 1}
    assert phase.failed == 1
    assert phase.rtt_ms == pytest.approx([2.0])
    assert phase.achieved_per_s == pytest.approx(2 / 0.003)


def _closed(count, window, answer_times):
    """Closed-loop sending against a fake server that answers the
    oldest request in flight at each of ``answer_times`` in turn; past
    the last one it answers nothing more."""
    clock = FakeClock()
    writes = []
    answers = iter(answer_times)

    async def write(index):
        writes.append(index)

    def in_flight():
        return len(writes) - answered_count[0]

    answered_count = [0]

    async def answered():
        at = next(answers, None)
        if at is None:
            return False
        clock.now = at
        answered_count[0] += 1
        return True

    sent = asyncio.run(frontend.send_closed_loop(
        count, window, write, in_flight, answered, clock))
    return sent, writes


def test_closed_loop_keeps_the_window_full_and_sends_in_order():
    sent, writes = _closed(5, 2, [101.0, 102.0, 103.0])
    assert writes == list(range(5))
    # two at once, then one more after each answer
    assert sent == pytest.approx([100.0, 100.0, 101.0, 102.0, 103.0])


def test_closed_loop_stops_sending_when_no_answer_comes():
    sent, writes = _closed(5, 2, [101.0])
    assert writes == [0, 1, 2]
    assert len(sent) == 3
