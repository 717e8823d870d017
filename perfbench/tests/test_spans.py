import threading

import pytest

from perfbench import spans, stats


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_times_subtract_children():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    with recorder.span("outer"):
        clock.advance(1.0)
        with recorder.span("inner"):
            clock.advance(2.0)
            with recorder.span("leaf"):
                clock.advance(0.5)
        clock.advance(0.25)
    with recorder.span("leaf"):
        clock.advance(1.0)
    assert recorder.self_ms() == pytest.approx(
        {"outer": 1250.0, "inner": 2000.0, "leaf": 1500.0})
    assert recorder.total_ms("outer") == pytest.approx(3750.0)
    assert recorder.calls("leaf") == 2


def test_layers_plus_unattributed_sum_to_wall():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    started = clock()
    for _ in range(3):
        clock.advance(0.1)  # outside every span
        with recorder.span("service"):
            clock.advance(0.2)
            with recorder.span("solver"):
                clock.advance(0.7)
    wall_ms = (clock() - started) * 1e3
    layers = recorder.self_ms()
    rest = stats.unattributed_ms(layers, wall_ms)
    assert rest == pytest.approx(300.0)
    assert sum(layers.values()) + rest == pytest.approx(wall_ms)


def test_span_on_another_thread_nests_under_the_waiting_caller():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def solve():
        with recorder.span("solver"):
            clock.advance(2.0)

    with recorder.span("service"):
        worker = threading.Thread(target=solve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.advance(1.0)
    assert recorder.self_ms() == pytest.approx(
        {"service": 1000.0, "solver": 2000.0})


def test_failed_calls_are_marked():
    recorder = spans.SpanRecorder(FakeClock())
    with pytest.raises(ValueError):
        with recorder.span("resolve"):
            raise ValueError("infeasible")
    with recorder.span("resolve"):
        pass
    assert recorder.failures("resolve") == 1
    assert recorder.calls("resolve") == 2


class _Owner:
    def work(self, value):
        return value * 2


def test_installed_wraps_and_restores():
    recorder = spans.SpanRecorder(FakeClock())
    original = _Owner.__dict__["work"]
    with spans.installed(recorder, [(_Owner, "work", "owner.work")]):
        assert _Owner().work(21) == 42
    assert _Owner.__dict__["work"] is original
    assert recorder.calls("owner.work") == 1
