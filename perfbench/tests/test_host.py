import pytest

from perfbench import host


class SteppedClock:
    """Each probe takes ``probe_s[k]``; work advances the clock by hand."""

    def __init__(self, probe_s):
        self.now = 0.0
        self._probe_s = list(probe_s)

    def __call__(self):
        return self.now

    def probe(self):
        self.now += self._probe_s.pop(0)


def test_tick_samples_once_per_chunk():
    clock = SteppedClock([0.001] * 10)
    meter = host.HostMeter(clock, clock.probe, chunk_s=0.005)
    ticks = []
    for _ in range(6):
        ticks.append(meter.tick())
        clock.now += 0.002  # the work
    # samples before work 0, then whenever 5 ms of work have passed
    assert ticks == [0, 0, 0, 1, 1, 1]
    assert meter.samples == pytest.approx([0.001, 0.001])


def test_scaling_cancels_a_slow_stretch():
    reference = host.REFERENCE_S
    # the host runs at full speed, then at half speed for a while
    speeds = [1.0] * 6 + [2.0] * 6
    clock = SteppedClock([reference * s for s in speeds])
    meter = host.HostMeter(clock, clock.probe, chunk_s=0.0)
    raw, ticks = [], []
    for speed in speeds:
        ticks.append(meter.tick())
        raw.append(3.0 * speed)  # the same work, slowed by the host
    assert meter.scale(raw, ticks) == pytest.approx([3.0] * len(speeds))
    assert meter.speed() == pytest.approx(2.0)


def test_one_slow_sample_does_not_move_its_neighbours():
    reference = host.REFERENCE_S
    clock = SteppedClock([reference] * 4 + [reference * 5] + [reference] * 4)
    meter = host.HostMeter(clock, clock.probe, chunk_s=0.0)
    for _ in range(9):
        meter.tick()
    assert meter.factors() == pytest.approx([1.0] * 9)


def test_reference_loop_is_fixed_work():
    assert host.reference_loop() == host.reference_loop()
