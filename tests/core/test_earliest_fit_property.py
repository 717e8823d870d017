"""Property tests for the heuristic's earliest-fit kernel.

``_Occupancy.earliest_fit`` must return the *smallest* offset at or after
the lower bound whose periodic slot pattern avoids every placed slot it
may not overlap — verified against a brute-force scan.  The placed slots
arrive in random order and include neighbours the newcomer is exempt
from (paper Sec. IV-B2), because the kernel's sweep claims that the
visiting order never changes the answer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.heuristic import _Occupancy, _PlacementFailure
from repro.core.schedule import periodic_overlap
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import Priorities, Stream, StreamType, may_overlap
from repro.model.topology import Topology


def _topo():
    topo = Topology()
    topo.add_switch("SW")
    topo.add_device("A")
    topo.add_device("B")
    topo.add_link("A", "SW")
    topo.add_link("B", "SW")
    return topo


#: stream kinds: non-sharing TCT, sharing TCT, and possibilities of two
#: ECT parents (same-parent possibilities may overlap; a possibility may
#: overlap a sharing TCT)
KINDS = ("det", "shared", "prob-e0", "prob-e1")


def _stream(topo, name, period, kind="det"):
    common = dict(
        name=name, path=tuple(topo.shortest_path("A", "B")),
        e2e_ns=period, length_bytes=64, period_ns=period,
    )
    if kind.startswith("prob"):
        return Stream(priority=Priorities.EP, type=StreamType.PROB,
                      parent=kind[len("prob-"):], **common)
    if kind == "shared":
        return Stream(priority=Priorities.SH_PL, share=True, **common)
    return Stream(priority=Priorities.NSH_PL, **common)


PERIODS = [60, 120, 240]
LINK = ("A", "SW")


@st.composite
def occupancy_case(draw):
    topo = _topo()
    streams = {}
    slots = []
    for i in range(draw(st.integers(0, 12))):
        period = draw(st.sampled_from(PERIODS))
        duration = draw(st.integers(1, 12))
        offset = draw(st.integers(0, period - duration))
        name = f"s{i}"
        kind = draw(st.sampled_from(KINDS))
        streams[name] = _stream(topo, name, period, kind)
        slots.append(FrameSlot(name, LINK, 0, offset, period, duration))
    slots = draw(st.permutations(slots))
    new_period = draw(st.sampled_from(PERIODS))
    newcomer = _stream(topo, "new", new_period, draw(st.sampled_from(KINDS)))
    new_duration = draw(st.integers(1, 12))
    lower = draw(st.integers(0, new_period))
    return topo, streams, slots, newcomer, new_duration, lower


def _occupancy(streams, slots, newcomer):
    streams = dict(streams)
    streams["new"] = newcomer
    occupancy = _Occupancy(streams)
    for slot in slots:
        occupancy.add(slot)
    return occupancy


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case())
def test_earliest_fit_matches_brute_force(case):
    topo, streams, slots, newcomer, duration, lower = case
    period = newcomer.period_ns
    occupancy = _occupancy(streams, slots, newcomer)
    frame = FrameVar("new", LINK, 0, period, duration)
    blocking = [
        s for s in slots if not may_overlap(newcomer, streams[s.stream])
    ]

    def conflicts(phi: int) -> bool:
        return any(
            periodic_overlap(phi, duration, period,
                             s.offset_ns, s.duration_ns, s.period_ns)
            for s in blocking
        )

    # a possibility at occurrence 0 has the deterministic window
    window_max = period - duration
    expected = None
    for phi in range(max(lower, 0), window_max + 1):
        if not conflicts(phi):
            expected = phi
            break

    try:
        got = occupancy.earliest_fit(newcomer, frame, lower, tu_ns=1)
    except _PlacementFailure:
        got = None

    if expected is None:
        assert got is None
    else:
        assert got == expected


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case())
def test_earliest_fit_respects_time_unit(case):
    """With a coarser gate granularity, the result is a tu multiple and
    still conflict-free."""
    topo, streams, slots, newcomer, duration, lower = case
    period = newcomer.period_ns
    tu = 4
    # keep every pattern tu-aligned so alignment is achievable
    slots = [
        FrameSlot(s.stream, s.link, 0, (s.offset_ns // tu) * tu,
                  s.period_ns, ((s.duration_ns + tu - 1) // tu) * tu)
        for s in slots
    ]
    duration = ((duration + tu - 1) // tu) * tu
    if duration > period:
        return
    occupancy = _occupancy(streams, slots, newcomer)
    frame = FrameVar("new", LINK, 0, period, duration)
    try:
        got = occupancy.earliest_fit(newcomer, frame, lower, tu_ns=tu)
    except _PlacementFailure:
        return
    assert got % tu == 0
    assert got >= lower
    assert not any(
        periodic_overlap(got, duration, period,
                         s.offset_ns, s.duration_ns, s.period_ns)
        for s in slots if not may_overlap(newcomer, streams[s.stream])
    )
