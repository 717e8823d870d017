from perfbench import gen
from repro.service import AdmitTct, Remove

DEVICES = [f"D{i}" for i in range(1, 13)]


def _shape(requests):
    return [(type(r).__name__, r.stream_name,
             getattr(getattr(r, "requirement", None), "length_bytes", None),
             getattr(getattr(r, "requirement", None), "source", None))
            for r in requests]


def test_same_seed_same_sequence():
    assert gen.admission_mix(7, 500, DEVICES) == gen.admission_mix(7, 500, DEVICES)


def test_different_seed_different_sequence():
    assert _shape(gen.admission_mix(7, 500, DEVICES)) != _shape(
        gen.admission_mix(8, 500, DEVICES))


def test_prefix_is_stable_under_count():
    assert gen.admission_mix(3, 100, DEVICES) == gen.admission_mix(
        3, 1000, DEVICES)[:100]


def test_remove_names_the_admit_window_admits_earlier():
    requests = gen.admission_mix(5, 400, DEVICES)
    admits = [r.stream_name for r in requests if isinstance(r, AdmitTct)]
    for position, request in enumerate(requests):
        if isinstance(request, Remove):
            newest = requests[position - 1].stream_name
            assert gen.admit_index(newest) - gen.admit_index(
                request.name) == gen.WINDOW
            assert request.name in admits


def test_every_block_has_the_fixed_composition():
    requests = gen.admission_mix(11, 10_000, DEVICES)
    admits = [r.requirement for r in requests if isinstance(r, AdmitTct)]
    full = len(admits) // gen.BLOCK * gen.BLOCK
    for start in range(0, full, gen.BLOCK):
        block = admits[start:start + gen.BLOCK]
        assert sum(r.e2e_ns == gen.INFEASIBLE_E2E_NS for r in block) == \
            gen.INFEASIBLE
        assert sum(r.share for r in block) == gen.SHARING
        assert sorted(r.period_ns // 1_000_000 for r in block) == sorted(
            gen.PERIODS_MS)
        assert all(r.source != r.destination for r in block)
