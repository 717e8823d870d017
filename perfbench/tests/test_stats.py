import pytest

from perfbench import stats


def test_nearest_rank_on_known_samples():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.5).value == 50
    assert stats.percentile(samples, 0.99).value == 99
    assert stats.percentile([4, 1, 3, 2], 0.5).value == 2
    assert stats.percentile([5.0], 0.99).value == 5.0


def test_count_and_beyond():
    p99 = stats.percentile(list(range(1, 1001)), 0.99)
    assert (p99.value, p99.count, p99.beyond) == (990, 1000, 10)
    tied = stats.percentile([1, 2, 2, 2, 3], 0.5)
    assert (tied.value, tied.beyond) == (2, 1)


def test_tail_refuses_too_few_beyond():
    assert stats.tail(list(range(1000)), 0.99).beyond == 10
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(999)), 0.99)
    with pytest.raises(stats.TooFewSamples):
        stats.tail([1.0] * 5000, 0.99)


def test_min_samples_for():
    assert stats.min_samples_for(0.99) == 1000
    assert stats.min_samples_for(0.9) == 100
    assert stats.tail(list(range(stats.min_samples_for(0.9))), 0.9).beyond == 10


def test_layer_sum_identity():
    layers = {"a": 12.5, "b": 30.25, "c": 0.0}
    wall = 50.0
    rest = stats.unattributed_ms(layers, wall)
    assert rest == pytest.approx(7.25)
    assert sum(layers.values()) + rest == pytest.approx(wall)


def test_ratio():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(5, 0) == 0.0
