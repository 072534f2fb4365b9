"""The percentile rule: never report a percentile with fewer than ten
samples beyond it; always report the sample count with it."""

import pytest

from perfbench.common import PercentileRefused, percentile


def test_median_needs_twenty_samples():
    assert percentile(list(range(20)), 50) == (9, 20)
    with pytest.raises(PercentileRefused):
        percentile(list(range(19)), 50)


def test_p90_needs_a_hundred_samples():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == (90, 100)
    with pytest.raises(PercentileRefused):
        percentile(values[:99], 90)


def test_nearest_rank_on_unsorted_samples():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(values, 50) == (3.0, 200)
    assert percentile(values, 90) == (5.0, 200)
