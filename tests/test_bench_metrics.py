"""Unit and property tests for the benchmark measurement primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.metrics import Timeline, percentile


# --- percentile -------------------------------------------------------------

def test_percentile_basic():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0.0) == 1
    assert percentile(values, 1.0) == 5
    assert percentile(values, 0.5) == 3


def test_percentile_interpolates():
    assert percentile([0, 10], 0.25) == pytest.approx(2.5)


def test_percentile_single_value():
    assert percentile([7], 0.99) == 7


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1),
       st.floats(min_value=0, max_value=1))
def test_percentile_within_range(values, fraction):
    result = percentile(values, fraction)
    # Tiny tolerance for interpolation rounding at extreme magnitudes.
    span = max(abs(min(values)), abs(max(values)), 1.0)
    assert min(values) - span * 1e-12 <= result
    assert result <= max(values) + span * 1e-12


@given(st.lists(st.integers(-1000, 1000), min_size=1))
def test_percentile_monotone_in_fraction(values):
    p25 = percentile(values, 0.25)
    p75 = percentile(values, 0.75)
    assert p25 <= p75


# --- Timeline ---------------------------------------------------------------

def test_timeline_buckets_and_rates():
    timeline = Timeline(bucket=0.5)
    for t in (0.1, 0.2, 0.6, 1.6):
        timeline.add(t)
    series = timeline.series()
    assert series == [
        (0.0, 4.0),   # 2 events / 0.5s
        (0.5, 2.0),
        (1.0, 0.0),   # gap filled with zero
        (1.5, 2.0),
    ]
    assert timeline.total() == 4


def test_timeline_window_filter():
    timeline = Timeline(bucket=1.0)
    for t in range(10):
        timeline.add(float(t))
    series = timeline.series(start=3.0, end=5.0)
    assert [t for t, _r in series] == [3.0, 4.0, 5.0]


def test_timeline_min_rate():
    timeline = Timeline(bucket=1.0)
    timeline.add(0.5, count=10)
    timeline.add(2.5, count=2)
    assert timeline.min_rate() == 0.0   # bucket 1 is empty
    assert timeline.min_rate(start=2.0, end=2.9) == 2.0


def test_timeline_empty():
    assert Timeline().series() == []
    assert Timeline().min_rate() == 0.0


def test_timeline_validation():
    with pytest.raises(ValueError):
        Timeline(bucket=0)
