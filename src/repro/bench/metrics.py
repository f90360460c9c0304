"""Measurement primitives for the experiment harness."""

import math


def percentile(values, fraction):
    """The *fraction*-quantile (0..1) of *values* by linear interpolation."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class Timeline:
    """Time-bucketed event counts — the throughput-over-time series."""

    def __init__(self, bucket=0.1):
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket
        self._counts = {}

    def add(self, time, count=1):
        index = int(time / self.bucket)
        self._counts[index] = self._counts.get(index, 0) + count

    def series(self, start=None, end=None):
        """[(bucket_start_time, events_per_second)], gaps filled with 0."""
        if not self._counts:
            return []
        first = min(self._counts)
        last = max(self._counts)
        if start is not None:
            first = max(first, int(start / self.bucket))
        if end is not None:
            last = min(last, int(end / self.bucket))
        return [
            (index * self.bucket, self._counts.get(index, 0) / self.bucket)
            for index in range(first, last + 1)
        ]

    def total(self):
        return sum(self._counts.values())

    def min_rate(self, start=None, end=None):
        rates = [rate for _t, rate in self.series(start, end)]
        return min(rates) if rates else 0.0
