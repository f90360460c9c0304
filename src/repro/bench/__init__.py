"""Benchmark toolkit: metrics, workload drivers, experiment runners.

Everything measures **simulated time**: throughput is committed
transactions per simulated second, latency is submit-to-commit in
simulated seconds.  Absolute values depend on the network/disk models
configured; the experiments in :mod:`repro.bench.experiments` are about
*shapes* (scaling curves, knees, dips), per EXPERIMENTS.md.

The exceptions are :mod:`repro.bench.micro` (wall-clock rates of the
simulation machinery itself) and :mod:`repro.bench.parallel` (wall-clock
scale-out of campaigns and exploration across processes).
"""

from repro.bench.metrics import Timeline, percentile
from repro.bench.parallel import parallel_explore, run_parallel_campaign
from repro.bench.runner import BenchResult, run_broadcast_bench
from repro.bench.workloads import (
    AggregateOpenLoopDriver,
    ClosedLoopDriver,
    OpenLoopDriver,
    SessionClass,
)

__all__ = [
    "Timeline",
    "percentile",
    "BenchResult",
    "run_broadcast_bench",
    "run_parallel_campaign",
    "parallel_explore",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "SessionClass",
    "AggregateOpenLoopDriver",
]
