"""Reproduction of "Zab: High-performance broadcast for primary-backup
systems" (Junqueira, Reed, Serafini -- DSN 2011).

Quick start::

    from repro import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_voters=3, seed=1)).start()
    cluster.run_until_stable()
    result, zxid = cluster.submit_and_wait(("put", "greeting", "hello"))
    cluster.assert_properties()

This module re-exports the *supported* surface — the names in
``__all__`` below are covered by ``scripts/check_public_api.py`` and
change only with a reviewed snapshot update.  Everything else under
``repro.*`` is internal and may move between releases.

See DESIGN.md for the system inventory, docs/API.md for the reference,
and EXPERIMENTS.md for the paper-vs-measured record of every reproduced
table and figure.
"""

from repro.bench.micro import run_micro_suite
from repro.bench.parallel import parallel_explore, run_parallel_campaign
from repro.bench.runner import run_broadcast_bench
from repro.bench.workloads import AggregateOpenLoopDriver, SessionClass
from repro.checker import Trace, check_all
from repro.client import Client
from repro.harness import (
    OPS_SCENARIOS,
    ActionSchedule,
    Cluster,
    ClusterConfig,
    OpsScenarioResult,
    replay_schedule,
    run_ops_scenario,
    shrink_schedule,
)
from repro.mc import ExplorationResult, ExplorerConfig, explore_schedules
from repro.storage import RetentionPolicy
from repro.zab.dissemination import (
    DISSEMINATION_TOPOLOGIES,
    DisseminationStrategy,
)
from repro.obs import (
    CausalityGraph,
    FlightRecorder,
    HealthMonitor,
    MetricsRegistry,
    TimeSeries,
    Tracer,
    TxnSpan,
    build_spans,
    profile_trace,
    run_health_check,
    to_chrome_trace,
)

__version__ = "1.4.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Client",
    "DisseminationStrategy",
    "DISSEMINATION_TOPOLOGIES",
    "ActionSchedule",
    "replay_schedule",
    "shrink_schedule",
    "OPS_SCENARIOS",
    "OpsScenarioResult",
    "run_ops_scenario",
    "RetentionPolicy",
    "explore_schedules",
    "ExplorerConfig",
    "ExplorationResult",
    "run_broadcast_bench",
    "run_micro_suite",
    "run_parallel_campaign",
    "parallel_explore",
    "SessionClass",
    "AggregateOpenLoopDriver",
    "check_all",
    "Trace",
    "Tracer",
    "FlightRecorder",
    "to_chrome_trace",
    "MetricsRegistry",
    "TxnSpan",
    "build_spans",
    "profile_trace",
    "CausalityGraph",
    "TimeSeries",
    "HealthMonitor",
    "run_health_check",
    "__version__",
]
