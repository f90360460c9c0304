"""Tests for the workload drivers and the bench runner."""

import pytest

from repro.bench import (
    AggregateOpenLoopDriver,
    ClosedLoopDriver,
    OpenLoopDriver,
    SessionClass,
)
from repro.bench.runner import default_op_factory, run_broadcast_bench
from repro.harness import Cluster, ClusterConfig


def stable_cluster(seed=130, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_closed_loop_keeps_window_full():
    cluster = stable_cluster()
    driver = ClosedLoopDriver(
        cluster, outstanding=8, op_factory=default_op_factory(64),
        op_size=64,
    ).start()
    cluster.run(1.0)
    driver.stop()
    assert driver.committed > 50
    # Completions equal submissions minus what is still in flight.
    assert driver.submitted - driver.committed <= 8


def test_closed_loop_survives_leader_crash():
    cluster = stable_cluster(seed=131)
    driver = ClosedLoopDriver(
        cluster, outstanding=4, op_factory=default_op_factory(64),
        op_size=64, retry_interval=0.05,
    ).start()
    cluster.run(0.5)
    mid = driver.committed
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    driver.stop()
    assert driver.committed > mid  # progress resumed after failover


def test_open_loop_hits_target_rate():
    cluster = stable_cluster(seed=132)
    driver = OpenLoopDriver(
        cluster, rate=500, op_factory=default_op_factory(64), op_size=64,
    ).start()
    cluster.run(2.0)
    driver.stop()
    achieved = driver.committed / 2.0
    assert 350 < achieved < 650  # Poisson noise around 500


def test_open_loop_counts_rejections_without_leader():
    cluster = stable_cluster(seed=133)
    cluster.crash(cluster.leader().peer_id)
    # Immediately generate load during the election gap.
    driver = OpenLoopDriver(
        cluster, rate=200, op_factory=default_op_factory(64), op_size=64,
    ).start()
    cluster.run(0.2)
    driver.stop()
    assert driver.rejected > 0


def test_open_loop_validates_rate():
    cluster = stable_cluster(seed=134)
    with pytest.raises(ValueError):
        OpenLoopDriver(cluster, rate=0,
                       op_factory=default_op_factory(64), op_size=64)


def test_latency_warmup_window_respected():
    cluster = stable_cluster(seed=135)
    driver = ClosedLoopDriver(
        cluster, outstanding=2, op_factory=default_op_factory(64),
        op_size=64, warmup=0.5,
    ).start()
    cluster.run(1.5)
    driver.stop()
    # Commits before t=0.5 count as committed but are not measured.
    assert 0 < driver.latency.count < driver.committed


def test_runner_end_to_end_smoke():
    result = run_broadcast_bench(
        3, op_size=256, outstanding=8, duration=0.5, warmup=0.1, seed=136,
    )
    assert result.throughput > 0
    assert result.committed > 0
    assert result.check_report.ok
    assert result.latency["p50"] > 0
    assert result.net_stats["by_type"]["Propose"] > 0
    assert "n_voters" in result.params


def test_runner_open_loop_mode():
    result = run_broadcast_bench(
        3, duration=0.5, warmup=0.1, seed=137, open_loop_rate=300,
    )
    assert 0 < result.throughput < 600


# ---------------------------------------------------------------------------
# Aggregate session-class load
# ---------------------------------------------------------------------------

def test_session_class_validates_inputs():
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=0, rate_per_session=1.0)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=0)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=1.0,
                     read_fraction=1.5)
    with pytest.raises(ValueError):
        SessionClass("bad", sessions=1, rate_per_session=1.0,
                     arrival="bursty")


def test_aggregate_rate_is_population_times_per_session():
    cls = SessionClass("web", sessions=1_000_000,
                       rate_per_session=0.0004)
    assert cls.aggregate_rate == pytest.approx(400.0)


def test_aggregate_driver_simulates_millions_of_sessions():
    cluster = stable_cluster(seed=140)
    driver = AggregateOpenLoopDriver(cluster, [SessionClass(
        "web", sessions=2_000_000, rate_per_session=0.0002,
        read_fraction=0.5, op_size=64,
    )]).start()
    cluster.run(1.0)
    driver.stop()
    assert driver.sessions == 2_000_000
    results = driver.results()
    web = results["classes"]["web"]
    # ~400 arrivals/s split evenly between reads and commits.
    assert web["committed"] > 100
    assert web["reads"] > 100
    assert web["latency"]["p50"] > 0


def test_aggregate_driver_per_class_breakdowns_are_independent():
    cluster = stable_cluster(seed=141)
    classes = [
        SessionClass("readers", sessions=1000, rate_per_session=0.2,
                     read_fraction=1.0),
        SessionClass("writers", sessions=100, rate_per_session=1.0,
                     read_fraction=0.0, op_size=("uniform", 32, 256)),
    ]
    driver = AggregateOpenLoopDriver(cluster, classes).start()
    cluster.run(1.0)
    driver.stop()
    results = driver.results()
    assert results["classes"]["readers"]["committed"] == 0
    assert results["classes"]["readers"]["reads"] > 100
    assert results["classes"]["writers"]["reads"] == 0
    assert results["classes"]["writers"]["committed"] > 50


def test_aggregate_driver_is_deterministic():
    def run():
        cluster = stable_cluster(seed=142)
        driver = AggregateOpenLoopDriver(cluster, [SessionClass(
            "mix", sessions=10_000, rate_per_session=0.03,
            read_fraction=0.25, op_size=("uniform", 16, 64),
        )]).start()
        cluster.run(1.0)
        driver.stop()
        return driver.results()

    assert run() == run()


def test_aggregate_driver_rejects_duplicate_class_names():
    cluster = stable_cluster(seed=143)
    cls = SessionClass("dup", sessions=10, rate_per_session=1.0)
    with pytest.raises(ValueError):
        AggregateOpenLoopDriver(cluster, [cls, cls])
    with pytest.raises(ValueError):
        AggregateOpenLoopDriver(cluster, [])


def test_aggregate_driver_counts_rejections_without_leader():
    cluster = stable_cluster(seed=144)
    cluster.crash(cluster.leader().peer_id)
    driver = AggregateOpenLoopDriver(cluster, [SessionClass(
        "storm", sessions=1000, rate_per_session=0.2,
    )]).start()
    cluster.run(0.2)
    driver.stop()
    assert driver.rejected > 0


def test_runner_session_class_mode_reports_per_class_metrics():
    from repro.bench.report import bench_metrics

    result = run_broadcast_bench(
        3, duration=0.5, warmup=0.1, seed=145,
        session_classes=[
            SessionClass("web", sessions=500_000,
                         rate_per_session=0.0008, read_fraction=0.5),
            SessionClass("batch", sessions=10, rate_per_session=10.0,
                         arrival="fixed", op_size=512),
        ],
    )
    assert result.workload is not None
    assert result.workload["sessions"] == 500_010
    assert set(result.workload["classes"]) == {"web", "batch"}
    assert result.params["session_classes"][0]["name"] == "web"
    metrics = bench_metrics(result)
    assert metrics["workload.sessions"] == 500_010
    assert metrics["workload.class.web.committed"] > 0
    assert metrics["workload.class.batch.write_ops"] > 0
    assert metrics["workload.class.web.latency.p50_ms"] > 0


# ---------------------------------------------------------------------------
# Latency figures pinned against the exact sort-based recorder
# ---------------------------------------------------------------------------

#: ``run_broadcast_bench`` figures from the exact sort-based recorder
#: the drivers used before the streaming sketch replaced it.  Counts,
#: committed totals, throughput, mean and max must not move at all;
#: the sketch's percentiles must stay within 3% of the exact ones.
_EXACT_RECORDER_FIGURES = {
    "closed-n3": (
        dict(n_voters=3, op_size=256, outstanding=16, seed=11),
        13257, 26514.0,
        {"count": 13257, "mean": 0.0006042474951932032,
         "max": 0.0006870725042390502, "p50": 0.0006043293965289909,
         "p95": 0.0006397998295834539, "p99": 0.0006540499464795136},
    ),
    "open-n5-1000": (
        dict(n_voters=5, open_loop_rate=1000, seed=12),
        504, 1008.0,
        {"count": 504, "mean": 0.0005619201242900706,
         "max": 0.0009209905373959992, "p50": 0.0005488464271452831,
         "p95": 0.000672015683707977, "p99": 0.0007735013260339897},
    ),
    "sessions-n3": (
        dict(n_voters=3, seed=13, session_classes=[SessionClass(
            "web", sessions=200, rate_per_session=2.0, read_fraction=0.5,
        )]),
        103, 206.0,
        {"count": 103, "mean": 0.0004587214835044459,
         "max": 0.0005044205856370443, "p50": 0.00045765921773549545,
         "p95": 0.0004938802529187491, "p99": 0.0005030330904464797},
    ),
}


@pytest.mark.parametrize("name", sorted(_EXACT_RECORDER_FIGURES))
def test_runner_latency_matches_exact_recorder_figures(name):
    kwargs, committed, throughput, exact = _EXACT_RECORDER_FIGURES[name]
    result = run_broadcast_bench(duration=0.5, warmup=0.1, **kwargs)
    assert result.committed == committed
    assert result.throughput == throughput
    for key in ("count", "mean", "max"):
        assert result.latency[key] == exact[key], key
    for key in ("p50", "p95", "p99"):
        assert result.latency[key] == pytest.approx(exact[key], rel=0.03)
    assert result.latency == (
        result.metrics["histograms"]["bench.commit_latency_s"]
    )
