"""Smoke tests for the wall-clock microbenchmark suite.

These run the probes in quick mode — op counts ~10x down — because
tier-1 cares that the machinery works (workloads run, metrics come out,
the report round-trips, the gate consumes it), not about absolute
rates.  Rate values are only sanity-checked to be positive and finite.
"""

import math

import pytest

from repro.bench import micro
from repro.bench.report import load_report


_PROGRESS = []


@pytest.fixture(scope="module")
def quick_metrics():
    _PROGRESS.clear()
    return micro.run_micro_suite(quick=True, progress=_PROGRESS.append)


def test_suite_reports_every_hot_path(quick_metrics):
    for key in (
        "kernel.events_per_s",
        "fabric.messages_per_s",
        "checker.check_all_events_per_s",
        "explore.states_per_s",
        "explore.runs_per_s",
        "campaign.runs_per_s",
        "explore.parallel.states_per_s",
        "workload.sim_clients_per_s",
        "workload.aggregate_speedup",
        "dissemination.leader-direct.messages_per_s",
        "dissemination.chain.messages_per_s",
        "dissemination.tree.messages_per_s",
        "dissemination.ring.messages_per_s",
        "tracing.off.ops_per_s",
        "tracing.recorder.ops_per_s",
        "tracing.recorder.relative_throughput",
        "tracing.sampled.ops_per_s",
        "tracing.sampled.relative_throughput",
        "tracing.full.ops_per_s",
        "tracing.full.relative_throughput",
    ):
        rate = quick_metrics[key]
        assert rate > 0 and math.isfinite(rate), key


def test_tracing_probe_reports_the_gated_overhead(quick_metrics):
    # The one-sided overhead metric the baseline gate pins to [0, 0.05]
    # on full-size runs.  Quick mode only checks shape, not the bound:
    # sub-second sections are far too noisy for the 5% claim.
    overhead = quick_metrics["tracing.recorder.overhead"]
    assert 0.0 <= overhead <= 1.0
    assert overhead == max(
        0.0, 1.0 - quick_metrics["tracing.recorder.relative_throughput"]
    )
    # Event-volume accounting: the control-posture black box rings a
    # few dozen control-plane events; sampling cuts the full stream by
    # roughly the sample rate while remaining non-empty.
    assert 0 < quick_metrics["tracing.recorder.events"] \
        < quick_metrics["tracing.sampled.events"] \
        < quick_metrics["tracing.full.events"]


def test_dissemination_probe_separates_topologies(quick_metrics):
    # The deterministic byte metric must show the headline effect even
    # in quick mode: relayed topologies unload the leader's NIC.
    def egress(topology):
        return quick_metrics[
            "dissemination.%s.leader_egress_bytes_per_txn" % topology
        ]

    assert egress("chain") < egress("leader-direct")
    assert egress("ring") < egress("leader-direct")
    assert egress("tree") < egress("leader-direct")


def test_workload_shapes_are_deterministic(quick_metrics):
    # The op-count metrics pin the workload shape, so a baseline
    # comparison is apples-to-apples.
    assert quick_metrics["kernel.events"] == micro.KERNEL_EVENTS / 10
    assert quick_metrics["fabric.messages"] > 0
    assert quick_metrics["explore.states"] > 0
    assert quick_metrics["explore.runs"] > 0


def test_progress_callback_sees_each_probe(quick_metrics):
    assert _PROGRESS == [
        "kernel", "fabric", "checker", "explore", "campaign",
        "parallel explore", "workload", "dissemination", "tracing",
    ]


def test_report_round_trips_through_the_schema(tmp_path, quick_metrics):
    path = tmp_path / "BENCH_micro.json"
    micro.write_micro_report(
        quick_metrics, path=str(path), params={"quick": True}
    )
    report = load_report(str(path))
    assert report["name"] == "micro"
    assert report["params"] == {"quick": True}
    assert report["metrics"] == quick_metrics


def test_render_micro_lists_each_layer(quick_metrics):
    table = micro.render_micro(quick_metrics)
    for label in ("kernel", "fabric", "checker", "explore"):
        assert label in table


def test_render_micro_omits_absent_metrics():
    table = micro.render_micro({"kernel.events_per_s": 123456.0})
    assert "123,456" in table
    assert "fabric" not in table


def test_cli_micro_quick_writes_report(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--micro", "--quick",
                 "--json", "BENCH_micro.json"]) == 0
    out = capsys.readouterr().out
    assert "events/s" in out
    report = load_report(str(tmp_path / "BENCH_micro.json"))
    assert report["name"] == "micro"
    assert report["params"]["quick"] is True
