"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_lists_experiments(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e10" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_e4_runs(capsys):
    assert main(["experiment", "e4"]) == 0
    out = capsys.readouterr().out
    assert "local_primary_order" in out
    assert "zab" in out


def test_bench_prints_summary(capsys):
    assert main(["bench", "--servers", "3", "--duration", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "properties:   OK" in out


def test_bench_json_report(capsys, tmp_path):
    from repro.bench.report import load_report

    path = str(tmp_path / "BENCH_bench.json")
    assert main(["bench", "--servers", "3", "--duration", "0.3",
                 "--json", path]) == 0
    report = load_report(path)
    assert report["name"] == "bench"
    assert report["metrics"]["throughput_ops"] > 0
    assert report["params"]["n_voters"] == 3


def test_profile_reports_stage_breakdown(capsys, tmp_path):
    from repro.bench.report import load_report

    trace = str(tmp_path / "profile.jsonl")
    report_path = str(tmp_path / "BENCH_smoke.json")
    assert main(["profile", "--servers", "5", "--seed", "3",
                 "--rate", "300", "--duration", "1.0", "--net",
                 "-o", trace, "--json", report_path,
                 "--name", "smoke"]) == 0
    out = capsys.readouterr().out
    # Per-transaction stage breakdown from the replayed trace.
    assert "commit-path stage breakdown" in out
    assert "quorum_wait" in out
    assert "quorum wait:" in out            # quorum-wait fraction line
    assert "per-follower ACK anatomy" in out
    assert "slowest ACK" in out             # slowest-follower lag column
    assert "critical path" in out
    report = load_report(report_path)
    assert report["name"] == "smoke"
    assert report["metrics"]["committed"] > 0
    assert report["metrics"]["stage.quorum_wait.p99_ms"] > 0
    assert report["params"]["servers"] == 5


def test_profile_replays_existing_trace(capsys, tmp_path):
    trace = str(tmp_path / "profile.jsonl")
    assert main(["profile", "--servers", "3", "--seed", "1",
                 "--rate", "200", "--duration", "0.5",
                 "-o", trace]) == 0
    capsys.readouterr()
    assert main(["profile", "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "commit-path stage breakdown" in out


def test_profile_empty_trace_errors(capsys, tmp_path):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["profile", "--trace", str(trace)]) == 1
    assert "nothing to profile" in capsys.readouterr().err


def test_fuzz_clean_exit(capsys):
    assert main(["fuzz", "--servers", "3", "--seed", "1",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "ALL OK" in out


def test_fuzz_fires_the_schedule_shrink_replays(capsys):
    from repro.harness.replay import replay_schedule
    from repro.harness.schedule import ActionSchedule

    # Seed 6 mixes crashes, recoveries and partitions on five peers.
    schedule = ActionSchedule.generate(6, n_voters=5, steps=6)
    assert main(["fuzz", "--servers", "5", "--seed", "6",
                 "--steps", "6"]) == 0
    fired = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("t=")]
    assert [line.split(None, 2)[2].split()[0] for line in fired] == [
        action.kind for action in schedule
    ]
    assert fired == [
        "t=%6.2f %s" % pair for pair in replay_schedule(schedule).fired
    ]


def test_campaign_command(capsys):
    assert main(["campaign", "--servers", "3", "--seeds", "2",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL 2 RUNS PASSED" in out
    assert "verdict" in out


def test_campaign_json_report_identical_across_workers(capsys, tmp_path):
    import json

    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["campaign", "--seeds", "2", "--steps", "3",
                 "--json", str(serial)]) == 0
    assert main(["campaign", "--seeds", "2", "--steps", "3",
                 "--workers", "2", "--json", str(parallel)]) == 0
    out = capsys.readouterr().out
    assert "worker" in out          # attribution column in the table
    assert serial.read_bytes() == parallel.read_bytes()
    report = json.loads(serial.read_text())
    assert report["schema"] == "repro-campaign/v1"
    assert report["summary"]["passed"] == 2


def test_explore_workers_flag_partitions_the_search(capsys, tmp_path):
    import json

    path = tmp_path / "explore.json"
    assert main(["explore", "--depth", "2", "--max-violations", "0",
                 "--workers", "2", "--json", str(path),
                 "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "subtree units" in out
    summary = json.loads(path.read_text())
    assert summary["parallel"]["units"] > 0
    assert summary["exhausted"] is True


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_health_scenario_json(capsys, tmp_path):
    import json

    path = str(tmp_path / "health.json")
    assert main(["health", "--rate", "400", "--json", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: healthy" in out
    assert "recovery_dip" in out
    with open(path) as handle:
        report = json.load(handle)
    assert report["schema"] == "repro-health/v1"
    assert report["verdict"] == "healthy"
    assert report["params"]["scenario"] == "crash-recovery"


def test_health_exit_1_while_detector_firing(capsys):
    # End the run mid-outage: the new epoch never commits, so the
    # recovery dip is still open when the monitor freezes.
    assert main(["health", "--rate", "400", "--duration", "4.2"]) == 1
    out = capsys.readouterr().out
    assert "STILL FIRING" in out
    assert "verdict: degraded" in out


def test_health_offline_trace(capsys, tmp_path):
    from repro.harness.scenarios import crash_recovery_timeline
    from repro.obs import Tracer, dump_jsonl

    tracer = Tracer()
    tracer.disable("net.")
    crash_recovery_timeline(n_voters=3, seed=1, rate=200, duration=0.5,
                            tracer=tracer, follower_crash_at=None,
                            leader_crash_at=None, recover_at=None)
    trace = str(tmp_path / "run.jsonl")
    dump_jsonl(tracer.events, trace)
    assert main(["health", "--trace", trace]) == 0
    assert "verdict: healthy" in capsys.readouterr().out


def test_health_missing_trace_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["health", "--trace", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_campaign_health_column(capsys):
    assert main(["campaign", "--servers", "3", "--seeds", "1",
                 "--steps", "3", "--health"]) == 0
    out = capsys.readouterr().out
    assert "health" in out


def _run_trace(path, *extra):
    return main(["trace", "--servers", "3", "--rate", "300",
                 "--duration", "2", "-o", path] + list(extra))


def test_trace_kinds_filter_restricts_the_capture(capsys, tmp_path):
    import json

    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path, "--kinds", "leader.,election.start") == 0
    capsys.readouterr()
    kinds = set()
    with open(path) as handle:
        for line in handle:
            kinds.add(json.loads(line)["kind"])
    assert kinds, "filtered capture is empty"
    for kind in kinds:
        assert kind.startswith("leader.") or kind == "election.start", kind
    assert not any(kind.startswith("net.") for kind in kinds)


def test_trace_limit_keeps_only_the_tail(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path, "--limit", "25") == 0
    capsys.readouterr()
    with open(path) as handle:
        assert sum(1 for _ in handle) == 25


def test_trace_sample_is_deterministic_and_smaller(capsys, tmp_path):
    full = tmp_path / "full.jsonl"
    sampled_a = tmp_path / "a.jsonl"
    sampled_b = tmp_path / "b.jsonl"
    assert _run_trace(str(full), "--net") == 0
    assert _run_trace(str(sampled_a), "--net", "--sample", "8") == 0
    assert _run_trace(str(sampled_b), "--net", "--sample", "8") == 0
    capsys.readouterr()
    # Same seed, same rate: bit-identical artifact — and far smaller
    # than the unsampled capture.
    assert sampled_a.read_bytes() == sampled_b.read_bytes()
    assert sampled_a.stat().st_size < full.stat().st_size / 2


def test_trace_perfetto_export(capsys, tmp_path):
    import json

    trace = str(tmp_path / "trace.jsonl")
    perfetto = tmp_path / "trace.perfetto.json"
    assert _run_trace(trace, "--perfetto", str(perfetto)) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().out
    exported = json.loads(perfetto.read_text())
    assert exported["traceEvents"]
    phases = {record["ph"] for record in exported["traceEvents"]}
    assert "M" in phases and "X" in phases


def test_trace_view_round_trips_a_capture(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path) == 0
    capsys.readouterr()
    assert main(["trace", "--view", path,
                 "--kinds", "leader.,election.", "--limit", "50"]) == 0
    out = capsys.readouterr().out
    assert "last" in out and "events:" in out
    assert "net." not in out


def test_trace_view_announces_a_flight_recorder_dump(capsys, tmp_path):
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder(capacity=8)
    recorder.emit("election.start", node=1, round=1)
    path = str(tmp_path / "flight.jsonl")
    recorder.dump(path, reason="unit_test")
    assert main(["trace", "--view", path]) == 0
    out = capsys.readouterr().out
    assert "flight recorder dump: reason=unit_test" in out
    assert "capacity=8" in out
    assert "election.start" in out


def test_trace_view_missing_file_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["trace", "--view", missing]) == 2
    assert "cannot read" in capsys.readouterr().err
