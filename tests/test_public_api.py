"""The stable top-level surface stays importable and snapshot-clean."""

import importlib.util
import os

import repro

SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "check_public_api.py"
)

SUPPORTED = [
    "Cluster", "Client", "ActionSchedule",
    "run_broadcast_bench", "check_all", "Tracer", "MetricsRegistry",
    "replay_schedule", "shrink_schedule",
    "TxnSpan", "build_spans", "profile_trace", "CausalityGraph",
]


def load_checker():
    spec = importlib.util.spec_from_file_location("check_public_api",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_supported_names_exported():
    for name in SUPPORTED:
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_dunder_all_is_exact():
    missing = [name for name in repro.__all__
               if not hasattr(repro, name)]
    assert not missing


def test_api_matches_committed_snapshot(capsys):
    checker = load_checker()
    code = checker.main([])
    assert code == 0, capsys.readouterr().err


def test_drift_is_detected():
    checker = load_checker()
    current = checker.current_surface()
    tampered = {
        "__all__": current["__all__"] + ["sneaky_new_name"],
        "signatures": dict(current["signatures"],
                           Cluster="(self, totally_different)"),
    }
    problems = checker.diff_surfaces(tampered, current)
    assert any("sneaky_new_name" in p for p in problems)
    assert any("signature drift: Cluster" in p for p in problems)


def test_quickstart_flow_through_top_level_imports():
    cluster = repro.Cluster(repro.ClusterConfig(n_voters=3, seed=1)).start()
    cluster.run_until_stable()
    _result, zxid = cluster.submit_and_wait(("put", "greeting", "hello"))
    assert zxid is not None
    report = repro.check_all(cluster.trace)
    assert report.ok
