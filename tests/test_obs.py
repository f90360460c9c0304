"""Unit tests for the observability subsystem (repro.obs)."""

import io
import random

import pytest

from repro.bench.metrics import percentile
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    TraceEvent,
    Tracer,
    dump_jsonl,
    load_jsonl,
    phase_spans,
    summarize,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_records_in_virtual_time_order():
    sim = Simulator()
    tracer = Tracer().bind(sim)
    sim.schedule(0.5, tracer.emit, "b.second", 2)
    sim.schedule(0.1, tracer.emit, "a.first", 1)
    sim.schedule(0.9, tracer.emit, "c.third", 3)
    sim.run()
    assert [e.kind for e in tracer.events] == [
        "a.first", "b.second", "c.third"
    ]
    assert [e.t for e in tracer.events] == [0.1, 0.5, 0.9]
    assert [e.node for e in tracer.events] == [1, 2, 3]


def test_tracer_emit_captures_fields():
    tracer = Tracer()
    tracer.emit("leader.sync", node=3, follower=1, mode="DIFF")
    event = tracer.events[0]
    assert event.kind == "leader.sync"
    assert event.node == 3
    assert event.fields == {"follower": 1, "mode": "DIFF"}


def test_tracer_disable_exact_and_prefix():
    tracer = Tracer()
    tracer.disable("net.", "peer.commit")
    tracer.emit("net.send", node=1)
    tracer.emit("net.deliver", node=2)
    tracer.emit("peer.commit", node=1)
    tracer.emit("peer.state", node=1, state="leading")
    assert tracer.kinds() == {"peer.state"}
    assert not tracer.enabled("net.send")
    assert tracer.enabled("peer.state")
    tracer.enable("peer.commit")
    tracer.emit("peer.commit", node=1)
    assert len(tracer.by_kind("peer.commit")) == 1


def test_tracer_kinds_whitelist():
    tracer = Tracer(kinds={"election."})
    tracer.emit("election.start", node=1, round=1)
    tracer.emit("peer.commit", node=1)
    assert tracer.kinds() == {"election.start"}


def test_null_tracer_is_inert_and_inactive():
    before = len(NULL_TRACER.events)
    NULL_TRACER.emit("peer.commit", node=1, zxid=(1, 1))
    assert len(NULL_TRACER.events) == before == 0
    assert NULL_TRACER.active is False
    assert Tracer.active is True
    assert NULL_TRACER.enabled("anything") is False
    # bind() must not capture a simulator (it is shared globally).
    assert NULL_TRACER.bind(Simulator()) is NULL_TRACER


def test_tracer_off_means_zero_events_from_a_real_run():
    # A cluster built without a tracer must leave the shared no-op
    # tracer untouched — the zero-overhead path.
    from repro.harness import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(n_voters=3, seed=0)).start()
    cluster.run_until_stable(timeout=30.0)
    cluster.submit_and_wait(("put", "k", "v"))
    assert len(NULL_TRACER.events) == 0


# ---------------------------------------------------------------------------
# Counters / gauges / histograms
# ---------------------------------------------------------------------------

def test_counter_monotonic():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_callback():
    gauge = Gauge()
    gauge.set(7)
    assert gauge.get() == 7
    lazy = Gauge(fn=lambda: 42)
    assert lazy.get() == 42
    with pytest.raises(ValueError):
        lazy.set(1)


def test_histogram_empty_raises():
    histogram = StreamingHistogram()
    with pytest.raises(ValueError):
        histogram.mean()
    with pytest.raises(ValueError):
        histogram.quantile(0.5)
    assert histogram.snapshot() == {"count": 0}


def test_histogram_quantiles_match_exact_percentile():
    rng = random.Random(42)
    samples = [rng.lognormvariate(-5.0, 1.0) for _ in range(5000)]
    histogram = StreamingHistogram()
    for value in samples:
        histogram.observe(value)
    for fraction in (0.50, 0.95, 0.99):
        exact = percentile(samples, fraction)
        sketch = histogram.quantile(fraction)
        assert abs(sketch - exact) / exact < 0.05, (
            "p%d: sketch %.6g vs exact %.6g" % (
                int(fraction * 100), sketch, exact
            )
        )
    assert abs(histogram.mean() - sum(samples) / len(samples)) < 1e-9


def test_histogram_estimates_stay_within_observed_range():
    histogram = StreamingHistogram()
    for value in (0.010, 0.011, 0.012):
        histogram.observe(value)
    assert 0.010 <= histogram.quantile(0.0) <= 0.012
    assert 0.010 <= histogram.quantile(1.0) <= 0.012
    snap = histogram.snapshot()
    assert snap["min"] == 0.010
    assert snap["max"] == 0.012
    assert snap["count"] == 3


def test_histogram_floor_bucket():
    histogram = StreamingHistogram(floor=1e-3)
    histogram.observe(0.0)       # clamped into bucket zero
    histogram.observe(1e-4)
    assert histogram.count == 2
    assert histogram.quantile(0.5) <= 1e-3


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.counter("a").inc(3)
    registry.gauge("depth", fn=lambda: 17)
    registry.histogram("lat").observe(0.01)
    registry.register_provider("net", lambda: {"dropped": 2})
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["gauges"] == {"depth": 17}
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["net"] == {"dropped": 2}


def test_simulator_attach_metrics_gauges():
    sim = Simulator()
    registry = MetricsRegistry()
    sim.attach_metrics(registry)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert registry.snapshot()["gauges"]["sim.queue_depth"] == 2
    sim.run()
    snap = registry.snapshot()["gauges"]
    assert snap["sim.queue_depth"] == 0
    assert snap["sim.events_fired"] == 2
    assert snap["sim.now"] == 2.0


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------

def _sample_events():
    tracer = Tracer()
    tracer.emit("election.start", node=1, round=1, zxid=[0, 0])
    tracer.emit("leader.sync", node=2, follower=1, mode="DIFF", records=3)
    tracer.emit("fault.heal")   # node=None, no fields
    return tracer


def test_jsonl_round_trip_via_file(tmp_path):
    tracer = _sample_events()
    path = str(tmp_path / "trace.jsonl")
    assert dump_jsonl(tracer, path) == 3
    loaded = load_jsonl(path)
    assert loaded == tracer.events


def test_jsonl_round_trip_via_stream():
    tracer = _sample_events()
    buffer = io.StringIO()
    dump_jsonl(tracer.events, buffer)
    loaded = load_jsonl(io.StringIO(buffer.getvalue()))
    assert loaded == tracer.events
    assert loaded[2].node is None
    assert loaded[2].fields == {}


def test_jsonl_lines_are_valid_json_objects():
    import json

    buffer = io.StringIO()
    dump_jsonl(_sample_events(), buffer)
    for line in buffer.getvalue().splitlines():
        record = json.loads(line)
        assert set(record) == {"t", "node", "kind", "fields"}


# ---------------------------------------------------------------------------
# Timeline reconstruction
# ---------------------------------------------------------------------------

def _synthetic_timeline():
    """Epoch 1 establishes, leader crashes, epoch 2 takes over."""
    raw = [
        (0.00, 1, "election.start", {"round": 1}),
        (0.20, 1, "election.decided", {"leader": 3, "round": 1}),
        (0.25, 3, "leader.sync", {"follower": 1, "mode": "DIFF"}),
        (0.25, 3, "leader.sync", {"follower": 2, "mode": "SNAP"}),
        (0.30, 3, "leader.established", {"epoch": 1}),
        (0.40, 3, "peer.commit", {"zxid": [1, 1]}),
        (0.50, 3, "peer.commit", {"zxid": [1, 2]}),
        (2.00, 3, "fault.crash", {"was_leader": True}),
        (2.10, 1, "election.start", {"round": 2}),
        (2.40, 1, "election.decided", {"leader": 2, "round": 2}),
        (2.45, 2, "leader.sync", {"follower": 1, "mode": "DIFF"}),
        (2.50, 2, "leader.established", {"epoch": 2}),
        (2.60, 2, "peer.commit", {"zxid": [2, 1]}),
    ]
    return [TraceEvent(t, node, kind, fields)
            for t, node, kind, fields in raw]


def test_phase_spans_reconstruction():
    spans = phase_spans(_synthetic_timeline())
    assert len(spans) == 2
    first, second = spans

    assert first["epoch"] == 1
    assert first["leader"] == 3
    assert first["election_start"] == 0.00
    assert first["decided_at"] == 0.20
    assert first["established_at"] == 0.30
    assert first["end"] == 2.00          # closed by the leader crash
    assert first["commits"] == 2
    assert first["first_commit_at"] == 0.40
    assert first["sync_modes"] == {"DIFF": 1, "SNAP": 1}
    assert first["election_s"] == pytest.approx(0.20)
    assert first["sync_s"] == pytest.approx(0.10)

    assert second["epoch"] == 2
    assert second["leader"] == 2
    assert second["commits"] == 1
    assert second["election_start"] == 2.10


def test_summarize_counts_and_faults():
    summary = summarize(_synthetic_timeline())
    assert len(summary["spans"]) == 2
    assert summary["counts"]["peer.commit"] == 3
    assert len(summary["faults"]) == 1
    t, description = summary["faults"][0]
    assert t == 2.00
    assert "crash" in description


def test_phase_spans_interleaved_elections_and_out_of_order_epochs():
    """Concurrent candidates + a stale commit from the deposed leader.

    Two nodes decide on different leaders during the same election
    window, only one establishes, and the old leader's last
    ``peer.commit`` arrives after the new epoch has started — the
    reconstruction must attribute commits to the broadcasting epoch
    and time the election from its *first* start event.
    """
    raw = [
        (0.00, 1, "election.start", {"round": 1}),
        (0.05, 2, "election.start", {"round": 1}),      # concurrent
        (0.20, 1, "election.decided", {"leader": 3, "round": 1}),
        (0.22, 2, "election.decided", {"leader": 2, "round": 1}),
        (0.30, 3, "leader.established", {"epoch": 1}),
        (0.40, 3, "peer.commit", {"zxid": [1, 1]}),
        (2.00, 1, "election.start", {"round": 2}),
        (2.05, 3, "peer.commit", {"zxid": [1, 2]}),     # after close: lost
        (2.40, 1, "election.decided", {"leader": 2, "round": 2}),
        (2.50, 2, "leader.established", {"epoch": 2}),
        (2.55, 3, "peer.commit", {"zxid": [1, 3]}),     # stale old leader
        (2.60, 2, "peer.commit", {"zxid": [2, 1]}),
    ]
    events = [TraceEvent(t, node, kind, fields)
              for t, node, kind, fields in raw]
    first, second = phase_spans(events)

    assert first["epoch"] == 1 and first["leader"] == 3
    # Election timed from the first start to the *winner's* decided.
    assert first["election_s"] == pytest.approx(0.20)
    assert first["end"] == 2.00          # closed when re-election began
    assert first["commits"] == 1         # t=2.05 / t=2.55 not counted

    assert second["epoch"] == 2 and second["leader"] == 2
    assert second["commits"] == 1        # only the new leader's commit
    assert second["election_s"] == pytest.approx(0.40)
    assert second["end"] == 2.60         # trace end


def test_phase_spans_establish_without_observed_election():
    # A trace window that opens mid-broadcast: established but no
    # election events. Timing fields degrade to None, not a crash.
    events = [
        TraceEvent(1.0, 4, "leader.established", {"epoch": 7}),
        TraceEvent(1.5, 4, "peer.commit", {"zxid": [7, 1]}),
    ]
    (span,) = phase_spans(events)
    assert span["epoch"] == 7
    assert span["election_start"] is None
    assert span["election_s"] is None
    assert span["sync_s"] is None
    assert span["commits"] == 1


# ---------------------------------------------------------------------------
# StreamingHistogram edge cases
# ---------------------------------------------------------------------------

def test_histogram_empty_snapshot():
    assert StreamingHistogram().snapshot() == {"count": 0}


def test_histogram_single_sample_quantiles():
    histogram = StreamingHistogram()
    histogram.observe(0.125)
    assert histogram.quantile(0.0) == pytest.approx(0.125)
    assert histogram.quantile(0.5) == pytest.approx(0.125)
    assert histogram.quantile(1.0) == pytest.approx(0.125)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 1
    assert snapshot["p50"] == snapshot["p99"] == pytest.approx(0.125)
    assert snapshot["min"] == snapshot["max"] == 0.125


def test_histogram_bucket_boundary_quantiles():
    # Two samples, three decades apart: any interior quantile must come
    # from one of the two occupied buckets, and the 0/1 extremes must
    # clamp exactly to the observed min/max.
    histogram = StreamingHistogram()
    histogram.observe(1e-3)
    histogram.observe(1.0)
    assert histogram.quantile(0.0) == pytest.approx(1e-3, rel=0.05)
    assert histogram.quantile(1.0) == pytest.approx(1.0, rel=0.05)
    assert histogram.quantile(1.0) <= histogram.max_seen
    p50 = histogram.quantile(0.5)
    assert p50 == pytest.approx(1e-3, rel=0.05) or \
        p50 == pytest.approx(1.0, rel=0.05)


def test_histogram_merge_matches_direct_observation():
    left, right, direct = (StreamingHistogram() for _ in range(3))
    rng = random.Random(42)
    for _ in range(500):
        value = rng.lognormvariate(-6, 1.5)
        (left if rng.random() < 0.5 else right).observe(value)
        direct.observe(value)
    left.merge(right)
    assert left.count == direct.count == 500
    merged, reference = left.snapshot(), direct.snapshot()
    # Bucket counts merge exactly, so every quantile is identical; the
    # mean only matches to float addition-order precision.
    for key in ("count", "p50", "p95", "p99", "min", "max"):
        assert merged[key] == reference[key]
    assert merged["mean"] == pytest.approx(reference["mean"])


def test_histogram_merge_empty_and_into_empty():
    empty = StreamingHistogram()
    full = StreamingHistogram()
    full.observe(0.5)
    full.merge(empty)                      # no-op
    assert full.snapshot()["count"] == 1
    empty.merge(full)
    assert empty.snapshot() == full.snapshot()


def test_histogram_merge_rejects_different_geometry():
    with pytest.raises(ValueError):
        StreamingHistogram().merge(StreamingHistogram(floor=1e-6))
    with pytest.raises(ValueError):
        StreamingHistogram().merge(StreamingHistogram(growth=1.1))


# ---------------------------------------------------------------------------
# Atomic JSONL dumps
# ---------------------------------------------------------------------------

def test_dump_jsonl_failure_preserves_existing_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    dump_jsonl([TraceEvent(0.0, 1, "peer.state", {"ok": True})], str(path))
    before = path.read_text()

    # A mid-dump serialisation failure (object() is not JSON-safe) must
    # leave the previous dump untouched and clean up its temp file.
    bad = [
        TraceEvent(1.0, 1, "peer.state", {}),
        TraceEvent(2.0, 1, "peer.state", {"payload": object()}),
    ]
    with pytest.raises(TypeError):
        dump_jsonl(bad, str(path))
    assert path.read_text() == before
    assert list(tmp_path.iterdir()) == [path]


def test_dump_jsonl_creates_file_atomically(tmp_path):
    path = tmp_path / "fresh.jsonl"
    events = [TraceEvent(float(i), 1, "peer.state", {"i": i})
              for i in range(3)]
    assert dump_jsonl(events, str(path)) == 3
    assert load_jsonl(str(path)) == events
    # No temp droppings next to the output.
    assert list(tmp_path.iterdir()) == [path]


def test_registry_snapshot_deep_sorts_provider_dicts():
    import json

    registry = MetricsRegistry()
    registry.register_provider("zab", lambda: {
        "zeta": 1,
        "alpha": {"b": [{"y": 1, "x": 2}], "a": 3},
        "mixed": {2: "two", "1": "one"},
        "tup": (3, {"k2": 1, "k1": 2}),
    })
    snap = registry.snapshot()
    assert list(snap["zab"]) == ["alpha", "mixed", "tup", "zeta"]
    assert list(snap["zab"]["alpha"]) == ["a", "b"]
    assert list(snap["zab"]["alpha"]["b"][0]) == ["x", "y"]
    # Mixed-type keys fall back to repr order instead of raising.
    assert list(snap["zab"]["mixed"]) == ["1", 2]
    # Tuples become lists so the whole snapshot is JSON-safe.
    assert snap["zab"]["tup"] == [3, {"k1": 2, "k2": 1}]
    json.dumps(snap, default=repr)
    # Two snapshots of identical state serialise identically even when
    # the provider returns keys in a different insertion order.
    registry2 = MetricsRegistry()
    registry2.register_provider("zab", lambda: {
        "mixed": {"1": "one", 2: "two"},
        "tup": (3, {"k1": 2, "k2": 1}),
        "alpha": {"a": 3, "b": [{"x": 2, "y": 1}]},
        "zeta": 1,
    })
    assert repr(registry2.snapshot()) == repr(snap)


def test_phase_spans_with_observer_nodes():
    """Observer (non-voting) peers appear in the trace — synced by the
    leader and committing — without perturbing span reconstruction."""
    from repro.harness.cluster import Cluster, ClusterConfig

    tracer = Tracer()
    tracer.disable("net.")
    cluster = Cluster(ClusterConfig(n_voters=3, n_observers=1, seed=7,
                      tracer=tracer)).start()
    cluster.run_until_stable()
    for k in range(5):
        cluster.submit_and_wait(("put", "k%d" % k, k))
    (observer_id,) = cluster.config.observers
    spans = phase_spans(tracer.events)
    assert len(spans) == 1
    (span,) = spans
    assert span["leader"] in cluster.config.voters
    # The observer replicates and commits like any learner.
    observer_commits = sum(
        1 for e in tracer.events
        if e.kind == "peer.commit" and e.node == observer_id
    )
    assert observer_commits >= 5
    # The span's commit count is the leader's transaction count: the
    # observer's deliveries must not inflate it.
    assert span["commits"] == 5
    assert sum(span["sync_modes"].values()) >= 1
    assert span["established_at"] is not None
    assert span["end"] is None or span["end"] >= span["established_at"]
