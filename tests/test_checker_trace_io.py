"""Tests for trace persistence (save/load round trip)."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.checker import check_all, Trace
from repro.harness import Cluster, ClusterConfig
from repro.zab.zxid import Zxid


def test_roundtrip_preserves_events_and_order(tmp_path):
    trace = Trace()
    trace.record_broadcast(1, 1, Zxid(1, 1), "A")
    trace.record_delivery(1, 1, 1, Zxid(1, 1), "A")
    trace.record_broadcast(1, 1, Zxid(1, 2), "B")
    trace.record_delivery(2, 3, 1, Zxid(1, 1), "A")
    path = str(tmp_path / "trace.jsonl")
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.stats() == trace.stats()
    assert [e.txn_id for e in loaded.broadcasts] == ["A", "B"]
    assert [(e.process, e.incarnation, e.position)
            for e in loaded.deliveries] == [(1, 1, 1), (2, 3, 1)]
    # Relative ordering (indices) preserved: broadcast A before its
    # delivery, B after.
    assert loaded.broadcasts[0].index < loaded.deliveries[0].index
    assert loaded.broadcasts[1].index > loaded.deliveries[0].index


def test_loaded_trace_rechecks_identically(tmp_path):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=340)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(10):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    original = check_all(cluster.trace)
    path = str(tmp_path / "run.jsonl")
    cluster.trace.save(path)
    replayed = check_all(Trace.load(path))
    assert replayed.ok == original.ok
    assert replayed.stats == original.stats


def test_violating_trace_survives_roundtrip(tmp_path):
    trace = Trace()
    trace.record_broadcast(1, 1, Zxid(1, 1), "A")
    trace.record_broadcast(1, 1, Zxid(1, 2), "B")
    trace.record_delivery(2, 1, 1, Zxid(1, 2), "B")  # skips A
    path = str(tmp_path / "bad.jsonl")
    trace.save(path)
    report = check_all(Trace.load(path))
    assert "local_primary_order" in report.violated_properties()


# Arbitrary interleavings: duplicate txn ids, out-of-order positions,
# deliveries before broadcasts, epochs that disagree with zxids.
_EVENTS = st.lists(
    st.one_of(
        # broadcast: (primary, epoch, zxid-epoch, zxid-counter, txn)
        st.tuples(
            st.just("b"),
            st.integers(1, 3), st.integers(1, 3),
            st.integers(1, 3), st.integers(1, 5),
            st.integers(0, 7),
        ),
        # delivery: (process, incarnation, position, zxid-e, zxid-c, txn)
        st.tuples(
            st.just("d"),
            st.integers(1, 3), st.integers(1, 2),
            st.integers(1, 8), st.integers(1, 3),
            st.integers(1, 5), st.integers(0, 7),
        ),
    ),
    max_size=60,
)


def _multiset(report):
    return sorted(
        (violation.prop, violation.message)
        for violation in report.violations
    )


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_check_all_on_arbitrary_event_sequences(events):
    """``check_all`` never raises, and its verdict survives save/load."""
    trace = Trace()
    for event in events:
        if event[0] == "b":
            _tag, primary, epoch, ze, zc, txn = event
            trace.record_broadcast(primary, epoch, Zxid(ze, zc), "t%d" % txn)
        else:
            _tag, process, inc, position, ze, zc, txn = event
            trace.record_delivery(
                process, inc, position, Zxid(ze, zc), "t%d" % txn,
                epoch=ze,
            )
    report = check_all(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        trace.save(path)
        reloaded = check_all(Trace.load(path))
    assert _multiset(reloaded) == _multiset(report)
    assert reloaded.stats == report.stats
