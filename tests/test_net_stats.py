"""Unit tests for send/receive accounting.

Every send is stored once, keyed by ``(src, dst, type_name)``; the
per-node, per-type and per-pair tallies are views rolled up from it.
These tests pin what the views report, down to key order, because
``snapshot()`` feeds JSON reports that are compared byte for byte.
"""

import hashlib
import json

from repro.harness import Cluster, ClusterConfig
from repro.net.stats import NetworkStats


def _mixed_stats():
    stats = NetworkStats()
    stats.record_send(2, 100, "Propose", 1)
    stats.record_send(1, 16, "Ack", 2)
    stats.record_send(2, 100, "Propose", 3)
    stats.record_send(3, 16, "Ack", 2)
    stats.record_send(2, 16, "Commit", 1)
    stats.record_send(1, 16, "Ack", 2)
    stats.record_send(4, 50)                      # no type, no destination
    stats.record_send(3, 30, "Pong")              # no destination
    stats.record_send(4, 7, dst=2)                # no type
    return stats


def test_send_views_roll_up_in_first_send_order():
    stats = _mixed_stats()
    assert list(stats.bytes_sent.items()) == [
        (2, 216), (1, 32), (3, 46), (4, 57),
    ]
    assert list(stats.messages_sent.items()) == [
        (2, 3), (1, 2), (3, 2), (4, 2),
    ]
    assert list(stats.by_type.items()) == [
        ("Propose", 2), ("Ack", 3), ("Commit", 1), ("Pong", 1),
    ]
    assert list(stats.bytes_by_type.items()) == [
        ("Propose", 200), ("Ack", 48), ("Commit", 16), ("Pong", 30),
    ]
    assert list(stats.bytes_by_pair.items()) == [
        ((2, 1), 116), ((1, 2), 32), ((2, 3), 100), ((3, 2), 16),
        ((4, 2), 7),
    ]
    assert list(stats.messages_by_pair.items()) == [
        ((2, 1), 2), ((1, 2), 2), ((2, 3), 1), ((3, 2), 1), ((4, 2), 1),
    ]
    assert stats.total_bytes() == 351
    assert stats.total_messages() == 9
    assert stats.egress_bytes(2) == 216
    assert stats.egress_bytes(9) == 0


def test_send_views_are_read_only_copies():
    stats = _mixed_stats()
    view = stats.bytes_sent
    view[2] += 1000
    assert stats.bytes_sent[2] == 216
    assert stats.total_bytes() == 351


def test_snapshot_renders_every_view():
    stats = _mixed_stats()
    stats.record_receive(1, 100)
    stats.record_drop(3, "partitioned")
    snapshot = stats.snapshot()
    assert snapshot["bytes_by_pair"] == {
        "2->1": 116, "1->2": 32, "2->3": 100, "3->2": 16, "4->2": 7,
    }
    assert snapshot["by_type"] == dict(stats.by_type)
    assert snapshot["messages_received"] == {1: 1}
    assert snapshot["drops_by_reason"] == {"partitioned": 1}
    assert snapshot["messages_dropped"] == 1


# sha256 of ``json.dumps(stats.snapshot())`` (no ``sort_keys``, so key
# order counts) for the run below, captured when each view was still a
# Counter of its own updated on every send.
_SNAPSHOT_SHA256 = (
    "c423615fddaf3a8a14455a24ff1ccf494ce3de18cfccc3a26f8af124d2bd87db"
)


def test_snapshot_of_seeded_run_is_pinned():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=41)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(15):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(0.5)
    snapshot = cluster.network.stats.snapshot()
    assert snapshot["messages_dropped"] > 0
    text = json.dumps(snapshot)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        _SNAPSHOT_SHA256
    )
