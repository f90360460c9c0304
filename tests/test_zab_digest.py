"""Tests for checkpoint-digest divergence detection."""

from repro.app.kvstore import KVStateMachine
from repro.harness import Cluster, ClusterConfig


def digest_cluster(seed, every=5):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed,
                      zab={"digest_every": every})).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_state_machine_digest_is_deterministic():
    a, b = KVStateMachine(), KVStateMachine()
    for sm in (a, b):
        for i in range(10):
            sm.apply(("set", "k%d" % i, i))
    assert a.digest() == b.digest()
    b.apply(("set", "k0", 999))
    assert a.digest() != b.digest()


def test_healthy_cluster_reports_no_divergence():
    cluster = digest_cluster(200)
    for i in range(25):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(1.0)   # several ping rounds carry checkpoints
    for peer in cluster.peers.values():
        assert peer.divergences == []
        assert peer._digests  # checkpoints were actually taken


def test_corrupted_follower_is_detected():
    cluster = digest_cluster(201)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    # Silent corruption: flip a value underneath the state machine
    # without going through the replication path.
    for i in range(5):
        cluster.submit_and_wait(("put", "k", i))
    follower.sm._data["k"] = "corrupted"
    for i in range(10):
        cluster.submit_and_wait(("put", "other", i))
    cluster.run(1.0)
    assert follower.divergences, "corruption went undetected"
    _time, position, ours, leaders = follower.divergences[0]
    assert ours != leaders
    # Healthy peers stay clean.
    for peer in cluster.peers.values():
        if peer is not follower:
            assert peer.divergences == []


def test_digest_disabled_by_default():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=202)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(10):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(0.5)
    for peer in cluster.peers.values():
        assert peer._digests == {}


def test_digest_checkpoints_survive_follower_resync():
    cluster = digest_cluster(203)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    cluster.crash(follower.peer_id)
    for i in range(12):
        cluster.submit_and_wait(("put", "k", i))
    cluster.recover(follower.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    # The resynced follower recomputed checkpoints during replay and
    # they agree with the leader's.
    assert cluster.peers[follower.peer_id].divergences == []
