"""Integration tests for crash recovery and synchronisation (Phases 1-2)."""

from repro.harness import Cluster, ClusterConfig
from repro.zab import messages


def stable_cluster(n=3, seed=30, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=n, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def committed_values(cluster):
    return {
        peer_id: state.get("x")
        for peer_id, state in cluster.states().items()
    }


def test_follower_crash_does_not_block_commits():
    cluster = stable_cluster(n=5)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    cluster.crash(follower.peer_id)
    for _ in range(10):
        cluster.submit_and_wait(("incr", "x", 1))
    assert cluster.leader().sm.read(("get", "x")) == 10


def test_recovered_follower_catches_up_via_diff():
    cluster = stable_cluster(n=3)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    cluster.crash(follower.peer_id)
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.recover(follower.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    assert cluster.peers[follower.peer_id].sm.read(("get", "x")) == 10
    cluster.assert_properties()


def test_leader_crash_preserves_committed_writes():
    cluster = stable_cluster(n=3)
    for _ in range(7):
        cluster.submit_and_wait(("incr", "x", 1))
    old = cluster.leader()
    cluster.crash(old.peer_id)
    new = cluster.run_until_stable(timeout=30)
    assert new.peer_id != old.peer_id
    assert new.sm.read(("get", "x")) == 7
    for _ in range(3):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    values = committed_values(cluster)
    assert all(value == 10 for value in values.values())
    cluster.assert_properties()


def test_old_leader_rejoins_as_follower():
    cluster = stable_cluster(n=3)
    old = cluster.leader()
    cluster.crash(old.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.recover(old.peer_id)
    cluster.run_until_stable(timeout=30)
    assert cluster.peers[old.peer_id].state == messages.FOLLOWING


def test_epoch_advances_and_zxids_restart():
    cluster = stable_cluster(n=3)
    _, z1 = cluster.submit_and_wait(("put", "a", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    _, z2 = cluster.submit_and_wait(("put", "b", 2))
    assert z2.epoch > z1.epoch
    assert z2.counter == 1  # counters restart per epoch


def test_snap_sync_for_far_behind_follower():
    cluster = stable_cluster(
        n=3, zab={"snapshot_every": 20, "snap_sync_threshold": 10,
                  "purge_logs_on_snapshot": True},
    )
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    cluster.crash(follower.peer_id)
    for i in range(60):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    leader = cluster.leader()
    assert leader.storage.snapshots.latest() is not None
    cluster.recover(follower.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    rejoined = cluster.peers[follower.peer_id]
    # The follower received a snapshot (its log no longer starts at zero).
    assert rejoined.storage.log.purged_through() is not None
    assert rejoined.sm.read(("get", "k59")) == 59
    cluster.assert_properties()


def test_trunc_sync_discards_uncommitted_tail():
    cluster = stable_cluster(n=3, seed=31)
    for _ in range(3):
        cluster.submit_and_wait(("incr", "x", 1))
    leader = cluster.leader()
    followers = [
        peer for peer in cluster.peers.values() if peer.is_active_follower
    ]
    # Cut the leader off from everyone, then submit: the proposal is
    # logged at the leader but can never commit.
    cluster.partition(
        {leader.peer_id}, {f.peer_id for f in followers}
    )
    leader.propose_op(("incr", "x", 100))
    cluster.run(0.2)
    assert leader.storage.log.last_durable().counter == 4
    # The majority side elects a new leader and moves on.
    cluster.run_until(
        lambda: cluster.leader() is not None
        and cluster.leader().peer_id != leader.peer_id,
        timeout=30,
    )
    for _ in range(2):
        cluster.submit_and_wait(("incr", "x", 1))
    # Heal: the old leader rejoins; its uncommitted tail must vanish.
    cluster.heal()
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    values = committed_values(cluster)
    assert all(value == 5 for value in values.values()), values
    cluster.assert_properties()


def test_majority_crash_blocks_then_recovers():
    cluster = stable_cluster(n=5, seed=32)
    cluster.submit_and_wait(("put", "k", 1))
    crashed = []
    for peer in list(cluster.peers.values()):
        if peer.is_active_follower and len(crashed) < 3:
            crashed.append(peer.peer_id)
            cluster.crash(peer.peer_id)
    cluster.run(2.0)
    # Leader cannot keep leading without a quorum.
    assert cluster.leader() is None
    for peer_id in crashed:
        cluster.recover(peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 2))
    cluster.assert_properties()


def test_full_cluster_restart_preserves_state():
    cluster = stable_cluster(n=3, seed=33)
    for i in range(5):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(0.5)
    for peer_id in list(cluster.peers):
        cluster.crash(peer_id)
    cluster.run(1.0)
    for peer_id in list(cluster.peers):
        cluster.recover(peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    for state in cluster.states().values():
        assert state == {"k%d" % i: i for i in range(5)}
    cluster.assert_properties()


def test_observer_receives_committed_stream():
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=34
    )).start()
    cluster.run_until_stable(timeout=30)
    observer = cluster.peers[4]
    assert observer.state == messages.OBSERVING
    for _ in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    assert observer.sm.read(("get", "x")) == 5
    cluster.assert_properties()


def test_observer_does_not_affect_quorum():
    # 3 voters + 1 observer: crashing the observer must not disturb
    # commits; crashing 2 voters must block them even with the observer up.
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=35
    )).start()
    cluster.run_until_stable(timeout=30)
    cluster.crash(4)
    cluster.submit_and_wait(("put", "a", 1))
    followers = [
        peer_id for peer_id, peer in cluster.peers.items()
        if peer.is_active_follower and not peer.is_observer
    ]
    for peer_id in followers:
        cluster.crash(peer_id)
    cluster.run(2.0)
    assert cluster.leader() is None


def test_observer_reconnects_after_leader_change():
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=36
    )).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "a", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "b", 2))
    cluster.run(2.0)
    observer = cluster.peers[4]
    assert observer.sm.read(("get", "b")) == 2
    cluster.assert_properties()


def test_disk_backed_cluster_round_trip():
    cluster = stable_cluster(n=3, seed=37, disk="model")
    for _ in range(10):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.run(1.0)
    assert all(
        state["x"] == 10 for state in cluster.states().values()
    )
    leader = cluster.leader()
    assert leader.storage.log.flushes > 0
    cluster.assert_properties()
