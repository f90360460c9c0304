"""Observer edge cases beyond the happy path."""

from repro.harness import Cluster, ClusterConfig
from repro.zab import messages


def observer_cluster(seed, **kwargs):
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def test_observer_crash_and_recover_catches_up():
    cluster = observer_cluster(210)
    cluster.submit_and_wait(("put", "a", 1))
    cluster.crash(4)
    for i in range(5):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.recover(4)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    observer = cluster.peers[4]
    assert observer.sm.read(("get", "x")) == 5
    assert observer.sm.read(("get", "a")) == 1
    cluster.assert_properties()


def test_observer_snap_syncs_when_far_behind():
    cluster = observer_cluster(
        211, zab={"snapshot_every": 20, "snap_sync_threshold": 10,
                  "purge_logs_on_snapshot": True},
    )
    cluster.crash(4)
    for i in range(50):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.recover(4)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    observer = cluster.peers[4]
    assert observer.storage.log.purged_through() is not None
    assert observer.sm.read(("get", "k49")) == 49
    cluster.assert_properties()


def test_observer_probe_retries_until_leader_exists():
    # Boot ONLY the observer first: it probes into the void, then the
    # voters arrive and it must still find the leader.
    cluster = Cluster(ClusterConfig(n_voters=3, n_observers=1, seed=212))
    cluster.peers[4].start()
    cluster.run(1.0)
    assert cluster.peers[4].state == messages.OBSERVING
    assert cluster.peers[4].ctx is None
    for peer_id in (1, 2, 3):
        cluster.peers[peer_id].start()
    cluster.run_until_stable(timeout=30)
    assert cluster.peers[4].is_active_follower


def test_observer_never_wins_election():
    cluster = observer_cluster(213)
    # Even after every voter crash/recover cycle, the observer only ever
    # observes.
    leader_id = cluster.leader().peer_id
    cluster.crash(leader_id)
    cluster.run_until_stable(timeout=30)
    assert cluster.peers[4].state == messages.OBSERVING
    assert cluster.leader().peer_id != 4


def test_observer_does_not_ack_proposals():
    cluster = observer_cluster(214)
    before = dict(cluster.network.stats.by_type)
    for i in range(10):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(0.3)
    stats = cluster.network.stats.by_type
    acks = stats.get("Ack", 0) - before.get("Ack", 0)
    informs = stats.get("Inform", 0) - before.get("Inform", 0)
    # 2 follower acks per op; the observer contributes none.
    assert acks == 20
    assert informs == 10
