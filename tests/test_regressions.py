"""Regression tests for bugs found by the adversarial/bench suites.

Each test documents a real defect this repo's own testing surfaced
during development, so the fix never silently regresses.
"""

from repro.harness import Cluster, ClusterConfig
from repro.sim import Simulator
from repro.storage import DiskModel, TxnLog
from repro.zab import messages
from repro.zab.zxid import Zxid, ZXID_ZERO


def test_inflight_flush_batch_visible_to_last_appended():
    """Bug: _start_flush moved records out of _pending before they were
    durable, so last_appended() skipped the batch being flushed.  Under
    a slow disk this made duplicate detection and gap detection compare
    against a stale tail (livelock of spurious 'proposal gap' resyncs).
    """
    for group_commit in (True, False):
        sim = Simulator()
        disk = DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e9)
        log = TxnLog(disk, group_commit=group_commit)
        log.append(Zxid(1, 1), "a", size=10)
        # Flush is now in flight; the record must still be visible.
        assert log.last_appended() == Zxid(1, 1), group_commit
        log.append(Zxid(1, 2), "b", size=10)
        assert log.last_appended() == Zxid(1, 2)
        sim.run()
        assert log.last_durable() == Zxid(1, 2)


def test_abort_pending_quiesces_before_new_handshake():
    """Bug: a peer re-entering election kept un-fsynced appends in the
    disk queue; they became durable mid-handshake, so the position it
    had reported (FOLLOWERINFO/ACKEPOCH) went stale and the leader's
    DIFF collided with the log ('non-monotonic install')."""
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    log.append(Zxid(1, 1), "durable", size=10)
    sim.run()
    log.append(Zxid(1, 2), "in-flight", size=10)
    log.abort_pending()
    sim.run()
    # The aborted append never lands, even though its flush was queued.
    assert log.last_durable() == Zxid(1, 1)
    assert log.last_appended() == Zxid(1, 1)
    # And the position reported to a new leader stays valid: a DIFF
    # starting after (1,1) installs cleanly.
    log.install_record(Zxid(1, 2), "from-sync", size=10)
    assert log.last_durable() == Zxid(1, 2)


def test_follower_retransmits_followerinfo_until_answered():
    """Bug: FOLLOWERINFO was sent exactly once; if it arrived before the
    elected peer had entered LEADING (same-instant race), the handshake
    deadlocked until init_limit expired, stalling stability by 0.5s per
    round."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=300))
    received = []
    # Puppet leader: peer 3's address answers nothing, just records.
    cluster.network.register(
        3, lambda src, msg: received.append((src, type(msg).__name__))
    )
    peer1 = cluster.peers[1]
    peer1.start()
    # Force peer 1 to follow the silent puppet.
    peer1.election.stop()
    peer1.on_election_decided(3)
    cluster.run(0.2)
    infos = [
        entry for entry in received if entry == (1, "FollowerInfo")
    ]
    assert len(infos) >= 3  # initial + periodic retransmissions


def test_role_change_discards_stale_in_flight_traffic():
    """Bug: go_looking reused the network registration, so proposals
    already in flight from the previous leadership leaked into the new
    handshake and tripped gap detection ('got (e,2) after None')."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=301)).start()
    cluster.run_until_stable(timeout=30)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    incarnation_marker = cluster.network._incarnation[follower.peer_id]
    follower.go_looking("test-forced")
    assert cluster.network._incarnation[follower.peer_id] == (
        incarnation_marker + 1
    )
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "k", 1))
    cluster.assert_properties()


def test_slow_disk_cluster_full_lifecycle():
    """End-to-end coverage of the configuration that exposed all of the
    above: serial fsync (no group commit), deep pipeline, failover."""
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=302, disk="model", fsync_latency=0.002,
        group_commit=False, zab={"max_outstanding": 64},
    )).start()
    cluster.run_until_stable(timeout=30)
    done = []
    for i in range(40):
        cluster.submit(("incr", "x", 1),
                       callback=lambda r, z: done.append(r))
    cluster.run_until(lambda: len(done) == 40, timeout=30)
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=60)
    result, _ = cluster.submit_and_wait(("incr", "x", 1), timeout=30)
    assert result == 41
    cluster.run(1.0)
    cluster.assert_properties()


def test_duplicate_sync_stream_installs_once():
    """A repeated handshake (FOLLOWERINFO retransmission racing its
    answer) can deliver the same DIFF twice; the second install must
    skip records that are already durable instead of raising."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=303)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(3):
        cluster.submit_and_wait(("put", "k", i))
    cluster.run(0.3)
    follower = next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )
    leader_id = cluster.leader().peer_id
    ctx = follower.ctx
    # Replay the full sync stream by hand.
    records = follower.storage.log.all_entries()
    ctx.on_message(leader_id, messages.SyncStart(messages.SYNC_DIFF))
    for record in records:
        ctx.on_message(
            leader_id,
            messages.SyncTxn(record.zxid, record.txn, record.size),
        )
    ctx.on_message(
        leader_id,
        messages.NewLeader(
            follower.storage.epochs.current_epoch,
            last_zxid=records[-1].zxid if records else ZXID_ZERO,
        ),
    )
    assert len(follower.storage.log) == len(records)  # no duplicates
