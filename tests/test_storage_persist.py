"""Tests for file-backed stable storage and disk-only recovery."""

import pytest

from repro.app.statemachine import Txn
from repro.harness import Cluster, ClusterConfig
from repro.storage.persist import StorageDirectory
from repro.storage.records import LogRecord
from repro.zab.peer import PeerStorage, ZabPeer
from repro.zab.zxid import Zxid


def txn(i):
    return Txn("t1.%d" % i, None, None, 0, ("set", "k", i), 16)


def fresh_storage(tmp_path, peer_id=1):
    directory = StorageDirectory(str(tmp_path), peer_id)
    return directory, PeerStorage(**directory.create())


def reload_storage(tmp_path, peer_id=1):
    directory = StorageDirectory(str(tmp_path), peer_id)
    return PeerStorage(**directory.reload())


def test_log_survives_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    for i in range(1, 6):
        storage.log.append(Zxid(1, i), txn(i), size=16)
    reloaded = reload_storage(tmp_path)
    assert len(reloaded.log) == 5
    assert reloaded.log.last_durable() == Zxid(1, 5)
    assert reloaded.log.get(Zxid(1, 3)).txn.body == ("set", "k", 3)


def test_truncate_survives_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    for i in range(1, 6):
        storage.log.append(Zxid(1, i), txn(i), size=16)
    storage.log.truncate(Zxid(1, 2))
    reloaded = reload_storage(tmp_path)
    assert len(reloaded.log) == 2
    assert reloaded.log.last_durable() == Zxid(1, 2)


def test_purge_boundary_survives_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    for i in range(1, 6):
        storage.log.append(Zxid(1, i), txn(i), size=16)
    storage.log.purge_through(Zxid(1, 3))
    reloaded = reload_storage(tmp_path)
    assert reloaded.log.purged_through() == Zxid(1, 3)
    assert reloaded.log.first_durable() == Zxid(1, 4)


def test_epochs_survive_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    storage.epochs.set_accepted_epoch(4)
    storage.epochs.set_current_epoch(3)
    reloaded = reload_storage(tmp_path)
    assert reloaded.epochs.accepted_epoch == 4
    assert reloaded.epochs.current_epoch == 3


def test_snapshots_survive_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    storage.snapshots.save(Zxid(1, 10), ({"k": 10}, 10), 128)
    storage.snapshots.save(Zxid(1, 20), ({"k": 20}, 20), 128)
    reloaded = reload_storage(tmp_path)
    assert len(reloaded.snapshots) == 2
    assert reloaded.snapshots.latest().last_zxid == Zxid(1, 20)
    assert reloaded.snapshots.latest().state == ({"k": 20}, 20)


def test_replace_with_survives_reload(tmp_path):
    _dir, storage = fresh_storage(tmp_path)
    storage.log.append(Zxid(1, 1), txn(1), size=16)
    storage.log.replace_with(
        [LogRecord(Zxid(2, 1), txn(7), 16)], purged_through=None
    )
    reloaded = reload_storage(tmp_path)
    assert len(reloaded.log) == 1
    assert reloaded.log.last_durable() == Zxid(2, 1)


def test_purge_then_replace_survive_consecutive_reloads(tmp_path):
    """The sync path's mutations compose across power cycles: purge a
    prefix, reload, replace the whole history (with its own purge
    boundary, the SNAP-sync case), reload again."""
    _dir, storage = fresh_storage(tmp_path)
    for i in range(1, 8):
        storage.log.append(Zxid(1, i), txn(i), size=16)
    storage.log.purge_through(Zxid(1, 4))

    reloaded = reload_storage(tmp_path)
    assert reloaded.log.purged_through() == Zxid(1, 4)
    assert reloaded.log.first_durable() == Zxid(1, 5)
    assert len(reloaded.log) == 3

    reloaded.log.replace_with(
        [LogRecord(Zxid(2, 3), txn(3), 16),
         LogRecord(Zxid(2, 4), txn(4), 16)],
        purged_through=Zxid(2, 2),
    )
    again = reload_storage(tmp_path)
    assert again.log.purged_through() == Zxid(2, 2)
    assert again.log.first_durable() == Zxid(2, 3)
    assert again.log.last_durable() == Zxid(2, 4)
    assert len(again.log) == 2


def test_torn_journal_tail_is_dropped_on_reload(tmp_path):
    directory, storage = fresh_storage(tmp_path)
    for i in range(1, 4):
        storage.log.append(Zxid(1, i), txn(i), size=16)
    with open(directory.journal_path, "r+b") as f:
        f.seek(-4, 2)
        f.truncate()
    reloaded = reload_storage(tmp_path)
    assert len(reloaded.log) == 2
    assert reloaded.log.last_durable() == Zxid(1, 2)


def test_cluster_peer_recovers_from_files_alone(tmp_path):
    """Full power-cycle: run a cluster with one file-backed peer, crash
    it, rebuild its storage purely from disk, and rejoin."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=160))
    directory = StorageDirectory(str(tmp_path), 1)
    file_storage = PeerStorage(**directory.create())
    cluster.storages[1] = file_storage
    cluster.peers[1] = ZabPeer(
        cluster.sim, cluster.network, 1, cluster.config,
        app_factory=cluster.peers[1].app_factory,
        storage=file_storage, trace=cluster.trace,
    )
    cluster.start()
    cluster.run_until_stable(timeout=30)
    for i in range(10):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(0.5)

    cluster.crash(1)
    for i in range(10, 15):
        cluster.submit_and_wait(("put", "k%d" % i, i))

    # Power cycle: throw away ALL in-memory state, reload from files.
    recovered_storage = PeerStorage(**directory.reload())
    assert len(recovered_storage.log) >= 10
    peer = cluster.peers[1]
    peer.storage = recovered_storage
    cluster.recover(1)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    assert cluster.peers[1].sm.read(("get", "k14")) == 14
    cluster.assert_properties()


def test_snapshot_purge_double_reload_with_inflight_txns(tmp_path):
    """Retention under live load survives two consecutive power cycles.

    A file-backed peer snapshots and compacts while client txns are
    still in flight, crashes, is rebuilt purely from disk, power-cycles
    a second time, and must rejoin from the snapshot plus the compacted
    log suffix alone — the double-reload path that exposed the purge
    watermark advancing past the durable tail.
    """
    cluster = Cluster(ClusterConfig(n_voters=3, seed=161))
    directory = StorageDirectory(str(tmp_path), 1)
    file_storage = PeerStorage(**directory.create())
    cluster.storages[1] = file_storage
    cluster.peers[1] = ZabPeer(
        cluster.sim, cluster.network, 1, cluster.config,
        app_factory=cluster.peers[1].app_factory,
        storage=file_storage, trace=cluster.trace,
    )
    cluster.start()
    cluster.run_until_stable(timeout=30)
    for i in range(8):
        cluster.submit_and_wait(("put", "k%d" % i, i))

    # Snapshot + compact with more txns immediately behind them.
    cluster.snapshot_now()
    leader = cluster.leader()
    for i in range(8, 12):
        leader.propose_op(("put", "k%d" % i, i))
    reports = cluster.compact_logs(retain_snapshots=1)
    cluster.run(1.0)
    assert reports[1].changed

    # The persisted boundary never claims more than the durable tail.
    boundary = file_storage.log.purged_through()
    assert boundary is not None
    snap = file_storage.snapshots.latest()
    assert snap is not None and boundary <= snap.last_zxid

    cluster.crash(1)
    for i in range(12, 16):
        cluster.submit_and_wait(("put", "k%d" % i, i))

    # Power cycle twice: each reload starts from files alone.
    first = PeerStorage(**directory.reload())
    assert first.log.purged_through() == boundary
    assert len(first.snapshots) == 1
    second = PeerStorage(**directory.reload())
    assert second.log.purged_through() == boundary
    durable = second.log.last_durable()
    assert durable is not None and durable >= boundary

    cluster.peers[1].storage = second
    cluster.recover(1)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    assert cluster.peers[1].sm.read(("get", "k15")) == 15
    states = set(
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    )
    assert len(states) == 1
    cluster.assert_properties()
