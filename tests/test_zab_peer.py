"""Unit-level tests for ZabPeer state construction and snapshots."""

import pytest

from repro.app.kvstore import KVStateMachine
from repro.app.statemachine import Txn
from repro.common.errors import NotLeaderError
from repro.harness import Cluster, ClusterConfig
from repro.net import Network
from repro.sim import Simulator
from repro.storage import Snapshot
from repro.storage.records import LogRecord
from repro.zab import ZabConfig, ZabPeer
from repro.zab.peer import PeerStorage
from repro.zab.zxid import Zxid


def txn(i, key="k"):
    return Txn("t1.%d" % i, None, None, 0, ("set", key, i), 16)


def make_peer(**config_kwargs):
    sim = Simulator(seed=1)
    network = Network(sim)
    config = ZabConfig([1, 2, 3], **config_kwargs)
    peer = ZabPeer(sim, network, 1, config, app_factory=KVStateMachine)
    return peer


def test_rebuild_state_replays_full_log():
    peer = make_peer()
    for i in range(1, 6):
        peer.storage.log.append(Zxid(1, i), txn(i), size=16)
    peer.incarnation = 1
    peer.rebuild_state()
    assert peer.sm.read(("get", "k")) == 5
    assert peer.position == 5
    assert peer.last_committed == Zxid(1, 5)


def test_rebuild_state_respects_upto():
    peer = make_peer()
    for i in range(1, 6):
        peer.storage.log.append(Zxid(1, i), txn(i), size=16)
    peer.rebuild_state(upto=Zxid(1, 3))
    assert peer.sm.read(("get", "k")) == 3
    assert peer.position == 3


def test_rebuild_state_uses_snapshot_base():
    peer = make_peer()
    base = KVStateMachine()
    base.apply(("set", "k", 100))
    blob, nbytes = base.serialize()
    peer.storage.snapshots.save(Zxid(1, 10), (blob, 10), nbytes)
    peer.storage.log.purge_through(Zxid(1, 10))
    peer.storage.log.append(Zxid(1, 11), txn(11), size=16)
    peer.rebuild_state()
    assert peer.sm.read(("get", "k")) == 11
    assert peer.position == 11


def test_rebuild_picks_snapshot_at_or_before_upto():
    peer = make_peer()
    early = KVStateMachine()
    early.apply(("set", "k", 2))
    blob, nbytes = early.serialize()
    peer.storage.snapshots.save(Zxid(1, 2), (blob, 2), nbytes)
    late = KVStateMachine()
    late.apply(("set", "k", 8))
    blob2, nbytes2 = late.serialize()
    peer.storage.snapshots.save(Zxid(1, 8), (blob2, 8), nbytes2)
    for i in range(3, 10):
        peer.storage.log.append(Zxid(1, i), txn(i), size=16)
    peer.rebuild_state(upto=Zxid(1, 5))
    # Must base on the (1,2) snapshot, not the too-new (1,8) one.
    assert peer.sm.read(("get", "k")) == 5
    assert peer.position == 5


def test_build_snapshot_serialises_prefix():
    peer = make_peer()
    for i in range(1, 6):
        peer.storage.log.append(Zxid(1, i), txn(i), size=16)
    snapshot = peer.build_snapshot(Zxid(1, 4))
    assert snapshot.last_zxid == Zxid(1, 4)
    blob, position = snapshot.state
    fresh = KVStateMachine()
    fresh.restore(blob)
    assert fresh.read(("get", "k")) == 4
    assert position == 4


def test_adopt_history_replaces_log_and_snapshot():
    peer = make_peer()
    peer.storage.log.append(Zxid(1, 1), txn(1), size=16)
    foreign_snapshot = Snapshot(Zxid(2, 5), ("blob", 5), 100)
    records = [LogRecord(Zxid(2, 6), txn(6), 16)]
    peer.adopt_history(foreign_snapshot, records)
    assert peer.storage.log.purged_through() == Zxid(2, 5)
    assert peer.storage.log.last_durable() == Zxid(2, 6)
    assert peer.storage.snapshots.latest().last_zxid == Zxid(2, 5)


def test_snapshot_cadence_and_purging():
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=80,
        zab={"snapshot_every": 10, "purge_logs_on_snapshot": True},
    )).start()
    cluster.run_until_stable(timeout=30)
    for i in range(25):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(0.5)
    leader = cluster.leader()
    assert leader.storage.snapshots.saves >= 2
    assert leader.storage.log.purged_through() is not None
    # The log only retains the tail since the last snapshot.
    assert len(leader.storage.log) < 25


def test_propose_op_requires_established_leader():
    peer = make_peer()
    with pytest.raises(NotLeaderError):
        peer.propose_op(("put", "k", 1))


def test_vote_basis_reflects_storage():
    peer = make_peer()
    assert peer.vote_basis() == (0, Zxid(0, 0))
    peer.storage.epochs.set_current_epoch(3)
    peer.storage.log.append(Zxid(3, 7), txn(7), size=16)
    assert peer.vote_basis() == (3, Zxid(3, 7))


def test_peer_storage_install_snapshot():
    storage = PeerStorage()
    storage.log.append(Zxid(1, 1), txn(1), size=16)
    storage.install_snapshot(Snapshot(Zxid(2, 9), ("blob", 9), 50))
    assert len(storage.log) == 0
    assert storage.log.purged_through() == Zxid(2, 9)
    assert storage.snapshots.latest().last_zxid == Zxid(2, 9)


def test_clone_state_machine_is_independent():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=81)).start()
    cluster.run_until_stable(timeout=30)
    cluster.submit_and_wait(("put", "a", 1))
    leader = cluster.leader()
    clone = leader.clone_state_machine()
    clone.apply(("set", "a", 999))
    assert leader.sm.read(("get", "a")) == 1
