"""Unit tests for FLE internals, driven through puppet endpoints."""

from repro.harness import Cluster, ClusterConfig
from repro.zab import messages
from repro.zab.zxid import Zxid, ZXID_ZERO


class Puppet:
    def __init__(self, cluster, peer_id):
        self.cluster = cluster
        self.peer_id = peer_id
        self.inbox = []
        cluster.network.register(peer_id, self._receive)

    def _receive(self, src, msg):
        self.inbox.append((src, msg))

    def notifications(self):
        return [m for _s, m in self.inbox
                if isinstance(m, messages.Notification)]

    def vote(self, leader, zxid=ZXID_ZERO, peer_epoch=0, round=1,
             state=messages.LOOKING):
        self.cluster.network.send(
            self.peer_id, 1,
            messages.Notification(leader, zxid, peer_epoch, round, state),
        )


def looking_peer(seed=350):
    """Peer 1 LOOKING; peers 2 and 3 are puppets."""
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed))
    puppet2 = Puppet(cluster, 2)
    puppet3 = Puppet(cluster, 3)
    cluster.peers[1].start()
    cluster.run(0.01)
    return cluster, cluster.peers[1], puppet2, puppet3


def test_initial_vote_is_for_self():
    cluster, peer, puppet2, _p3 = looking_peer()
    notes = puppet2.notifications()
    assert notes and notes[0].leader == 1
    assert notes[0].sender_state == messages.LOOKING


def test_better_vote_is_adopted_and_rebroadcast():
    cluster, peer, puppet2, puppet3 = looking_peer(seed=351)
    puppet2.inbox.clear()
    puppet3.vote(leader=3, zxid=Zxid(1, 5), peer_epoch=1)
    cluster.run(0.01)
    # Peer 1 adopted the better vote and told everyone.
    rebroadcast = [n for n in puppet2.notifications() if n.leader == 3]
    assert rebroadcast
    assert peer.election.vote == (1, Zxid(1, 5), 3)


def test_worse_vote_is_answered_not_adopted():
    cluster, peer, puppet2, puppet3 = looking_peer(seed=352)
    # Seed peer 1 with a better base: epoch 1 history.
    puppet3.inbox.clear()
    puppet3.vote(leader=3, zxid=ZXID_ZERO, peer_epoch=0, round=1)
    cluster.run(0.01)
    # Same round, worse vote (lower id candidate with nothing): peer 1
    # answers the sender with its own current vote.
    before = len(puppet3.notifications())
    puppet3.vote(leader=2, zxid=ZXID_ZERO, peer_epoch=0, round=1)
    cluster.run(0.01)
    answers = puppet3.notifications()[before:]
    assert answers
    assert answers[-1].leader == 3  # our current (better) vote


def test_quorum_agreement_decides_after_finalize_wait():
    cluster, peer, puppet2, puppet3 = looking_peer(seed=353)
    puppet3.vote(leader=3, zxid=ZXID_ZERO, peer_epoch=0)
    cluster.run(0.005)
    assert peer.state == messages.LOOKING  # finalize wait pending
    cluster.run(cluster.config.election_finalize_wait + 0.01)
    assert peer.state == messages.FOLLOWING
    assert peer.leader_id == 3


def test_better_vote_during_finalize_wait_flips_outcome():
    cluster, peer, puppet2, puppet3 = looking_peer(seed=354)
    puppet2.vote(leader=2, zxid=Zxid(1, 1), peer_epoch=1)
    cluster.run(0.005)   # quorum {1,2} on vote for 2; finalize armed
    puppet3.vote(leader=3, zxid=Zxid(2, 1), peer_epoch=2)
    cluster.run(0.05)
    # The stronger vote (higher epoch) arrived in time: 3 wins if a
    # quorum forms on it; either way peer 1 must NOT have decided for 2
    # at the moment its vote flipped.
    assert peer.election.vote[2] == 3


def test_stale_round_sender_is_helped_forward():
    cluster, peer, puppet2, _p3 = looking_peer(seed=355)
    # Move peer 1 to round 5.
    puppet2.vote(leader=2, zxid=ZXID_ZERO, peer_epoch=0, round=5)
    cluster.run(0.01)
    assert peer.election.round == 5
    before = len(puppet2.notifications())
    # A round-1 straggler vote must be answered (so the sender catches
    # up) and not pollute round 5's recvset.
    puppet2.vote(leader=1, zxid=ZXID_ZERO, peer_epoch=0, round=1)
    cluster.run(0.01)
    assert len(puppet2.notifications()) > before
    answer = puppet2.notifications()[-1]
    assert answer.round == 5      # the answer carries our newer round
    assert peer.election.round == 5


def test_observer_probe_is_answered_with_elected_vote():
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=356
    )).start()
    cluster.run_until_stable(timeout=30)
    # The observer found the leader through probe replies.
    observer = cluster.peers[4]
    assert observer.leader_id == cluster.leader().peer_id
