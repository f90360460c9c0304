"""Tests for the canned operational scenarios.

Rolling restarts and flapping partitions are the declarative
``opscenarios`` families, replayed through :func:`run_ops_scenario`;
leader churn and the recovery-gap probe drive a live cluster directly.
"""

from repro.harness import Cluster, ClusterConfig, run_ops_scenario
from repro.harness.opscenarios import (
    flapping_partition_schedule,
    rolling_restart_schedule,
    stable_leader_id,
)
from repro.harness.scenarios import leader_churn, measure_recovery_gap


def stable_cluster(n=3, seed=140, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=n, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def _run_clean(schedule):
    result = run_ops_scenario(schedule)
    assert result.passed, result
    assert result.lost == []
    return result


def _crashes(result):
    """``(peer, was_leader)`` for every crash the replay traced."""
    return [
        (event.node, event.fields["was_leader"])
        for event in result.replay.cluster.tracer.by_kind("fault.crash")
    ]


def test_rolling_restart_preserves_data_and_order():
    schedule = rolling_restart_schedule(seed=140, n_voters=3)
    schedule.add(0.0, "submit", 10)        # data written before the bounces
    result = _run_clean(schedule)
    crashes = _crashes(result)
    assert [peer for peer, _ in crashes] == [
        action.target for action in schedule if action.kind == "crash"
    ]
    assert len(crashes) == 3
    # The leader restarts last: only the final bounce hits a leader.
    assert [was_leader for _, was_leader in crashes] == [False, False, True]
    assert crashes[-1][0] == stable_leader_id(3, 140)
    for state in result.replay.cluster.states().values():
        assert state["burst"] == 10


def test_rolling_restart_five_nodes_under_writes():
    schedule = rolling_restart_schedule(seed=141, n_voters=5)
    schedule.add(0.0, "submit", 1)
    schedule.add(schedule[-1].time + 1.5, "submit", 1)
    result = _run_clean(schedule)
    assert sorted(peer for peer, _ in _crashes(result)) == [1, 2, 3, 4, 5]
    fired = [text for _t, text in result.replay.fired]
    assert fired[0] == fired[-1] == "submit burst of 1"
    for state in result.replay.cluster.states().values():
        assert state["burst"] == 2           # before and after the restart
        assert state["campaign"] > 0         # client load ran throughout


def test_flapping_partition_of_follower_is_survivable():
    leader_id = stable_leader_id(5, 142)
    follower = min(peer for peer in range(1, 6) if peer != leader_id)
    result = _run_clean(flapping_partition_schedule(
        seed=142, n_voters=5, victim=follower, flaps=4, period=0.3,
    ))
    assert [text for _t, text in result.replay.fired] == [
        "flap full partition on peer %d x4" % follower
    ]
    assert result.replay.cluster.leader().peer_id == leader_id


def test_flapping_partition_of_leader_reelects_and_recovers():
    leader_id = stable_leader_id(5, 143)
    schedule = flapping_partition_schedule(
        seed=143, n_voters=5, flaps=3, period=0.4,
    )
    assert schedule.meta["victim"] == leader_id
    result = _run_clean(schedule)
    assert len(result.replay.epochs) > 1     # the flaps forced an election


def test_leader_churn_epochs_strictly_increase():
    cluster = stable_cluster(n=5, seed=144)
    epochs = leader_churn(cluster, rounds=4)
    assert len(epochs) == 4
    assert all(a < b for a, b in zip(epochs, epochs[1:])), epochs
    cluster.run(1.0)
    for state in cluster.states().values():
        assert state["churn"] == 4
    cluster.assert_properties()


def test_measure_recovery_gap_is_bounded_by_timeouts():
    cluster = stable_cluster(n=5, seed=145)
    cluster.submit_and_wait(("put", "warm", 1))
    gap, new_leader = measure_recovery_gap(cluster)
    # Detection needs sync_limit ticks (0.2s); election + sync add a few
    # hundred ms at most with default timing.
    assert 0.1 < gap < 3.0, gap
    assert new_leader != cluster.peers  # sanity: an id, not the dict
    cluster.assert_properties()
