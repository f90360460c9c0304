"""Unit tests for the cluster harness and fault scheduling."""

import warnings

import pytest

from repro.checker import Trace
from repro.common.errors import ConfigError
from repro.harness import ActionSchedule, Cluster, ClusterConfig


def test_checker_trace_via_cluster_config():
    trace = Trace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the new spelling must NOT warn
        cluster = Cluster(ClusterConfig(n_voters=3, seed=68,
                                        checker_trace=trace))
    assert cluster.trace is trace


def test_cluster_config_rejects_extra_arguments():
    with pytest.raises(TypeError):
        Cluster(ClusterConfig(n_voters=3), seed=68)
    with pytest.raises(TypeError, match="ClusterConfig"):
        Cluster(3)


def test_cluster_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(n_voters=0)
    with pytest.raises(ConfigError):
        ClusterConfig(disk="floppy")


def test_describe_marks_crashes_and_leader():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=60)).start()
    cluster.run_until_stable(timeout=30)
    cluster.crash(1)
    text = cluster.describe()
    assert "1:CRASHED" in text
    assert "*" in text


def test_run_until_stable_times_out_without_quorum():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=61))
    cluster.peers[1].start()  # only a minority boots
    with pytest.raises(TimeoutError):
        cluster.run_until_stable(timeout=2.0)


def test_submit_without_leader_raises():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=62))
    with pytest.raises(ConfigError):
        cluster.submit(("put", "k", 1))


def test_shared_disk_mode_contends():
    dedicated = Cluster(ClusterConfig(n_voters=3, seed=63, disk="model"))
    shared = Cluster(ClusterConfig(n_voters=3, seed=63, disk="shared"))
    assert (
        dedicated.storages[1].log._disk
        is not dedicated.storages[2].log._disk
    )
    assert shared.storages[1].log._disk is shared.storages[2].log._disk


def test_fault_schedule_records_events():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=64))
    fired = (
        ActionSchedule().add(1.0, "crash", 1).add(2.0, "recover", 1)
    ).bind(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 2.5, timeout=10)
    descriptions = [text for _t, text in fired]
    assert descriptions == ["crash peer 1", "recover peer 1"]


def test_fault_schedule_crash_leader_and_follower():
    cluster = Cluster(ClusterConfig(n_voters=5, seed=65))
    fired = (
        ActionSchedule()
        .add(1.0, "crash_follower")
        .add(2.0, "crash_leader")
        .add(3.0, "recover_all")
    ).bind(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 3.5, timeout=30)
    descriptions = [text for _t, text in fired]
    assert descriptions[0].startswith("crash follower peer ")
    assert descriptions[1].startswith("crash leader peer ")
    crashed = sorted(int(text.rsplit(" ", 1)[1]) for text in descriptions[:2])
    assert descriptions[2:] == ["recover peers %s" % crashed]
    cluster.run_until_stable(timeout=30)


def test_partition_schedule():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=66))
    fired = (
        ActionSchedule().add(1.0, "partition", [[1], [2, 3]]).add(2.0, "heal")
    ).bind(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 2.5, timeout=10)
    cluster.run_until_stable(timeout=30)
    assert [text for _t, text in fired] == ["partition [[1], [2, 3]]", "heal"]


def test_fault_schedule_from_actions():
    schedule = (
        ActionSchedule()
        .add(1.0, "crash", 1)
        .add(2.0, "recover", 1)
        .add(3.0, "partition", [[2]])
        .add(4.0, "heal")
    )
    cluster = Cluster(ClusterConfig(n_voters=3, seed=69))
    fired = schedule.bind(cluster)
    cluster.start()
    cluster.run_until_stable(timeout=30)
    cluster.run_until(lambda: cluster.sim.now >= 4.5, timeout=30)
    descriptions = [text for _t, text in fired]
    assert descriptions == [
        "crash peer 1", "recover peer 1", "partition [[2]]", "heal",
    ]
    cluster.run_until_stable(timeout=30)


def test_states_excludes_crashed_and_unbuilt():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=67)).start()
    cluster.run_until_stable(timeout=30)
    cluster.crash(1)
    assert 1 not in cluster.states()
