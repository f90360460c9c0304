#!/usr/bin/env python
"""Failover, declaratively: a serializable fault schedule, replayed.

Builds the E3 anatomy — crash a follower, recover it, crash the leader,
recover everyone — as an :class:`~repro.ActionSchedule` (the same
declarative format `repro shrink` minimizes), replays it bit-for-bit
against a fresh 5-peer ensemble, and shows that the faulty run still
passes all six PO broadcast properties.  Running it twice produces the
same output down to the last zxid.

Run with::

    python examples/failover_demo.py
"""

from repro import ActionSchedule, Cluster, ClusterConfig, replay_schedule


def main():
    schedule = (
        ActionSchedule(meta={"n_voters": 5, "seed": 3})
        .add(2.0, "crash_follower")
        .add(4.0, "recover_all")
        .add(6.0, "crash_leader")
        .add(8.0, "recover_all")
    )
    print("the fault schedule, as it would be archived to JSON:")
    print(schedule.dumps(indent=2))

    print("\n== replaying against a fresh 5-peer ensemble ==")
    result = replay_schedule(schedule, op_interval=0.01)
    print("what actually fired:")
    for time, text in result.fired:
        print("  t=%.2fs  %s" % (time, text))
    print("deliveries: %d across epochs %s"
          % (result.deliveries, list(result.epochs)))
    print("replicas converged:", result.converged)
    print("properties: %s" % ("ALL OK" if result.ok else "VIOLATED"))
    assert result.passed

    print("\n== the same schedule, event-driven ==")
    # ActionSchedule.bind arms the same schedule on a cluster you drive
    # yourself — for scripts that interleave their own load or
    # assertions with the fault timeline.
    cluster = Cluster(ClusterConfig(n_voters=5, seed=3)).start()
    cluster.run_until_stable(timeout=30)
    fired = schedule.bind(cluster, start=cluster.sim.now)
    for _ in range(20):
        cluster.run(0.5)
        leader = cluster.leader()
        if leader is not None:
            leader.propose_op(("incr", "demo", 1))
    cluster.run_until_stable(timeout=30)
    print("fault log:", ["%.1fs %s" % (t, d) for t, d in fired])
    report = cluster.check_properties()
    print("properties again: %s" % ("ALL OK" if report.ok else "VIOLATED"))
    assert report.ok


if __name__ == "__main__":
    main()
