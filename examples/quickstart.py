#!/usr/bin/env python
"""Quickstart: a 5-peer Zab ensemble, writes, a leader crash, recovery.

Run with::

    python examples/quickstart.py

Everything happens in simulated time, deterministically (same seed, same
run), so the output below is reproducible bit for bit.
"""

from repro import Cluster, ClusterConfig


def main():
    print("== booting a 5-peer ensemble ==")
    cluster = Cluster(ClusterConfig(n_voters=5, seed=2026)).start()
    leader = cluster.run_until_stable(timeout=30)
    print("stable after %.3fs simulated, leader is peer %d"
          % (cluster.sim.now, leader.peer_id))
    print("roles:", cluster.describe())

    print("\n== a few replicated writes ==")
    result, zxid = cluster.submit_and_wait(("put", "greeting", "hello zab"))
    print("put greeting      -> %r committed as %r" % (result, zxid))
    result, zxid = cluster.submit_and_wait(("incr", "counter", 41))
    result, zxid = cluster.submit_and_wait(("incr", "counter", 1))
    print("incr counter (x2) -> %r committed as %r" % (result, zxid))
    print("note: incr is state-dependent; the primary turned it into an")
    print("absolute 'set' delta before broadcast (the paper's key idea).")

    print("\n== killing the leader ==")
    cluster.crash(leader.peer_id)
    new_leader = cluster.run_until_stable(timeout=30)
    print("re-elected: peer %d now leads epoch %d (%.3fs simulated)"
          % (new_leader.peer_id, new_leader.current_epoch(),
             cluster.sim.now))
    result, _ = cluster.submit_and_wait(("incr", "counter", 1))
    print("writes keep flowing: counter = %r" % result)

    print("\n== recovering the old leader ==")
    cluster.recover(leader.peer_id)
    cluster.run_until_stable(timeout=30)
    cluster.run(1.0)
    print("roles:", cluster.describe())
    states = cluster.states()
    print("replica states agree:",
          all(state == states[new_leader.peer_id]
              for state in states.values()))
    print("state:", states[new_leader.peer_id])

    print("\n== checking the paper's six broadcast properties ==")
    report = cluster.check_properties()
    print(report)
    assert report.ok


if __name__ == "__main__":
    main()
