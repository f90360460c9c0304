"""Whole-system determinism: same seed, same everything.

The repeatability claim underpins every experiment in EXPERIMENTS.md and
makes failing campaign seeds reproducible bug reports.  These tests run
full scenarios twice and require bit-identical traces, states, and
metrics.
"""

from repro.harness import Cluster, ClusterConfig
from repro.paxos import PaxosCluster


def run_zab_scenario(seed):
    cluster = Cluster(ClusterConfig(n_voters=5, seed=seed)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(20):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    for i in range(10):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(1.0)
    trace = [
        (e.process, e.incarnation, e.position, e.zxid.packed(), e.txn_id)
        for e in cluster.trace.deliveries
    ]
    return {
        "now": cluster.sim.now,
        "events": cluster.sim.events_fired,
        "trace": trace,
        "states": cluster.states(),
        "bytes": cluster.network.stats.total_bytes(),
        "metrics": {
            peer_id: peer.metrics()
            for peer_id, peer in cluster.peers.items()
        },
    }


def test_zab_scenario_bit_identical_across_runs():
    first = run_zab_scenario(seed=77)
    second = run_zab_scenario(seed=77)
    assert first == second


def test_different_seeds_differ():
    # Not a correctness requirement, but if seeds didn't matter the
    # campaign's coverage claims would be hollow.
    a = run_zab_scenario(seed=78)
    b = run_zab_scenario(seed=79)
    assert a["states"] == b["states"]       # outcomes agree...
    assert a["events"] != b["events"] or a["bytes"] != b["bytes"]


def test_paxos_scenario_bit_identical_across_runs():
    def run(seed):
        cluster = PaxosCluster(3, seed=seed).start()
        cluster.run_until_leader(timeout=30)
        for i in range(10):
            cluster.submit_and_wait(("incr", "x", 1))
        cluster.run(0.5)
        return (
            cluster.sim.events_fired,
            cluster.states(),
            [
                (e.process, e.position, e.txn_id)
                for e in cluster.trace.deliveries
            ],
        )

    assert run(55) == run(55)


# Captured from the seed-77 scenario *before* the hot-path rewrite of
# the kernel/fabric (tuple-keyed heap, inlined send path).  The rewrite
# must be behaviour-preserving down to the bit: same event order, same
# zxids, same final histories, same wire traffic.  If an intentional
# semantic change ever moves this, recapture it with the helper below
# and say so in the commit.
_SEED77_DIGEST = "ee2f6e5fc58fdfb5a01710803a097f3e6cfebf71f3faeb21ff063d2c4159dae7"


def _zab_scenario_digest(seed, tracer=None):
    import hashlib

    cluster = Cluster(ClusterConfig(n_voters=5, seed=seed, tracer=tracer)).start()
    cluster.run_until_stable(timeout=30)
    for i in range(20):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    for i in range(10):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(1.0)
    trace = [
        (e.process, e.incarnation, e.position, e.zxid.packed(), e.txn_id)
        for e in cluster.trace.deliveries
    ]
    blob = repr((
        cluster.sim.now,
        cluster.sim.events_fired,
        trace,
        sorted(cluster.states().items()),
        cluster.network.stats.total_bytes(),
    )).encode()
    return hashlib.sha256(blob).hexdigest()


def test_fixed_seed_trace_pinned_across_fast_path_rewrites():
    assert _zab_scenario_digest(77) == _SEED77_DIGEST


def test_tracer_attachment_does_not_perturb_the_execution():
    # The tracer fast-path gates (`tracer.active`) skip work, never
    # change it: a fully traced run is bit-identical to an untraced one.
    from repro import obs

    assert _zab_scenario_digest(77, tracer=obs.Tracer()) == _SEED77_DIGEST
