"""Property: the replicated store behaves like its sequential spec.

For random operation batches, the cluster's final state must equal the
state of a single (non-replicated) state machine fed the same operations
in commit order, and every replica must agree (equal digests).  This is
the user-facing meaning of the paper's guarantees: replication is
invisible.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.app.kvstore import KVStateMachine
from repro.harness import Cluster, ClusterConfig

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abcd"),
                  st.integers(-50, 50)),
        st.tuples(st.just("incr"), st.sampled_from("abcd"),
                  st.integers(-5, 5)),
        st.tuples(st.just("append"), st.sampled_from("wxyz"),
                  st.sampled_from(["p", "q"])),
        st.tuples(st.just("del"), st.sampled_from("abcd")),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(op_list=ops, seed=st.integers(0, 3))
def test_cluster_matches_sequential_spec(op_list, seed):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed)).start()
    cluster.run_until_stable(timeout=30)

    committed = []
    for op in op_list:
        cluster.submit(
            op, callback=lambda result, zxid, op=op: committed.append(op)
        )
    cluster.run_until(lambda: len(committed) == len(op_list), timeout=30)
    cluster.run(0.5)

    # Sequential specification: one plain state machine, commit order.
    spec = KVStateMachine()
    for op in committed:
        spec.apply(spec.prepare(op))

    digests = {
        peer_id: peer.sm.digest()
        for peer_id, peer in cluster.peers.items()
        if not peer.crashed and peer.sm is not None
    }
    assert len(set(digests.values())) == 1, digests
    leader_state = cluster.leader().sm.as_dict()
    assert leader_state == spec.as_dict()
    cluster.assert_properties()
