"""Topology-equivalence suite for pluggable dissemination strategies.

The dissemination seam changes only *how* broadcast traffic propagates
(leader fan-out vs. relay chain/tree/ring) — never *what* is agreed.
This file pins that claim from four directions:

- plan unit tests: each strategy's relay forest has the advertised
  shape and spans the members exactly once;
- clean-run equivalence: same seed, same workload → byte-identical
  committed histories across all four topologies;
- crash-during-relay: killing a relay node mid-stream must not lose or
  reorder commits under any topology (checker and replica convergence
  clean, final states identical across topologies);
- seeded-bug corpus: every planted protocol bug trips its exact
  registered property set under every topology — the checker's
  sensitivity and specificity are topology-independent;
- the paper's economics: measured leader egress bytes/txn scale
  ∝ (n-1) under leader-direct but stay ~flat for chain/ring and
  bounded by fan-out for tree.
"""

import warnings

import pytest

from repro import Cluster, ClusterConfig, DISSEMINATION_TOPOLOGIES
from repro.bench.runner import run_broadcast_bench
from repro.common.errors import ConfigError
from repro.harness import replay_schedule
from repro.harness.buggy import SEEDED_BUGS
from repro.zab.dissemination import (
    ChainStrategy,
    LeaderDirectStrategy,
    RingStrategy,
    TreeStrategy,
    plan_members,
    resolve_dissemination,
)
from repro.zab import messages
from repro.zab.zxid import Zxid

RELAYED = tuple(t for t in DISSEMINATION_TOPOLOGIES if t != "leader-direct")


# ---------------------------------------------------------------------------
# Strategy plans
# ---------------------------------------------------------------------------

def test_topology_registry_resolves_every_name():
    for name in DISSEMINATION_TOPOLOGIES:
        strategy = resolve_dissemination(name)
        assert strategy.name == name
    with pytest.raises(ConfigError):
        resolve_dissemination("gossip")


def test_resolve_accepts_strategy_instances():
    wide = TreeStrategy(fanout=4)
    assert resolve_dissemination(wide) is wide
    with pytest.raises(ConfigError):
        TreeStrategy(fanout=0)


def test_leader_direct_plan_is_flat():
    plan = LeaderDirectStrategy().plan(1, (2, 3, 4, 5))
    assert plan == ((2, ()), (3, ()), (4, ()), (5, ()))
    assert LeaderDirectStrategy.direct


def test_chain_plan_is_one_path():
    plan = ChainStrategy().plan(1, (2, 3, 4, 5))
    assert len(plan) == 1                       # leader egress: one copy
    assert plan_members(plan) == [2, 3, 4, 5]   # ascending-id path


def test_ring_plan_rotates_past_the_leader():
    plan = RingStrategy().plan(3, (1, 2, 4, 5))
    assert len(plan) == 1
    assert plan_members(plan) == [4, 5, 1, 2]   # successor first, wraps


def test_tree_plan_is_heap_shaped():
    plan = TreeStrategy(fanout=2).plan(1, (2, 3, 4, 5, 6, 7, 8))
    assert len(plan) == 2                       # leader egress ∝ fanout
    assert sorted(plan_members(plan)) == [2, 3, 4, 5, 6, 7, 8]
    first, second = plan
    assert first[0] == 2 and [c[0] for c in first[1]] == [4, 5]
    assert second[0] == 3 and [c[0] for c in second[1]] == [6, 7]


def test_every_plan_spans_members_exactly_once():
    members = tuple(range(2, 12))
    for name in DISSEMINATION_TOPOLOGIES:
        plan = resolve_dissemination(name).plan(1, members)
        assert sorted(plan_members(plan)) == list(members), name


def test_acks_flow_to_the_leader_under_every_topology():
    # Quorum accounting must be identical across topologies.
    for name in DISSEMINATION_TOPOLOGIES:
        strategy = resolve_dissemination(name)
        assert strategy.ack_destination(1, 4) == 1, name


def test_relay_wire_size_charges_route_overhead():
    payload = messages.Propose(Zxid(1, 1), object(), 100)
    inner = payload.wire_size()
    route = ((3, ((4, ()),)),)
    relay = messages.Relay(1, 1, payload, route)
    assert relay.zxid == Zxid(1, 1)
    assert relay.wire_size() == inner + 16 + 2 * messages.Relay.ROUTE_ENTRY_BYTES


# ---------------------------------------------------------------------------
# Clean-run equivalence: identical committed histories
# ---------------------------------------------------------------------------

def _delivery_history(cluster):
    """(zxid, txn_id) delivery sequence per process."""
    histories = {}
    for delivery in cluster.trace.deliveries:
        histories.setdefault(delivery.process, []).append(
            (delivery.zxid.as_tuple(), delivery.txn_id)
        )
    return histories


@pytest.fixture(scope="module")
def clean_runs():
    runs = {}
    for topology in DISSEMINATION_TOPOLOGIES:
        cluster = Cluster(ClusterConfig(
            n_voters=5, seed=13, dissemination=topology,
        )).start()
        cluster.run_until_stable(timeout=60)
        for i in range(12):
            cluster.submit_and_wait(("put", "k%d" % (i % 7), i))
        cluster.run(0.5)
        runs[topology] = (cluster.check_properties(),
                          _delivery_history(cluster))
    return runs


def test_clean_run_satisfies_properties_under_every_topology(clean_runs):
    for topology, (report, _history) in clean_runs.items():
        assert report.ok, (topology, report.violations[:3])


def test_clean_run_histories_are_identical_across_topologies(clean_runs):
    baseline = clean_runs["leader-direct"][1]
    assert baseline and all(baseline.values())
    for topology in RELAYED:
        assert clean_runs[topology][1] == baseline, topology


# ---------------------------------------------------------------------------
# Crash-during-relay: relay failure must not lose or reorder commits
# ---------------------------------------------------------------------------

def _crash_during_relay(topology, seed=9, ops=10):
    cluster = Cluster(ClusterConfig(
        n_voters=5, seed=seed, dissemination=topology,
    )).start()
    cluster.run_until_stable(timeout=60)
    leader = cluster.leader()
    # The lowest-id follower heads the chain plan and is an interior
    # node of every relay topology — the worst peer to lose.
    victim = min(
        peer_id for peer_id in cluster.config.voters
        if peer_id != leader.peer_id
    )
    for i in range(ops):
        cluster.submit(("put", "a%d" % i, i))
    cluster.run(0.02)                 # proposals in flight via relays
    cluster.crash(victim)

    # Keep submitting through whatever leadership emerges: a dead relay
    # can starve the quorum and force a re-election, which loses client
    # callbacks but must never lose committed transactions.
    pending = [("put", "b%d" % i, i) for i in range(ops)]

    def pump():
        current = cluster.leader()
        if current is not None:
            while pending:
                try:
                    current.propose_op(pending.pop(0))
                except Exception:
                    break
        cluster.sim.schedule(0.05, pump)

    pump()

    def all_applied():
        current = cluster.leader()
        if current is None or current.sm is None:
            return False
        state = current.sm.as_dict()
        return all(
            state.get("a%d" % i) == i and state.get("b%d" % i) == i
            for i in range(ops)
        )

    assert cluster.run_until(all_applied, timeout=60), (
        "%s: writes never applied after relay crash" % topology
    )
    cluster.recover(victim)
    cluster.run_until_stable(timeout=60)
    cluster.run(1.0)
    return cluster


@pytest.fixture(scope="module")
def relay_crash_runs():
    runs = {}
    for topology in DISSEMINATION_TOPOLOGIES:
        cluster = _crash_during_relay(topology)
        runs[topology] = {
            "report": cluster.check_properties(),
            "states": cluster.states(),
        }
    return runs


def test_relay_crash_loses_nothing(relay_crash_runs):
    for topology, run in relay_crash_runs.items():
        assert run["report"].ok, (topology, run["report"].violations[:3])
        distinct = {
            tuple(sorted(state.items()))
            for state in run["states"].values()
        }
        assert len(distinct) == 1, "%s: replicas diverged" % topology


def test_relay_crash_final_states_identical_across_topologies(
        relay_crash_runs):
    baseline = relay_crash_runs["leader-direct"]["states"][1]
    assert baseline
    for topology in RELAYED:
        assert relay_crash_runs[topology]["states"][1] == baseline, topology


# ---------------------------------------------------------------------------
# Seeded-bug corpus per topology
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", RELAYED)
@pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
def test_seeded_bugs_trip_identical_property_sets(topology, name):
    # leader-direct is covered by tests/corpus/; the relayed topologies
    # must reproduce the exact same checker verdicts.
    bug = SEEDED_BUGS[name]
    result = replay_schedule(
        bug.canonical_schedule(), leader_factory=bug.factory,
        dissemination=topology,
    )
    assert not result.passed, (topology, name)
    assert result.report.violated_properties() == set(bug.expected), (
        topology, name,
    )


@pytest.mark.parametrize("topology", RELAYED)
def test_correct_zab_passes_the_corpus_schedules(topology):
    for name in sorted(SEEDED_BUGS):
        result = replay_schedule(
            SEEDED_BUGS[name].canonical_schedule(), dissemination=topology,
        )
        assert result.passed, (topology, name)


# ---------------------------------------------------------------------------
# Leader egress economics (the paper's Figure, all four topologies)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def egress_curve():
    """leader egress bytes/txn and throughput at n=3 and n=7."""
    curve = {}
    for topology in DISSEMINATION_TOPOLOGIES:
        for n in (3, 7):
            result = run_broadcast_bench(
                n, op_size=1024, outstanding=64, duration=0.3,
                warmup=0.2, seed=1, bandwidth_bps=25e6,
                dissemination=topology,
            )
            leader = result.params["leader"]
            assert result.committed > 0, (topology, n)
            curve[(topology, n)] = {
                "egress_per_txn": (
                    result.net_stats["bytes_sent"][leader]
                    / result.committed
                ),
                "throughput": result.throughput,
            }
    return curve


def test_leader_direct_egress_scales_with_ensemble_size(egress_curve):
    ratio = (egress_curve[("leader-direct", 7)]["egress_per_txn"]
             / egress_curve[("leader-direct", 3)]["egress_per_txn"])
    # ∝ (n-1): going 3 → 7 voters should roughly triple leader egress.
    assert 2.2 < ratio < 3.8, ratio


def test_chain_and_ring_egress_stay_flat(egress_curve):
    for topology in ("chain", "ring"):
        ratio = (egress_curve[(topology, 7)]["egress_per_txn"]
                 / egress_curve[(topology, 3)]["egress_per_txn"])
        assert ratio < 1.3, (topology, ratio)


def test_tree_egress_is_bounded_by_fanout(egress_curve):
    ratio = (egress_curve[("tree", 7)]["egress_per_txn"]
             / egress_curve[("tree", 3)]["egress_per_txn"])
    assert ratio < 1.6, ratio
    # Binary fan-out costs more leader egress than a chain, less than
    # direct fan-out to all six followers.
    assert (egress_curve[("chain", 7)]["egress_per_txn"]
            < egress_curve[("tree", 7)]["egress_per_txn"]
            < egress_curve[("leader-direct", 7)]["egress_per_txn"])


def test_relayed_topologies_beat_leader_direct_at_scale(egress_curve):
    # The point of the whole seam: once the leader NIC is the
    # bottleneck, unloading it buys throughput.
    direct = egress_curve[("leader-direct", 7)]["throughput"]
    for topology in RELAYED:
        assert egress_curve[(topology, 7)]["throughput"] > direct, topology


# ---------------------------------------------------------------------------
# ClusterConfig spellings
# ---------------------------------------------------------------------------

def test_cluster_config_replace_and_validation():
    spec = ClusterConfig(n_voters=5, dissemination="tree")
    assert spec.replace(seed=4).seed == 4
    assert spec.replace(seed=4).dissemination == "tree"
    with pytest.raises(ConfigError):
        ClusterConfig(n_voters=0)
    with pytest.raises(ConfigError):
        ClusterConfig(disk="floppy")
    with pytest.raises(ConfigError):
        ClusterConfig(zab={"dissemination": "chain"})
    with pytest.raises(ConfigError):
        ClusterConfig(dissemination="gossip").zab_config()


def test_positional_legacy_spelling_stays_warning_free():
    # The old positional order lives on in ClusterConfig's first fields,
    # so Cluster(3, 1, 42) migrates by wrapping its arguments.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cluster = Cluster(ClusterConfig(3, 1, 42))  # voters, observers, seed
    assert sorted(cluster.peers) == [1, 2, 3, 4]
    assert cluster.cluster_config.seed == 42
