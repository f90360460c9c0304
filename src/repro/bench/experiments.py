"""The paper's evaluation, reconstructed (experiments E1-E10).

Each function runs one experiment end-to-end on the simulator and returns
``(rows, table_text, extras)`` where *rows* are structured data points,
*table_text* is the printable artifact matching the paper's table/figure,
and *extras* carries experiment-specific material (timelines, property
reports).

See DESIGN.md for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured outcomes.
"""

from repro.app.statemachine import Txn
from repro.bench.formats import render_series, render_table
from repro.bench.runner import (
    default_op_factory,
    run_broadcast_bench,
)
from repro.bench.workloads import OpenLoopDriver
from repro.harness import Action, ActionSchedule, Cluster, ClusterConfig
from repro.net import NetworkConfig
from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES
from repro.paxos import PaxosCluster
from repro.storage import Snapshot, TxnLog
from repro.zab.sync import make_sync_plan
from repro.zab.zxid import Zxid

# Shared small-scale defaults: big enough for stable measurements, small
# enough that the whole benchmark suite finishes in minutes of wall time.
_BANDWIDTH = 25e6          # bytes/s (a 200 Mb/s link)
_OP_SIZE = 1024            # the paper's 1K operations
_DURATION = 1.0
_WARMUP = 0.3


# ---------------------------------------------------------------------------
# E1: saturated broadcast throughput vs. ensemble size
# ---------------------------------------------------------------------------

def e1_throughput_vs_servers(sizes=(3, 5, 7, 9, 11, 13), duration=_DURATION,
                             seed=1):
    """The paper's headline figure: the leader's egress NIC saturates, so
    throughput falls roughly as B/(n-1)."""
    rows = []
    for n in sizes:
        result = run_broadcast_bench(
            n, op_size=_OP_SIZE, outstanding=64, duration=duration,
            warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
        )
        ideal = _BANDWIDTH / (_OP_SIZE * (n - 1))
        rows.append({
            "servers": n,
            "throughput": result.throughput,
            "ideal_net_bound": ideal,
            "efficiency": result.throughput / ideal,
            "p50_latency_ms": result.latency["p50"] * 1000,
        })
    table = render_table(
        ["servers", "ops/s", "net-bound ops/s", "efficiency",
         "p50 (ms)"],
        [
            (row["servers"], row["throughput"], row["ideal_net_bound"],
             row["efficiency"], row["p50_latency_ms"])
            for row in rows
        ],
        title="E1: saturated 1KiB-write throughput vs. ensemble size",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E1b: throughput vs. ensemble size, per dissemination topology
# ---------------------------------------------------------------------------

def e1b_topology_scaling(sizes=(3, 5, 7, 9, 11, 13),
                         topologies=DISSEMINATION_TOPOLOGIES,
                         duration=_DURATION, seed=1):
    """The dissemination-strategy counterpart of E1: the same saturated
    1 KiB workload under each propagation topology.

    ``leader-direct`` pays (n-1) copies of every proposal out of the
    leader's NIC, so its egress bytes/txn grow linearly with the
    ensemble.  ``chain`` and ``ring`` relay hop-by-hop and keep leader
    egress flat; ``tree`` sits in between (proportional to its fan-out).
    """
    rows = []
    for topology in topologies:
        for n in sizes:
            result = run_broadcast_bench(
                n, op_size=_OP_SIZE, outstanding=64, duration=duration,
                warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
                dissemination=topology,
            )
            stats = result.net_stats
            leader_id = result.params["leader"]
            leader_bytes = stats["bytes_sent"].get(
                leader_id, max(stats["bytes_sent"].values())
            )
            committed = max(result.committed, 1)
            rows.append({
                "topology": topology,
                "servers": n,
                "throughput": result.throughput,
                "leader_egress_bytes_per_txn": leader_bytes / committed,
                "p50_latency_ms": result.latency["p50"] * 1000,
            })
    table = render_table(
        ["topology", "servers", "ops/s", "leader B/txn", "p50 (ms)"],
        [
            (row["topology"], row["servers"], row["throughput"],
             row["leader_egress_bytes_per_txn"], row["p50_latency_ms"])
            for row in rows
        ],
        title="E1b: saturated throughput vs. ensemble size, per "
              "dissemination topology",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E2: latency vs. offered load (open loop)
# ---------------------------------------------------------------------------

def e2_latency_vs_load(rates=(500, 1000, 2000, 4000, 8000, 12000),
                       n_voters=5, duration=_DURATION, seed=2):
    """Latency stays flat until the offered load hits the service
    capacity, then queues blow up — the classic knee."""
    rows = []
    for rate in rates:
        result = run_broadcast_bench(
            n_voters, op_size=_OP_SIZE, duration=duration, warmup=_WARMUP,
            seed=seed, bandwidth_bps=_BANDWIDTH, open_loop_rate=rate,
        )
        p50 = result.latency.get("p50")
        p99 = result.latency.get("p99")
        rows.append({
            "offered_rate": rate,
            "throughput": result.throughput,
            "p50_ms": p50 * 1000 if p50 is not None else None,
            "p99_ms": p99 * 1000 if p99 is not None else None,
        })
    table = render_table(
        ["offered ops/s", "achieved ops/s", "p50 (ms)", "p99 (ms)"],
        [
            (row["offered_rate"], row["throughput"], row["p50_ms"],
             row["p99_ms"])
            for row in rows
        ],
        title="E2: latency vs. offered load (n=5, 1KiB writes)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E3: throughput timeline under injected failures
# ---------------------------------------------------------------------------

def e3_failure_timeline(n_voters=5, seed=3, rate=2000):
    """Follower crash barely dents throughput; a leader crash opens a
    visible gap (election + sync) before service resumes."""
    cluster = Cluster(ClusterConfig(
        n_voters=n_voters, seed=seed,
        net=NetworkConfig(bandwidth_bps=_BANDWIDTH, latency=0.0002),
    )).start()
    cluster.run_until_stable(timeout=60)
    driver = OpenLoopDriver(
        cluster, rate, default_op_factory(_OP_SIZE), _OP_SIZE,
        warmup=0.0, timeline_bucket=0.1,
    )
    t0 = cluster.sim.now
    fired = ActionSchedule([
        Action(2.0, "crash_follower"),
        Action(4.0, "recover_all"),
        Action(6.0, "crash_leader"),
        Action(8.0, "recover_all"),
    ]).bind(cluster, start=t0)
    driver.start()
    cluster.run(10.0)
    driver.stop()
    cluster.run(0.5)

    series = driver.timeline.series(start=t0, end=t0 + 10.0)

    def window_rate(lo, hi):
        rates = [r for t, r in series if t0 + lo <= t < t0 + hi]
        return sum(rates) / len(rates) if rates else 0.0

    rows = [
        {"phase": "baseline", "window": "0-2s",
         "ops_per_s": window_rate(0.3, 2.0)},
        {"phase": "follower down", "window": "2-4s",
         "ops_per_s": window_rate(2.2, 4.0)},
        {"phase": "leader crash + re-election", "window": "6-7s",
         "ops_per_s": window_rate(6.0, 7.0)},
        {"phase": "recovered", "window": "8.5-10s",
         "ops_per_s": window_rate(8.5, 10.0)},
    ]
    table = render_table(
        ["phase", "window", "ops/s"],
        [(row["phase"], row["window"], row["ops_per_s"]) for row in rows],
        title="E3: throughput through failures (n=5, open loop)",
    )
    table += "\n" + render_series(series)
    report = cluster.check_properties()
    return rows, table, {
        "series": series,
        "events": fired,
        "report": report,
    }


# ---------------------------------------------------------------------------
# E4: the Paxos primary-order counter-example, executable
# ---------------------------------------------------------------------------

def _paxos_counterexample(seed=4):
    cluster = PaxosCluster(3, seed=seed, auto_scout=False).start()
    r1, r2, r3 = (cluster.replicas[i] for i in (1, 2, 3))
    r1.start_scout()
    cluster.run(0.1)
    cluster.partition({1}, {2, 3})
    r1.submit_op(("put", "A", 1))
    r1.submit_op(("incr", "A", 1))
    cluster.run(0.2)
    r2.start_scout()
    cluster.run(0.2)
    r2.submit_op(("put", "C", 100))
    cluster.run(0.2)
    cluster.crash(2)
    cluster.heal()
    r3.start_scout()
    cluster.run(1.0)
    return cluster


def _zab_same_crash_pattern(seed=4):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed)).start()
    cluster.run_until_stable(timeout=60)
    leader = cluster.leader()
    others = [
        peer_id for peer_id in cluster.config.voters
        if peer_id != leader.peer_id
    ]
    cluster.partition({leader.peer_id}, set(others))
    leader.propose_op(("put", "A", 1))
    leader.propose_op(("incr", "A", 1))
    cluster.run(0.3)
    cluster.run_until(
        lambda: cluster.leader() is not None
        and cluster.leader().peer_id != leader.peer_id,
        timeout=60,
    )
    cluster.submit_and_wait(("put", "C", 100))
    second = cluster.leader()
    cluster.crash(second.peer_id)
    cluster.heal()
    cluster.run_until(
        lambda: cluster.leader() is not None
        and cluster.leader().peer_id != second.peer_id,
        timeout=60,
    )
    cluster.run(2.0)
    return cluster


def e4_paxos_violation(seed=4):
    """Run the paper's counter-example under both protocols and diff the
    property-checker verdicts."""
    paxos = _paxos_counterexample(seed)
    paxos_report = paxos.check_properties()
    zab = _zab_same_crash_pattern(seed)
    zab_report = zab.check_properties()
    rows = [
        {
            "system": "paxos (2 outstanding)",
            "violations": sorted(paxos_report.violated_properties()),
            "final_state": paxos.states(),
        },
        {
            "system": "zab (2 outstanding)",
            "violations": sorted(zab_report.violated_properties()),
            "final_state": zab.states(),
        },
    ]
    table = render_table(
        ["system", "violated properties"],
        [
            (row["system"], ", ".join(row["violations"]) or "(none)")
            for row in rows
        ],
        title="E4: paper's multi-primary run — checker verdicts",
    )
    return rows, table, {
        "paxos_report": paxos_report,
        "zab_report": zab_report,
    }


# ---------------------------------------------------------------------------
# E5: pipelining — throughput vs. max outstanding proposals
# ---------------------------------------------------------------------------

def e5_pipelining(window_sizes=(1, 2, 4, 8, 16, 32, 64), n_voters=5,
                  duration=_DURATION, seed=5):
    """outstanding=1 is the conservative one-at-a-time sequencer; Zab's
    design point is a deep pipeline.  Throughput rises until the leader
    NIC, not the RTT, is the bottleneck."""
    rows = []
    for window in window_sizes:
        result = run_broadcast_bench(
            n_voters, op_size=_OP_SIZE, outstanding=window,
            duration=duration, warmup=_WARMUP, seed=seed,
            bandwidth_bps=_BANDWIDTH, max_outstanding=max(window, 1),
        )
        rows.append({
            "outstanding": window,
            "throughput": result.throughput,
            "p50_ms": result.latency["p50"] * 1000,
        })
    table = render_table(
        ["outstanding", "ops/s", "p50 (ms)"],
        [
            (row["outstanding"], row["throughput"], row["p50_ms"])
            for row in rows
        ],
        title="E5: pipelining (n=5, 1KiB writes)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E6: synchronisation strategy cost (DIFF vs SNAP vs TRUNC)
# ---------------------------------------------------------------------------

def _seed_txn(i):
    return Txn("t1.%d" % i, None, None, 0, ("set", "k%d" % (i % 64), i),
               _OP_SIZE)


def e6_sync_strategies(lags=(10, 200, 2000, 20000), state_size=50,
                       snap_threshold=500):
    """Plan-level cost model: bytes shipped to resynchronise a follower
    that is *lag* transactions behind a 20k-transaction history."""
    total = max(lags) + 1000
    log = TxnLog()
    for i in range(1, total + 1):
        log.append(Zxid(1, i), _seed_txn(i), size=_OP_SIZE)
    committed = Zxid(1, total)
    snapshot_bytes = state_size * _OP_SIZE  # live state ≪ full history
    provider = lambda: Snapshot(committed, ("blob", total), snapshot_bytes)
    rows = []
    for lag in lags:
        follower_last = Zxid(1, total - lag)
        plan = make_sync_plan(
            log, follower_last, committed, snap_threshold, provider
        )
        rows.append({
            "lag_txns": lag,
            "mode": plan.mode,
            "bytes_shipped": plan.payload_bytes(),
            "diff_bytes_would_be": lag * _OP_SIZE,
        })
    # TRUNC case: follower ahead by an uncommitted tail.
    ahead = Zxid(1, total + 5)
    plan = make_sync_plan(log, ahead, committed, snap_threshold, provider)
    rows.append({
        "lag_txns": -5,
        "mode": plan.mode,
        "bytes_shipped": plan.payload_bytes(),
        "diff_bytes_would_be": 0,
    })
    table = render_table(
        ["follower lag (txns)", "chosen mode", "bytes shipped",
         "full-DIFF bytes"],
        [
            (row["lag_txns"], row["mode"], row["bytes_shipped"],
             row["diff_bytes_would_be"])
            for row in rows
        ],
        title="E6: sync strategy vs. follower lag "
              "(20k-txn history, snap threshold %d)" % snap_threshold,
    )
    return rows, table, {}


def e6_end_to_end_resync(lag=5000, seed=6):
    """Wall-clock (simulated) cost of a real follower resync via DIFF vs
    via SNAP, same lag, controlled by the snap threshold.

    The workload overwrites 64 keys with 1 KiB values, so the *history*
    (lag x 1 KiB) is much larger than the *live state* (64 x 1 KiB) —
    the regime where shipping a snapshot beats replaying the diff.
    """
    rows = []
    for mode, threshold in (("DIFF", 10 ** 6), ("SNAP", 10)):
        cluster = Cluster(ClusterConfig(
            n_voters=3, seed=seed,
            net=NetworkConfig(bandwidth_bps=_BANDWIDTH),
            zab={"snap_sync_threshold": threshold,
                 "snapshot_every": 10 ** 6},
        )).start()
        cluster.run_until_stable(timeout=60)
        follower = next(
            peer for peer in cluster.peers.values()
            if peer.is_active_follower
        )
        cluster.crash(follower.peer_id)
        payload = "v" * _OP_SIZE
        committed = []
        for i in range(lag):
            cluster.submit(("put", "k%d" % (i % 64), payload),
                           callback=lambda r, z: committed.append(None))
        cluster.run_until(lambda: len(committed) == lag, timeout=60)
        before = cluster.network.stats.total_bytes()
        t0 = cluster.sim.now
        cluster.recover(follower.peer_id)
        cluster.run_until_stable(timeout=60)
        rows.append({
            "mode": mode,
            "resync_seconds": cluster.sim.now - t0,
            "sync_megabytes": (
                cluster.network.stats.total_bytes() - before
            ) / 1e6,
        })
    table = render_table(
        ["forced mode", "resync time (s)", "transfer (MB)"],
        [
            (row["mode"], row["resync_seconds"], row["sync_megabytes"])
            for row in rows
        ],
        title="E6b: end-to-end resync of a follower %d txns behind "
              "(64-key live state)" % lag,
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E7: log device configuration (paper testbed note)
# ---------------------------------------------------------------------------

def e7_log_device(n_voters=3, duration=_DURATION, seed=7):
    """The paper's testbed used dedicated log devices.  With the disk
    model enabled, a dedicated device (group commit amortising fsyncs)
    clearly beats a shared, contended one."""
    rows = []
    for label, disk, fsync in (
        ("network only (no disk)", None, 0.0),
        ("dedicated log device", "model", 0.0005),
        ("shared device (contended)", "shared", 0.0005),
        ("dedicated, slow fsync", "model", 0.005),
    ):
        result = run_broadcast_bench(
            n_voters, op_size=_OP_SIZE, outstanding=64, duration=duration,
            warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
            disk=disk, fsync_latency=fsync,
        )
        rows.append({
            "config": label,
            "throughput": result.throughput,
            "p50_ms": result.latency["p50"] * 1000,
        })
    table = render_table(
        ["log device", "ops/s", "p50 (ms)"],
        [(row["config"], row["throughput"], row["p50_ms"])
         for row in rows],
        title="E7: log-device configuration (n=3, 1KiB writes)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E8: latency percentiles by ensemble size (moderate load)
# ---------------------------------------------------------------------------

def e8_latency_percentiles(sizes=(3, 5, 7), rate=1000, duration=_DURATION,
                           seed=8):
    rows = []
    for n in sizes:
        result = run_broadcast_bench(
            n, op_size=_OP_SIZE, duration=duration, warmup=_WARMUP,
            seed=seed, bandwidth_bps=_BANDWIDTH, open_loop_rate=rate,
        )
        rows.append({
            "servers": n,
            "p50_ms": result.latency["p50"] * 1000,
            "p95_ms": result.latency["p95"] * 1000,
            "p99_ms": result.latency["p99"] * 1000,
            "mean_ms": result.latency["mean"] * 1000,
        })
    table = render_table(
        ["servers", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [
            (row["servers"], row["mean_ms"], row["p50_ms"], row["p95_ms"],
             row["p99_ms"])
            for row in rows
        ],
        title="E8: latency percentiles at %d ops/s" % rate,
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E9: group-commit ablation (disk-bound configuration)
# ---------------------------------------------------------------------------

def e9_group_commit(fsyncs=(0.0005, 0.002), n_voters=3,
                    duration=_DURATION, seed=9):
    """ZooKeeper acknowledges a proposal only after fsync, and amortises
    fsyncs across all proposals in flight (group commit).  Ablating the
    coalescing makes every append pay its own disk barrier, capping
    throughput near 1/fsync_latency regardless of the network."""
    rows = []
    for fsync in fsyncs:
        for group_commit in (True, False):
            result = run_broadcast_bench(
                n_voters, op_size=_OP_SIZE, outstanding=128,
                duration=duration, warmup=_WARMUP, seed=seed,
                bandwidth_bps=_BANDWIDTH, disk="model",
                fsync_latency=fsync, group_commit=group_commit,
                max_outstanding=128,
            )
            rows.append({
                "fsync_ms": fsync * 1000,
                "group_commit": group_commit,
                "throughput": result.throughput,
                "fsync_bound": 1.0 / fsync,
                "p50_ms": result.latency["p50"] * 1000,
            })
    table = render_table(
        ["fsync (ms)", "group commit", "ops/s", "1/fsync bound",
         "p50 (ms)"],
        [
            (row["fsync_ms"], "on" if row["group_commit"] else "off",
             row["throughput"], row["fsync_bound"], row["p50_ms"])
            for row in rows
        ],
        title="E9: group-commit ablation (n=3, 1KiB writes, disk model)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# A1 (ablation): recovery gap vs. failure-detection budget
# ---------------------------------------------------------------------------

def a1_recovery_time(ticks=(0.02, 0.05, 0.1, 0.2), n_voters=5, seed=11,
                     trials=3):
    """How long writes stall after a leader crash, as a function of the
    tick (heartbeat) period.  Detection costs ``sync_limit`` ticks, and
    election/sync add roughly constant time on top, so the gap should
    grow linearly in the tick with a positive intercept."""
    from repro.harness.scenarios import measure_recovery_gap

    rows = []
    for tick in ticks:
        gaps = []
        for trial in range(trials):
            cluster = Cluster(ClusterConfig(
                n_voters=n_voters, seed=seed + trial,
                net=NetworkConfig(bandwidth_bps=_BANDWIDTH),
                zab={"tick": tick},
            )).start()
            cluster.run_until_stable(timeout=60)
            cluster.submit_and_wait(("put", "warm", 1))
            gap, _leader = measure_recovery_gap(cluster)
            gaps.append(gap)
            report = cluster.check_properties()
            assert report.ok, report.violations[:3]
        rows.append({
            "tick_ms": tick * 1000,
            "detection_budget_ms": tick * 4 * 1000,  # sync_limit ticks
            "mean_gap_ms": sum(gaps) / len(gaps) * 1000,
            "max_gap_ms": max(gaps) * 1000,
        })
    table = render_table(
        ["tick (ms)", "detection budget (ms)", "mean gap (ms)",
         "max gap (ms)"],
        [
            (row["tick_ms"], row["detection_budget_ms"],
             row["mean_gap_ms"], row["max_gap_ms"])
            for row in rows
        ],
        title="A1: write-unavailability after leader crash vs. tick "
              "(n=5, 3 trials)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# A2 (ablation): growing the ensemble with observers vs. voters
# ---------------------------------------------------------------------------

def a2_observers(duration=_DURATION, seed=12, rate=1000):
    """ZooKeeper observers replicate the committed stream without
    voting.  At equal total replica count, an observer-heavy ensemble
    commits with a *smaller quorum*: the leader waits for fewer
    acknowledgements, so commit latency stays near the small-ensemble
    value while read capacity scales the same way."""
    configs = [
        ("3 voters", 3, 0),
        ("3 voters + 2 observers", 3, 2),
        ("3 voters + 4 observers", 3, 4),
        ("5 voters", 5, 0),
        ("7 voters", 7, 0),
    ]
    rows = []
    for label, n_voters, n_observers in configs:
        cluster = Cluster(ClusterConfig(
            n_voters=n_voters, n_observers=n_observers, seed=seed,
            net=NetworkConfig(bandwidth_bps=_BANDWIDTH),
        )).start()
        cluster.run_until_stable(timeout=60)
        driver = OpenLoopDriver(
            cluster, rate, default_op_factory(_OP_SIZE), _OP_SIZE,
            warmup=_WARMUP,
        ).start()
        cluster.run(duration + _WARMUP)
        driver.stop()
        cluster.run(0.3)
        report = cluster.check_properties()
        assert report.ok, report.violations[:3]
        summary = driver.latency.snapshot()
        rows.append({
            "config": label,
            "replicas": n_voters + n_observers,
            "quorum_acks": n_voters // 2 + 1,
            "p50_ms": summary["p50"] * 1000,
            "p99_ms": summary["p99"] * 1000,
        })
    table = render_table(
        ["config", "replicas", "quorum", "p50 (ms)", "p99 (ms)"],
        [
            (row["config"], row["replicas"], row["quorum_acks"],
             row["p50_ms"], row["p99_ms"])
            for row in rows
        ],
        title="A2: write latency at %d ops/s — observers vs voters" % rate,
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# A3 (ablation): throughput vs. operation size
# ---------------------------------------------------------------------------

def a3_op_size(sizes=(128, 512, 1024, 4096, 16384), n_voters=3,
               duration=_DURATION, seed=13):
    """At saturation, ops/s x bytes/op is constant: the leader's NIC
    moves a fixed byte budget regardless of how it is sliced (modulo
    per-message header overhead, which favours large operations)."""
    rows = []
    for size in sizes:
        result = run_broadcast_bench(
            n_voters, op_size=size, outstanding=64, duration=duration,
            warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
        )
        goodput = result.throughput * size
        rows.append({
            "op_bytes": size,
            "throughput": result.throughput,
            "goodput_mbps": goodput * 8 / 1e6,
            "wire_efficiency": goodput * (n_voters - 1) / _BANDWIDTH,
        })
    table = render_table(
        ["op size (B)", "ops/s", "goodput (Mb/s)", "wire efficiency"],
        [
            (row["op_bytes"], row["throughput"], row["goodput_mbps"],
             row["wire_efficiency"])
            for row in rows
        ],
        title="A3: saturated throughput vs. operation size (n=3)",
    )
    return rows, table, {}


# ---------------------------------------------------------------------------
# E10: Zab vs Paxos throughput under identical conditions
# ---------------------------------------------------------------------------

def _run_paxos_bench(n_replicas, outstanding, duration, seed):
    cluster = PaxosCluster(
        n_replicas, seed=seed,
        net_config=NetworkConfig(bandwidth_bps=_BANDWIDTH, latency=0.0002),
        max_outstanding=outstanding,
    ).start()
    leader = cluster.run_until_leader(timeout=60)
    committed = []
    payload = "v" * _OP_SIZE
    state = {"in_flight": 0}

    def pump():
        while state["in_flight"] < outstanding:
            state["in_flight"] += 1
            t0 = cluster.sim.now
            leader.submit_op(
                ("put", "key-%d" % (len(committed) % 64), payload),
                callback=lambda r, t0=t0: on_commit(t0),
                size=_OP_SIZE,
            )

    warmup_until = cluster.sim.now + _WARMUP
    samples = []

    def on_commit(t0):
        state["in_flight"] -= 1
        now = cluster.sim.now
        if now >= warmup_until:
            samples.append(now - t0)
        committed.append(None)
        pump()

    pump()
    cluster.run(duration + _WARMUP)
    report = cluster.check_properties()
    assert report.ok, report.violations[:3]
    return len(samples) / duration


def e10_zab_vs_paxos(n=3, duration=_DURATION, seed=10):
    rows = []
    zab_pipelined = run_broadcast_bench(
        n, op_size=_OP_SIZE, outstanding=64, duration=duration,
        warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
    ).throughput
    zab_single = run_broadcast_bench(
        n, op_size=_OP_SIZE, outstanding=1, duration=duration,
        warmup=_WARMUP, seed=seed, bandwidth_bps=_BANDWIDTH,
        max_outstanding=1,
    ).throughput
    paxos_single = _run_paxos_bench(n, 1, duration, seed)
    paxos_pipelined = _run_paxos_bench(n, 64, duration, seed)
    rows = [
        {"system": "zab, 64 outstanding", "throughput": zab_pipelined,
         "primary_order_safe": True},
        {"system": "paxos, 64 outstanding", "throughput": paxos_pipelined,
         "primary_order_safe": False},
        {"system": "zab, 1 outstanding", "throughput": zab_single,
         "primary_order_safe": True},
        {"system": "paxos, 1 outstanding", "throughput": paxos_single,
         "primary_order_safe": True},
    ]
    table = render_table(
        ["system", "ops/s", "PO-safe across primary changes"],
        [
            (row["system"], row["throughput"],
             "yes" if row["primary_order_safe"] else "NO (see E4)")
            for row in rows
        ],
        title="E10: Zab vs Paxos, identical network (n=3, 1KiB writes)",
    )
    return rows, table, {}
