"""Verification campaigns: many seeded adversarial runs, one verdict.

A campaign is the poor man's model checker: for each seed it *generates*
a declarative :class:`~repro.harness.schedule.ActionSchedule` from the
seed, *replays* it against a fresh cluster under client load, then
quiesces and checks the six PO broadcast properties plus replica-state
convergence.  Because generation and execution are decoupled, a failing
seed is more than a verdict: its schedule is attached to the outcome,
serializable to JSON, replayable bit for bit, and shrinkable to a
minimal repro with ``python -m repro shrink``.

Used by ``python -m repro campaign`` and by the long-running integration
tests.
"""

import json
import time

from repro.bench.formats import render_table
from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.replay import replay_schedule, signature_json
from repro.harness.schedule import ActionSchedule
from repro.obs.metrics import StreamingHistogram

#: Schema tag of the machine-readable campaign report.  The report is
#: deliberately wall-clock-free: two runs of the same seeds — serial,
#: or merged from any number of parallel workers — must serialise to
#: byte-identical JSON (the parallel-smoke CI job ``cmp``s them).
CAMPAIGN_SCHEMA = "repro-campaign/v1"


class RunOutcome:
    """Result of one seeded adversarial run."""

    __slots__ = ("seed", "ok", "violations", "converged", "epochs",
                 "deliveries", "actions", "error", "schedule",
                 "signature", "health", "latency", "elapsed", "worker")

    def __init__(self, seed, ok, violations, converged, epochs,
                 deliveries, actions, error=None, schedule=None,
                 signature=(), health=None, latency=None, elapsed=None,
                 worker=None):
        self.seed = seed
        self.ok = ok
        self.violations = violations
        self.converged = converged
        self.epochs = epochs
        self.deliveries = deliveries
        self.actions = actions
        self.error = error
        self.schedule = schedule
        self.signature = signature
        self.health = health    # HealthMonitor.summary() dict, or None
        # Commit-latency sketch of the run's client load (a
        # StreamingHistogram); campaign reports merge these across runs.
        self.latency = latency
        # Attribution stamps: wall-clock seconds this run took and which
        # parallel worker executed it (0 for in-process serial runs).
        # Deliberately excluded from campaign_report() JSON.
        self.elapsed = elapsed
        self.worker = worker

    @property
    def passed(self):
        return self.ok and self.converged and self.error is None


def run_adversarial_campaign(seeds, n_voters=3, steps=10,
                             step_interval=0.5, op_interval=0.02,
                             leader_factory=None, with_health=False,
                             dissemination="leader-direct",
                             profile="default", workers=1):
    """Run one adversarial scenario per seed; returns [RunOutcome].

    With ``with_health=True`` every run is traced (protocol events
    only) and replayed through a
    :class:`~repro.obs.health.HealthMonitor`, so each outcome carries
    a health summary alongside the property verdict — the campaign's
    answer to "it didn't violate anything, but was it *healthy*?".
    ``dissemination`` runs the whole campaign under a non-default
    propagation topology (``repro.DISSEMINATION_TOPOLOGIES``).
    ``profile="ops"`` swaps the crash/partition adversary for the
    operational one (:meth:`ActionSchedule.generate_ops`): snapshots,
    retention-driven compaction, one-way cuts, and clock skews join
    the fault mix.  ``workers > 1`` farms the seeds across processes
    (:func:`repro.bench.parallel.run_parallel_campaign`); outcomes come
    back in seed order either way, so reports are byte-identical.
    """
    from repro.bench.parallel import run_parallel_campaign

    return run_parallel_campaign(
        seeds, workers=workers, n_voters=n_voters, steps=steps,
        step_interval=step_interval, op_interval=op_interval,
        leader_factory=leader_factory, with_health=with_health,
        dissemination=dissemination, profile=profile,
    )


def _one_run(seed, n_voters=3, steps=10, step_interval=0.5,
             op_interval=0.02, leader_factory=None, with_health=False,
             dissemination="leader-direct", profile="default"):
    started = time.perf_counter()
    if profile == "ops":
        schedule = ActionSchedule.generate_ops(
            seed, n_voters=n_voters, steps=steps,
            step_interval=step_interval, op_interval=op_interval,
        )
    elif profile == "default":
        schedule = ActionSchedule.generate(
            seed, n_voters=n_voters, steps=steps,
            step_interval=step_interval, op_interval=op_interval,
        )
    else:
        raise ValueError("unknown campaign profile: %r" % (profile,))
    tracer = None
    if with_health:
        from repro.obs.trace import Tracer

        tracer = Tracer()
        tracer.disable("net.")
    latency = StreamingHistogram()
    result = replay_schedule(
        schedule, n_voters=n_voters, seed=seed, op_interval=op_interval,
        leader_factory=leader_factory, tracer=tracer,
        dissemination=dissemination, latency_histogram=latency,
    )
    health = None
    if tracer is not None:
        from repro.obs.health import HealthMonitor

        monitor = HealthMonitor()
        monitor.feed(tracer.events).finish()
        health = monitor.summary()
    return RunOutcome(
        seed=seed,
        ok=result.ok,
        violations=result.violations,
        converged=result.converged,
        epochs=result.epochs,
        deliveries=result.deliveries,
        actions=schedule.legacy_pairs(),
        error=result.error,
        schedule=schedule,
        signature=result.signature,
        health=health,
        latency=latency,
        elapsed=time.perf_counter() - started,
        worker=0,
    )


def run_partition_campaign_zab(seeds, n_voters=3, steps=10,
                               flap_period=0.4, op_interval=0.01):
    """Partition-only adversary against Zab (companion to the Paxos
    variant below; same fault pattern, same load)."""
    results = []
    for seed in seeds:
        cluster = Cluster(ClusterConfig(
            n_voters=n_voters, seed=seed
        )).start()
        cluster.run_until_stable(timeout=60)
        _drive_partitions(cluster, cluster.sim, seed, steps, flap_period,
                          op_interval, _zab_submit(cluster))
        cluster.heal()
        cluster.run(3.0)
        report = cluster.check_properties()
        results.append((seed, sorted(report.violated_properties())))
    return results


def run_partition_campaign_paxos(seeds, n_replicas=3, steps=10,
                                 flap_period=0.4, op_interval=0.01,
                                 max_outstanding=8):
    """Partition-only adversary against pipelined Paxos.

    Unlike the paper's hand-crafted counter-example (E4), nothing here
    is scripted: leaders change because partitions trip the failure
    detector.  A fraction of seeds organically violate primary
    integrity — a fresh Paxos leader starts broadcasting right after
    phase 1, *before* its state covers the re-proposed suffix, which is
    exactly the barrier Zab's synchronisation phase enforces.
    """
    from repro.net import NetworkConfig
    from repro.paxos import PaxosCluster

    results = []
    for seed in seeds:
        cluster = PaxosCluster(
            n_replicas, seed=seed, max_outstanding=max_outstanding,
            leader_timeout_ticks=3,
            net_config=NetworkConfig(),
        ).start()
        cluster.run_until_leader(timeout=60)
        _drive_partitions(cluster, cluster.sim, seed, steps, flap_period,
                          op_interval, _paxos_submit(cluster))
        cluster.heal()
        cluster.run(3.0)
        report = cluster.check_properties()
        results.append((seed, sorted(report.violated_properties())))
    return results


def _zab_submit(cluster):
    def submit():
        leader = cluster.leader()
        if leader is not None:
            try:
                leader.propose_op(("incr", "counter", 1))
            except Exception:
                pass
    return submit


def _paxos_submit(cluster):
    def submit():
        leader = cluster.leader()
        if leader is not None:
            try:
                leader.submit_op(("incr", "counter", 1))
            except Exception:
                pass
    return submit


def _drive_partitions(cluster, sim, seed, steps, flap_period, op_interval,
                      submit):
    rng = sim.random.stream("partition-adversary")

    def load_tick():
        submit()
        sim.schedule(op_interval, load_tick)

    load_tick()
    members = list(
        getattr(cluster, "peers", getattr(cluster, "replicas", {}))
    )
    for _step in range(steps):
        cluster.run(flap_period)
        roll = rng.random()
        if roll < 0.6 and len(members) > 2:
            victim = rng.choice(members)
            cluster.partition({victim})
            cluster.run(flap_period)
            cluster.heal()
        else:
            cluster.heal()


def render_comparison(zab_results, paxos_results):
    """Side-by-side organic-violation table for E4b.

    Result lists merged from parallel workers may arrive in any order;
    everything here aggregates by value and sorts by seed, so the table
    is independent of how the runs were scheduled.
    """
    zab_bad = sorted(seed for seed, violations in zab_results if violations)
    paxos_bad = sorted(
        seed for seed, violations in paxos_results if violations
    )
    properties = sorted({
        prop
        for _seed, violations in paxos_results
        for prop in violations
    })
    rows = [
        ("zab", len(zab_results), len(zab_bad), ", ".join(
            str(seed) for seed in zab_bad) or "-", "-"),
        ("paxos (8 outstanding)", len(paxos_results), len(paxos_bad),
         ", ".join(str(seed) for seed in paxos_bad) or "-",
         ", ".join(properties) or "-"),
    ]
    return render_table(
        ["system", "seeds", "violating seeds", "which", "properties"],
        rows,
        title="E4b: organic PO violations under partition fault "
              "injection (unscripted)",
    )


def render_campaign(outcomes):
    """Summary table plus a verdict line.

    The table is sorted by seed and every aggregate is computed over
    the outcome *values*, never their positions — merged multi-worker
    outcome lists render identically however the runs were interleaved.
    When any outcome carries parallel attribution stamps, a ``worker``
    and a wall-clock ``ms`` column join the table.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.seed)
    with_health = any(outcome.health is not None for outcome in ordered)
    with_worker = any(outcome.worker is not None for outcome in ordered)
    rows = [
        (
            outcome.seed,
            "pass" if outcome.passed else "FAIL",
            len(outcome.actions),
            max(outcome.epochs) if outcome.epochs else 0,
            outcome.deliveries,
        )
        + (
            (
                outcome.health["verdict"] if outcome.health is not None
                else "-",
            )
            if with_health else ()
        )
        + (
            (
                "-" if outcome.worker is None else outcome.worker,
                "-" if outcome.elapsed is None
                else "%.0f" % (outcome.elapsed * 1e3),
            )
            if with_worker else ()
        )
        + (
            outcome.error or ", ".join(outcome.violations) or
            ("diverged" if not outcome.converged else ""),
        )
        for outcome in ordered
    ]
    table = render_table(
        ["seed", "verdict", "faults", "max epoch", "deliveries"]
        + (["health"] if with_health else [])
        + (["worker", "ms"] if with_worker else []) + ["notes"],
        rows,
        title="Adversarial campaign (%d runs)" % len(ordered),
    )
    failed = [outcome for outcome in ordered if not outcome.passed]
    verdict = (
        "ALL %d RUNS PASSED" % len(ordered)
        if not failed
        else "%d/%d RUNS FAILED (seeds: %s)"
        % (len(failed), len(ordered),
           [outcome.seed for outcome in failed])
    )
    lines = [table, verdict]
    for outcome in failed:
        if outcome.schedule is None:
            continue
        lines.append("")
        lines.append(
            "seed %d schedule (replay with `repro shrink --seed %d`):"
            % (outcome.seed, outcome.seed)
        )
        lines.append(outcome.schedule.dumps())
    return "\n".join(lines)


def campaign_report(outcomes, params=None):
    """Machine-readable campaign verdict (``repro-campaign/v1``).

    Contains only simulation-deterministic facts: per-seed verdicts,
    violation signatures, failing schedules, and the latency sketch
    merged across runs with :meth:`StreamingHistogram.merge` (exact at
    the bucket level, so the merged percentiles equal a single
    histogram that observed every run's samples).  Wall-clock elapsed
    and worker stamps are deliberately left out — they live on the
    :class:`RunOutcome` objects and the rendered table — which is what
    makes serial and N-worker reports byte-identical.
    """
    runs = []
    merged_latency = StreamingHistogram()
    for outcome in sorted(outcomes, key=lambda outcome: outcome.seed):
        row = {
            "seed": outcome.seed,
            "passed": outcome.passed,
            "ok": outcome.ok,
            "converged": outcome.converged,
            "violations": sorted(outcome.violations),
            "signature": signature_json(outcome.signature),
            "deliveries": outcome.deliveries,
            "epochs": sorted(outcome.epochs),
            "actions": len(outcome.actions),
            "error": outcome.error,
        }
        if outcome.health is not None:
            row["health"] = outcome.health
        if outcome.latency is not None:
            merged_latency.merge(outcome.latency)
            row["latency"] = outcome.latency.snapshot()
        if not outcome.passed and outcome.schedule is not None:
            row["schedule"] = outcome.schedule.to_json()
        runs.append(row)
    failed = sorted(
        outcome.seed for outcome in outcomes if not outcome.passed
    )
    return {
        "schema": CAMPAIGN_SCHEMA,
        "params": params or {},
        "runs": runs,
        "summary": {
            "runs": len(runs),
            "passed": len(runs) - len(failed),
            "failed_seeds": failed,
            "deliveries": sum(
                outcome.deliveries for outcome in outcomes
            ),
            "latency": merged_latency.snapshot(),
        },
    }


def write_campaign_report(outcomes, path, params=None):
    """Write :func:`campaign_report` as sorted, indented JSON."""
    report = campaign_report(outcomes, params=params)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
