"""Operational scenarios: the cluster run the way production runs it.

The fuzzy-snapshot and recovery machinery of the paper exists in
:mod:`repro.storage` and :mod:`repro.zab.sync`, but implementation is
not operation.  This module *operates* the cluster: scheduled fuzzy
snapshots and log compaction under live client load, rolling
restarts/upgrades (leader last), flapping and one-way partitions, and
clock-skewed elections — each expressed as a plain, replayable
:class:`~repro.harness.schedule.ActionSchedule`, so every scenario
flows through the same replay, campaign, explorer, and shrink
machinery as any other fault schedule, and a failing run ships a
flight-recorder black box.

Scenario families (the :data:`OPS_SCENARIOS` catalog):

``snapshot-under-load``
    Periodic operator snapshots with retention-driven compaction while
    the open-loop load keeps committing — the fuzzy-snapshot race the
    paper's design argument is about.
``retention-churn``
    Snapshots, compactions, and crash/recover cycles interleaved, so
    restarted peers must recover solely from a snapshot plus the
    post-compaction log suffix.
``rolling-restart``
    Every voter bounced in turn, followers first and the leader last
    (the production upgrade order), under load.
``flapping-partition``
    A victim repeatedly partitioned and healed (``oneway=True`` cuts
    only its outbound links — the half-open failure mode).
``clock-skew-election``
    A follower's election timers stretched, then the leader killed:
    elections must still converge with heterogeneous timeouts.

:func:`run_ops_scenario` replays a schedule with tracing on (wire
events off, like the campaign), feeds the trace to the offline
:class:`~repro.obs.health.HealthMonitor`, and runs an explicit
committed-transaction-loss audit on top of the property checker.
"""

from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.replay import replay_schedule
from repro.harness.schedule import ActionSchedule


def stable_leader_id(n_voters=3, seed=0, timeout=30.0, **config):
    """Which peer leads once a fresh (n_voters, seed) cluster settles.

    Deterministic — the simulator is — so schedule generators can plan
    "leader last" or "skew a follower" without a live cluster in hand.
    Boots and discards a throwaway ensemble; extra keyword arguments
    are :class:`ClusterConfig` field names.
    """
    cluster = Cluster(ClusterConfig(
        n_voters=n_voters, seed=seed, **config
    )).start()
    cluster.run_until_stable(timeout=timeout)
    return cluster.leader().peer_id


def _base_meta(scenario, seed, n_voters, op_interval, **config):
    meta = {
        "scenario": scenario,
        "seed": seed,
        "n_voters": n_voters,
        "op_interval": op_interval,
    }
    # Replay-relevant cluster knobs ride in meta so the schedule alone
    # reproduces the run (replay_schedule reads them back out).
    if "dissemination" in config:
        meta["dissemination"] = config["dissemination"]
    return meta


def snapshot_under_load_schedule(seed=0, n_voters=3, snapshots=4,
                                 interval=0.5, retain_snapshots=2,
                                 op_interval=0.02):
    """Periodic fuzzy snapshots + compaction under open-loop load.

    Every *interval* seconds each live peer snapshots; half an interval
    later the retention policy compacts (keep the newest
    *retain_snapshots*, purge logs through the oldest survivor).
    """
    schedule = ActionSchedule(meta=dict(
        _base_meta("snapshot-under-load", seed, n_voters, op_interval),
        retain_snapshots=retain_snapshots,
    ))
    for i in range(snapshots):
        t = (i + 1) * interval
        schedule.add(t, "snapshot")
        schedule.add(t + interval / 2.0, "compact_log", retain_snapshots)
    return schedule


def retention_churn_schedule(seed=0, n_voters=3, cycles=3, interval=0.6,
                             retain_snapshots=1, op_interval=0.02):
    """Snapshot/compact churn interleaved with crash/recover cycles.

    Each cycle snapshots, compacts down to *retain_snapshots*, crashes
    a voter, and recovers it — so the restarted peer's sync must work
    from a snapshot plus the compacted log's suffix alone.  Victims
    rotate through the voter set (the leader included, whoever it is).
    """
    schedule = ActionSchedule(meta=dict(
        _base_meta("retention-churn", seed, n_voters, op_interval),
        retain_snapshots=retain_snapshots,
    ))
    for i in range(cycles):
        t = (i + 1) * 2.0 * interval
        victim = (i % n_voters) + 1
        schedule.add(t, "snapshot")
        schedule.add(t + 0.2 * interval, "compact_log", retain_snapshots)
        schedule.add(t + 0.4 * interval, "crash", victim)
        schedule.add(t + 1.4 * interval, "recover", victim)
    return schedule


def rolling_restart_schedule(seed=0, n_voters=3, dwell=0.5, gap=1.5,
                             op_interval=0.02, leader_id=None,
                             **config):
    """Bounce every voter in turn — followers first, leader last.

    Each voter is crashed for *dwell* seconds, then the cluster gets
    *gap* seconds to re-absorb it before the next bounce.  *leader_id*
    (who goes last) defaults to :func:`stable_leader_id` for the same
    (n_voters, seed), matching who actually leads when the schedule
    replays.
    """
    if leader_id is None:
        leader_id = stable_leader_id(n_voters, seed, **config)
    order = [p for p in range(1, n_voters + 1) if p != leader_id]
    order.append(leader_id)
    schedule = ActionSchedule(meta=dict(
        _base_meta("rolling-restart", seed, n_voters, op_interval,
                   **config),
        leader_id=leader_id, dwell=dwell, gap=gap,
    ))
    t = gap
    for victim in order:
        schedule.add(t, "crash", victim)
        schedule.add(t + dwell, "recover", victim)
        t += dwell + gap
    return schedule


def flapping_partition_schedule(seed=0, n_voters=3, victim=None, flaps=3,
                                period=0.4, oneway=False, op_interval=0.02,
                                **config):
    """A victim's connectivity flaps — fully, or outbound-only.

    The flap cycles run inline as one ``flap`` action (each cycle:
    partition, dwell, heal, dwell).  The victim defaults to the stable
    leader — flapping the leader forces repeated re-elections, the
    worst case for the availability SLO.
    """
    if victim is None:
        victim = stable_leader_id(n_voters, seed, **config)
    schedule = ActionSchedule(meta=dict(
        _base_meta("flapping-partition", seed, n_voters, op_interval,
                   **config),
        victim=victim, oneway=oneway,
    ))
    schedule.add(0.5, "flap", {
        "victim": victim, "flaps": flaps, "period": period,
        "oneway": oneway,
    })
    if oneway:
        schedule.add(0.5 + 2.0 * flaps * period, "restore_links")
    return schedule


def clock_skew_election_schedule(seed=0, n_voters=3, skew=4.0,
                                 op_interval=0.02, **config):
    """Skew a follower's election clock, then kill the leader.

    The skewed follower's notification resends and finalize waits run
    *skew* times slower; the election must still converge on the
    remaining sane-clock majority, and the recovered ex-leader must
    rejoin.  The skew is lifted mid-schedule so the final quiesce has
    nothing left to clean.
    """
    leader_id = stable_leader_id(n_voters, seed, **config)
    slow = (leader_id % n_voters) + 1  # some voter that is not the leader
    schedule = ActionSchedule(meta=dict(
        _base_meta("clock-skew-election", seed, n_voters, op_interval,
                   **config),
        leader_id=leader_id, skewed=slow, skew=skew,
    ))
    schedule.add(0.25, "clock_skew", [slow, skew])
    schedule.add(0.5, "crash_leader")
    schedule.add(2.5, "recover_all")
    schedule.add(3.0, "clock_skew", [slow, 1.0])
    return schedule


#: Scenario catalog: name -> schedule generator (seed=..., n_voters=...).
OPS_SCENARIOS = {
    "snapshot-under-load": snapshot_under_load_schedule,
    "retention-churn": retention_churn_schedule,
    "rolling-restart": rolling_restart_schedule,
    "flapping-partition": flapping_partition_schedule,
    "clock-skew-election": clock_skew_election_schedule,
}


class OpsScenarioResult:
    """One operational scenario's replay + health + loss-audit verdicts."""

    __slots__ = ("schedule", "replay", "monitor", "health", "lost")

    def __init__(self, schedule, replay, monitor, health, lost):
        self.schedule = schedule
        self.replay = replay      # harness.replay.ReplayResult
        self.monitor = monitor    # obs.health.HealthMonitor (finished)
        self.health = health      # monitor.summary() dict
        self.lost = lost          # committed txns missing from a live peer

    @property
    def passed(self):
        """Checker + convergence + zero committed-transaction loss."""
        return self.replay.passed and not self.lost

    def __repr__(self):
        return "<OpsScenarioResult %s %s lost=%d health=%s>" % (
            self.schedule.meta.get("scenario", "?"),
            "OK" if self.passed else "FAIL",
            len(self.lost),
            self.health.get("verdict"),
        )


def committed_txn_loss(cluster):
    """Committed transactions beyond some live peer's final frontier.

    The explicit zero-loss audit behind the rolling-restart guarantee:
    after quiesce every live peer's delivery frontier must have reached
    the newest committed (delivered-anywhere) zxid.  Convergence says
    the live peers agree byte-for-byte; this says what they agree on is
    the *complete* committed history, not a mutually-agreed rollback.
    A peer's cumulative history may legitimately start at a snapshot
    base (SNAP sync replays nothing below it), so the audit compares
    frontiers, not per-txn delivery records.  Returns
    ``[(peer_id, zxid_tuple), ...]`` of committed zxids a live peer
    never reached; crashed peers are excused.
    """
    trace = cluster.trace
    if trace is None or not trace.deliveries:
        return []
    committed = sorted({
        event.zxid.as_tuple() for event in trace.deliveries
    })
    frontier = committed[-1]
    lost = []
    for peer_id, peer in sorted(cluster.peers.items()):
        if peer.crashed:
            continue
        last = (
            peer.last_committed.as_tuple()
            if peer.last_committed is not None else (0, 0)
        )
        if last < frontier:
            lost.extend(
                (peer_id, zxid) for zxid in committed if zxid > last
            )
    return lost


def run_ops_scenario(schedule, recorder_dir=None, **replay_kwargs):
    """Replay an operational schedule with full verdicts attached.

    Traces the run (wire-level ``net.*`` events disabled, exactly like
    the campaign — the health monitor never reads them), replays the
    schedule, feeds the trace to an offline
    :class:`~repro.obs.health.HealthMonitor`, and audits committed-
    transaction loss.  Returns an :class:`OpsScenarioResult`; the same
    (schedule, seed) pair always produces the same one — health
    summary included — which is what the CI ops-smoke job's
    byte-determinism comparison rides on.
    """
    from repro.obs.health import HealthMonitor
    from repro.obs.trace import Tracer

    tracer = Tracer()
    tracer.disable("net.")
    replay = replay_schedule(
        schedule, tracer=tracer, recorder_dir=recorder_dir,
        **replay_kwargs
    )
    monitor = HealthMonitor()
    monitor.feed(tracer.events).finish()
    lost = []
    if replay.cluster is not None and replay.error is None:
        lost = committed_txn_loss(replay.cluster)
    return OpsScenarioResult(
        schedule, replay, monitor, monitor.summary(), lost,
    )
