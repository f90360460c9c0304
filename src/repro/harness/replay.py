"""Bit-for-bit replay of an :class:`~repro.harness.schedule.ActionSchedule`.

``replay_schedule`` boots a fresh :class:`~repro.harness.cluster.Cluster`,
waits for stability, drives a steady client load, fires each scheduled
action at its virtual time, then quiesces (heal + recover everyone) and
checks the six PO broadcast properties plus replica convergence.  The
whole run lives in simulated time, so the same ``(schedule, seed)`` pair
always yields the same :class:`ReplayResult` — including the exact
violation signature when the run is bad, which is what makes delta
debugging (:mod:`repro.harness.shrink`) sound.

The run itself lives in :func:`execute`, the only code that executes a
schedule: the bounded explorer (:mod:`repro.mc.explorer`) drives the
same executor with live per-step decisions, so a schedule it emits
replays the explored execution exactly.
"""

from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.schedule import apply_action
from repro.net import NetworkConfig


def violation_signature(report, converged=True):
    """A hashable, replay-stable fingerprint of what went wrong.

    Sorted unique ``(property, zxid)`` pairs — the zxid taken from the
    first offending event of each violation — plus a ``("diverged",
    None)`` marker when replica states did not converge.  Two replays of
    the same schedule on the same seed must produce identical
    signatures; the shrinker and the corpus tests both rely on that.
    """
    entries = set()
    for violation in report.violations:
        zxid = None
        for event in violation.events:
            if getattr(event, "zxid", None) is not None:
                zxid = event.zxid.as_tuple()
                break
        entries.add((violation.prop, zxid))
    if not converged:
        entries.add(("diverged", None))
    return tuple(sorted(entries))


def signature_json(signature):
    """JSON-safe form of a :func:`violation_signature`."""
    return [
        [prop, None if zxid is None else list(zxid)]
        for prop, zxid in signature
    ]


class ReplayResult:
    """Outcome of replaying one schedule."""

    __slots__ = ("schedule", "ok", "converged", "violations", "signature",
                 "report", "error", "cluster", "deliveries", "epochs",
                 "fired")

    def __init__(self, schedule, ok, converged, violations, signature,
                 report=None, error=None, cluster=None, deliveries=0,
                 epochs=(), fired=()):
        self.schedule = schedule
        self.ok = ok
        self.converged = converged
        self.violations = violations
        self.signature = signature
        self.report = report
        self.error = error
        self.cluster = cluster
        self.deliveries = deliveries
        self.epochs = epochs
        self.fired = fired

    @property
    def passed(self):
        return self.ok and self.converged and self.error is None

    def __repr__(self):
        if self.passed:
            return "<ReplayResult OK %d deliveries>" % self.deliveries
        return "<ReplayResult FAIL %s>" % (
            self.error or list(self.signature),
        )


#: Decider verdict: abandon the run unjudged (the explorer's pruning).
STOP = object()


def replay_schedule(schedule, op_interval=None, settle=2.0, timeout=60.0,
                    op=("incr", "campaign", 1), recorder_dir=None,
                    latency_histogram=None, **config):
    """Run *schedule* against a fresh cluster; returns a ReplayResult.

    With *recorder_dir* set, any failing replay (checker violation,
    divergence, or a run that never stabilised) dumps the cluster's
    flight recorder to ``<recorder_dir>/flight.jsonl`` before
    returning, so the failure ships its black box even with tracing
    off.  The dump is deterministic: replaying the same schedule on
    the same seed writes byte-identical flight files.

    The schedule's ``meta`` supplies the run's shape, so a schedule
    loaded from a repro artifact replays with no extra arguments:
    ``n_voters``, ``seed`` and ``dissemination`` (falling back to the
    :class:`ClusterConfig` defaults), ``op_interval`` (20 ms),
    ``jitter`` (the network's per-message jitter; stock fabric when
    absent) and ``horizon`` (run on to ``t0 + horizon`` after the last
    action before quiescing; absent means quiesce right after it).
    Extra keyword arguments are :class:`ClusterConfig` field names
    (``leader_factory``, ``tracer``, ``disk``, ``zab``, ...) and
    override the meta.
    """
    steps = [
        (action.time, lambda _cluster, action=action: action)
        for action in schedule
    ]
    return execute(
        schedule, steps, settle, timeout, op_interval=op_interval, op=op,
        recorder_dir=recorder_dir, latency_histogram=latency_histogram,
        **config
    )


def execute(schedule, steps, settle, timeout, op_interval=None,
            op=("incr", "campaign", 1), recorder_dir=None,
            latency_histogram=None, on_start=None, **config):
    """The one schedule executor behind replay and exploration.

    Boots and stabilises a cluster built from ``schedule.meta`` plus
    *config* (:class:`ClusterConfig` fields), starts the client load,
    then walks *steps* — ``(time, decide)`` pairs in time order.  At
    ``t0 + time`` it calls ``decide(cluster)``, which returns the
    :class:`~repro.harness.schedule.Action` to fire now, ``None`` (fire
    nothing) or :data:`STOP` (abandon the run; returns ``None``).  It
    then runs to the meta ``horizon``, quiesces (heal + recover
    everyone), and checks the six PO broadcast properties plus replica
    convergence.  ``replay_schedule`` feeds it the schedule's own
    actions; the explorer feeds it one decider per decision point and
    installs its interleaving policy through *on_start*, called with
    the cluster right after ``start()``.
    """
    meta = schedule.meta
    for field in ("n_voters", "seed", "dissemination"):
        if field in meta:
            config.setdefault(field, meta[field])
    if meta.get("jitter") is not None and "net" not in config:
        config["net"] = NetworkConfig(jitter=meta["jitter"])
    if op_interval is None:
        op_interval = meta.get("op_interval", 0.02)
    cluster = Cluster(ClusterConfig(**config)).start()
    if on_start is not None:
        on_start(cluster)
    try:
        cluster.run_until_stable(timeout=timeout)
    except TimeoutError as exc:
        cluster.dump_flight(recorder_dir, reason="never_stable")
        return ReplayResult(
            schedule, False, False, [], (), cluster=cluster,
            error="never stable: %s" % exc,
        )
    t0 = cluster.sim.now

    if op_interval:
        # With a latency_histogram the client load records submit-to-
        # commit latency per op.  The callback only feeds the sketch —
        # it schedules nothing and draws no randomness — so traced
        # events and violation signatures stay bit-identical to a
        # histogram-free replay.
        def load_tick():
            leader = cluster.leader()
            if leader is not None:
                try:
                    if latency_histogram is None:
                        leader.propose_op(op)
                    else:
                        def _observe(_result, _zxid, _t0=cluster.sim.now):
                            latency_histogram.observe(
                                cluster.sim.now - _t0
                            )

                        leader.propose_op(op, callback=_observe)
                except Exception:
                    pass
            cluster.sim.schedule(op_interval, load_tick)

        load_tick()

    fired = []
    for when, decide in steps:
        target_time = t0 + when
        if target_time > cluster.sim.now:
            cluster.run(target_time - cluster.sim.now)
        action = decide(cluster)
        if action is STOP:
            return None
        if action is not None:
            happened = apply_action(cluster, action)
            if happened is not None:
                fired.append((cluster.sim.now, happened))
    if "horizon" in meta:
        target_time = t0 + meta["horizon"]
        if target_time > cluster.sim.now:
            cluster.run(target_time - cluster.sim.now)

    # Quiesce: undo every standing fault, re-stabilise, settle.  Link
    # cuts and clock skews restore trace-silently when absent, so
    # schedules predating those faults replay byte-identically.
    cluster.heal()
    cluster.restore_links()
    cluster.clear_clock_skews()
    for peer_id, peer in cluster.peers.items():
        if peer.crashed:
            cluster.recover(peer_id)
    try:
        cluster.run_until_stable(timeout=timeout)
    except TimeoutError as exc:
        cluster.dump_flight(recorder_dir, reason="never_restabilised")
        return ReplayResult(
            schedule, False, False, [], (), cluster=cluster, fired=fired,
            error="never re-stabilised: %s" % exc,
        )
    cluster.run(settle)

    report = cluster.check_properties()
    states = {
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    }
    converged = len(states) == 1
    if not (report.ok and converged):
        signature = violation_signature(report, converged)
        cluster.dump_flight(
            recorder_dir, reason="replay_violation",
            signature=signature_json(signature),
        )
    return ReplayResult(
        schedule,
        ok=report.ok,
        converged=converged,
        violations=sorted(report.violated_properties()),
        signature=violation_signature(report, converged),
        report=report,
        cluster=cluster,
        deliveries=report.stats["deliveries"],
        epochs=report.stats["epochs"],
        fired=fired,
    )
