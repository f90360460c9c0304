"""Bounded exhaustive exploration of fault schedules.

The explorer walks *every* sequence of fault-injection decisions up to a
depth bound, instead of sampling them the way the random campaign does.
One node of the search tree is a full deterministic execution: boot a
fresh cluster, apply the decision prefix, take index-0 defaults beyond
it, quiesce, and run the PO property checker over the whole history.
Untaken alternatives recorded along the way become new prefixes on a
depth-first frontier.

An execution is not a copy of the replay recipe: it *is* the replay
recipe.  :func:`repro.harness.replay.execute`, the executor behind
:func:`~repro.harness.replay.replay_schedule`, runs it with one decider
per decision point instead of fixed actions, and the explorer records
the run's ``horizon`` (``depth * step_interval``) and ``jitter`` in the
emitted schedule's ``meta``.  So a violating run is emitted as a plain
:class:`~repro.harness.schedule.ActionSchedule` whose replay — by
``repro shrink``'s ddmin machinery, or by ``replay_schedule`` with no
extra arguments — is the explored execution itself, and every reported
violation is re-verified through an actual ``replay_schedule`` call
before the explorer vouches for it.

Budgets are explicit and loud: when the run stops on ``max_schedules``
or ``max_states`` the result says so and reports how many frontier
prefixes were left unexplored — no silent caps.
"""

import functools
import time

from repro.harness.replay import (
    STOP,
    execute,
    replay_schedule,
    signature_json,
)
from repro.harness.schedule import Action, ActionSchedule
from repro.mc.choices import Chooser, DfsFrontier
from repro.mc.fingerprint import cluster_fingerprint
from repro.mc.policy import InterleavingPolicy

#: Decision-point option meaning "inject nothing this step".
NOOP = ("noop", None)


class ExplorerConfig:
    """Knobs of one exploration run.

    peers / seed / op_interval / step_interval / settle / timeout
        Mirror :func:`~repro.harness.replay.replay_schedule` so every
        emitted schedule replays bit-identically with no extra args.
    depth
        Number of fault decision points per execution.
    max_schedules / max_states
        Hard budgets on executions run and distinct abstract states
        fingerprinted.  Exceeding either stops the search (reported,
        never silent).
    max_violations
        Stop after this many distinct confirmed violation signatures
        (0 = never stop early; keep searching to the budget).
    interleave
        Also branch over same-timestamp message-delivery orderings via
        the kernel :class:`~repro.sim.kernel.SchedulePolicy` seam.
        Interleaving decisions are not expressible in an ActionSchedule,
        so violations found *only* under a non-default interleaving are
        reported as unconfirmed unless plain replay reproduces them.
    jitter
        Override the network's per-message jitter (``None`` keeps the
        stock fabric).  Interleave mode wants ``0.0``: with jitter on,
        two messages essentially never share a timestamp and the
        delivery-order seam has nothing to branch on.  The override is
        recorded in the emitted schedule's ``meta``, which is where both
        the explored run and every replay of the schedule read it from.
    leader_factory
        Forwarded to the cluster — plant seeded bugs from
        :mod:`repro.harness.buggy` to point the explorer at known prey.
    dissemination
        Propagation topology for every explored execution (one of
        ``repro.DISSEMINATION_TOPOLOGIES``).  Recorded in each emitted
        schedule's ``meta`` so replays and shrinks run the same
        topology.
    recorder_dir
        Directory for flight-recorder dumps.  When set, every distinct
        violation ships its black box — the violating execution's
        recent events — as ``violation-<n>.flight.jsonl`` next to the
        violation record (``None`` disables dumping; the recorder
        itself always rides along).
    ops_actions
        Also branch over operator actions — ``snapshot`` (when the
        cluster is serving) and ``compact_log`` with retain=1 (once any
        live peer holds a snapshot) — so the DFS interleaves fuzzy
        snapshots and log compaction with commits and crashes.  The
        revisit fingerprint widens to cover per-peer snapshot/purge
        state; off (the default) both menu and fingerprint are exactly
        the legacy ones.
    """

    def __init__(self, peers=3, depth=8, seed=0, step_interval=0.25,
                 op_interval=0.02, settle=2.0, timeout=60.0,
                 max_schedules=256, max_states=4096, max_violations=1,
                 interleave=False, jitter=None, leader_factory=None,
                 dissemination="leader-direct", recorder_dir=None,
                 ops_actions=False):
        self.peers = peers
        self.depth = depth
        self.seed = seed
        self.step_interval = step_interval
        self.op_interval = op_interval
        self.settle = settle
        self.timeout = timeout
        self.max_schedules = max_schedules
        self.max_states = max_states
        self.max_violations = max_violations
        self.interleave = interleave
        self.jitter = jitter
        self.leader_factory = leader_factory
        self.dissemination = dissemination
        self.recorder_dir = recorder_dir
        self.ops_actions = ops_actions


class Violation:
    """One distinct way the explored system broke."""

    __slots__ = ("schedule", "signature", "confirmed", "replay_signature",
                 "prefix", "flight_path")

    def __init__(self, schedule, signature, confirmed, replay_signature,
                 prefix, flight_path=None):
        self.schedule = schedule
        self.signature = signature
        self.confirmed = confirmed
        self.replay_signature = replay_signature
        self.prefix = prefix
        self.flight_path = flight_path

    def to_json(self):
        return {
            "signature": [list(entry) for entry in self.signature],
            "confirmed": self.confirmed,
            "replay_signature": [
                list(entry) for entry in self.replay_signature
            ] if self.replay_signature is not None else None,
            "prefix": list(self.prefix),
            "flight_path": self.flight_path,
            "schedule": self.schedule.to_json(),
        }


class ExplorationResult:
    """Everything one exploration did, found, and left on the table."""

    def __init__(self, config):
        self.config = config
        self.runs = 0
        self.choice_points = 0
        self.states_visited = 0
        self.states_pruned = 0
        self.por_skipped = 0
        self.violations = []
        self.errors = []              # (prefix, error-string) pairs
        self.stopped_reason = "exhausted"
        self.frontier_left = 0
        # Attribution stamps (wall-clock seconds / worker process id).
        # Deliberately absent from to_json(): the canonical summary must
        # stay byte-identical across machines and worker counts.
        self.elapsed = None
        self.worker = None

    @property
    def exhausted(self):
        return self.stopped_reason == "exhausted"

    @property
    def ok(self):
        return not self.violations and not self.errors

    def to_json(self):
        return {
            "peers": self.config.peers,
            "depth": self.config.depth,
            "seed": self.config.seed,
            "interleave": self.config.interleave,
            "runs": self.runs,
            "choice_points": self.choice_points,
            "states_visited": self.states_visited,
            "states_pruned": self.states_pruned,
            "por_skipped": self.por_skipped,
            "violations": [violation.to_json()
                           for violation in self.violations],
            "errors": [
                {"prefix": list(prefix), "error": error}
                for prefix, error in self.errors
            ],
            "stopped_reason": self.stopped_reason,
            "exhausted": self.exhausted,
            "frontier_truncated": self.frontier_left,
            "budget": {
                "max_schedules": self.config.max_schedules,
                "max_states": self.config.max_states,
                "max_violations": self.config.max_violations,
            },
        }

    def __repr__(self):
        return (
            "<ExplorationResult %d runs, %d states, %d violations, %s>"
            % (self.runs, self.states_visited, len(self.violations),
               self.stopped_reason)
        )


class Explorer:
    """Depth-first bounded search over fault-decision sequences."""

    def __init__(self, config=None, metrics=None, progress=None):
        self.config = config or ExplorerConfig()
        self.metrics = metrics
        self.progress = progress      # callable(ExplorationResult), per run
        # fingerprint -> shallowest decision step at which it was seen
        self._visited = {}
        self._por_stats = {"choice_points": 0, "por_skipped": 0}
        self._signatures = set()

    # ------------------------------------------------------------------
    # Search driver
    # ------------------------------------------------------------------

    def run(self, roots=None):
        """Explore until the frontier drains or a budget trips.

        *roots* seeds the frontier with explicit decision prefixes
        instead of the empty one — the subtree-parallelism seam used by
        :func:`repro.bench.parallel.parallel_explore`, where each worker
        explores one disjoint subtree of the search.
        """
        started = time.perf_counter()
        config = self.config
        result = ExplorationResult(config)
        frontier = DfsFrontier(roots)
        while len(frontier):
            if result.runs >= config.max_schedules:
                result.stopped_reason = "max_schedules"
                break
            if len(self._visited) >= config.max_states:
                result.stopped_reason = "max_states"
                break
            prefix = frontier.pop()
            chooser = self._run_one(prefix, result)
            if (config.max_violations
                    and len(result.violations) >= config.max_violations):
                result.stopped_reason = "max_violations"
                break
            frontier.expand(prefix, chooser)
            self._note_progress(result, frontier)
        result.frontier_left = len(frontier)
        return self._finish(result, started)

    def bootstrap(self):
        """Execute only the root prefix; return (result, subtree roots).

        The root run's recorded choice points define an exact partition
        of the remaining search tree: every untaken sibling
        ``taken[:depth] + [value]`` roots one disjoint subtree (the same
        prefixes a serial :class:`DfsFrontier` would queue from the root
        expansion).  :func:`repro.bench.parallel.parallel_explore` runs
        the root here, then farms those subtree roots to workers.
        """
        started = time.perf_counter()
        result = ExplorationResult(self.config)
        chooser = self._run_one([], result)
        units = []
        for depth in range(len(chooser.taken)):
            for value in range(1, chooser.arities[depth]):
                units.append(chooser.taken[:depth] + [value])
        return self._finish(result, started), units

    def _run_one(self, prefix, result):
        """Execute and judge one prefix; returns its Chooser."""
        chooser, replayed = self._execute(prefix, result)
        result.runs += 1
        if replayed is None:          # pruned
            pass
        elif replayed.error is not None:
            result.errors.append((tuple(prefix), replayed.error))
        elif replayed.signature:
            self._record_violation(prefix, replayed, result)
        return chooser

    def _finish(self, result, started):
        result.states_visited = len(self._visited)
        result.por_skipped = self._por_stats["por_skipped"]
        result.choice_points += self._por_stats["choice_points"]
        result.elapsed = time.perf_counter() - started
        self._publish_metrics(result)
        return result

    def _record_violation(self, prefix, explored, result):
        """Re-verify a violating run through the stock replay engine.

        A violation only counts once per signature; `confirmed` means a
        fresh ``replay_schedule`` of the emitted ActionSchedule (default
        FIFO kernel, no explorer in the loop) reproduced the exact same
        signature — the bit-identical-replay guarantee the shrinker
        needs.
        """
        if explored.signature in self._signatures:
            return
        self._signatures.add(explored.signature)
        replayed = replay_schedule(
            explored.schedule, leader_factory=self.config.leader_factory,
            settle=self.config.settle, timeout=self.config.timeout,
        )
        result.violations.append(Violation(
            schedule=explored.schedule,
            signature=explored.signature,
            confirmed=(replayed.signature == explored.signature),
            replay_signature=replayed.signature,
            prefix=tuple(prefix),
            # The *explored* run's black box, not the verification
            # replay's: its tail shows the execution whose signature was
            # recorded, even when replay fails to confirm.
            flight_path=explored.cluster.dump_flight(
                self.config.recorder_dir, reason="explorer_violation",
                filename="violation-%d.flight.jsonl" % len(result.violations),
                signature=signature_json(explored.signature),
            ),
        ))

    def _note_progress(self, result, frontier):
        result.states_visited = len(self._visited)
        result.frontier_left = len(frontier)
        if self.progress is not None:
            self.progress(result)

    def _publish_metrics(self, result):
        if self.metrics is None:
            return
        self.metrics.counter("mc.runs").inc(result.runs)
        self.metrics.counter("mc.states_visited").inc(result.states_visited)
        self.metrics.counter("mc.states_pruned").inc(result.states_pruned)
        self.metrics.counter("mc.por_skipped").inc(result.por_skipped)
        self.metrics.counter("mc.violations").inc(len(result.violations))

    # ------------------------------------------------------------------
    # One execution
    # ------------------------------------------------------------------

    def _execute(self, prefix, result):
        """Run one decision prefix through the shared schedule executor.

        Each decision point is a decider at ``(k+1) * step_interval``
        that picks from the fault menu and records the pick in the
        emitted schedule, followed by a prune check at the same instant.
        Returns ``(chooser, replayed)``: the ReplayResult, or ``None``
        when the run was pruned.
        """
        config = self.config
        chooser = Chooser(prefix)
        meta = {
            "seed": config.seed,
            "n_voters": config.peers,
            "op_interval": config.op_interval,
            "explored_prefix": list(prefix),
        }
        if config.dissemination != "leader-direct":
            meta["dissemination"] = config.dissemination
        if config.jitter is not None:
            meta["jitter"] = config.jitter
        meta["horizon"] = config.depth * config.step_interval
        schedule = ActionSchedule(meta=meta)

        def decide(cluster, step):
            options = self._step_options(cluster)
            pick = options[chooser.next(len(options), label="step%d" % step)]
            result.choice_points += 1
            if pick is NOOP:
                return None
            action = Action((step + 1) * config.step_interval, *pick)
            schedule.actions.append(action)
            return action

        def prune(cluster, step):
            # Prune only at or beyond this run's divergence point: while
            # the chooser is still replaying its scripted prefix, the
            # states necessarily match the parent run's — flagging them
            # as "revisited" would kill the exact branch the frontier
            # scheduled this run to explore.
            if (len(chooser.taken) >= len(chooser.prefix)
                    and self._prune(cluster, step)):
                result.states_pruned += 1
                return STOP
            return None

        steps = []
        for step in range(config.depth):
            when = (step + 1) * config.step_interval
            steps.append((when, functools.partial(decide, step=step)))
            steps.append((when, functools.partial(prune, step=step)))

        def on_start(cluster):
            if config.interleave:
                cluster.sim.set_policy(InterleavingPolicy(
                    chooser, cluster.network._deliver, self._por_stats
                ))

        replayed = execute(
            schedule, steps, config.settle, config.timeout,
            on_start=on_start, leader_factory=config.leader_factory,
        )
        return chooser, replayed

    def _step_options(self, cluster):
        """The fault menu at this decision point, gated by cluster state.

        Deterministic given the execution so far (the same prefix always
        sees the same menu — required for sound sibling expansion).
        Faults come first so the DFS default descent is the most
        adversarial path; ``noop`` is always present and always last.
        """
        config = self.config
        peers = cluster.peers
        down = sum(1 for peer in peers.values() if peer.crashed)
        max_down = (config.peers - 1) // 2
        leader = cluster.leader()
        partitioned = cluster.network.partitions.active()
        options = []
        if down < max_down:
            if leader is not None:
                options.append(("crash_leader", None))
            if any(
                not peer.crashed and not peer.is_observer
                and peer.is_active_follower
                for peer in peers.values()
            ):
                options.append(("crash_follower", None))
        if leader is not None and not partitioned:
            options.append(("partition", [[leader.peer_id]]))
        if partitioned:
            options.append(("heal", None))
        if down:
            options.append(("recover_all", None))
        if config.ops_actions:
            # Operator moves: snapshot whenever the cluster is serving,
            # compact (retain=1, the most aggressive legal purge) once
            # anything exists to compact.  Both gates read only
            # deterministic cluster state, like the fault gates above.
            if leader is not None:
                options.append(("snapshot", None))
            if any(
                not peer.crashed and len(peer.storage.snapshots)
                for peer in peers.values()
            ):
                options.append(("compact_log", 1))
        options.append(NOOP)
        return options

    def _prune(self, cluster, step):
        """True when this abstract state was already expanded no deeper.

        The first visitor of a fingerprint explores its whole remaining
        subtree; a later arrival at the same state with the same or less
        remaining depth can only rediscover a subset, so it stops.
        (Heuristic, not exact: the fingerprint abstracts away RNG-stream
        positions, so two "equal" states can differ microscopically in
        future message jitter.  See docs/TESTING.md.)
        """
        fingerprint = cluster_fingerprint(
            cluster, storage_state=self.config.ops_actions
        )
        seen_at = self._visited.get(fingerprint)
        if seen_at is not None and seen_at <= step:
            return True
        self._visited[fingerprint] = (
            step if seen_at is None else min(seen_at, step)
        )
        return False


def explore_schedules(peers=3, depth=8, seed=0, leader_factory=None,
                      metrics=None, progress=None, **config_kwargs):
    """One-call convenience wrapper: build config, run, return the result."""
    config = ExplorerConfig(
        peers=peers, depth=depth, seed=seed,
        leader_factory=leader_factory, **config_kwargs
    )
    return Explorer(config, metrics=metrics, progress=progress).run()
