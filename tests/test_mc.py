"""Unit tests for the bounded schedule explorer (repro.mc)."""

import pytest

from repro.harness import (
    ActionSchedule,
    Cluster,
    ClusterConfig,
    replay_schedule,
)
from repro.harness.buggy import SEEDED_BUGS
from repro.mc import (
    Chooser,
    DfsFrontier,
    DivergentReplayError,
    Explorer,
    ExplorerConfig,
    InterleavingPolicy,
    cluster_fingerprint,
    explore_schedules,
)
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Chooser
# ----------------------------------------------------------------------


def test_chooser_defaults_to_first_alternative():
    chooser = Chooser()
    assert [chooser.next(3), chooser.next(2), chooser.next(5)] == [0, 0, 0]
    assert chooser.taken == [0, 0, 0]
    assert chooser.arities == [3, 2, 5]
    assert len(chooser) == 3


def test_chooser_replays_prefix_then_defaults():
    chooser = Chooser([2, 1])
    assert chooser.next(3) == 2
    assert chooser.next(2) == 1
    assert chooser.next(4) == 0
    assert chooser.taken == [2, 1, 0]


def test_chooser_records_labels():
    chooser = Chooser()
    chooser.next(2, label="step0")
    assert chooser.labels == ["step0"]


def test_chooser_rejects_prefix_outside_arity():
    chooser = Chooser([5])
    with pytest.raises(DivergentReplayError):
        chooser.next(3)


def test_chooser_rejects_zero_arity():
    with pytest.raises(ValueError):
        Chooser().next(0)


# ----------------------------------------------------------------------
# DfsFrontier
# ----------------------------------------------------------------------


def run_choices(prefix, arities):
    chooser = Chooser(prefix)
    for arity in arities:
        chooser.next(arity)
    return chooser


def test_frontier_starts_with_empty_prefix():
    frontier = DfsFrontier()
    assert len(frontier) == 1
    assert frontier.pop() == []


def test_frontier_expands_untaken_siblings_depth_first():
    frontier = DfsFrontier()
    prefix = frontier.pop()
    added = frontier.expand(prefix, run_choices(prefix, [3, 2]))
    assert added == 3  # values 1,2 at depth 0; value 1 at depth 1
    # DFS: the deepest choice point's sibling pops first, then the
    # shallow alternatives in reverse push order.
    assert frontier.pop() == [0, 1]
    assert frontier.pop() == [2]
    assert frontier.pop() == [1]
    assert len(frontier) == 0


def test_frontier_does_not_requeue_scripted_prefix_siblings():
    frontier = DfsFrontier()
    frontier.pop()
    # A sibling run scripted to [1]: only choice points *beyond* the
    # prefix spawn alternatives — depth 0's were queued by the parent.
    added = frontier.expand([1], run_choices([1], [3, 2]))
    assert added == 1
    assert frontier.pop() == [1, 1]


def test_frontier_counts_total_pushes():
    frontier = DfsFrontier()
    prefix = frontier.pop()
    frontier.expand(prefix, run_choices(prefix, [2, 2]))
    assert frontier.pushed == 3  # root + two siblings


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def booted_cluster(**kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0, **kwargs)).start()
    cluster.run_until_stable(timeout=60)
    return cluster


def test_identical_executions_share_a_fingerprint():
    first, second = booted_cluster(), booted_cluster()
    assert cluster_fingerprint(first) == cluster_fingerprint(second)


def test_fingerprint_reflects_crashes_and_partitions():
    cluster = booted_cluster()
    baseline = cluster_fingerprint(cluster)
    cluster.crash(1)
    after_crash = cluster_fingerprint(cluster)
    assert after_crash != baseline
    cluster.partition([2])
    assert cluster_fingerprint(cluster) != after_crash


def test_fingerprint_reflects_committed_writes():
    cluster = booted_cluster()
    baseline = cluster_fingerprint(cluster)
    cluster.submit_and_wait(("put", "k", 1))
    assert cluster_fingerprint(cluster) != baseline


# ----------------------------------------------------------------------
# Explorer
# ----------------------------------------------------------------------


def test_small_scope_exploration_is_clean_and_exhaustive():
    result = explore_schedules(peers=3, depth=3, max_violations=0)
    assert result.ok
    assert result.exhausted
    assert result.frontier_left == 0
    assert result.runs > 1          # the tree actually branched
    assert result.states_pruned > 0  # and the pruning did real work


def test_exploration_is_deterministic():
    first = explore_schedules(peers=3, depth=2, max_violations=0)
    second = explore_schedules(peers=3, depth=2, max_violations=0)
    assert (first.runs, first.states_visited, first.states_pruned) == (
        second.runs, second.states_visited, second.states_pruned
    )
    assert first.to_json() == second.to_json()


def test_budget_stop_is_reported_not_silent():
    result = explore_schedules(
        peers=3, depth=4, max_schedules=5, max_violations=0
    )
    assert result.runs == 5
    assert result.stopped_reason == "max_schedules"
    assert not result.exhausted
    assert result.frontier_left > 0
    summary = result.to_json()
    assert summary["frontier_truncated"] == result.frontier_left
    assert summary["stopped_reason"] == "max_schedules"


def test_explorer_finds_seeded_bug_and_emits_replayable_schedule():
    bug = SEEDED_BUGS["quorum_skip"]
    result = explore_schedules(
        peers=3, depth=4, leader_factory=bug.factory, max_violations=1
    )
    assert result.violations, "explorer missed the seeded quorum bug"
    violation = result.violations[0]
    assert violation.confirmed, (
        "stock replay of the emitted schedule did not reproduce: %r"
        % (violation.replay_signature,)
    )
    assert violation.schedule.actions  # a real schedule, not a stub
    assert violation.schedule.meta["explored_prefix"] == list(
        violation.prefix
    )


def test_explorer_publishes_metrics():
    registry = MetricsRegistry()
    explore_schedules(peers=3, depth=1, max_violations=0, metrics=registry)
    counters = registry.snapshot()["counters"]
    assert counters["mc.runs"] >= 1
    assert "mc.violations" in counters


def test_progress_callback_sees_every_run():
    seen = []
    result = explore_schedules(
        peers=3, depth=1, max_violations=0,
        progress=lambda r: seen.append(r.runs),
    )
    assert len(seen) == result.runs


def _at_check(replayed):
    """Where a judged run stood when the property check ran."""
    sim = replayed.cluster.sim
    return sim.now, replayed.deliveries, sim.events_fired


class _JudgedRuns(Explorer):
    """An explorer that keeps each judged execution's schedule and
    its :func:`_at_check` position."""

    def __init__(self, config):
        super().__init__(config)
        self.judged = []

    def _execute(self, prefix, result):
        chooser, replayed = super()._execute(prefix, result)
        if replayed is not None:
            self.judged.append((replayed.schedule, _at_check(replayed)))
        return chooser, replayed


def test_emitted_schedules_replay_the_explored_execution(tmp_path):
    # The schedule file alone must replay the run the explorer judged.
    # Trailing noop steps (meta "horizon") and the jitter override
    # (meta "jitter") are what a replay used to lose.
    explorer = _JudgedRuns(ExplorerConfig(
        peers=3, depth=4, seed=0, max_schedules=50
    ))
    explorer.run()
    jittered = _JudgedRuns(ExplorerConfig(
        peers=3, depth=4, seed=0, jitter=0.0, max_schedules=1
    ))
    jittered.run(roots=[[0, 0, 1, 2]])
    judged = explorer.judged[:40] + jittered.judged
    assert len(judged) == 41
    for index, (schedule, explored) in enumerate(judged):
        path = schedule.save(str(tmp_path / ("run-%d.json" % index)))
        replayed = replay_schedule(ActionSchedule.load(path))
        assert replayed.error is None
        assert _at_check(replayed) == explored, schedule.meta
    assert replayed.cluster.network.config.jitter == 0.0


@pytest.mark.slow
def test_deeper_exploration_stays_clean():
    # Exhaustive to depth 4 (~110 executions): still zero violations on
    # the correct protocol.  Too heavy for tier-1, cheap for the deep job.
    result = explore_schedules(peers=3, depth=4, max_violations=0)
    assert result.ok
    assert result.exhausted


def test_interleave_mode_branches_on_delivery_order():
    result = explore_schedules(
        peers=3, depth=1, max_violations=0, max_schedules=8,
        interleave=True, jitter=0.0,
    )
    assert result.ok
    assert result.por_skipped > 0, "POR never collapsed a commuting tie"
    assert result.choice_points > result.config.depth * result.runs, (
        "interleave mode added no delivery-order choice points"
    )
