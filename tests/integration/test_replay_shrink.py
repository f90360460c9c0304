"""End-to-end tests for schedule replay, shrinking, and the repro CLI.

This is the acceptance path of the failure-reproduction subsystem: a
random ≥10-action schedule that fails against the planted BuggyLeader
must shrink to ≤3 actions, and the minimal schedule must replay the
*identical* violation (kind and zxid) every time.
"""

import json
import os

from repro import ActionSchedule, replay_schedule, shrink_schedule
from repro.bench.campaign import render_campaign, run_adversarial_campaign
from repro.cli import main
from repro.harness.buggy import BuggyLeaderContext
from repro.harness.shrink import make_reproducer

# Seed 6's generated 10-action schedule reliably trips the quorum-skip
# bug (the buggy leader keeps committing while partitioned away from
# the majority).  Deterministic: generation and replay are both pure
# functions of the seed.
BUGGY_SEED = 6


def test_json_round_trip_replays_identically():
    schedule = ActionSchedule.generate(2, n_voters=3, steps=6)
    reloaded = ActionSchedule.loads(schedule.dumps())
    first = replay_schedule(schedule)
    second = replay_schedule(reloaded)
    assert first.passed and second.passed
    assert first.deliveries == second.deliveries
    assert first.signature == second.signature == ()
    assert first.epochs == second.epochs


def test_buggy_leader_schedule_shrinks_to_three_actions_or_fewer():
    schedule = ActionSchedule.generate(BUGGY_SEED, n_voters=3, steps=10)
    assert len(schedule) >= 10
    baseline = replay_schedule(
        schedule, leader_factory=BuggyLeaderContext
    )
    assert not baseline.passed
    assert "total_order" in baseline.violations

    failing = make_reproducer(
        baseline, leader_factory=BuggyLeaderContext
    )
    result = shrink_schedule(schedule, failing=failing)
    assert len(result.schedule) <= 3

    # The minimal schedule reproduces the same violation kind and zxid,
    # deterministically, on every replay.
    first = replay_schedule(
        result.schedule, leader_factory=BuggyLeaderContext
    )
    second = replay_schedule(
        ActionSchedule.loads(result.schedule.dumps()),
        leader_factory=BuggyLeaderContext,
    )
    assert not first.passed and not second.passed
    assert first.signature == second.signature
    assert first.signature  # non-empty: concrete (property, zxid) pairs


def test_correct_leader_passes_buggy_seed():
    # The same schedule is harmless against the real protocol — the
    # failure is the planted bug, not the fault pattern.
    schedule = ActionSchedule.generate(BUGGY_SEED, n_voters=3, steps=10)
    assert replay_schedule(schedule).passed


def test_failing_fuzz_seed_prints_the_matching_shrink_command(
        monkeypatch, capsys):
    import repro.harness.replay as replay_module

    # Fuzz has no seeded-bug flag: plant the bug under its replay.
    def buggy_replay(schedule):
        return replay_schedule(schedule, leader_factory=BuggyLeaderContext)

    monkeypatch.setattr(replay_module, "replay_schedule", buggy_replay)
    code = main(["fuzz", "--servers", "3", "--seed", str(BUGGY_SEED)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "properties: VIOLATED" in printed
    assert ("repro shrink --seed %d --servers 3 --steps 10" % BUGGY_SEED
            in printed)


def test_shrink_cli_emits_repro_artifacts(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    code = main([
        "shrink", "--seed", str(BUGGY_SEED), "--buggy", "-o", out,
    ])
    assert code == 1  # failure found and minimized
    printed = capsys.readouterr().out
    assert "shrunk 10 ->" in printed
    assert "deterministic" in printed

    minimal = ActionSchedule.load(os.path.join(out, "schedule.min.json"))
    assert len(minimal) <= 3
    original = ActionSchedule.load(os.path.join(out, "schedule.json"))
    assert len(original) == 10

    with open(os.path.join(out, "trace.jsonl")) as f:
        events = [json.loads(line) for line in f]
    assert any(event["kind"].startswith("fault.") for event in events)

    test_file = os.path.join(out, "test_seed_%d.py" % BUGGY_SEED)
    with open(test_file) as f:
        source = f.read()
    assert "EXPECTED_SIGNATURE" in source
    compile(source, test_file, "exec")  # snippet is valid python


def test_shrink_cli_passing_seed_exits_zero(capsys):
    assert main(["shrink", "--seed", "1", "--steps", "4"]) == 0
    assert "nothing to shrink" in capsys.readouterr().out


def test_campaign_outcomes_carry_schedules():
    outcomes = run_adversarial_campaign([0, 1], n_voters=3, steps=4)
    for outcome in outcomes:
        assert isinstance(outcome.schedule, ActionSchedule)
        assert len(outcome.schedule) == 4
        assert outcome.schedule.meta["seed"] == outcome.seed


def test_campaign_report_prints_schedule_for_failing_seed():
    outcomes = run_adversarial_campaign(
        [BUGGY_SEED], n_voters=3, steps=10,
        leader_factory=BuggyLeaderContext,
    )
    assert not outcomes[0].passed
    text = render_campaign(outcomes)
    assert "repro shrink --seed 6" in text
    assert '"action": "crash"' in text
