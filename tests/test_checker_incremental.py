"""Live terminal-state judgement vs post-hoc check_all: same verdicts.

The explorer once judged each terminal state with a separate incremental
checker and cross-checked it against ``check_all``.  It now judges with
``cluster.check_properties()`` on the live cluster, and an offline
re-check (``repro check``) judges the trace after it has been persisted.
This file pins that the two paths agree on every seeded bug: the same
multiset of (property, message) violations, the same stats, and the
bug's registered property set — or the explorer would mis-signature it.
"""

import pytest

from repro.checker import Trace, check_all
from repro.harness.buggy import SEEDED_BUGS
from repro.harness.replay import replay_schedule


def _multiset(report):
    return sorted(
        (violation.prop, violation.message)
        for violation in report.violations
    )


@pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
def test_equivalent_on_seeded_bug(name, tmp_path):
    bug = SEEDED_BUGS[name]
    result = replay_schedule(
        bug.canonical_schedule(), leader_factory=bug.factory
    )
    live = result.cluster.check_properties()
    path = str(tmp_path / "trace.json")
    result.cluster.trace.save(path)
    posthoc = check_all(Trace.load(path))
    assert _multiset(live) == _multiset(posthoc)
    assert live.stats == posthoc.stats
    assert live.violated_properties() == bug.expected
    assert posthoc.violated_properties() == bug.expected
