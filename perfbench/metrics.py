"""The benchmark's metric catalogue: every name and unit, in one place.

``BENCHMARK.json`` lists exactly these names (``run.py --self-test``
compares the two), and a later change that moves tracing into the
program itself is expected to emit the same per-layer names.

``END_TO_END`` entries are ``(name, unit, better, bound)``.
``PER_LAYER`` entries are ``(name, unit, better, moves)`` where *moves*
records, before any measurement, which end-to-end metric the layer
metric should move and on which workload (``""`` when it is a
bookkeeping line rather than a prediction).
"""

#: Layers timed by the traced run, in report order.  They are the
#: packages under ``src/repro`` on a measured path; ``driver`` is the
#: benchmark's own client code running inside the simulation.
LAYERS = ("sim", "net", "zab", "storage", "app", "checker", "obs", "mc",
          "harness", "driver")

WORKLOADS = ("saturated-n5", "failover-traced", "explore")

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_ref_s", "op/ref-s", "higher", 0.25),
    ("sim_txns_per_s", "txn/sim-s", "higher", 0.1),
    ("commit_p50_ms", "ms", "lower", 0.1),
    ("commit_p99_ms", "ms", "lower", 0.15),
    ("unavail_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_HOT = "ops_per_ref_s on saturated-n5 (most) and explore"
_STORAGE_COUNTS = ("sim_txns_per_s, commit_p50_ms on saturated-n5; "
                   "not on explore")
_RECOVERY = "unavail_ms on failover-traced; not on saturated-n5"
_OBS = ("ops_per_ref_s, peak_rss_mb on failover-traced; "
        "not on saturated-n5 or explore")
_APP = "ops_per_ref_s on failover-traced; not on saturated-n5"
_CHECKER = "ops_per_ref_s on explore; not on saturated-n5"
_MC = "ops_per_ref_s on explore; not run by the other two"

PER_LAYER = (
    ("sim.self_s", "s", "lower", _HOT),
    ("net.self_s", "s", "lower", _HOT),
    ("zab.self_s", "s", "lower", _HOT),
    ("net.msgs_per_txn", "msg/txn", "lower", _HOT),
    ("net.bytes_per_txn", "B/txn", "lower", _HOT),
    ("sim.events_per_txn", "event/txn", "lower", _HOT),
    ("storage.txns_per_flush", "txn/flush", "higher", _STORAGE_COUNTS),
    ("storage.appends_per_txn", "append/txn", "lower", _STORAGE_COUNTS),
    ("storage.disk_writes", "count", "lower", _STORAGE_COUNTS),
    ("storage.self_s", "s", "lower",
     "ops_per_ref_s on failover-traced; not on saturated-n5"),
    ("storage.snapshots", "count", "lower",
     "ops_per_ref_s on failover-traced; not on saturated-n5"),
    ("zab.elections", "count", "lower", _RECOVERY),
    ("zab.sync_diff", "count", "lower", _RECOVERY),
    ("zab.sync_trunc", "count", "lower", _RECOVERY),
    ("zab.sync_snap", "count", "lower", _RECOVERY),
    ("zab.recovery_ms", "ms", "lower", _RECOVERY),
    ("zab.writes_refused", "count", "lower", _RECOVERY),
    ("zab.commits", "count", "higher", "sample count of commit_p50_ms"),
    ("obs.self_s", "s", "lower", _OBS),
    ("obs.events", "count", "lower", _OBS),
    ("app.self_s", "s", "lower", _APP),
    ("app.reads", "count", "higher", _APP),
    ("app.reads_refused", "count", "lower", _APP),
    ("checker.self_s", "s", "lower", _CHECKER),
    ("checker.events", "count", "lower", _CHECKER),
    ("checker.check_s", "s", "lower", _CHECKER),
    ("mc.self_s", "s", "lower", _MC),
    ("mc.states", "count", "higher", _MC),
    ("mc.runs", "count", "higher", _MC),
    ("mc.states_per_run", "state/run", "higher", _MC),
    ("harness.self_s", "s", "lower", "setup_s on all workloads"),
    ("harness.setup_s", "s", "lower", "setup_s on all workloads"),
    ("driver.self_s", "s", "lower", ""),
    ("unattributed.self_s", "s", "lower", ""),
) + tuple(
    ("%s.share" % layer, "ratio", "lower", "") for layer in LAYERS
) + (
    ("unattributed.share", "ratio", "lower", ""),
    ("trace.overhead", "ratio", "lower", ""),
)


def end_to_end_units():
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def per_layer_units():
    return {name: unit for name, unit, _better, _moves in PER_LAYER}


def manifest():
    """The ``BENCHMARK.json`` metric lists these tables imply."""
    return {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
