"""One benchmark run: units of work, end-to-end and per-layer metrics.

Imported by ``run.py`` once the program's ``src`` is on the path.
"""

import collections
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import repro.mc

import hostclock
import layers
import metrics
import workloads

#: Episodes whose virtual-time results make up the reported virtual
#: metrics.  Every run completes at least these, on any host, so the
#: virtual metrics repeat exactly for a seed.
VIRTUAL_EPISODES = {"saturated-n5": 2, "failover-traced": 3, "explore": 12}
#: Depth of every exhaustive exploration of ``explore``.
EXPLORE_DEPTH = 4
#: Episode indices of the ``explore`` probe start here, apart from the
#: explorations' seeds.
PROBE_OFFSET = 1000
SETUP_SAMPLES = 7
#: Calibration chunks run before and after each setup sample.
SETUP_CHUNKS = 3

# ----------------------------------------------------------------------
# Units of work
# ----------------------------------------------------------------------


def run_episode(workload, seed, index, span=None, host=None):
    """One episode; returns ``(build wall seconds, summary)``.

    With a :class:`~hostclock.HostClock`, the load phase is measured on
    it.
    """
    episode = workloads.Episode(workloads.SHAPES[workload],
                                workloads.episode_seed(seed, index),
                                span=span)
    build = episode.build()
    if host is None:
        episode.run_load()
    else:
        with host.timed():
            episode.run_load(host.tick)
    return build, episode.finish()


def run_exploration(seed, index, host=None):
    """One exhaustive exploration; returns its summary.

    With a :class:`~hostclock.HostClock`, the exploration is measured on
    it, calibrating between executions.
    """
    kwargs = {"peers": 3, "depth": EXPLORE_DEPTH, "max_schedules": 4096,
              "seed": workloads.episode_seed(seed, index)}
    if host is None:
        result = repro.mc.explore_schedules(**kwargs)
    else:
        with host.timed():
            result = repro.mc.explore_schedules(progress=host.tick, **kwargs)
    workloads.require(
        result.ok, "explore-no-violations",
        "%d violations, %d errors" % (len(result.violations),
                                      len(result.errors)))
    workloads.require(result.exhausted and result.states_visited > 0,
                      "explore-nonzero-states", repr(result))
    return {"states": result.states_visited, "runs": result.runs,
            "result": result.to_json()}


def fixed_episodes(workload, seed, span=None):
    """The episodes whose virtual results every run repeats exactly.

    Returns ``(summaries, build wall times)``.
    """
    offset = PROBE_OFFSET if workload == "explore" else 0
    runs = [run_episode(workload, seed, offset + index, span=span)
            for index in range(VIRTUAL_EPISODES[workload])]
    return [run[1] for run in runs], [run[0] for run in runs]


def fixed_units(workload, seed, span=None):
    """:func:`fixed_episodes`, after the first exploration on ``explore``.

    Returns ``(wall, summaries, build wall times, exploration summaries)``.
    """
    started = time.perf_counter()
    explored = []
    if workload == "explore":
        explored.append(run_exploration(seed, 0))
    episodes, builds = fixed_episodes(workload, seed, span=span)
    return time.perf_counter() - started, episodes, builds, explored


def timed_units(workload, seed, seconds):
    """Run units of work until *seconds* of measured time have passed.

    Returns ``(work per reference second, episodes, totals)``: the
    summaries of the fixed episodes, whose virtual results every run
    repeats, and the counts of the whole run.
    """
    host = hostclock.HostClock()
    work = 0
    episodes = []
    totals = collections.Counter()
    explore = workload == "explore"
    while totals["units"] < (1 if explore else VIRTUAL_EPISODES[workload]) \
            or host.busy_s < seconds:
        if explore:
            summary = run_exploration(seed, totals["units"], host=host)
            work += summary["states"]
            totals["attempted"] += summary["runs"]
        else:
            summary = run_episode(workload, seed, totals["units"],
                                  host=host)[1]
            work += summary["txns"]
            if len(episodes) < VIRTUAL_EPISODES[workload]:
                episodes.append(summary)
            _count_ops(totals, summary)
        totals["units"] += 1
        gc.collect()
    if explore:
        episodes = fixed_episodes(workload, seed)[0]
        for summary in episodes:
            _count_ops(totals, summary)
    totals["wall_rate"] = work / host.busy_s
    totals["host_speed"] = host.speed()
    return work / host.reference_s(), episodes, totals


def _count_ops(totals, summary):
    totals["attempted"] += summary["writes"] + summary["reads"]
    totals["failed"] += summary["writes"] - summary["txns"]


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def quantile(values, q):
    """The *q* quantile of *values* (nearest rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def virtual_metrics(episodes):
    """Virtual-time metrics, exact for a seed whatever the host; and the
    number of commit-latency samples."""
    latencies = [lat for ep in episodes for lat in ep["latencies"]]
    return {
        "sim_txns_per_s": statistics.mean(ep["sim_rate"] for ep in episodes),
        "commit_p50_ms": quantile(latencies, 0.5) * 1e3,
        "commit_p99_ms": quantile(latencies, 0.99) * 1e3,
        "unavail_ms": statistics.mean(
            ep["unavail_s"] for ep in episodes) * 1e3,
    }, len(latencies)


def setup_samples(workload, seed):
    """Reference seconds of fresh interpreters from spawn to an elected
    ensemble.

    The probe prints ``time.monotonic()`` once its leader is elected; the
    clock is system-wide, so the difference to the spawn time excludes
    the probe's exit.  Each sample is calibrated just before and after.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    samples = []
    for index in range(SETUP_SAMPLES):
        host = hostclock.HostClock()
        for _ in range(SETUP_CHUNKS):
            host.calibrate()
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed * 100 + index)],
            check=True, capture_output=True, text=True)
        wall = float(out.stdout.split()[-1]) - started
        for _ in range(SETUP_CHUNKS):
            host.calibrate()
        samples.append(host.reference_s(wall))
    return samples


def end_to_end(workload, seed, seconds):
    """The untraced run: ``(metric values, notes, totals)``."""
    setups = setup_samples(workload, seed)
    rate, episodes, totals = timed_units(workload, seed, seconds)
    values, samples = virtual_metrics(episodes)
    values["setup_s"] = statistics.median(setups)
    values["ops_per_ref_s"] = rate
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    notes = {"timed_units": totals["units"], "commit_samples": samples,
             "setup_samples": len(setups),
             "ops_per_wall_s": totals["wall_rate"],
             "host_speed": totals["host_speed"]}
    return values, notes, totals


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def per_layer(workload, seed):
    """The traced run: ``(metric values, notes, totals)``.

    The fixed units run once untraced and once traced; both must give
    the same results, and their wall times give ``trace.overhead``.
    """
    plain_wall, plain, builds, _explored = fixed_units(workload, seed)
    gc.collect()
    clock = layers.LayerClock()
    with clock.installed():
        traced_wall, traced, _builds, explored = fixed_units(
            workload, seed, span=clock.wrap)
    workloads.require(
        [workloads.deterministic(s) for s in plain]
        == [workloads.deterministic(s) for s in traced],
        "traced-run-same-behaviour",
        "wrapping the layers changed the episodes' results")

    def total(key):
        return sum(s[key] for s in traced)

    txns = total("txns")
    appends = clock.calls["storage", "TxnLog.append"]
    flushes = total("flushes")
    sync = collections.Counter()
    for summary in traced:
        sync.update(summary["sync"])
    recoveries = [r for s in traced for r in s["recoveries"]]
    states = sum(e["states"] for e in explored)
    runs = sum(e["runs"] for e in explored)
    values = {
        "net.msgs_per_txn": total("msgs") / txns,
        "net.bytes_per_txn": total("bytes") / txns,
        "sim.events_per_txn": total("events") / txns,
        "storage.txns_per_flush": appends / flushes if flushes else 0.0,
        "storage.appends_per_txn": appends / txns,
        "storage.disk_writes": total("disk_writes"),
        "storage.snapshots": total("snapshots"),
        "zab.elections": total("elections"),
        "zab.sync_diff": sync["diff"],
        "zab.sync_trunc": sync["trunc"],
        "zab.sync_snap": sync["snap"],
        "zab.recovery_ms": statistics.mean(recoveries) * 1e3,
        "zab.writes_refused": total("writes_refused"),
        "zab.commits": sum(len(s["latencies"]) for s in traced),
        "obs.events": total("obs_events"),
        "app.reads": total("reads"),
        "app.reads_refused": total("reads_refused"),
        "checker.events": total("checker_events"),
        "checker.check_s": total("check_s"),
        "mc.states": states,
        "mc.runs": runs,
        "mc.states_per_run": states / runs if runs else 0.0,
        "harness.setup_s": statistics.median(builds),
        "trace.overhead": traced_wall / plain_wall - 1.0,
    }
    attributed = 0.0
    for layer in metrics.LAYERS:
        self_s = clock.self_s[layer]
        attributed += self_s
        values["%s.self_s" % layer] = self_s
        values["%s.share" % layer] = self_s / traced_wall
    values["unattributed.self_s"] = traced_wall - attributed
    values["unattributed.share"] = (traced_wall - attributed) / traced_wall
    notes = {"episodes": len(traced), "traced_wall_s": traced_wall,
             "untraced_wall_s": plain_wall}
    totals = collections.Counter(attempted=runs)
    for summary in traced:
        _count_ops(totals, summary)
    return values, notes, totals


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def digest(workload, seed):
    """A digest of everything a run of *seed* must repeat exactly, and
    the qualitative shape of each fixed episode."""
    _wall, episodes, _builds, explored = fixed_units(workload, seed)
    record = {
        "virtual": virtual_metrics(episodes),
        "episodes": [workloads.deterministic(ep) for ep in episodes],
        "explored": [e["result"] for e in explored],
    }
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    return {
        "digest": hashlib.sha256(blob).hexdigest()[:16],
        "shapes": [{"elections": ep["elections"], "sync": ep["sync"],
                    "long_gaps": ep["long_gaps"]} for ep in episodes],
    }
