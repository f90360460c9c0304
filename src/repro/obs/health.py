"""Rolling cluster health: detectors and SLOs over virtual time.

The trace/span/causality layers (``repro.obs.trace``,
``repro.obs.timeline``) explain a run *after the fact*.  This module
answers the operational question — *is the cluster healthy right now,
and if not, which node and why?* — while the run is happening, in
virtual time, and therefore bit-deterministically.

A :class:`HealthMonitor` consumes the structured event stream (live via
:meth:`~repro.obs.trace.Tracer.add_observer`, or offline via
:meth:`HealthMonitor.feed`), folds it into per-node
:class:`~repro.obs.series.TimeSeries` windows, and runs four detectors:

``leader_unavailable``
    The cluster has no established leader (cluster-scoped).  Opens on a
    leader crash/deposition or a from-cold election, clears on
    ``leader.established``.
``recovery_dip``
    The paper's availability dip: commits were flowing, the leader was
    lost, and service is not considered restored until the *new* epoch
    commits its first transaction (cluster-scoped).
``straggler``
    Gray failure: one follower's ACK lag (``leader.ack`` ``lag``) is a
    multiple of the quorum's median while the quorum itself is fine
    (node-scoped, windowed, with onset/clear hysteresis).
``disk_stall``
    Gray failure at the log: one peer's fsync wait (``log.durable``
    ``wait``) dwarfs everyone else's (node-scoped, windowed,
    hysteresis).

Windowed detectors judge each window *bad*, *good*, or *no data*; a
firing opens after ``fire_after`` consecutive bad windows (onset
backdated to the first bad window) and clears after ``clear_after``
consecutive good ones.  No-data windows freeze the streaks, so an idle
cluster neither fires nor spuriously clears anything.

Two SLOs are tracked over virtual time with error budgets and burn
rates: windowed p99 commit latency, and leader availability (the
complement of ``leader_unavailable`` time).

Everything is a pure function of the (virtual-time-ordered) event
stream plus construction parameters: two runs of the same seed render
byte-identical ``health.json``, which CI asserts.
"""

from repro.common.errors import ConfigError
from repro.obs.series import SeriesBank, nearest_rank

#: Schema identifier embedded in every health report.
HEALTH_SCHEMA = "repro-health/v1"
HEALTH_SCHEMA_VERSION = 1

#: Detector names, in severity order (most severe first).
DETECTORS = (
    "leader_unavailable", "recovery_dip", "disk_stall", "straggler",
)


def _median(values):
    """Exact median (mean of middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class Slo:
    """A windowed objective with an error budget over virtual time.

    Each closed window is judged OK or bad; *budget* is the tolerated
    bad-window fraction.  ``burn_rate`` is the fraction of the budget
    consumed so far, normalised so 1.0 means "exactly on budget" — a
    burn rate above 1.0 is an SLO breach.
    """

    __slots__ = ("name", "target", "budget", "good", "bad")

    def __init__(self, name, target, budget):
        if not 0.0 < budget < 1.0:
            raise ConfigError("budget must be in (0, 1): %r" % (budget,))
        self.name = name
        self.target = target
        self.budget = budget
        self.good = 0
        self.bad = 0

    def record(self, ok):
        """Account one closed window."""
        if ok:
            self.good += 1
        else:
            self.bad += 1

    @property
    def windows(self):
        return self.good + self.bad

    def summary(self):
        windows = self.windows
        bad_fraction = (self.bad / windows) if windows else 0.0
        burn_rate = bad_fraction / self.budget
        return {
            "target": self.target,
            "budget": self.budget,
            "windows": windows,
            "bad_windows": self.bad,
            "bad_fraction": bad_fraction,
            "burn_rate": burn_rate,
            "ok": bad_fraction <= self.budget,
        }


class HealthMonitor:
    """Detector engine over the structured event stream.

    Attach live with :meth:`attach` (records series, samples the
    metrics registry, and arms a per-window tick on the simulated
    clock) or replay a finished trace with :meth:`feed`.  Call
    :meth:`finish` once, then :meth:`report` / :func:`render_health`.

    Parameters
    ----------
    window:
        Width of each judgement window in virtual seconds.
    capacity:
        Ring capacity of every retained :class:`TimeSeries`.
    straggler_ratio / straggler_floor:
        A node's per-window median ACK lag must exceed *both*
        ``ratio × (median of the other nodes' medians)`` and the
        absolute *floor* (seconds) to count as a bad window.
    stall_ratio / stall_floor:
        Same thresholds for the fsync-wait (``log.durable``) detector.
    fire_after / clear_after:
        Hysteresis: consecutive bad windows before a firing opens,
        consecutive good windows before it clears.
    slo_commit_p99 / slo_commit_budget:
        Per-window p99 commit-latency target (seconds) and tolerated
        bad-window fraction.
    slo_availability:
        Leader-availability target as a fraction of the run.
    """

    def __init__(self, window=0.25, capacity=4096, *,
                 straggler_ratio=4.0, straggler_floor=0.002,
                 stall_ratio=4.0, stall_floor=0.005,
                 fire_after=2, clear_after=2,
                 slo_commit_p99=0.05, slo_commit_budget=0.10,
                 slo_availability=0.99, recorder_dir=None):
        if window <= 0:
            raise ConfigError("window must be > 0: %r" % (window,))
        if fire_after < 1 or clear_after < 1:
            raise ConfigError("hysteresis counts must be >= 1")
        self.window = float(window)
        self.bank = SeriesBank(capacity)
        self.straggler_ratio = straggler_ratio
        self.straggler_floor = straggler_floor
        self.stall_ratio = stall_ratio
        self.stall_floor = stall_floor
        self.fire_after = fire_after
        self.clear_after = clear_after
        self.slo_commit = Slo("commit_p99", slo_commit_p99,
                              slo_commit_budget)
        self.slo_availability_target = slo_availability
        self.recorder_dir = recorder_dir
        self.firings = []            # every firing ever, in onset order
        self.voters = None
        self.cluster = None
        self._sim = None
        self._registry = None
        # windowing
        self._t0 = None              # origin of window 0
        self._index = 0              # next window to close
        self._win_commits = {}       # node -> commits this window
        self._win_acks = {}          # node -> [ack lag] this window
        self._win_waits = {}         # node -> [fsync wait] this window
        self._win_latency = []       # commit latencies this window
        # event-driven state
        self._nodes = set()
        self._leader = None
        self._epoch = None
        self._commits_total = 0
        self._propose_t = {}         # zxid tuple -> propose time
        self._open = {}              # detector name -> open cluster firing
        self._streaks = {"straggler": {}, "disk_stall": {}}
        self._down_spans = {}        # node -> [[down_t, up_t|None], ...]
        self._last_t = None
        self._t_end = None
        self._finished = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, cluster):
        """Subscribe to *cluster*'s tracer and sample it every window.

        Must be called before the run (typically before
        ``cluster.start()``) so the origin of window 0 is the attach
        time.  The per-window tick reads the cluster's
        :class:`~repro.obs.metrics.MetricsRegistry` (when present)
        into cluster-level series; it never mutates protocol state, so
        the run's trajectory for a given seed is unchanged.
        """
        self.cluster = cluster
        self.voters = sorted(cluster.config.voters)
        self._nodes.update(self.voters)
        self._sim = cluster.sim
        self._registry = cluster.metrics
        cluster.tracer.add_observer(self.observe)
        self._origin(cluster.sim.now)
        self._arm_tick()
        return self

    def feed(self, events):
        """Offline mode: replay *events* (a finished trace) through
        :meth:`observe`."""
        for event in events:
            self.observe(event)
        return self

    def _origin(self, t):
        if self._t0 is None:
            self._t0 = t

    def _arm_tick(self):
        target = self._t0 + (self._index + 1) * self.window
        self._sim.schedule_at(target, self._tick)

    def _tick(self):
        if self._finished:
            return
        now = self._sim.now
        self._advance(now)
        self._sample_registry(now)
        self._arm_tick()

    def _sample_registry(self, t):
        if self._registry is None:
            return
        zab = self._registry.snapshot().get("zab") or {}
        if "live_peers" in zab:
            self.bank.series("live_peers").add(t, zab["live_peers"])
        self.bank.series("outstanding").add(
            t, zab.get("leader_outstanding", 0)
        )

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def observe(self, event):
        """Fold one :class:`~repro.obs.trace.TraceEvent` into the
        monitor (the ``Tracer.add_observer`` callback)."""
        if self._finished:
            return
        t = event.t
        self._origin(t)
        self._advance(t)
        if self._last_t is None or t > self._last_t:
            self._last_t = t
        node = event.node
        if node is not None:
            self._nodes.add(node)
        kind = event.kind
        fields = event.fields
        if kind == "peer.commit":
            self._on_commit(t, node, fields)
        elif kind == "leader.ack":
            lag = fields.get("lag")
            if lag is not None:
                src = fields.get("src", node)
                self._nodes.add(src)
                self._win_acks.setdefault(src, []).append(lag)
        elif kind == "log.durable":
            wait = fields.get("wait")
            if wait is not None and node is not None:
                self._win_waits.setdefault(node, []).append(wait)
        elif kind == "leader.propose":
            self._propose_t[tuple(fields["zxid"])] = t
        elif kind == "leader.commit":
            proposed = self._propose_t.pop(tuple(fields["zxid"]), None)
            if proposed is not None:
                self._win_latency.append(t - proposed)
        elif kind == "leader.established":
            self._set_leader(t, node, fields.get("epoch"))
        elif kind == "fault.crash":
            self._on_crash(t, node, fields)
        elif kind == "fault.recover":
            spans = self._down_spans.get(node)
            if spans and spans[-1][1] is None:
                spans[-1][1] = t
        elif kind == "peer.looking":
            if node is not None and node == self._leader:
                self._leader_lost(t, "deposed")
        elif kind == "election.start":
            if self._leader is None:
                self._open_unavailable(t, "election")

    def _on_commit(self, t, node, fields):
        self._commits_total += 1
        if node is not None:
            counts = self._win_commits
            counts[node] = counts.get(node, 0) + 1
        dip = self._open.get("recovery_dip")
        if dip is not None:
            epoch = fields["zxid"][0]
            if epoch > dip["epoch_lost"]:
                dip["clear"] = t
                dip["epoch_cleared"] = epoch
                del self._open["recovery_dip"]

    def _on_crash(self, t, node, fields):
        self._down_spans.setdefault(node, []).append([t, None])
        # A hard failure supersedes any gray-failure firing on the node.
        for detector, streaks in sorted(self._streaks.items()):
            state = streaks.get(node)
            if state is not None:
                if state["firing"] is not None:
                    state["firing"]["clear"] = t
                    state["firing"]["cleared_by"] = "crash"
                del streaks[node]
        if fields.get("was_leader") or node == self._leader:
            self._leader_lost(t, "crash")

    # ------------------------------------------------------------------
    # Leader availability and the recovery dip
    # ------------------------------------------------------------------

    def _open_unavailable(self, t, reason):
        if "leader_unavailable" not in self._open:
            firing = {
                "detector": "leader_unavailable", "node": None,
                "onset": t, "clear": None, "reason": reason,
            }
            self._open["leader_unavailable"] = firing
            self.firings.append(firing)
            self._on_firing(firing)

    def _leader_lost(self, t, reason):
        self._open_unavailable(t, reason)
        if (
            self._commits_total > 0
            and self._epoch is not None
            and "recovery_dip" not in self._open
        ):
            dip = {
                "detector": "recovery_dip", "node": None,
                "onset": t, "clear": None, "epoch_lost": self._epoch,
            }
            self._open["recovery_dip"] = dip
            self.firings.append(dip)
            self._on_firing(dip)
        self._leader = None
        self._propose_t.clear()

    def _on_firing(self, firing):
        """Ship the black box the instant a detector opens.

        Only when monitoring live (``attach``) with ``recorder_dir``
        set and the cluster carrying a flight recorder; one file per
        (detector, node), overwritten — atomically — if the same
        detector re-fires with more context.  Purely a side effect:
        report contents and determinism are untouched.
        """
        if self.recorder_dir is None or self.cluster is None:
            return
        node = firing.get("node")
        filename = "flight-%s%s.jsonl" % (
            firing["detector"], "" if node is None else "-%s" % (node,)
        )
        self.cluster.dump_flight(
            self.recorder_dir, reason="health_firing", filename=filename,
            detector=firing["detector"], node=node,
            onset=firing["onset"],
        )

    def _set_leader(self, t, node, epoch):
        self._leader = node
        if epoch is not None:
            self._epoch = epoch
        firing = self._open.pop("leader_unavailable", None)
        if firing is not None:
            firing["clear"] = t

    # ------------------------------------------------------------------
    # Window machinery
    # ------------------------------------------------------------------

    def _window_end(self):
        return self._t0 + (self._index + 1) * self.window

    def _advance(self, t):
        """Close every window whose end lies at or before *t*."""
        while self._t0 is not None and t >= self._window_end():
            self._close_window()

    def _close_window(self):
        start = self._t0 + self._index * self.window
        end = self._window_end()
        bank = self.bank
        commits = self._win_commits
        bank.series("commit_rate").add(
            end, sum(commits.values()) / self.window
        )
        for node in sorted(self._nodes):
            bank.series("commit_rate", node).add(
                end, commits.get(node, 0) / self.window
            )
        self._judge_windowed(
            "straggler", self._win_acks, "ack_lag_p50",
            self.straggler_ratio, self.straggler_floor, start, end,
        )
        self._judge_windowed(
            "disk_stall", self._win_waits, "fsync_wait_p50",
            self.stall_ratio, self.stall_floor, start, end,
        )
        if self._win_latency:
            p99 = nearest_rank(self._win_latency, 0.99)
            bank.series("commit_p99").add(end, p99)
            self.slo_commit.record(p99 <= self.slo_commit.target)
        bank.series("leader_present").add(
            end, 1.0 if self._leader is not None else 0.0
        )
        self._win_commits = {}
        self._win_acks = {}
        self._win_waits = {}
        self._win_latency = []
        self._index += 1

    def _judge_windowed(self, detector, samples, series_name,
                        ratio, floor, start, end):
        """Per-node median-vs-quorum judgement for one closed window."""
        medians = {
            node: _median(values)
            for node, values in samples.items()
        }
        for node in sorted(medians):
            self.bank.series(series_name, node).add(end, medians[node])
        enough = len(medians) >= 3
        for node in sorted(self._nodes):
            if not enough or node not in medians:
                self._streak(detector, node, None, start, end, None)
                continue
            others = [
                value for peer, value in medians.items() if peer != node
            ]
            cluster = _median(others)
            threshold = max(ratio * cluster, floor)
            extra = {
                "value": medians[node],
                "cluster": cluster,
                "threshold": threshold,
            }
            self._streak(
                detector, node, medians[node] > threshold,
                start, end, extra,
            )

    def _streak(self, detector, node, verdict, start, end, extra):
        """Hysteresis bookkeeping for one (detector, node, window)."""
        states = self._streaks[detector]
        state = states.get(node)
        if state is None:
            state = states[node] = {
                "bad": 0, "good": 0, "since": None, "firing": None,
            }
        if verdict is None:
            return                      # no data: streaks freeze
        if verdict:
            state["good"] = 0
            if state["bad"] == 0:
                state["since"] = start
            state["bad"] += 1
            if state["firing"] is None and state["bad"] >= self.fire_after:
                firing = {
                    "detector": detector, "node": node,
                    "onset": state["since"], "clear": None,
                }
                firing.update(extra)
                state["firing"] = firing
                self.firings.append(firing)
                self._on_firing(firing)
        else:
            state["bad"] = 0
            state["since"] = None
            state["good"] += 1
            if (
                state["firing"] is not None
                and state["good"] >= self.clear_after
            ):
                state["firing"]["clear"] = end
                state["firing"] = None
                state["good"] = 0

    # ------------------------------------------------------------------
    # Finishing and reporting
    # ------------------------------------------------------------------

    def finish(self, t_end=None):
        """Close complete windows and freeze the monitor at *t_end*
        (defaults to the last event time seen)."""
        if self._finished:
            return self
        if t_end is None:
            t_end = self._last_t if self._last_t is not None else self._t0
        if t_end is not None:
            self._origin(t_end)
            self._advance(t_end)
        self._t_end = t_end if t_end is not None else 0.0
        self._finished = True
        return self

    def active(self):
        """Firings still open, sorted by (detector, node)."""
        open_firings = [f for f in self.firings if f["clear"] is None]
        return sorted(
            open_firings,
            key=lambda f: (f["detector"], str(f["node"])),
        )

    @property
    def healthy(self):
        """True when no detector is still firing."""
        return not self.active()

    def _availability(self):
        t0 = self._t0 if self._t0 is not None else 0.0
        t_end = self._t_end if self._t_end is not None else t0
        duration = max(t_end - t0, 0.0)
        unavailable = 0.0
        for firing in self.firings:
            if firing["detector"] != "leader_unavailable":
                continue
            clear = firing["clear"]
            unavailable += (clear if clear is not None else t_end)
            unavailable -= firing["onset"]
        unavailable = min(max(unavailable, 0.0), duration)
        target = self.slo_availability_target
        budget = (1.0 - target) * duration
        availability = (
            (duration - unavailable) / duration if duration else 1.0
        )
        return {
            "target": target,
            "duration_s": duration,
            "unavailable_s": unavailable,
            "availability": availability,
            "budget_s": budget,
            "burn_rate": (unavailable / budget) if budget else 0.0,
            "ok": availability >= target,
        }

    def report(self, params=None):
        """The machine-readable health verdict (``health.json`` body).

        Deterministic for a given event stream: serialise with
        ``json.dump(..., sort_keys=True)`` for byte-stable artifacts.
        """
        firings = []
        for firing in self.firings:
            item = dict(firing)
            firings.append(item)
        firings.sort(
            key=lambda f: (f["onset"], f["detector"], str(f["node"]))
        )
        return {
            "schema": HEALTH_SCHEMA,
            "schema_version": HEALTH_SCHEMA_VERSION,
            "params": dict(params) if params else {},
            "window_s": self.window,
            "t0": self._t0 if self._t0 is not None else 0.0,
            "t_end": self._t_end if self._t_end is not None else 0.0,
            "windows": self._index,
            "nodes": sorted(self._nodes),
            "voters": self.voters if self.voters is not None
            else sorted(self._nodes),
            "leader": self._leader,
            "epoch": self._epoch,
            "commits": self._commits_total,
            "firings": firings,
            "active": [
                {"detector": f["detector"], "node": f["node"]}
                for f in self.active()
            ],
            "slos": {
                "commit_p99": self.slo_commit.summary(),
                "availability": self._availability(),
            },
            "series": self.bank.snapshot(),
            "verdict": "healthy" if self.healthy else "degraded",
        }

    def summary(self):
        """Compact digest for embedding in bench/campaign artifacts."""
        counts = {}
        for firing in self.firings:
            name = firing["detector"]
            counts[name] = counts.get(name, 0) + 1
        slos = self.report_slos()
        return {
            "verdict": "healthy" if self.healthy else "degraded",
            "firings": {name: counts[name] for name in sorted(counts)},
            "active": [
                {"detector": f["detector"], "node": f["node"]}
                for f in self.active()
            ],
            "slos": {
                name: {"ok": slo["ok"], "burn_rate": slo["burn_rate"]}
                for name, slo in sorted(slos.items())
            },
        }

    def report_slos(self):
        return {
            "commit_p99": self.slo_commit.summary(),
            "availability": self._availability(),
        }


# ---------------------------------------------------------------------------
# ASCII rendering
# ---------------------------------------------------------------------------

def _overlaps(firing, start, end, t_end):
    clear = firing["clear"]
    if clear is None:
        clear = t_end
    return firing["onset"] < end and clear > start


def render_health(monitor, max_windows=160):
    """Per-node ASCII timelines plus firing and SLO summaries.

    One character per window and per lane.  Cluster lane: ``!`` no
    leader, ``v`` recovery dip, ``#`` commits flowed, ``.`` idle.
    Node lanes: ``x`` down, ``D`` disk stall, ``S`` straggler, ``#``
    committing, ``.`` idle.
    """
    t0 = monitor._t0 if monitor._t0 is not None else 0.0
    t_end = monitor._t_end if monitor._t_end is not None else t0
    width = monitor.window
    total = monitor._index
    first = max(0, total - max_windows)
    lines = [
        "health over t=[%.2f, %.2f]s  window=%.3fs  windows=%d%s"
        % (t0, t_end, width, total,
           "  (showing last %d)" % (total - first) if first else ""),
        "legend: '#' commits  '.' idle  'x' down  'S' straggler"
        "  'D' disk-stall  '!' no leader  'v' recovery dip",
        "",
    ]

    def window_value(series, end):
        if series is None:
            return None
        for t, value in series.items():
            if abs(t - end) < 1e-9:
                return value
        return None

    by_detector = {}
    for firing in monitor.firings:
        by_detector.setdefault(firing["detector"], []).append(firing)

    def lane(node):
        chars = []
        rate = monitor.bank.get("commit_rate", node)
        for k in range(first, total):
            start = t0 + k * width
            end = t0 + (k + 1) * width
            char = "."
            value = window_value(rate, end)
            if value:
                char = "#"
            if node is None:
                if any(
                    _overlaps(f, start, end, t_end)
                    for f in by_detector.get("recovery_dip", ())
                ):
                    char = "v"
                if any(
                    _overlaps(f, start, end, t_end)
                    for f in by_detector.get("leader_unavailable", ())
                ):
                    char = "!"
            else:
                for detector, mark in (
                    ("straggler", "S"), ("disk_stall", "D"),
                ):
                    if any(
                        f["node"] == node
                        and _overlaps(f, start, end, t_end)
                        for f in by_detector.get(detector, ())
                    ):
                        char = mark
                for span in monitor._down_spans.get(node, ()):
                    up = span[1] if span[1] is not None else t_end
                    if span[0] < end and up > start:
                        char = "x"
            chars.append(char)
        return "".join(chars)

    label_width = max(
        [len("cluster")]
        + [len("node %s" % node) for node in sorted(monitor._nodes)]
    )
    lines.append("%-*s %s" % (label_width, "cluster", lane(None)))
    for node in sorted(monitor._nodes):
        lines.append(
            "%-*s %s" % (label_width, "node %s" % node, lane(node))
        )
    lines.append("")

    if monitor.firings:
        lines.append("firings:")
        for firing in sorted(
            monitor.firings,
            key=lambda f: (f["onset"], f["detector"], str(f["node"])),
        ):
            where = (
                "cluster" if firing["node"] is None
                else "node %s" % firing["node"]
            )
            clear = firing["clear"]
            lines.append(
                "  %-18s %-8s onset=%.3fs  %s"
                % (
                    firing["detector"], where, firing["onset"],
                    "clear=%.3fs" % clear if clear is not None
                    else "STILL FIRING",
                )
            )
    else:
        lines.append("firings: none")
    lines.append("")

    lines.append("SLOs:")
    for name, slo in sorted(monitor.report_slos().items()):
        lines.append(
            "  %-14s %-4s burn_rate=%.2f"
            % (name, "ok" if slo["ok"] else "MISS", slo["burn_rate"])
        )
    lines.append("")
    lines.append(
        "verdict: %s" % ("healthy" if monitor.healthy else "degraded")
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# One-call entry point (CLI, tests, CI)
# ---------------------------------------------------------------------------

def run_health_check(scenario="crash-recovery", servers=5, seed=3,
                     rate=2000.0, duration=8.0, window=0.25,
                     monitor=None, tracer=None):
    """Run a canned scenario under a live monitor; returns the
    finished :class:`HealthMonitor` (cluster at ``monitor.cluster``).

    *scenario* is ``"crash-recovery"`` (the E3 anatomy run) or
    ``"slow-fsync"`` (one follower's log device silently degrades —
    the gray-failure drill).  Per-message ``net.*`` events are
    disabled on the default tracer; the detectors never need them.
    """
    from repro.harness import scenarios
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    if monitor is None:
        monitor = HealthMonitor(window=window)
    if tracer is None:
        tracer = Tracer()
        tracer.disable("net.")
    name = scenario.replace("_", "-")
    if name in ("crash-recovery", "crash-recovery-timeline"):
        scenarios.crash_recovery_timeline(
            n_voters=servers, seed=seed, rate=rate, duration=duration,
            tracer=tracer, metrics=MetricsRegistry(), monitor=monitor,
        )
    elif name in ("slow-fsync", "slow-fsync-gray-failure"):
        scenarios.slow_fsync_gray_failure(
            n_voters=servers, seed=seed, rate=rate, duration=duration,
            tracer=tracer, metrics=MetricsRegistry(), monitor=monitor,
        )
    else:
        raise ConfigError(
            "unknown health scenario: %r (expected 'crash-recovery' "
            "or 'slow-fsync')" % (scenario,)
        )
    monitor.finish(monitor.cluster.sim.now)
    return monitor
