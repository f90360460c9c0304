"""Workload drivers.

Three load models:

- :class:`ClosedLoopDriver` — a fixed number of outstanding operations;
  each commit immediately triggers the next submission.  With enough
  outstanding operations this *saturates* the leader, which is the
  condition of the paper's throughput-vs-ensemble-size experiment.
- :class:`OpenLoopDriver` — Poisson arrivals at a target rate,
  independent of completions; used for the latency-vs-offered-load sweep
  where the interesting feature is the saturation knee.
- :class:`AggregateOpenLoopDriver` — *populations* of sessions modelled
  as a single arrival process per :class:`SessionClass`.  Superposition
  of N independent Poisson(r) processes is exactly Poisson(N·r), so a
  million simulated clients cost one event stream instead of a million
  driver objects — the scale-out seam for planetary-sized offered load.

All of them submit writes directly at the current leader
(``propose_op``), measuring the broadcast layer itself rather than
client networking, and survive leader changes by re-resolving the
leader and retrying.
"""

from repro.bench.metrics import Timeline
from repro.common.errors import NotLeaderError
from repro.obs.metrics import StreamingHistogram


class _DriverBase:
    """State every driver shares, and the one commit-recording path.

    ``latency`` is a :class:`~repro.obs.metrics.StreamingHistogram` of
    submit-to-commit latency for ops committed once warmup is over;
    ``timeline`` counts every commit.
    """

    def __init__(self, cluster, warmup=0.0, timeline_bucket=0.1):
        self.cluster = cluster
        self._warmup_until = cluster.sim.now + warmup
        self.latency = StreamingHistogram()
        self.timeline = Timeline(bucket=timeline_bucket)
        self.stopped = False

    def stop(self):
        self.stopped = True

    def _propose(self, leader, op, size, on_commit):
        """Propose *op* at *leader*; False if it is no longer leader.

        On commit the latency (past warmup) and the timeline are
        recorded, then ``on_commit(sample)`` runs with the measured
        latency, or None during warmup.
        """
        submit_time = self.cluster.sim.now

        def callback(result, zxid):
            now = self.cluster.sim.now
            sample = None
            if now >= self._warmup_until:
                sample = now - submit_time
                self.latency.observe(sample)
            self.timeline.add(now)
            on_commit(sample)

        try:
            leader.propose_op(op, callback=callback, size=size)
        except NotLeaderError:
            return False
        return True


class _ClientDriver(_DriverBase):
    """One client stream of ``op_factory(index)`` ops of *op_size* bytes."""

    def __init__(self, cluster, op_factory, op_size, warmup=0.0,
                 timeline_bucket=0.1):
        _DriverBase.__init__(self, cluster, warmup, timeline_bucket)
        self.op_factory = op_factory
        self.op_size = op_size
        self.submitted = 0
        self.committed = 0

    def _submit_one(self):
        if self.stopped:
            return False
        leader = self.cluster.leader()
        if leader is None or not self._propose(
            leader, self.op_factory(self.submitted), self.op_size,
            self._on_commit,
        ):
            return False
        self.submitted += 1
        return True

    def _on_commit(self, _sample):
        """Fired after each commit is recorded; subclasses extend it."""
        self.committed += 1


class ClosedLoopDriver(_ClientDriver):
    """Keeps *outstanding* operations permanently in flight.

    Operations in flight at a leader that crashes lose their callbacks
    (their transactions may still commit later, answered by nobody); a
    stall watchdog notices the silence and refills the window once a new
    leader establishes, so the driver keeps saturating the cluster
    across failovers.
    """

    def __init__(self, cluster, outstanding, op_factory, op_size,
                 warmup=0.0, retry_interval=0.05, stall_timeout=0.5,
                 timeline_bucket=0.1):
        _ClientDriver.__init__(
            self, cluster, op_factory, op_size, warmup=warmup,
            timeline_bucket=timeline_bucket,
        )
        self.outstanding = outstanding
        self.retry_interval = retry_interval
        self.stall_timeout = stall_timeout
        self._in_flight = 0
        self._last_activity = cluster.sim.now

    def start(self):
        for _ in range(self.outstanding):
            self._pump()
        self._arm_watchdog()
        return self

    def _pump(self):
        if self.stopped:
            return
        if self._submit_one():
            self._in_flight += 1
            self._last_activity = self.cluster.sim.now
        else:
            # No leader right now (election in progress): retry shortly.
            self.cluster.sim.schedule(self.retry_interval, self._pump)

    def _on_commit(self, sample):
        _ClientDriver._on_commit(self, sample)
        self._in_flight -= 1
        self._last_activity = self.cluster.sim.now
        self._pump()

    def _arm_watchdog(self):
        if self.stopped:
            return
        self.cluster.sim.schedule(self.stall_timeout, self._watchdog)

    def _watchdog(self):
        if self.stopped:
            return
        silent = self.cluster.sim.now - self._last_activity
        if silent >= self.stall_timeout and self.cluster.leader() is not None:
            # The previous window died with a crashed leader; refill.
            self._in_flight = 0
            for _ in range(self.outstanding):
                self._pump()
        self._arm_watchdog()


class OpenLoopDriver(_ClientDriver):
    """Poisson arrivals at *rate* operations per simulated second."""

    def __init__(self, cluster, rate, op_factory, op_size, warmup=0.0,
                 timeline_bucket=0.1):
        _ClientDriver.__init__(
            self, cluster, op_factory, op_size, warmup=warmup,
            timeline_bucket=timeline_bucket,
        )
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.rejected = 0
        self._rng = cluster.sim.random.stream("openloop")

    def start(self):
        self._schedule_next()
        return self

    def _schedule_next(self):
        if self.stopped:
            return
        delay = self._rng.expovariate(self.rate)
        self.cluster.sim.schedule(delay, self._arrival)

    def _arrival(self):
        if self.stopped:
            return
        if not self._submit_one():
            self.rejected += 1
        self._schedule_next()


#: Arrival models a :class:`SessionClass` understands.
ARRIVAL_MODELS = ("poisson", "uniform", "fixed")


class SessionClass:
    """Aggregate arrival model for a population of identical sessions.

    Instead of one driver object per simulated client, a class models
    the *population*: ``sessions`` clients each issuing
    ``rate_per_session`` ops per simulated second collapse into one
    arrival process at the aggregate rate.  For ``poisson`` this is
    mathematically exact (superposition of independent Poisson
    processes); ``uniform`` draws inter-arrivals uniformly on
    ``[0, 2/rate]`` (same mean, bounded burstiness) and ``fixed`` is a
    metronome at ``1/rate`` — useful for worst-case pacing studies.

    ``read_fraction`` of arrivals are reads, served locally at a live
    replica's state machine (reads in this system never touch the
    broadcast layer); the rest are ``put`` writes proposed at the
    leader.  ``op_size`` is either an int (fixed payload bytes) or
    ``("uniform", lo, hi)`` for a per-op size draw.
    """

    __slots__ = ("name", "sessions", "rate_per_session", "read_fraction",
                 "arrival", "op_size", "keys")

    def __init__(self, name, sessions, rate_per_session, read_fraction=0.0,
                 arrival="poisson", op_size=128, keys=64):
        if sessions < 1:
            raise ValueError("sessions must be >= 1")
        if rate_per_session <= 0:
            raise ValueError("rate_per_session must be positive")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if arrival not in ARRIVAL_MODELS:
            raise ValueError(
                "arrival must be one of %r" % (ARRIVAL_MODELS,)
            )
        self.name = name
        self.sessions = sessions
        self.rate_per_session = rate_per_session
        self.read_fraction = read_fraction
        self.arrival = arrival
        self.op_size = op_size
        self.keys = keys

    @property
    def aggregate_rate(self):
        """Offered ops per simulated second across the population."""
        return self.sessions * self.rate_per_session

    def sample_interarrival(self, rng):
        rate = self.aggregate_rate
        if self.arrival == "poisson":
            return rng.expovariate(rate)
        if self.arrival == "uniform":
            return rng.uniform(0.0, 2.0 / rate)
        return 1.0 / rate

    def sample_size(self, rng):
        if isinstance(self.op_size, int):
            return self.op_size
        kind, lo, hi = self.op_size
        if kind != "uniform":
            raise ValueError("unknown op_size distribution: %r" % (kind,))
        return rng.randint(lo, hi)

    def to_json(self):
        return {
            "name": self.name,
            "sessions": self.sessions,
            "rate_per_session": self.rate_per_session,
            "read_fraction": self.read_fraction,
            "arrival": self.arrival,
            "op_size": (
                self.op_size if isinstance(self.op_size, int)
                else list(self.op_size)
            ),
            "keys": self.keys,
        }


class _ClassState:
    """Per-class live counters and latency sketch in the aggregate driver."""

    __slots__ = ("cls", "rng", "latency", "submitted", "committed",
                 "reads", "read_misses", "rejected")

    def __init__(self, cls, rng):
        self.cls = cls
        self.rng = rng
        self.latency = StreamingHistogram()
        self.submitted = 0
        self.committed = 0
        self.reads = 0
        self.read_misses = 0
        self.rejected = 0


class AggregateOpenLoopDriver(_DriverBase):
    """Open-loop load from session *populations*, one stream per class.

    Each :class:`SessionClass` draws its arrivals, op sizes, and
    read/write coin flips from its own named PRNG stream
    (``aggload:<class>``), so adding a class never perturbs another
    class's schedule and the whole offered load is a deterministic
    function of the cluster seed.  Writes ride the normal
    ``propose_op`` path and record commit latency per class; reads are
    answered immediately from a live replica's state machine, modelling
    the read path this system actually has (reads never enter the
    broadcast pipeline).

    The driver exposes the same surface the bench runner expects from
    the per-client drivers — ``latency`` / ``timeline`` / ``submitted``
    / ``committed`` / ``results()`` — plus per-class breakdowns.
    """

    def __init__(self, cluster, classes, warmup=0.0, timeline_bucket=0.1):
        if not classes:
            raise ValueError("need at least one SessionClass")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError("session class names must be unique")
        _DriverBase.__init__(self, cluster, warmup, timeline_bucket)
        self.classes = [
            _ClassState(
                cls, cluster.sim.random.stream("aggload:%s" % cls.name)
            )
            for cls in classes
        ]

    @property
    def sessions(self):
        """Total simulated client sessions across every class."""
        return sum(state.cls.sessions for state in self.classes)

    @property
    def submitted(self):
        return sum(
            state.submitted + state.reads + state.read_misses
            for state in self.classes
        )

    @property
    def committed(self):
        return sum(state.committed for state in self.classes)

    @property
    def rejected(self):
        return sum(state.rejected for state in self.classes)

    def start(self):
        for state in self.classes:
            self._schedule_next(state)
        return self

    def _schedule_next(self, state):
        if self.stopped:
            return
        delay = state.cls.sample_interarrival(state.rng)
        self.cluster.sim.schedule(delay, lambda: self._arrival(state))

    def _arrival(self, state):
        if self.stopped:
            return
        cls, rng = state.cls, state.rng
        key = "key-%d" % rng.randrange(cls.keys)
        if cls.read_fraction and rng.random() < cls.read_fraction:
            self._read(state, key)
        else:
            self._write(state, key)
        self._schedule_next(state)

    def _read(self, state, key):
        """Serve a read at a deterministic live replica, locally."""
        live = [
            peer for _pid, peer in sorted(self.cluster.peers.items())
            if not peer.crashed
        ]
        if not live:
            state.read_misses += 1
            return
        peer = live[state.rng.randrange(len(live))]
        try:
            peer.sm.read(("get", key))
        except Exception:
            state.read_misses += 1
            return
        state.reads += 1

    def _write(self, state, key):
        leader = self.cluster.leader()
        if leader is None:
            state.rejected += 1
            return
        size = state.cls.sample_size(state.rng)

        def on_commit(sample):
            state.committed += 1
            if sample is not None:
                state.latency.observe(sample)

        if self._propose(leader, ("put", key, "v" * size), size, on_commit):
            state.submitted += 1
        else:
            state.rejected += 1

    def results(self):
        """Aggregate summary plus per-class breakdowns."""
        return {
            "sessions": self.sessions,
            "submitted": self.submitted,
            "committed": self.committed,
            "latency": self.latency.snapshot(),
            "classes": {
                state.cls.name: {
                    "sessions": state.cls.sessions,
                    "offered_rate": state.cls.aggregate_rate,
                    "submitted": state.submitted,
                    "committed": state.committed,
                    "reads": state.reads,
                    "read_misses": state.read_misses,
                    "rejected": state.rejected,
                    "latency": state.latency.snapshot(),
                }
                for state in self.classes
            },
        }

    def class_metrics(self, duration):
        """Flat dot-keyed per-class metrics for ``BENCH_*.json`` reports."""
        metrics = {"workload.sessions": self.sessions}
        for state in self.classes:
            prefix = "workload.class.%s" % state.cls.name
            metrics["%s.sessions" % prefix] = state.cls.sessions
            metrics["%s.committed" % prefix] = state.committed
            metrics["%s.reads" % prefix] = state.reads
            if duration > 0:
                metrics["%s.write_ops" % prefix] = (
                    state.latency.count / duration
                )
                metrics["%s.read_ops" % prefix] = state.reads / duration
            summary = state.latency.snapshot()
            for key in ("mean", "p50", "p95", "p99"):
                if key in summary:
                    metrics["%s.latency.%s_ms" % (prefix, key)] = (
                        summary[key] * 1e3
                    )
        return metrics
