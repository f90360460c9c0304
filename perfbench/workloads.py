"""The benchmark's client and adversary, and the three workloads.

Every workload runs *episodes*: a fresh ensemble, elected, then a load
phase on virtual time, a drain, and the correctness checks.  Episode
``i`` of a run with seed ``s`` is a pure function of ``(s, i)``, so its
virtual-time results and counts repeat exactly; only wall time varies.

The benchmark drives the program through its stable entry points only:
``Cluster``, ``ClusterConfig``, ``ZabPeer.propose_op``,
``Cluster.crash``/``recover``/``snapshot_now``/``compact_logs``/
``states``, ``check_all``, ``Tracer``, ``cluster_fingerprint`` and
``explore_schedules``; reads go to a replica's state machine.  Counts
are read from public state (peer and storage attributes, network
stats).  Functions are looked up on their modules at call time so the
traced run's wrappers (``layers.py``) see every call.
"""

import dataclasses
import hashlib
import random
import time

import repro.checker
import repro.mc
from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.net import NetworkConfig
from repro.obs.trace import Tracer


class CheckFailed(Exception):
    """A correctness check of the benchmark failed; the run is invalid."""


def require(ok, check, detail):
    """Raise :class:`CheckFailed` naming *check* unless *ok*."""
    if not ok:
        raise CheckFailed("%s: %s" % (check, detail))


@dataclasses.dataclass(frozen=True)
class Shape:
    """Everything that defines one kind of episode."""

    n_voters: int
    net: object              # NetworkConfig, or None for the stock fabric
    disk: object             # ClusterConfig.disk
    tracer: bool             # full structured tracing (repro.obs.Tracer)
    closed_loop: int         # outstanding writes; 0 means open loop
    rate: float              # open-loop arrivals per virtual second
    read_fraction: float
    keys: int
    value_bytes: int
    load_s: float            # virtual seconds of load
    warmup_s: float          # leading virtual seconds left out of stats
    faults: bool             # run the failover fault sequence


#: The paper's headline path (E1): a closed loop that saturates the
#: leader of five voters with NIC and disk models.
SATURATED_N5 = Shape(
    n_voters=5, net=NetworkConfig(bandwidth_bps=25e6, latency=0.0002),
    disk="model", tracer=False, closed_loop=64, rate=0.0,
    read_fraction=0.0, keys=64, value_bytes=1024, load_s=1.0,
    warmup_s=0.1, faults=False,
)

#: The same ensemble well below saturation, with full structured tracing,
#: replica reads and the failover fault sequence.
FAILOVER_TRACED = Shape(
    n_voters=5, net=NetworkConfig(bandwidth_bps=25e6, latency=0.0002),
    disk="model", tracer=True, closed_loop=0, rate=2000.0,
    read_fraction=0.5, keys=1000, value_bytes=1024, load_s=2.0,
    warmup_s=0.0, faults=True,
)

#: The explorer's own cluster recipe (stock fabric, no disk model, three
#: voters) under the failover sequence.  ``explore_schedules`` reports no
#: client-visible latencies, so those of the ``explore`` workload come
#: from here.
EXPLORE_PROBE = Shape(
    n_voters=3, net=None, disk=None, tracer=False, closed_loop=0,
    rate=1000.0, read_fraction=0.5, keys=100, value_bytes=64, load_s=1.0,
    warmup_s=0.0, faults=True,
)

#: The episode shape of each workload.
SHAPES = {
    "saturated-n5": SATURATED_N5,
    "failover-traced": FAILOVER_TRACED,
    "explore": EXPLORE_PROBE,
}

#: Fault times, as fractions of the load phase.
CRASH_FOLLOWER, COMPACT, RECOVER_FOLLOWER, CRASH_LEADER, RECOVER_ALL = (
    0.15, 0.35, 0.5, 0.65, 0.8)

RETRY_S = 0.001          # client back-off after a refused request
POLL_S = 0.0001          # recovery poll interval
DRAIN_S = 10.0           # virtual time allowed for the drain
SLICE_S = 0.02           # virtual seconds of load between two ticks


def episode_seed(seed, index):
    """The cluster seed of episode *index* of a run with *seed*."""
    return seed * 1000003 + index


class Episode:
    """One ensemble lifetime: build, elect, load, drain, check."""

    def __init__(self, shape, seed, span=None):
        self.shape = shape
        self.seed = seed
        self.span = span or (lambda _layer, fn: fn)
        self.rng = random.Random("client:%d" % seed)
        self.latencies = []       # virtual seconds, per acknowledged write
        self.ack_times = []
        self.acked = []           # zxids of acknowledged writes
        self.pending = {}         # write id -> (op, due, peer id)
        self.parked = []          # write ids waiting for a leader
        self.next_write = 0
        self.writes = 0
        self.reads = 0
        self.reads_refused = 0
        self.writes_refused = 0
        self.recoveries = []      # virtual seconds from (re)start to serving
        self.sync_modes = {}
        self.loading = False
        self.cluster = None

    # -- set-up ---------------------------------------------------------

    def build(self):
        """Build and elect the ensemble; returns the wall seconds taken."""
        started = time.perf_counter()
        shape = self.shape
        self.cluster = Cluster(ClusterConfig(
            n_voters=shape.n_voters, seed=self.seed, net=shape.net,
            disk=shape.disk, tracer=Tracer() if shape.tracer else None,
        ))
        self.cluster.start()
        for peer_id in sorted(self.cluster.peers):
            self._time_catch_up(peer_id)
        self.cluster.run_until_stable(timeout=30.0)
        # The elected state, for the determinism self-test.
        self.elected = repro.mc.cluster_fingerprint(self.cluster)
        return time.perf_counter() - started

    # -- the client -------------------------------------------------------

    def _write(self, write_id):
        cluster = self.cluster
        leader = cluster.leader()
        if leader is None:
            # No leader: park the write until one is elected, as a
            # client library waits out a reconnect.
            self.writes_refused += 1
            self.parked.append(write_id)
            if len(self.parked) == 1:
                cluster.sim.schedule(
                    RETRY_S, self.span("driver", self._unpark))
            return
        op, due, _at = self.pending[write_id]
        leader.propose_op(op, callback=self.span(
            "driver", lambda result, zxid: self._acked(write_id, due, zxid)))
        self.pending[write_id] = (op, due, leader.peer_id)

    def _unpark(self):
        if self.cluster.leader() is None:
            self.cluster.sim.schedule(
                RETRY_S, self.span("driver", self._unpark))
            return
        parked, self.parked = self.parked, []
        for write_id in parked:
            self._write(write_id)

    def _acked(self, write_id, due, zxid):
        if self.pending.pop(write_id, None) is None:
            return
        now = self.cluster.sim.now
        self.acked.append(zxid)
        self.ack_times.append(now)
        self.latencies.append(now - due)
        if self.shape.closed_loop and self.loading:
            self._submit_write(now)

    def _submit_write(self, due):
        write_id = self.next_write
        self.next_write += 1
        self.writes += 1
        if self.shape.closed_loop:
            key = "k%d" % (write_id % self.shape.keys)
        else:
            key = "k%d" % self.rng.randrange(self.shape.keys)
        tag = "%s|%d|" % (key, write_id)
        value = tag + "v" * max(0, self.shape.value_bytes - len(tag))
        self.pending[write_id] = (("put", key, value), due, None)
        self._write(write_id)

    def _read(self, key):
        cluster = self.cluster
        live = sorted(pid for pid, peer in cluster.peers.items()
                      if not peer.crashed)
        peer = cluster.peers[live[self.rng.randrange(len(live))]]
        if peer.sm is None or not (peer.is_established_leader
                                   or peer.is_active_follower):
            self.reads_refused += 1
            cluster.sim.schedule(
                RETRY_S, self.span("driver", self._read), key)
            return
        value = peer.sm.read(("get", key))
        self.reads += 1
        if value is not None:
            tag_key, write_id, _rest = value.split("|", 2)
            require(tag_key == key and int(write_id) < self.next_write,
                    "read-returns-written-value",
                    "replica %d returned %r for %s"
                    % (peer.peer_id, value[:40], key))

    def connection_lost(self, peer_id):
        """Resubmit the writes in flight at a peer that went down."""
        for write_id, (_op, _due, at) in sorted(self.pending.items()):
            if at == peer_id:
                self._write(write_id)

    def _arrival(self):
        if not self.loading:
            return
        now = self.cluster.sim.now
        if self.rng.random() < self.shape.read_fraction:
            self._read("k%d" % self.rng.randrange(self.shape.keys))
        else:
            self._submit_write(now)
        self.cluster.sim.schedule(
            self.rng.expovariate(self.shape.rate),
            self.span("driver", self._arrival))

    # -- the adversary ---------------------------------------------------

    def _crash(self, peer_id):
        cluster = self.cluster
        leader = cluster.leader()
        if leader is not None and leader.peer_id == peer_id:
            self._note_sync_modes(leader)
        cluster.crash(peer_id)
        self.connection_lost(peer_id)

    def _note_sync_modes(self, leader):
        for mode, count in leader.metrics().get("sync_modes", {}).items():
            self.sync_modes[mode] = self.sync_modes.get(mode, 0) + count

    def _recover(self, peer_id):
        self.cluster.recover(peer_id)
        self._time_catch_up(peer_id)

    def _time_catch_up(self, peer_id):
        """Record how long a (re)started peer takes to serve."""
        cluster = self.cluster
        started = cluster.sim.now

        def poll():
            peer = cluster.peers[peer_id]
            if peer.is_active_follower or peer.is_established_leader:
                self.recoveries.append(cluster.sim.now - started)
            elif not peer.crashed:
                cluster.sim.schedule(POLL_S, self.span("driver", poll))

        poll()

    def _schedule_faults(self, t0):
        cluster = self.cluster
        sim = cluster.sim
        load = self.shape.load_s
        victims = {}

        def crash_follower():
            leader = cluster.leader()
            followers = sorted(pid for pid in cluster.peers
                               if leader is None or pid != leader.peer_id)
            victims["follower"] = followers[
                self.rng.randrange(len(followers))]
            self._crash(victims["follower"])

        def compact():
            cluster.snapshot_now()
            cluster.compact_logs(retain_snapshots=1)

        def crash_leader():
            leader = cluster.leader()
            require(leader is not None, "leader-before-crash",
                    "no leader to crash at t=%.3f" % sim.now)
            self._crash(leader.peer_id)

        def recover_all():
            for pid, peer in sorted(cluster.peers.items()):
                if peer.crashed:
                    self._recover(pid)

        for fraction, action in (
                (CRASH_FOLLOWER, crash_follower), (COMPACT, compact),
                (RECOVER_FOLLOWER,
                 lambda: self._recover(victims["follower"])),
                (CRASH_LEADER, crash_leader), (RECOVER_ALL, recover_all)):
            sim.schedule_at(t0 + fraction * load, self.span("driver", action))

    # -- one episode ------------------------------------------------------

    def run_load(self, tick=None):
        """The timed phase: load, then drain.

        The load runs in slices of :data:`SLICE_S` virtual seconds, with
        *tick()* called between slices; slicing changes no event.
        """
        cluster = self.cluster
        shape = self.shape
        self.t0 = t0 = cluster.sim.now
        self.loading = True
        if shape.closed_loop:
            for _ in range(shape.closed_loop):
                self._submit_write(t0)
        else:
            cluster.sim.schedule(0.0, self.span("driver", self._arrival))
        if shape.faults:
            self._schedule_faults(t0)
        end = t0 + shape.load_s
        while cluster.sim.now < end:
            cluster.sim.run(until=min(cluster.sim.now + SLICE_S, end))
            if tick is not None:
                tick()
        self.loading = False
        self.t_end = cluster.sim.now
        cluster.run_until(lambda: not self.pending and all(
            not peer.crashed for peer in cluster.peers.values())
            and cluster.is_stable(), timeout=DRAIN_S)
        # Let followers apply the last commits before the checks.
        cluster.run(0.05)

    def finish(self):
        """Correctness checks and counts; returns a summary dict."""
        cluster = self.cluster
        leader = cluster.leader()
        if leader is not None:
            self._note_sync_modes(leader)
        started = time.perf_counter()
        report = repro.checker.check_all(cluster.trace)
        check_s = time.perf_counter() - started
        require(report.ok, "check_all",
                "broadcast properties violated: %s"
                % sorted(report.violated_properties()))
        require(not self.pending, "writes-acknowledged",
                "%d writes never acknowledged" % len(self.pending))
        states = cluster.states()
        require(len(states) == len(cluster.peers), "all-replicas-live",
                cluster.describe())
        first = next(iter(states.values()))
        require(all(state == first for state in states.values()),
                "replicas-converge", "live replicas' states differ")
        if self.acked:
            newest = max(self.acked)
            for pid, peer in sorted(cluster.peers.items()):
                require(peer.last_committed is not None
                        and newest <= peer.last_committed,
                        "acked-writes-durable",
                        "peer %d frontier %r below acked %r"
                        % (pid, peer.last_committed, newest))
        stats = cluster.network.stats
        start = self.t0 + self.shape.warmup_s
        window = [(t, lat) for t, lat in zip(self.ack_times, self.latencies)
                  if start <= t <= self.t_end]
        marks = ([self.t0] + [t for t in self.ack_times if t <= self.t_end]
                 + [self.t_end])
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        summary = {
            "elected": self.elected,
            "final_state": hashlib.sha256(
                repr(sorted(first.items())).encode("utf-8")).hexdigest(),
            "frontiers": [peer.last_committed.as_tuple()
                          for _pid, peer in sorted(cluster.peers.items())],
            "txns": len(self.acked),
            # Acks per virtual second between the window's first and
            # last ack, so that the rate is not an integer count.
            "sim_rate": (len(window) - 1) / (window[-1][0] - window[0][0]),
            "latencies": [lat for _t, lat in window],
            "unavail_s": max(gaps),
            "long_gaps": sum(1 for gap in gaps if gap > 0.05),
            "writes": self.writes,
            "writes_refused": self.writes_refused,
            "reads": self.reads,
            "reads_refused": self.reads_refused,
            "msgs": stats.total_messages(),
            "bytes": stats.total_bytes(),
            "events": cluster.sim.events_fired,
            "flushes": sum(peer.storage.log.flushes
                           for peer in cluster.peers.values()),
            "disk_writes": sum(disk.writes for disk in cluster.disks.values()
                               if disk is not None),
            "snapshots": sum(peer.storage.snapshots.saves
                             for peer in cluster.peers.values()),
            "elections": sum(peer.times_led
                             for peer in cluster.peers.values()),
            "sync": dict(self.sync_modes),
            "recoveries": list(self.recoveries),
            "obs_events": (cluster.recorder.recorded
                           if cluster.recorder is not None else 0),
            "checker_events": (len(cluster.trace.broadcasts)
                               + len(cluster.trace.deliveries)),
            "check_s": check_s,
        }
        self.cluster = None
        return summary


#: Summary fields measured in wall time, so not repeatable.
WALL_FIELDS = ("check_s",)


def deterministic(summary):
    """The part of an episode summary that repeats exactly for a seed."""
    return {key: value for key, value in summary.items()
            if key not in WALL_FIELDS}
