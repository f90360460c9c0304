"""A fully wired ensemble in one object.

``Cluster`` builds the simulator, network, per-peer stable storage (with an
optional disk timing model), trace recorder, and the peers themselves, and
offers the operations tests and benchmarks need: run until stable, submit
operations, crash/recover/partition peers, and check the PO broadcast
properties of everything that happened.
"""

import os

from repro.checker import check_all, Trace
from repro.common.errors import ConfigError
from repro.harness.config import ClusterConfig
from repro.net import Network, NetworkConfig
from repro.obs import NULL_TRACER
from repro.obs.recorder import FlightRecorder
from repro.sim import Simulator
from repro.storage.disk import DiskModel
from repro.storage.retention import RetentionPolicy
from repro.zab.peer import PeerStorage, ZabPeer


class Cluster:
    """An n-peer Zab ensemble on a simulated network.

    Construction takes one :class:`~repro.harness.config.ClusterConfig`
    and nothing else::

        Cluster(ClusterConfig(n_voters=5, seed=7, dissemination="tree"))

    See :class:`~repro.harness.config.ClusterConfig` for every knob:
    ensemble shape, network/disk models, dissemination topology,
    checker/tracer/metrics wiring, and the leader-factory fault seam.
    """

    def __init__(self, config):
        if not isinstance(config, ClusterConfig):
            raise TypeError(
                "Cluster takes one ClusterConfig, e.g. "
                "Cluster(ClusterConfig(n_voters=3, seed=0)); got %r"
                % (config,)
            )
        self.cluster_config = spec = config
        self.sim = Simulator(seed=spec.seed)
        recorder = spec.recorder
        if recorder is True:
            recorder = FlightRecorder()
        elif recorder is False:
            recorder = None
        self.recorder = recorder
        if spec.tracer is not None:
            # Explicit tracer: it records; the black box (if any)
            # rides its observer feed and keeps the stream's tail.
            self.tracer = spec.tracer.bind(self.sim)
            if self.recorder is not None:
                self.recorder.bind(self.sim)
                self.tracer.add_observer(self.recorder.record_event)
        elif self.recorder is not None:
            # Tracing "off" still arms the black box: the recorder is
            # the cluster tracer, bounded and dump-on-violation only.
            self.tracer = self.recorder.bind(self.sim)
        else:
            self.tracer = NULL_TRACER
        self.metrics = spec.metrics
        self.network = Network(
            self.sim, spec.net or NetworkConfig(), tracer=self.tracer
        )
        self.trace = (
            spec.checker_trace if spec.checker_trace is not None else Trace()
        )
        self.leader_factory = spec.leader_factory
        voters = spec.voter_ids()
        observers = spec.observer_ids()
        self.config = spec.zab_config()
        shared_disk = None
        if spec.disk == "shared":
            shared_disk = DiskModel(
                self.sim, fsync_latency=spec.fsync_latency,
                bandwidth_bps=spec.disk_bandwidth,
            )
        self.storages = {}
        self.peers = {}
        self.disks = {}
        self._disk_baseline = {}
        for peer_id in voters + observers:
            if spec.disk == "model":
                device = DiskModel(
                    self.sim, fsync_latency=spec.fsync_latency,
                    bandwidth_bps=spec.disk_bandwidth,
                )
            elif spec.disk == "shared":
                device = shared_disk
            else:
                device = None
            self.disks[peer_id] = device
            storage = PeerStorage(device, group_commit=spec.group_commit)
            self.storages[peer_id] = storage
            self.peers[peer_id] = ZabPeer(
                self.sim, self.network, peer_id, self.config,
                app_factory=spec.app_factory, storage=storage,
                trace=self.trace, tracer=self.tracer,
                leader_factory=spec.leader_factory,
            )
        if self.metrics is not None:
            self._register_metrics(self.metrics)

    def _register_metrics(self, registry):
        """Plug cluster-wide sources into *registry* (lazy reads only)."""
        self.sim.attach_metrics(registry)
        registry.register_provider("net", self.network.stats.snapshot)
        registry.register_provider("zab", self._zab_metrics)

    def _zab_metrics(self):
        """Aggregate protocol counters across peers (snapshot provider)."""
        leader = self.leader()
        data = {
            "commits": sum(
                peer.delivered_count for peer in self.peers.values()
            ),
            "elections_decided": sum(
                peer.elections_decided for peer in self.peers.values()
            ),
            "live_peers": sum(
                1 for peer in self.peers.values() if not peer.crashed
            ),
            "leader": leader.peer_id if leader is not None else None,
            "epoch": leader.current_epoch() if leader is not None else None,
        }
        if leader is not None and leader.ctx is not None:
            data["leader_commits"] = leader.ctx.commits
            data["leader_proposals"] = leader.ctx.counter
            data["leader_acks_received"] = leader.ctx.acks_received
            data["leader_outstanding"] = len(leader.ctx.proposals)
            data["sync_modes"] = dict(leader.ctx.sync_modes)
        return data

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Boot every peer."""
        for peer in self.peers.values():
            peer.start()
        return self

    def run(self, duration):
        """Advance virtual time by *duration* seconds."""
        return self.sim.run_for(duration)

    def run_until(self, predicate, timeout=30.0, step=0.01):
        """Run until *predicate()* is true or *timeout* sim-seconds pass."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return bool(predicate())

    def run_until_stable(self, timeout=30.0):
        """Run until a leader is established and all live peers serve."""
        ok = self.run_until(self.is_stable, timeout=timeout)
        if not ok:
            raise TimeoutError(
                "cluster not stable after %.1fs: %s"
                % (timeout, self.describe())
            )
        return self.leader()

    def is_stable(self):
        """True if one live peer leads and every other live peer serves."""
        live = [peer for peer in self.peers.values() if not peer.crashed]
        leaders = [peer for peer in live if peer.is_established_leader]
        if len(leaders) != 1:
            return False
        rest = [peer for peer in live if peer is not leaders[0]]
        return all(peer.is_active_follower for peer in rest)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def leader(self):
        """The unique established leader, or None."""
        leaders = [
            peer
            for peer in self.peers.values()
            if not peer.crashed and peer.is_established_leader
        ]
        return leaders[0] if len(leaders) == 1 else None

    def describe(self):
        """One-line status summary, handy in failure messages."""
        return ", ".join(
            "%d:%s%s"
            % (
                peer_id,
                "CRASHED" if peer.crashed else peer.state,
                "*" if not peer.crashed and peer.is_established_leader
                else "",
            )
            for peer_id, peer in sorted(self.peers.items())
        )

    def states(self):
        """Copy of each live peer's KV state (for convergence asserts)."""
        return {
            peer_id: peer.sm.as_dict()
            for peer_id, peer in self.peers.items()
            if not peer.crashed and peer.sm is not None
        }

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def submit(self, op, callback=None):
        """Submit a write at the current leader (raises if none)."""
        leader = self.leader()
        if leader is None:
            raise ConfigError("no established leader")
        return leader.propose_op(op, callback=callback)

    def submit_and_wait(self, op, timeout=10.0):
        """Submit a write and run the simulation until it commits."""
        outcome = {}

        def on_commit(result, zxid):
            outcome["result"] = result
            outcome["zxid"] = zxid

        self.submit(op, callback=on_commit)
        if not self.run_until(lambda: "result" in outcome, timeout=timeout):
            raise TimeoutError("operation %r did not commit" % (op,))
        return outcome["result"], outcome["zxid"]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash(self, peer_id):
        peer = self.peers[peer_id]
        self.tracer.emit(
            "fault.crash", node=peer_id,
            was_leader=(not peer.crashed and peer.is_established_leader),
        )
        peer.crash()

    def recover(self, peer_id):
        self.tracer.emit("fault.recover", node=peer_id)
        self.peers[peer_id].recover()

    def partition(self, *groups):
        self.tracer.emit(
            "fault.partition",
            groups=[sorted(group) for group in groups],
        )
        self.network.partitions.partition(groups)

    def heal(self):
        self.tracer.emit("fault.heal")
        self.network.partitions.heal()

    def slow_disk(self, peer_id, factor=20.0):
        """Gray failure: silently multiply one peer's fsync latency.

        Requires a per-peer disk model (``disk="model"``); under
        ``disk="shared"`` every peer shares the device, so slowing it
        would not be a *gray* failure.  The peer keeps serving — only
        its durability latency (and hence ACK lag) degrades, which is
        exactly what the health monitor's straggler/disk-stall
        detectors exist to catch.
        """
        device = self.disks.get(peer_id)
        if device is None:
            raise ConfigError(
                "peer %r has no disk model (build the cluster with "
                "disk=\"model\")" % (peer_id,)
            )
        if peer_id not in self._disk_baseline:
            self._disk_baseline[peer_id] = device.fsync_latency
        device.fsync_latency = self._disk_baseline[peer_id] * factor
        self.tracer.emit(
            "fault.slow_disk", node=peer_id, factor=factor,
            fsync_latency=device.fsync_latency,
        )

    def restore_disk(self, peer_id):
        """Undo :meth:`slow_disk` (no-op if the disk was never slowed)."""
        baseline = self._disk_baseline.pop(peer_id, None)
        if baseline is None:
            return
        self.disks[peer_id].fsync_latency = baseline
        self.tracer.emit(
            "fault.restore_disk", node=peer_id, fsync_latency=baseline,
        )

    def partition_oneway(self, src, dst):
        """Asymmetric partition: *src* can no longer reach *dst*.

        The reverse direction keeps flowing — the classic half-open
        link that group partitions (:meth:`partition`) cannot express.
        Undo with :meth:`restore_links`; :meth:`heal` deliberately does
        not touch per-link cuts.
        """
        self.tracer.emit("fault.partition_oneway", src=src, dst=dst)
        self.network.partitions.cut_link(src, dst, symmetric=False)

    def restore_links(self):
        """Undo every per-link cut.  Trace-silent no-op when none exist.

        Returns True when links were actually restored — the silence
        otherwise keeps replays of schedules that never cut a link
        byte-identical to before this method existed.
        """
        partitions = self.network.partitions
        if not partitions.has_cut_links():
            return False
        self.tracer.emit(
            "fault.restore_links", links=len(partitions.cut_links()),
        )
        partitions.restore_all_links()
        return True

    def set_clock_skew(self, peer_id, factor):
        """Stretch (>1) or shrink (<1) one peer's election timers."""
        if not factor > 0:
            raise ConfigError("clock skew factor must be > 0, got %r"
                              % (factor,))
        self.peers[peer_id].clock_skew = float(factor)
        self.tracer.emit(
            "fault.clock_skew", node=peer_id, factor=float(factor),
        )

    def clear_clock_skews(self):
        """Reset every skewed clock.  Trace-silent no-op when none are.

        Returns True when any skew was actually cleared.
        """
        changed = False
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if peer.clock_skew != 1.0:
                peer.clock_skew = 1.0
                self.tracer.emit(
                    "fault.clock_skew", node=peer_id, factor=1.0,
                )
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Operator actions: snapshots and log compaction
    # ------------------------------------------------------------------

    def snapshot_now(self, peer_id=None):
        """Take an operator fuzzy snapshot on one peer (or all).

        Tolerant by design: crashed or still-syncing peers simply skip
        (the shrinker drops schedule actions one at a time, so every
        surviving action must stay applicable on its own).  Returns
        ``{peer_id: Snapshot}`` for the peers that actually saved one.
        """
        targets = [peer_id] if peer_id is not None else sorted(self.peers)
        taken = {}
        for pid in targets:
            snapshot = self.peers[pid].take_snapshot()
            if snapshot is not None:
                taken[pid] = snapshot
        return taken

    def compact_logs(self, retain_snapshots=2, peer_id=None):
        """Run the retention policy over live peers' stable storage.

        Keeps the newest *retain_snapshots* snapshots per peer and
        purges each log through the oldest retained snapshot's zxid
        (see :class:`repro.storage.retention.RetentionPolicy`).  Peers
        with no snapshots are untouched; crashed peers are skipped —
        an operator cannot compact a machine that is down.  Returns
        ``{peer_id: CompactionReport}``.
        """
        policy = RetentionPolicy(retain_snapshots)
        targets = [peer_id] if peer_id is not None else sorted(self.peers)
        reports = {}
        for pid in targets:
            peer = self.peers[pid]
            if peer.crashed:
                continue
            report = policy.apply(peer.storage)
            if report.purged_to is not None:
                # Unguarded control-plane event, like snapshot.save:
                # compactions are rare and must reach the flight
                # recorder even with tracing off.
                self.tracer.emit(
                    "compact.purge", node=pid,
                    zxid=report.purged_to.as_tuple(),
                    dropped_snapshots=len(report.dropped),
                )
            reports[pid] = report
        return reports

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def check_properties(self):
        """Check the six PO broadcast properties over the whole run."""
        return check_all(self.trace)

    def assert_properties(self, recorder_dir=None):
        """Raise AssertionError with details if any property failed.

        With *recorder_dir* set, a failing check first dumps the
        flight recorder's black box to ``<recorder_dir>/flight.jsonl``
        so the violation ships with its recent-event context.
        """
        report = self.check_properties()
        if not report.ok:
            self.dump_flight(
                recorder_dir, reason="checker_violation",
                violations=sorted(report.violated_properties()),
            )
            raise AssertionError(
                "broadcast properties violated: %s"
                % report.violations[:10]
            )
        return report

    def dump_flight(self, recorder_dir, reason, filename="flight.jsonl",
                    **fields):
        """Dump the black box into *recorder_dir*; None disables.

        Returns the dump path, or None when there is no recorder or no
        directory was given.  The directory is created on demand.
        """
        if recorder_dir is None or self.recorder is None:
            return None
        os.makedirs(recorder_dir, exist_ok=True)
        path = os.path.join(recorder_dir, filename)
        self.recorder.dump(path, reason=reason, **fields)
        return path
