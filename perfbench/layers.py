"""Per-layer self time, measured by wrapping each layer's entry points.

:class:`LayerClock` patches the public entry points listed in
:data:`ENTRY_POINTS` (and the callbacks handed to them) with span
wrappers.  A span's self time is its duration minus the time covered by
the spans it encloses; self times are summed per layer in memory and
read once the run ends.

Attribution limits that follow from wrapping public entry points only:

- ``Network._deliver`` (the fabric's delivery step) has no public entry
  point; its bookkeeping runs inside ``Simulator.run`` and is counted as
  ``sim`` self time.  The same holds for ``Event`` firing and
  ``Process.set_timer``'s own timer bookkeeping.
- Callbacks handed to a layer are charged to the layer that handed them:
  the handler given to ``Network.register``, callbacks armed with
  ``Process.set_timer`` and the completion callbacks given to
  ``TxnLog.append`` run zab code, and the completion given to
  ``DiskModel.write`` runs the txn log's flush (storage).
- Time outside every span (the benchmark's loop between episodes, the
  wrappers' own cost) is reported as ``unattributed``.
"""

import collections
import contextlib
import time

import repro
import repro.checker
import repro.checker.properties
import repro.harness.cluster
import repro.mc
import repro.mc.explorer
from repro.app.kvstore import KVStateMachine
from repro.checker.trace import Trace
from repro.harness.cluster import Cluster
from repro.net.network import Network
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.storage.disk import DiskModel
from repro.storage.snapshot import SnapshotStore
from repro.storage.txnlog import TxnLog
from repro.zab.peer import ZabPeer

from metrics import LAYERS

#: (layer, owner, attribute) for every wrapped entry point.  Owners are
#: classes (methods) or modules (functions re-exported by name).
ENTRY_POINTS = (
    ("sim", Simulator, "run"),
    ("net", Network, "send"),
    ("net", Network, "broadcast"),
    ("zab", ZabPeer, "propose_op"),
    ("storage", TxnLog, "append"),
    ("storage", DiskModel, "write"),
    ("storage", SnapshotStore, "save"),
    ("app", KVStateMachine, "apply"),
    ("app", KVStateMachine, "read"),
    ("checker", Trace, "record_broadcast"),
    ("checker", Trace, "record_delivery"),
    ("checker", repro, "check_all"),
    ("checker", repro.checker, "check_all"),
    ("checker", repro.checker.properties, "check_all"),
    ("checker", repro.harness.cluster, "check_all"),
    ("obs", Tracer, "emit"),
    ("obs", FlightRecorder, "emit"),
    ("mc", repro, "explore_schedules"),
    ("mc", repro.mc, "explore_schedules"),
    ("mc", repro.mc, "cluster_fingerprint"),
    ("mc", repro.mc.explorer, "cluster_fingerprint"),
    ("harness", Cluster, "__init__"),
    ("harness", Cluster, "start"),
    ("harness", Cluster, "run_until_stable"),
    ("harness", Cluster, "crash"),
    ("harness", Cluster, "recover"),
)

#: (layer, owner, attribute, argument index) for entry points whose
#: callback argument is wrapped too (index counts ``self`` as 0).
CALLBACK_POINTS = (
    ("zab", Network, "register", 2),
    ("zab", Process, "set_timer", 2),
    ("zab", TxnLog, "append", 4),
    ("storage", DiskModel, "write", 2),
)


class LayerClock:
    """Self time per layer, from nested spans on one thread."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = collections.Counter()
        self._stack = []

    def wrap(self, layer, fn, name=None):
        """*fn* run as a span of *layer*, counted under *name* if given."""
        clock = time.perf_counter
        stack = self._stack
        totals = self.self_s
        calls = self.calls
        key = (layer, name)

        def span(*args, **kwargs):
            if name is not None:
                calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    def _wrap_callback(self, layer, method, index):
        wrap = self.wrap

        def patched(*args, **kwargs):
            if len(args) > index and args[index] is not None:
                args = list(args)
                args[index] = wrap(layer, args[index])
            elif kwargs.get("callback") is not None:
                kwargs["callback"] = wrap(layer, kwargs["callback"])
            return method(*args, **kwargs)

        return patched

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        patches = {}
        for layer, owner, attr in ENTRY_POINTS:
            saved.append((owner, attr, owner.__dict__[attr]))
            patches[(owner, attr)] = self.wrap(
                layer, owner.__dict__[attr],
                "%s.%s" % (owner.__name__, attr))
        for layer, owner, attr, index in CALLBACK_POINTS:
            if (owner, attr) not in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
            inner = patches.get((owner, attr), owner.__dict__[attr])
            patches[(owner, attr)] = self._wrap_callback(layer, inner, index)
        try:
            for (owner, attr), patch in patches.items():
                setattr(owner, attr, patch)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
