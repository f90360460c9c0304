"""Event traces of broadcast executions.

Two event kinds matter for the PO broadcast properties:

- **broadcast**: a primary hands a transaction to the broadcast layer
  (the paper's ``abcast``).  Order of broadcast events of one epoch *is*
  the primary's causal order.
- **delivery**: a process applies a transaction to its state machine
  (``abdeliver``).  Deliveries carry the process's *position* — the global
  index of the transaction in that replica's history, counted from
  genesis — so that histories of different processes (and of the same
  process across crashes) can be aligned exactly.

Events share one global, monotonically increasing index, giving a total
"wall clock" order used by the primary-integrity check.
"""


class BroadcastEvent:
    __slots__ = ("index", "primary", "epoch", "zxid", "txn_id")

    def __init__(self, index, primary, epoch, zxid, txn_id):
        self.index = index
        self.primary = primary
        self.epoch = epoch
        self.zxid = zxid
        self.txn_id = txn_id

    def __repr__(self):
        return "Broadcast(#%d p%s e%d %r %s)" % (
            self.index, self.primary, self.epoch, self.zxid, self.txn_id,
        )


class DeliveryEvent:
    __slots__ = ("index", "process", "incarnation", "position", "zxid",
                 "txn_id", "epoch")

    def __init__(self, index, process, incarnation, position, zxid, txn_id,
                 epoch):
        self.index = index
        self.process = process
        self.incarnation = incarnation
        self.position = position
        self.zxid = zxid
        self.txn_id = txn_id
        self.epoch = epoch

    def __repr__(self):
        return "Delivery(#%d p%s inc%d pos%d %r %s)" % (
            self.index, self.process, self.incarnation, self.position,
            self.zxid, self.txn_id,
        )


class Trace:
    """Accumulates events from every process of one execution."""

    def __init__(self):
        self.broadcasts = []
        self.deliveries = []
        self._next_index = 0

    def record_broadcast(self, primary, epoch, zxid, txn_id):
        event = BroadcastEvent(
            self._next_index, primary, epoch, zxid, txn_id
        )
        self._next_index += 1
        self.broadcasts.append(event)
        return event

    def record_delivery(self, process, incarnation, position, zxid, txn_id,
                        epoch=None):
        if epoch is None:
            epoch = zxid.epoch
        event = DeliveryEvent(
            self._next_index, process, incarnation, position, zxid, txn_id,
            epoch,
        )
        self._next_index += 1
        self.deliveries.append(event)
        return event

    # -- views ----------------------------------------------------------

    def deliveries_by_process(self):
        """Map process -> deliveries in event order (all incarnations)."""
        histories = {}
        for event in self.deliveries:
            histories.setdefault(event.process, []).append(event)
        return histories

    def broadcasts_by_epoch(self):
        """Map epoch -> broadcast events in event order."""
        by_epoch = {}
        for event in self.broadcasts:
            by_epoch.setdefault(event.epoch, []).append(event)
        return by_epoch

    def delivered_txn_ids(self):
        """Set of txn ids delivered by at least one process."""
        return {event.txn_id for event in self.deliveries}

    def stats(self):
        """Summary counts, handy in test failure messages."""
        return {
            "broadcasts": len(self.broadcasts),
            "deliveries": len(self.deliveries),
            "processes": len(self.deliveries_by_process()),
            "epochs": sorted(self.broadcasts_by_epoch()),
        }

    # -- persistence ------------------------------------------------------

    def save(self, path):
        """Write the trace as JSON lines (one event per line).

        Event order (the global index) is preserved, so a saved trace
        re-checks identically — useful for archiving a failing seed.
        """
        import json

        with open(path, "w") as f:
            events = sorted(
                [("b", e) for e in self.broadcasts]
                + [("d", e) for e in self.deliveries],
                key=lambda pair: pair[1].index,
            )
            for kind, event in events:
                if kind == "b":
                    record = {
                        "kind": "broadcast",
                        "primary": event.primary,
                        "epoch": event.epoch,
                        "zxid": [event.zxid.epoch, event.zxid.counter],
                        "txn_id": event.txn_id,
                    }
                else:
                    record = {
                        "kind": "delivery",
                        "process": event.process,
                        "incarnation": event.incarnation,
                        "position": event.position,
                        "epoch": event.epoch,
                        "zxid": [event.zxid.epoch, event.zxid.counter],
                        "txn_id": event.txn_id,
                    }
                f.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path):
        """Inverse of :meth:`save`."""
        import json

        from repro.zab.zxid import Zxid

        trace = cls()
        with open(path) as f:
            for line in f:
                record = json.loads(line)
                zxid = Zxid(*record["zxid"])
                if record["kind"] == "broadcast":
                    trace.record_broadcast(
                        record["primary"], record["epoch"], zxid,
                        record["txn_id"],
                    )
                else:
                    trace.record_delivery(
                        record["process"], record["incarnation"],
                        record["position"], zxid, record["txn_id"],
                        epoch=record["epoch"],
                    )
        return trace
