"""Per-node and aggregate traffic accounting."""

import collections

_SKIP = object()  # a send that has no key in a view (no type or no dst)


def _src(key):
    return key[0]


def _type(key):
    return _SKIP if key[2] is None else key[2]


def _pair(key):
    return _SKIP if key[1] is None else key[:2]


class NetworkStats:
    """Counts messages and bytes sent/received per node.

    A send is accounted once, in two Counters keyed by
    ``(src, dst, type_name)``: one of messages and one of bytes.  The
    per-node, per-type and per-pair send tallies are read-only views
    rolled up from them on access.  Each view lists its keys in the
    order they were first sent, so ``snapshot()`` output is stable.
    """

    def __init__(self):
        self._messages = collections.Counter()  # (src, dst, type) -> sends
        self._bytes = collections.Counter()     # (src, dst, type) -> bytes
        self.bytes_received = collections.Counter()
        self.messages_received = collections.Counter()
        self.messages_dropped = 0
        self.drops_by_reason = collections.Counter()  # reason -> drops
        self.drops_by_node = collections.Counter()    # node -> drops

    def record_send(self, node, size, payload_type=None, dst=None):
        key = (node, dst, payload_type)
        self._messages[key] += 1
        self._bytes[key] += size

    @staticmethod
    def _rollup(counter, part):
        """Sum *counter* by ``part(key)``, leaving out ``_SKIP`` parts."""
        view = collections.Counter()
        for key, value in counter.items():
            group = part(key)
            if group is not _SKIP:
                view[group] += value
        return view

    @property
    def bytes_sent(self):
        """node -> bytes sent."""
        return self._rollup(self._bytes, _src)

    @property
    def messages_sent(self):
        """node -> messages sent."""
        return self._rollup(self._messages, _src)

    @property
    def by_type(self):
        """payload class name -> sends."""
        return self._rollup(self._messages, _type)

    @property
    def bytes_by_type(self):
        """payload class name -> bytes."""
        return self._rollup(self._bytes, _type)

    @property
    def bytes_by_pair(self):
        """(src, dst) -> bytes."""
        return self._rollup(self._bytes, _pair)

    @property
    def messages_by_pair(self):
        """(src, dst) -> sends."""
        return self._rollup(self._messages, _pair)

    def egress_bytes(self, node):
        """Bytes *node* placed on its NIC (the dissemination-topology
        comparison metric: a leader-direct leader pays ∝ (n-1) here,
        a chain/ring leader stays ~flat)."""
        return self.bytes_sent.get(node, 0)

    def record_receive(self, node, size):
        self.bytes_received[node] += size
        self.messages_received[node] += 1

    def record_drop(self, node=None, reason="unknown"):
        """Count one dropped message.

        *node* is the endpoint the drop is charged to (the dead source,
        or the unreachable destination); *reason* is a short stable
        string (``"src-dead"``, ``"unknown-dest"``, ``"partitioned"``,
        ``"loss"``, ``"dest-dead"``, ``"stale-incarnation"``).
        """
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1
        if node is not None:
            self.drops_by_node[node] += 1

    def total_bytes(self):
        """Total bytes placed on the wire."""
        return sum(self._bytes.values())

    def total_messages(self):
        """Total messages placed on the wire."""
        return sum(self._messages.values())

    def snapshot(self):
        """A plain-dict copy, convenient for bench reports."""
        return {
            "bytes_sent": dict(self.bytes_sent),
            "bytes_received": dict(self.bytes_received),
            "messages_sent": dict(self.messages_sent),
            "messages_received": dict(self.messages_received),
            "by_type": dict(self.by_type),
            "bytes_by_type": dict(self.bytes_by_type),
            "bytes_by_pair": {
                "%s->%s" % pair: count
                for pair, count in self.bytes_by_pair.items()
            },
            "messages_by_pair": {
                "%s->%s" % pair: count
                for pair, count in self.messages_by_pair.items()
            },
            "messages_dropped": self.messages_dropped,
            "drops_by_reason": dict(self.drops_by_reason),
            "drops_by_node": dict(self.drops_by_node),
        }

