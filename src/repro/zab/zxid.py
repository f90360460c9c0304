"""Transaction identifiers.

A zxid is the pair ``(epoch, counter)``: *epoch* identifies the primary
instance that generated the transaction and *counter* its position within
that instance.  zxids are totally ordered lexicographically, which is the
order Zab delivers in.  ZooKeeper packs the pair into a 64-bit integer
(epoch in the high 32 bits); :attr:`Zxid.key` holds that encoding, and
every comparison is one int compare on it.

A zxid is deliberately not an ``int`` subclass: ``Zxid(1, 1) < 5`` must
stay a ``TypeError``, so a zxid can never be mixed up with a count or a
position.
"""


class Zxid:
    """An (epoch, counter) transaction id.

    ``key`` is the packed form ``epoch << 32 | counter``, computed once;
    it orders exactly like ``(epoch, counter)`` because counters fit in
    32 bits.  Logs and quorum trackers that need many comparisons can
    store the keys themselves.
    """

    __slots__ = ("epoch", "counter", "key")

    def __init__(self, epoch, counter):
        if epoch < 0 or counter < 0:
            raise ValueError("zxid parts must be non-negative")
        self.epoch = epoch
        self.counter = counter
        self.key = (epoch << 32) | counter

    def next(self):
        """The next zxid of the same primary instance."""
        return Zxid(self.epoch, self.counter + 1)

    def packed(self):
        """64-bit packed form: epoch << 32 | counter."""
        return self.key

    @classmethod
    def unpack(cls, value):
        """Inverse of :meth:`packed`."""
        return cls(value >> 32, value & 0xFFFFFFFF)

    def as_tuple(self):
        return (self.epoch, self.counter)

    def __eq__(self, other):
        if isinstance(other, Zxid):
            return self.key == other.key
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, Zxid):
            return self.key != other.key
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Zxid):
            return self.key < other.key
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Zxid):
            return self.key <= other.key
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Zxid):
            return self.key > other.key
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Zxid):
            return self.key >= other.key
        return NotImplemented

    def __hash__(self):
        return hash((self.epoch, self.counter))

    def __reduce__(self):
        return (Zxid, (self.epoch, self.counter))

    def __setstate__(self, state):
        # Pickles written before ``key`` existed restore through the
        # default slots protocol: ``(None, {"epoch": e, "counter": c})``.
        _dict, slots = state
        self.__init__(slots["epoch"], slots["counter"])

    def __repr__(self):
        return "zxid(%d:%d)" % (self.epoch, self.counter)

    def wire_size(self):
        return 8


#: The zxid of "no transaction yet": sorts before every real zxid.
ZXID_ZERO = Zxid(0, 0)


def max_zxid(a, b):
    """Maximum of two zxids, treating None as minus infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b
