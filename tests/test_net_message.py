"""Unit tests for wire-size estimation."""

import inspect

from repro.net.message import HEADER_BYTES, Envelope, payload_size
from repro.storage import Snapshot
from repro.storage.records import LogRecord
from repro.zab import messages
from repro.zab.zxid import Zxid


def test_bytes_payload_size():
    assert payload_size(b"x" * 100) == HEADER_BYTES + 100


def test_string_payload_size():
    assert payload_size("abc") == HEADER_BYTES + 3


def test_scalar_sizes():
    assert payload_size(5) == HEADER_BYTES + 8
    assert payload_size(None) == HEADER_BYTES + 1
    assert payload_size(True) == HEADER_BYTES + 1


def test_container_sizes_are_recursive():
    flat = payload_size([b"x" * 10, b"y" * 20])
    assert flat == HEADER_BYTES + 8 + 10 + 20


def test_wire_size_hook_is_used():
    propose = messages.Propose(Zxid(1, 1), None, 1024)
    assert payload_size(propose) == HEADER_BYTES + propose.wire_size()
    assert propose.wire_size() >= 1024


def test_proposal_size_scales_with_payload():
    small = payload_size(messages.Propose(Zxid(1, 1), None, 10))
    large = payload_size(messages.Propose(Zxid(1, 1), None, 10000))
    assert large - small == 9990


def test_slots_objects_measured_structurally():
    note = messages.Notification(
        leader=1, zxid=Zxid(1, 5), peer_epoch=1, round=2,
        sender_state=messages.LOOKING,
    )
    assert payload_size(note) > HEADER_BYTES


def test_envelope_repr_mentions_route():
    envelope = Envelope(1, 2, "hi", 66, 0.0)
    assert "1->2" in repr(envelope)


def _one_of_each_message():
    """One fixed instance of every class in :mod:`repro.zab.messages`."""
    z = Zxid(3, 7)
    propose = messages.Propose(z, None, 1024)
    return {
        "Notification": messages.Notification(2, z, 3, 4, messages.LOOKING),
        "FollowerInfo": messages.FollowerInfo(3, z),
        "NewEpoch": messages.NewEpoch(4),
        "AckEpoch": messages.AckEpoch(3, z),
        "HistoryRequest": messages.HistoryRequest(),
        "HistoryResponse": messages.HistoryResponse(
            3, [LogRecord(Zxid(3, i), None, 100) for i in (1, 2)],
            snapshot=Snapshot(Zxid(2, 9), ("blob", 1), 5000),
        ),
        "SyncStart": messages.SyncStart(
            messages.SYNC_SNAP, snapshot=Snapshot(z, ("blob", 1), 5000),
        ),
        "SyncTxn": messages.SyncTxn(z, None, 256),
        "NewLeader": messages.NewLeader(4, last_zxid=z),
        "AckNewLeader": messages.AckNewLeader(4, z),
        "UpToDate": messages.UpToDate(4),
        "Propose": propose,
        "Ack": messages.Ack(z),
        "Commit": messages.Commit(z),
        "Inform": messages.Inform(z, None, 1024),
        "Relay": messages.Relay(1, 3, propose, ((2, ((3, ()),)),)),
        "Ping": messages.Ping(z, 16, "0123456789abcdef"),
        "Pong": messages.Pong(z),
        "SyncRequest": messages.SyncRequest(("peer", 1)),
        "SyncReply": messages.SyncReply(("peer", 1), z),
        "ClientRequest": messages.ClientRequest(
            "r1", "client:a", ("put", "k", "v"), size=500,
        ),
        "WatchEvent": messages.WatchEvent("/a", "changed"),
        "ForwardedRequest": messages.ForwardedRequest(
            "r1", "client:a", 2, ("put", "k", "v"), size=500,
        ),
        "ClientReply": messages.ClientReply(
            "r1", True, result="v", leader_hint=1, zxid=z,
        ),
    }


# Wire sizes feed the NIC model, so a size that moves changes every
# virtual-time result (a tuple-shaped zxid once sized at 24 bytes
# instead of 8 and cost ~1% of committed throughput).  Pinned per class.
_PINNED_WIRE_SIZES = {
    "Ack": 80,
    "AckEpoch": 88,
    "AckNewLeader": 88,
    "ClientReply": 92,
    "ClientRequest": 645,
    "Commit": 80,
    "FollowerInfo": 88,
    "ForwardedRequest": 652,
    "HistoryRequest": 80,
    "HistoryResponse": 5328,
    "Inform": 1160,
    "NewEpoch": 80,
    "NewLeader": 88,
    "Notification": 111,
    "Ping": 104,
    "Pong": 80,
    "Propose": 1160,
    "Relay": 1192,
    "SyncReply": 100,
    "SyncRequest": 92,
    "SyncStart": 5144,
    "SyncTxn": 392,
    "UpToDate": 80,
    "WatchEvent": 81,
}


def test_every_message_class_has_a_pinned_wire_size():
    classes = {
        name for name, obj in vars(messages).items()
        if inspect.isclass(obj) and obj.__module__ == messages.__name__
    }
    assert classes == set(_PINNED_WIRE_SIZES)
    assert set(_one_of_each_message()) == classes


def test_wire_sizes_are_pinned():
    sizes = {
        name: payload_size(message)
        for name, message in _one_of_each_message().items()
    }
    assert sizes == _PINNED_WIRE_SIZES
