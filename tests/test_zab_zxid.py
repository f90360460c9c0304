"""Unit and property tests for transaction identifiers."""

import copy
import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.zab.zxid import Zxid, ZXID_ZERO, max_zxid

epochs = st.integers(min_value=0, max_value=2**31 - 1)
counters = st.integers(min_value=0, max_value=2**32 - 1)
zxids = st.builds(Zxid, epochs, counters)


def test_ordering_epoch_dominates():
    assert Zxid(1, 999) < Zxid(2, 0)


def test_ordering_counter_within_epoch():
    assert Zxid(3, 4) < Zxid(3, 5)


def test_equality_and_hash():
    assert Zxid(2, 7) == Zxid(2, 7)
    assert hash(Zxid(2, 7)) == hash(Zxid(2, 7))
    assert Zxid(2, 7) != Zxid(2, 8)
    assert len({Zxid(1, 1), Zxid(1, 1), Zxid(1, 2)}) == 2


def test_next_increments_counter_only():
    assert Zxid(4, 9).next() == Zxid(4, 10)


def test_zero_sorts_first():
    assert ZXID_ZERO < Zxid(1, 0)
    assert ZXID_ZERO <= Zxid(0, 0)


def test_negative_parts_rejected():
    with pytest.raises(ValueError):
        Zxid(-1, 0)
    with pytest.raises(ValueError):
        Zxid(0, -1)


def test_max_zxid_handles_none():
    assert max_zxid(None, Zxid(1, 1)) == Zxid(1, 1)
    assert max_zxid(Zxid(1, 1), None) == Zxid(1, 1)
    assert max_zxid(Zxid(1, 2), Zxid(1, 1)) == Zxid(1, 2)
    assert max_zxid(None, None) is None


def test_comparison_with_non_zxid_not_supported():
    assert Zxid(1, 1) != "zxid"
    with pytest.raises(TypeError):
        _ = Zxid(1, 1) < 5


@given(zxids)
def test_pack_unpack_roundtrip(zxid):
    assert Zxid.unpack(zxid.packed()) == zxid


@given(zxids, zxids)
def test_packed_order_matches_tuple_order(a, b):
    assert (a < b) == (a.packed() < b.packed())


@given(zxids, zxids)
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(zxids, zxids, zxids)
def test_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


_COMPARISONS = (
    operator.lt, operator.le, operator.eq,
    operator.ne, operator.gt, operator.ge,
)


@given(zxids, zxids)
def test_all_comparisons_follow_tuple_order(a, b):
    for compare in _COMPARISONS:
        assert compare(a, b) == compare(a.as_tuple(), b.as_tuple())


@given(zxids)
def test_hash_is_the_tuple_hash(zxid):
    assert hash(zxid) == hash(zxid.as_tuple())


@given(zxids)
def test_key_is_the_packed_form(zxid):
    assert zxid.key == zxid.packed()
    assert zxid.key == (zxid.epoch << 32) | zxid.counter


@given(zxids, zxids)
def test_pickle_round_trip_keeps_order_hash_and_key(a, b):
    a2 = pickle.loads(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL))
    b2 = pickle.loads(pickle.dumps(b))
    for compare in _COMPARISONS:
        assert compare(a2, b2) == compare(a, b)
    assert a2 == a and hash(a2) == hash(a) and a2.key == a.key


# ``pickle.dumps(Zxid(3, 7), protocol=pickle.HIGHEST_PROTOCOL)`` as
# written before zxids carried a packed ``key``: the default slots state
# ``(None, {"epoch": 3, "counter": 7})``.  Journals, purge markers and
# snapshots on disk hold zxids in this form.
_LEGACY_ZXID_3_7 = (
    b"\x80\x05\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x0erepro.zab.zxid"
    b"\x94\x8c\x04Zxid\x94\x93\x94)\x81\x94N}\x94(\x8c\x05epoch\x94K\x03"
    b"\x8c\x07counter\x94K\x07u\x86\x94b."
)


def _assert_is_3_7(zxid):
    assert zxid.as_tuple() == (3, 7)
    assert zxid.key == Zxid(3, 7).key
    assert zxid == Zxid(3, 7)
    assert hash(zxid) == hash(Zxid(3, 7))
    assert Zxid(3, 6) < zxid < Zxid(3, 8)
    assert Zxid(2, 99) < zxid <= Zxid(4, 0)
    assert zxid in {Zxid(3, 7)}


def test_legacy_pickle_loads_with_a_key():
    loaded = pickle.loads(_LEGACY_ZXID_3_7)
    _assert_is_3_7(loaded)
    _assert_is_3_7(copy.copy(loaded))
    _assert_is_3_7(copy.deepcopy(loaded))
