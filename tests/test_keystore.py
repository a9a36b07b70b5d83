import pytest

from qspir.bitops import xor_bytes
from qspir.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    KeyReuseError,
    StorageError,
    ValidationError,
)
from qspir.keystore import (
    Direction,
    KeyPool,
    KeySlice,
    KeyStore,
    LedgerEntry,
    create_pool,
    otp_apply,
    partition_directional,
    reserve_segment,
)
from qspir.rng import BitSource


def _pool(pool_id="p", nbytes=64, seed="pool"):
    return create_pool(pool_id, BitSource(seed).take_bytes(nbytes))


def test_reserve_sequential_and_exhaustion():
    pool = _pool(nbytes=8)  # 64 bits
    s1 = reserve_segment(pool, "s1", 40, "a")
    s2 = reserve_segment(pool, "s2", 24, "b")
    assert (s1.offset, s1.bits) == (0, 40)
    assert (s2.offset, s2.bits) == (40, 24)
    assert pool.consumed == 64
    assert pool.remaining() == 0
    with pytest.raises(BudgetExhaustedError) as info:
        reserve_segment(pool, "s3", 1, "c")
    assert (info.value.needed, info.value.available) == (1, 0)
    with pytest.raises(ValidationError):
        reserve_segment(pool, "s4", 0, "d")


def test_otp_apply_is_single_use_and_correct():
    material = BitSource("m").take_bytes(32)
    pool = create_pool("p", material)
    data = BitSource("d").take_bytes(10)
    s = pool.reserve("s", 80, "pad")
    out = pool.otp_apply(data, s)
    assert out == xor_bytes(data, material[:10])
    with pytest.raises(KeyReuseError):
        pool.otp_apply(data, s)
    # The test-only duplicate allows one decrypt, then re-raises.
    dup = pool.duplicate_slice_for_test(s)
    assert pool.otp_apply(out, dup) == data
    with pytest.raises(KeyReuseError):
        pool.otp_apply(out, dup)


def test_otp_apply_last_slice_of_deep_pool_matches_reference_pad():
    """The pad read from the pool's last session slice is the same as
    shifting the whole pool as one int, at unaligned slice offsets."""
    slice_bits, sessions = 1003, 10  # the last slice starts mid-byte
    material = BitSource("deep").take_bytes(
        (slice_bits * sessions + 7) // 8
    )
    whole = int.from_bytes(material, "little")
    for data_bits in (slice_bits, 997, 1):
        pool = KeyPool("deep", material)
        slices = [
            pool.reserve_at(f"s{i}", i * slice_bits, slice_bits, "pad")
            for i in range(sessions)
        ]
        last = slices[-1]
        assert last.offset % 8 == 3
        data = BitSource(f"data-{data_bits}").take_bytes(
            (data_bits + 7) // 8 + 1
        )
        pad = (whole >> last.offset) & ((1 << data_bits) - 1)
        expect = (int.from_bytes(data, "little") ^ pad).to_bytes(
            len(data), "little"
        )
        assert pool.otp_apply(data, last, data_bits) == expect
        with pytest.raises(KeyReuseError):
            pool.otp_apply(data, last, data_bits)


def test_otp_apply_partial_bits_and_validation():
    pool = _pool(nbytes=16)
    s = pool.reserve("s", 20, "pad")
    out = pool.otp_apply(b"\xff\xff\xff", s, data_bits=20)
    # Bits beyond the declared width are not padded.
    assert out[2] & 0xF0 == 0xF0
    other = _pool("other")
    t = other.reserve("t", 16, "pad")
    with pytest.raises(ValidationError):
        pool.otp_apply(b"\x00\x00", t)
    u = other.reserve("u", 8, "pad")
    with pytest.raises(ValidationError):
        other.otp_apply(b"\x00\x00", u)  # data exceeds slice


def test_directional_halves_do_not_collide():
    pool = _pool(nbytes=16)  # 128 bits, halves of 64
    send, receive = partition_directional(pool)
    assert send.capacity_bits == 64 and receive.capacity_bits == 64
    a = send.reserve("s", 30, "query")
    b = receive.reserve("s", 50, "answer")
    assert a.offset == 0
    assert b.offset == 64
    assert send.remaining == 34 and receive.remaining == 14
    with pytest.raises(BudgetExhaustedError):
        send.reserve("s", 35, "query")
    # A partitioned pool refuses undirected reservations and vice versa.
    with pytest.raises(ValidationError):
        pool.reserve("s", 8, "whole", Direction.WHOLE)
    whole = _pool("w")
    whole.reserve("s", 8, "whole", Direction.WHOLE)
    with pytest.raises(ValidationError):
        whole.reserve("s", 8, "query", Direction.SEND)


def test_odd_capacity_boundary():
    pool = create_pool("odd", b"\x00" * 3)  # 24 bits -> halves 12/12
    send, receive = partition_directional(pool)
    assert send.capacity_bits == 12
    assert receive.capacity_bits == 12
    assert pool.region(Direction.RECEIVE) == (12, 24)


def test_reserve_at_overlap_and_range():
    pool = _pool(nbytes=16)
    pool.reserve_at("s0", 0, 40, "slot", Direction.WHOLE)
    pool.reserve_at("s2", 80, 40, "slot", Direction.WHOLE)
    with pytest.raises(KeyReuseError):
        pool.reserve_at("sx", 30, 20, "slot", Direction.WHOLE)
    with pytest.raises(KeyReuseError):
        pool.reserve_at("sx", 100, 8, "slot", Direction.WHOLE)
    pool.reserve_at("s1", 40, 40, "slot", Direction.WHOLE)  # exact gap fits
    with pytest.raises(BudgetExhaustedError):
        pool.reserve_at("sy", 120, 16, "slot", Direction.WHOLE)


def test_release_returns_bits_but_consumed_is_monotone():
    pool = _pool(nbytes=8)
    s = pool.reserve("s", 32, "pad")
    assert pool.consumed == 32
    pool.release(s)
    assert pool.consumed == 32  # monotone: releases never rewind
    assert pool.remaining() == 64
    s2 = pool.reserve("s2", 64, "pad")
    assert pool.consumed == 96
    pool.otp_apply(b"\x00" * 8, s2)
    with pytest.raises(KeyReuseError):
        pool.release(s2)  # applied pads stay consumed forever
    with pytest.raises(ValidationError):
        pool.release(KeySlice("p", 3, 5))


def test_report_and_overlap_audit():
    pool = _pool(nbytes=32)
    s = pool.reserve("s", 100, "pad")
    pool.reserve("t", 60, "pad")
    pool.otp_apply(b"\x00" * 4, s, data_bits=30)
    rep = pool.report()
    assert rep.reserved_bits == 160
    assert rep.consumed_bits == 30
    assert rep.capacity_bits == 256
    pool.audit_no_overlap()
    pool._reservations[1].offset = 50  # corrupt state behind the API
    with pytest.raises(KeyReuseError):
        pool.audit_no_overlap()


def test_pool_persistence_roundtrip(tmp_path):
    pool = _pool(nbytes=24, seed="persist")
    path = str(tmp_path / "pool.qkey")
    pool.save(path)
    back = KeyPool.load(path)
    assert back.pool_id == "p"
    assert back.capacity_bits == pool.capacity_bits
    assert back.material_digest() == pool.material_digest()
    bad = bytearray(open(path, "rb").read())
    bad[:4] = b"NOPE"
    (tmp_path / "bad.qkey").write_bytes(bytes(bad))
    with pytest.raises(StorageError):
        KeyPool.load(str(tmp_path / "bad.qkey"))
    truncated = open(path, "rb").read()[:-2]
    (tmp_path / "short.qkey").write_bytes(truncated)
    with pytest.raises(StorageError):
        KeyPool.load(str(tmp_path / "short.qkey"))


def test_ledger_entry_format_roundtrip():
    entry = LedgerEntry(
        timestamp=7,
        pool_id="user-dc1",
        session="session-3",
        offset=1200,
        bits=42,
        purpose="query-otp",
        direction="send",
    )
    line = entry.format()
    assert line == "7 user-dc1 session-3 1200 42 query-otp#send"
    assert LedgerEntry.parse(line) == entry
    with pytest.raises(StorageError):
        LedgerEntry.parse("1 2 3")


def test_store_ledger_and_replay(tmp_path):
    ledger_path = str(tmp_path / "ledger.txt")
    material = BitSource("replay").take_bytes(64)
    store = KeyStore(ledger_path=ledger_path)
    store.create_pool("link", material)
    a = store.reserve("link", "s0", 64, "pad", Direction.SEND)
    store.reserve("link", "s1", 80, "pad", Direction.RECEIVE)
    b = store.reserve("link", "s2", 32, "pad", Direction.SEND)
    store.otp_apply(bytes(8), a)
    store.release(b, "s2")
    store.audit_no_reuse()

    entries = KeyStore.read_ledger(ledger_path)
    assert len(entries) == 4  # three reservations plus one release line
    assert entries[3].purpose == "release:unused"

    fresh = KeyPool("link", material)
    fresh.replay_ledger(entries)
    assert fresh.consumed == 64 + 80 + 32
    assert len(fresh.reservations) == 2
    offsets = sorted((r.offset, r.bits) for r in fresh.reservations)
    assert offsets == [(0, 64), (256, 80)]


def test_replay_cross_checks_recorded_consumption(tmp_path):
    material = BitSource("cc").take_bytes(32)
    pool = KeyPool("link", material)
    pool.reserve("s", 40, "pad")
    path = str(tmp_path / "pool.qkey")
    pool.save(path)  # records consumed = 40
    back = KeyPool.load(path)
    with pytest.raises(StorageError, match="ledger replays"):
        back.replay_ledger([])  # ledger shows nothing: mismatch


def test_store_pool_registry():
    store = KeyStore()
    store.create_pool("a", b"\x00" * 8)
    with pytest.raises(ConfigurationError):
        store.create_pool("a", b"\x00" * 8)
    with pytest.raises(ConfigurationError):
        store.pool("missing")
    with pytest.raises(ConfigurationError):
        create_pool("empty", b"")


def test_append_material_only_before_use():
    pool = create_pool("grow", b"\x01" * 4)
    pool.append_material(b"\x02" * 4)
    assert pool.capacity_bits == 64
    pool.reserve("s", 8, "pad")
    with pytest.raises(ConfigurationError):
        pool.append_material(b"\x03")


def test_module_level_otp_helper():
    pool = _pool()
    s = pool.reserve("s", 24, "pad")
    data = b"\xaa\xbb\xcc"
    out = otp_apply(pool, data, s)
    dup = pool.duplicate_slice_for_test(s)
    assert otp_apply(pool, out, dup) == data
