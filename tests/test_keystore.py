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
)
from qspir.rng import BitSource


def _pool(pool_id="p", nbytes=64, seed="pool"):
    return KeyPool(pool_id, BitSource(seed).take_bytes(nbytes))


def test_reserve_sequential_and_exhaustion():
    pool = _pool(nbytes=8)  # 64 bits
    s1 = pool.reserve_at("s1", 0, 40, "a")
    s2 = pool.reserve_at("s2", 40, 24, "b")
    assert (s1.offset, s1.bits) == (0, 40)
    assert (s2.offset, s2.bits) == (40, 24)
    assert pool.consumed == 64
    with pytest.raises(BudgetExhaustedError) as info:
        pool.reserve_at("s3", 64, 1, "c")
    assert (info.value.needed, info.value.available) == (1, 0)
    # A range running past the end reports exactly the bits left.
    with pytest.raises(BudgetExhaustedError) as info:
        pool.reserve_at("s3", 60, 8, "c")
    assert (info.value.needed, info.value.available) == (8, 4)
    with pytest.raises(ValidationError):
        pool.reserve_at("s4", 0, 0, "d")
    assert pool.consumed == 64  # refused reservations claim nothing


def test_otp_apply_is_single_use_and_correct():
    material = BitSource("m").take_bytes(32)
    pool = KeyPool("p", material)
    data = BitSource("d").take_bytes(10)
    s = pool.reserve_at("s", 0, 80, "pad")
    out = pool.otp_apply(data, s)
    assert out == xor_bytes(data, material[:10])
    with pytest.raises(KeyReuseError):
        pool.otp_apply(data, s)


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
    s = pool.reserve_at("s", 0, 20, "pad")
    out = pool.otp_apply(b"\xff\xff\xff", s, data_bits=20)
    # Bits beyond the declared width are not padded.
    assert out[2] & 0xF0 == 0xF0
    other = _pool("other")
    t = other.reserve_at("t", 0, 16, "pad")
    with pytest.raises(ValidationError):
        pool.otp_apply(b"\x00\x00", t)
    u = other.reserve_at("u", 16, 8, "pad")
    with pytest.raises(ValidationError):
        other.otp_apply(b"\x00\x00", u)  # data exceeds slice
    with pytest.raises(ValidationError):  # no reservation at that offset
        other.otp_apply(b"\x00", KeySlice("other", 8, 8))
    with pytest.raises(ValidationError):  # right offset, wrong length
        other.otp_apply(b"\x00", KeySlice("other", 0, 8))


def test_adjacent_slot_slices_share_one_range_without_colliding():
    pool = _pool(nbytes=16)  # 128 bits, one range
    # Slot 0: send [0, 30), receive [30, 64); slot 1 starts at 64.
    a = pool.reserve_at("s0", 0, 30, "query-otp")
    b = pool.reserve_at("s0", 30, 34, "answer-otp")
    assert (a.offset, b.offset) == (0, 30)
    # A send slice may not reach into the receive slice it precedes ...
    with pytest.raises(KeyReuseError):
        pool.reserve_at("s0", 29, 2, "query-otp", Direction.WHOLE)
    pool.reserve_at("s1", 64, 30, "query-otp")
    # ... and the last slot ends at the pool's end, with the exact deficit,
    # reported against the pool itself.
    with pytest.raises(BudgetExhaustedError) as info:
        pool.reserve_at("s1", 94, 35, "answer-otp")
    assert (info.value.needed, info.value.available) == (35, 34)
    assert info.value.pool == "p"
    with pytest.raises(BudgetExhaustedError):
        pool.reserve_at("s1", -1, 2, "answer-otp")
    pool.reserve_at("s1", 94, 34, "answer-otp")
    assert pool.consumed == 128
    pool.audit_no_overlap()


def test_odd_capacity_boundary():
    pool = KeyPool("odd", BitSource("odd").take_bytes(3))  # 24 bits
    # Slices meet mid-byte; together they hold exactly the pool's 24 bits.
    with pytest.raises(BudgetExhaustedError) as info:
        pool.reserve_at("s", 11, 14, "answer")
    assert (info.value.needed, info.value.available) == (14, 13)
    send = pool.reserve_at("s", 0, 11, "query")
    receive = pool.reserve_at("s", 11, 13, "answer")
    other = KeyPool("odd", BitSource("odd").take_bytes(3))
    for key_slice in (send, receive):
        other.reserve_at("s", key_slice.offset, key_slice.bits, "pad")
        data = b"\x5a\xa5"
        assert other.otp_apply(pool.otp_apply(data, key_slice, key_slice.bits),
                               key_slice, key_slice.bits) == data


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
    s = pool.reserve_at("s", 0, 32, "pad")
    assert pool.consumed == 32
    pool.release(s)
    assert pool.consumed == 32  # monotone: releases never rewind
    assert pool.report().reserved_bits == 0
    with pytest.raises(ValidationError):
        pool.release(s)  # a released slice is gone
    s2 = pool.reserve_at("s2", 0, 64, "pad")  # the released range is free
    assert pool.consumed == 96
    pool.otp_apply(b"\x00" * 8, s2)
    with pytest.raises(KeyReuseError):
        pool.release(s2)  # applied pads stay consumed forever
    with pytest.raises(ValidationError):
        pool.release(KeySlice("p", 3, 5))


def test_report_and_overlap_audit():
    pool = _pool(nbytes=32)
    s = pool.reserve_at("s", 0, 100, "pad")
    pool.reserve_at("t", 100, 60, "pad")
    pool.otp_apply(b"\x00" * 4, s, data_bits=30)
    assert pool.slice_used(s)
    rep = pool.report()
    assert rep.reserved_bits == 160
    assert rep.consumed_bits == 30
    assert rep.capacity_bits == 256
    assert [r.session for r in rep.reservations] == ["s", "t"]
    pool.audit_no_overlap()
    pool.reservations[1].offset = 50  # corrupt state behind the API
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


def test_ledger_line_with_a_non_numeric_field_is_a_storage_error(tmp_path):
    good = "7 user-dc1 session-3 1200 42 query-otp#whole"
    for bad in (
        "7 user-dc1 session-3 12x0 42 query-otp#whole",  # offset
        "7 user-dc1 session-3 1200 4.2 query-otp#whole",  # bits
        "t7 user-dc1 session-3 1200 42 query-otp#whole",  # timestamp
    ):
        with pytest.raises(StorageError, match="malformed ledger line"):
            LedgerEntry.parse(bad)
        path = tmp_path / "ledger.txt"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(StorageError, match="12x0|4.2|t7"):
            KeyStore.read_ledger(str(path))


def _replayed_store(material: bytes, ledger: str) -> KeyStore:
    store = KeyStore(ledger_path=ledger)
    store.add_pool(KeyPool("link", material))
    store.replay_ledger(KeyStore.read_ledger(ledger))
    return store


def test_ledger_cut_inside_its_label_replays_the_range_it_names(tmp_path):
    # A crash tore the last line inside its label. The line still names its
    # whole range, so replay keeps that range reserved. The labels are those
    # of a ledger written when pools had send and receive halves.
    material = BitSource("torn").take_bytes(64)
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(
        "1 link session-0 0 40 query-otp#send\n"
        "2 link session-0 256 80 answer-otp#rece"
    )
    store = _replayed_store(material, str(ledger))
    pool = store.pool("link")
    assert [(r.offset, r.bits) for r in pool.reservations] == [
        (0, 40), (256, 80)
    ]
    with pytest.raises(KeyReuseError):
        store.reserve_at("link", "session-1", 300, 8, "query-otp")
    store.reserve_at("link", "session-1", 40, 8, "query-otp")
    lines = ledger.read_text().splitlines()
    assert lines[1] == "2 link session-0 256 80 answer-otp#rece"
    assert lines[2] == "3 link session-1 40 8 query-otp#whole"


def test_ledger_that_lost_its_last_newline_survives_two_restarts(tmp_path):
    material = BitSource("newline").take_bytes(64)
    ledger = tmp_path / "ledger.txt"
    first = KeyStore(ledger_path=str(ledger))
    first.add_pool(KeyPool("link", material))
    first.reserve_at("link", "session-0", 0, 40, "query-otp")
    ledger.write_text(ledger.read_text().rstrip("\n"))  # torn: no newline

    second = _replayed_store(material, str(ledger))
    second.reserve_at("link", "session-1", 40, 16, "query-otp")
    third = _replayed_store(material, str(ledger))
    third.reserve_at("link", "session-2", 56, 8, "query-otp")
    fourth = _replayed_store(material, str(ledger))
    assert [(e.session, e.offset) for e in fourth.entries] == [
        ("session-0", 0), ("session-1", 40), ("session-2", 56)
    ]
    assert ledger.read_text().endswith("\n")


def test_store_ledger_and_replay(tmp_path):
    ledger_path = str(tmp_path / "ledger.txt")
    material = BitSource("replay").take_bytes(64)
    store = KeyStore(ledger_path=ledger_path)
    store.add_pool(KeyPool("link", material))  # 512 bits
    a = store.reserve_at("link", "s0", 0, 64, "pad", Direction.WHOLE)
    store.reserve_at("link", "s1", 256, 80, "pad")
    b = store.reserve_at("link", "s2", 64, 32, "pad")
    store.otp_apply(bytes(8), a)
    store.release(b, "s2")
    store.audit_no_reuse()

    entries = KeyStore.read_ledger(ledger_path)
    assert len(entries) == 4  # three reservations plus one release line
    assert {e.direction for e in entries} == {"whole"}
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
    pool.reserve_at("s", 0, 40, "pad")
    path = str(tmp_path / "pool.qkey")
    pool.save(path)  # records consumed = 40
    back = KeyPool.load(path)
    with pytest.raises(StorageError, match="ledger replays"):
        back.replay_ledger([])  # ledger shows nothing: mismatch


def test_store_pool_registry():
    store = KeyStore()
    store.add_pool(KeyPool("a", b"\x00" * 8))
    with pytest.raises(ConfigurationError):
        store.add_pool(KeyPool("a", b"\x00" * 8))
    with pytest.raises(ConfigurationError):
        store.pool("missing")
    with pytest.raises(ConfigurationError):
        KeyPool("empty", b"")


def test_otp_round_trip_across_two_ends_of_a_link():
    # Each end of a link holds its own pool over the same material and
    # reserves the same index-scheduled range; one end's pad undoes the
    # other's, and each end can apply its copy only once.
    material = BitSource("link").take_bytes(64)
    sender, receiver = KeyPool("p", material), KeyPool("p", material)
    data = b"\xaa\xbb\xcc"
    for offset in (0, 77):  # byte-aligned and mid-byte slices
        out = sender.otp_apply(data, sender.reserve_at("s", offset, 24, "pad"))
        assert out != data
        back = receiver.reserve_at("s", offset, 24, "pad")
        assert receiver.otp_apply(out, back) == data
        with pytest.raises(KeyReuseError):
            receiver.otp_apply(out, back)


def test_replay_after_load_resumes_and_is_all_or_nothing(tmp_path):
    material = BitSource("resume").take_bytes(32)
    path = str(tmp_path / "pool.qkey")
    KeyPool("link", material).save(path)  # provisioned: records 0 bits
    ledger = str(tmp_path / "ledger.txt")
    store = KeyStore(ledger_path=ledger)
    store.add_pool(KeyPool("link", material))
    store.reserve_at("link", "s0", 0, 40, "pad")
    store.release(store.reserve_at("link", "s1", 40, 8, "pad"), "s1")
    store.reserve_at("link", "s2", 48, 16, "pad")
    entries = KeyStore.read_ledger(ledger)

    # A ledger that replays more than the file recorded is the normal
    # restart case, not a mismatch.
    back = KeyPool.load(path)
    back.replay_ledger(entries)
    spans = [(r.offset, r.bits) for r in back.reservations]
    assert spans == [(0, 40), (48, 16)]
    assert back.consumed == 64
    with pytest.raises(KeyReuseError):
        back.reserve_at("again", 0, 8, "pad")  # a replayed range stays taken
    back.reserve_at("s1", 40, 8, "pad")  # a released one is free again

    # The store resumes its clock and entries after the replayed history.
    resumed = KeyStore(ledger_path=ledger)
    resumed.add_pool(KeyPool.load(path))
    resumed.replay_ledger(entries)
    assert resumed.entries == tuple(entries)
    resumed.reserve_at("link", "s3", 64, 8, "pad")
    timestamps = [e.timestamp for e in KeyStore.read_ledger(ledger)]
    assert timestamps == list(range(1, len(entries) + 2))

    # A ledger that fails any check leaves the pool exactly as it was.
    overlapping = entries + [
        LedgerEntry(99, "link", "s9", 44, 8, "pad", "whole")
    ]
    duplicate = entries + [LedgerEntry(99, "link", "s9", 0, 8, "pad", "whole")]
    unknown = [LedgerEntry(1, "link", "s9", 8, 8, "release:unused", "whole")]
    for bad in (overlapping, duplicate, unknown):
        pool = KeyPool.load(path)
        pool.reserve_at("live", 200, 8, "pad")
        with pytest.raises((KeyReuseError, ValidationError)):
            pool.replay_ledger(bad)
        assert [(r.offset, r.bits) for r in pool.reservations] == [(200, 8)]
        assert pool.consumed == 8

    # A truncated ledger replays fewer bits than the file recorded.
    full = str(tmp_path / "full.qkey")
    back.save(full)  # records 72 reserved bits
    pool = KeyPool.load(full)
    with pytest.raises(StorageError, match="ledger replays 40"):
        pool.replay_ledger(entries[:1])
    assert pool.reservations == () and pool.consumed == 0
