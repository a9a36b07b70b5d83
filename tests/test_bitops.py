import random

import pytest

from oracles import bit_get, pack_bits, unpack_bits
from qspir.bitops import (
    bytes_for_bits,
    mask_to_positions,
    join_words,
    pad_value,
    split_words,
    take_bits,
    xor_bytes,
)


def test_bytes_for_bits():
    assert [bytes_for_bits(v) for v in (0, 1, 7, 8, 9, 16, 17)] == [
        0, 1, 1, 1, 2, 2, 3,
    ]


def test_xor_bytes_involution():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 40)
        a = rng.randbytes(n)
        b = rng.randbytes(n)
        assert xor_bytes(xor_bytes(a, b), b) == a
        assert xor_bytes(a, bytes(n)) == a
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"abc")


def test_pack_unpack_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        nbits = rng.randrange(1, 70)
        bits = [rng.randrange(2) for _ in range(nbits)]
        buf = pack_bits(bits)
        assert len(buf) == bytes_for_bits(nbits)
        assert unpack_bits(buf, nbits) == bits
        assert [bit_get(buf, i) for i in range(nbits)] == bits


def test_take_bits_matches_manual_slice():
    rng = random.Random(3)
    material = rng.randbytes(64)
    whole = int.from_bytes(material, "little")
    for _ in range(100):
        nbits = rng.randrange(0, 90)
        offset = rng.randrange(0, 8 * 64 - nbits + 1)
        expect = (whole >> offset) & ((1 << nbits) - 1)
        got = take_bits(material, offset, nbits)
        assert int.from_bytes(got, "little") == expect
        assert len(got) == bytes_for_bits(nbits)
    with pytest.raises(ValueError):
        take_bits(material, 8 * 64 - 3, 4)
    with pytest.raises(ValueError):
        take_bits(material, -1, 4)


def test_take_bits_window_agrees_with_whole_buffer_reference():
    """The windowed read equals shifting the whole buffer as one int."""
    rng = random.Random(4)

    def reference(buf, off, n):
        return (int.from_bytes(buf, "little") >> off) & ((1 << n) - 1)

    for size in (1, 2, 7, 64, 583):
        material = rng.randbytes(size)
        total = 8 * size
        cases = [(0, 0), (total, 0), (0, total), (total - 1, 1)]
        cases += [(total - n, n) for n in (1, 7, 9, 70) if n <= total]
        for _ in range(200):
            n = rng.randrange(0, min(total, 300) + 1)
            cases.append((rng.randrange(0, total - n + 1), n))
        for off, n in cases:
            for buf in (material, bytearray(material)):
                got = take_bits(buf, off, n)
                assert isinstance(got, bytes)
                assert len(got) == bytes_for_bits(n)
                assert int.from_bytes(got, "little") == reference(buf, off, n)
        with pytest.raises(ValueError):
            take_bits(bytearray(material), total - 2, 3)


def test_split_and_join_words_match_int_packing():
    rng = random.Random(5)
    for nbits in (1, 5, 8, 17, 33, 4656, 4657):
        for count in (1, 3, 34):
            values = [rng.getrandbits(nbits) for _ in range(count)]
            packed = sum(v << (i * nbits) for i, v in enumerate(values))
            wire = packed.to_bytes(bytes_for_bits(count * nbits), "little")
            rows = split_words(wire, count, nbits)
            assert rows.shape == (count, bytes_for_bits(nbits))
            # Equal values imply zero spare high bits in every row.
            assert [int.from_bytes(row, "little") for row in rows] == values
            assert join_words(rows, nbits) == wire
            longer = split_words(wire + b"\xff", count, nbits)
            assert longer.tobytes() == rows.tobytes()


def test_mask_to_positions():
    assert mask_to_positions(0b1011, 4) == [0, 1, 3]
    assert mask_to_positions(0, 4) == []
    assert mask_to_positions(0b1111, 2) == [0, 1]  # clipped to width


def test_pad_value():
    assert pad_value(b"\x05", 13) == b"\x05\x00"
    with pytest.raises(ValueError):
        pad_value(b"\x05\x00\x00", 13)  # too long
    with pytest.raises(ValueError):
        pad_value(b"\x00\xff", 13)  # spare high bits set
