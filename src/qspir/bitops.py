"""Bit-level helpers shared across the package.

Conventions used everywhere:

* An ``L``-bit value travels as ``ceil(L/8)`` bytes in little-endian bit
  order: bit ``i`` of the value is bit ``i % 8`` of byte ``i // 8``.  Spare
  high bits of the last byte are zero.
* Membership vectors over ``m`` positions are Python ints used as bitmasks
  (bit ``p`` set means position ``p`` is in the set).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def bytes_for_bits(nbits: int) -> int:
    """Number of bytes needed to carry ``nbits`` bits."""
    return (nbits + 7) // 8


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


def xor_many(items: Iterable[bytes], nbytes: int) -> bytes:
    """XOR any number of ``nbytes``-long byte strings (empty -> zeros)."""
    acc = 0
    for item in items:
        if len(item) != nbytes:
            raise ValueError(f"length mismatch: {len(item)} != {nbytes}")
        acc ^= int.from_bytes(item, "little")
    return acc.to_bytes(nbytes, "little")


def bit_get(buf: bytes, i: int) -> int:
    """Bit ``i`` of a little-endian-bit-order buffer."""
    return (buf[i >> 3] >> (i & 7)) & 1


def take_bits(material: bytes, bit_offset: int, nbits: int) -> bytes:
    """Extract ``nbits`` bits starting at ``bit_offset`` as a fresh buffer.

    The slice need not be byte aligned; the result is packed little-endian
    starting at bit 0. ``material`` may be any bytes-like buffer.

    Cost is linear in ``nbits``: only the bytes the slice touches are
    converted, so it does not grow with the size of ``material``.
    """
    if bit_offset < 0 or nbits < 0:
        raise ValueError("negative offset or length")
    if bit_offset + nbits > 8 * len(material):
        raise ValueError("slice extends past end of material")
    window = material[bit_offset >> 3:bytes_for_bits(bit_offset + nbits)]
    val = (int.from_bytes(window, "little") >> (bit_offset & 7)) & (
        (1 << nbits) - 1
    )
    return val.to_bytes(bytes_for_bits(nbits), "little")


def pack_bits(bits: Sequence[int]) -> bytes:
    """Pack a 0/1 sequence into bytes, little-endian bit order."""
    acc = 0
    for i, b in enumerate(bits):
        if b:
            acc |= 1 << i
    return acc.to_bytes(bytes_for_bits(len(bits)), "little")


def unpack_bits(buf: bytes, nbits: int) -> list[int]:
    """Inverse of :func:`pack_bits`."""
    return [bit_get(buf, i) for i in range(nbits)]


def mask_to_positions(mask: int, m: int) -> list[int]:
    """Positions (ascending) whose bits are set in an m-bit mask."""
    return [p for p in range(m) if (mask >> p) & 1]


def pad_value(value: bytes, nbits: int) -> bytes:
    """Zero-pad ``value`` up to the byte length carrying ``nbits`` bits.

    Raises if the value is longer than the target or sets spare high bits.
    """
    nbytes = bytes_for_bits(nbits)
    if len(value) > nbytes:
        raise ValueError(f"value of {len(value)} bytes exceeds {nbits} bits")
    out = value + b"\x00" * (nbytes - len(value))
    if nbits % 8:
        spare = out[-1] >> (nbits % 8)
        if spare:
            raise ValueError("value sets bits beyond the declared width")
    return out
