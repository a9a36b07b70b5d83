"""Bit-level helpers shared across the package.

Conventions used everywhere:

* An ``L``-bit value travels as ``ceil(L/8)`` bytes in little-endian bit
  order: bit ``i`` of the value is bit ``i % 8`` of byte ``i // 8``.  Spare
  high bits of the last byte are zero.
* Inside the protocol an L-bit word is one row of a ``uint8`` array of
  width ``ceil(L/8)``, in that same layout.  ``count`` words packed back to
  back (the wire and key-material format) become rows with
  :func:`split_words` and go back with :func:`join_words`; no word is ever
  converted to a Python int.
* Membership vectors over ``m`` positions are Python ints used as bitmasks
  (bit ``p`` set means position ``p`` is in the set).
"""

from __future__ import annotations

import numpy as np


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


def take_bits(material: bytes, bit_offset: int, nbits: int) -> bytes:
    """Extract ``nbits`` bits starting at ``bit_offset`` as a fresh buffer.

    The slice need not be byte aligned; the result is packed little-endian
    starting at bit 0. ``material`` may be any bytes-like buffer.

    Cost is linear in ``nbits``: only the bytes the slice touches are
    read, so it does not grow with the size of ``material``.
    """
    if bit_offset < 0 or nbits < 0:
        raise ValueError("negative offset or length")
    if bit_offset + nbits > 8 * len(material):
        raise ValueError("slice extends past end of material")
    window = np.frombuffer(material, np.uint8)[
        bit_offset >> 3:bytes_for_bits(bit_offset + nbits)
    ]
    nbytes, shift = bytes_for_bits(nbits), bit_offset & 7
    if shift:
        out = window[:nbytes] >> shift
        out[:len(window) - 1] |= window[1:] << (8 - shift)
    else:
        out = window.copy()
    if nbits % 8:
        out[-1] &= (1 << (nbits % 8)) - 1
    return out.tobytes()


def split_words(buf: bytes, count: int, nbits: int) -> np.ndarray:
    """The first ``count`` packed ``nbits``-bit words of ``buf`` as rows.

    Returns a ``(count, ceil(nbits/8))`` uint8 array whose rows have zero
    spare high bits; for whole-byte words it is a view of ``buf``.
    """
    nbytes = bytes_for_bits(nbits)
    if nbits % 8 == 0:
        return np.frombuffer(buf, np.uint8, count * nbytes).reshape(
            count, nbytes
        )
    bits = np.unpackbits(
        np.frombuffer(buf, np.uint8), count=count * nbits, bitorder="little"
    )
    return np.packbits(
        bits.reshape(count, nbits), axis=1, bitorder="little"
    )


def join_words(rows: np.ndarray, nbits: int) -> bytes:
    """Inverse of :func:`split_words`: the rows packed back to back."""
    if nbits % 8 == 0:
        return rows.tobytes()
    bits = np.unpackbits(rows, axis=1, count=nbits, bitorder="little")
    return np.packbits(bits, bitorder="little").tobytes()


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
