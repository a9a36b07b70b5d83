"""Deterministic randomness sources.

Every stochastic component takes an explicit source so seeded runs are
reproducible byte for byte.  Two kinds are provided:

* :class:`BitSource` — streams raw bits/bytes, used to fill key pools and to
  draw protocol randomness in tests and simulations.
* :func:`spawn` — derives an independent, deterministically labelled child
  source, so sibling components never share a stream.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Sequence

from .bitops import bytes_for_bits


class BitSource:
    """A deterministic stream of random bytes/bits.

    Backed by SHA-256 in counter mode over a seed label, which keeps streams
    stable across Python and numpy versions.  With ``seed=None`` the source
    is initialised from the operating system and is not reproducible.
    """

    def __init__(self, seed: int | str | bytes | None = None):
        if seed is None:
            key = os.urandom(32)
        elif isinstance(seed, bytes):
            key = seed
        else:
            key = str(seed).encode()
        self._key = hashlib.sha256(b"qspir.bitsource:" + key).digest()
        self._counter = 0
        self._buf = b""

    def take_bytes(self, n: int) -> bytes:
        """Next ``n`` bytes of the stream."""
        out = bytearray()
        while len(out) < n:
            if not self._buf:
                block = self._key + self._counter.to_bytes(8, "big")
                self._buf = hashlib.sha256(block).digest()
                self._counter += 1
            need = n - len(out)
            out += self._buf[:need]
            self._buf = self._buf[need:]
        return bytes(out)

    def take_bits(self, nbits: int) -> bytes:
        """Next ``nbits`` bits, packed little-endian with spare bits zeroed."""
        raw = bytearray(self.take_bytes(bytes_for_bits(nbits)))
        if nbits % 8:
            raw[-1] &= (1 << (nbits % 8)) - 1
        return bytes(raw)

    def take_int(self, nbits: int) -> int:
        """Next ``nbits`` bits as an unsigned integer."""
        return int.from_bytes(self.take_bits(nbits), "little")

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` by rejection sampling."""
        if n <= 0:
            raise ValueError("empty range")
        nbits = (n - 1).bit_length() or 1
        while True:
            v = self.take_int(nbits)
            if v < n:
                return v

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]

    def spawn(self, label: str) -> "BitSource":
        """Derive an independent child stream tied to ``label``."""
        child = BitSource.__new__(BitSource)
        child._key = hashlib.sha256(
            b"qspir.spawn:" + self._key + label.encode()
        ).digest()
        child._counter = 0
        child._buf = b""
        return child
