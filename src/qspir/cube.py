"""Cube layout of a database: coordinates, snapshots and manifests.

``n`` entries of at most ``L`` bits each are arranged in an ``m x m x m``
cube with ``m = ceil(n^(1/3))``; unused cells hold zeros.  Entry ``x`` lives
at coordinates ``(i, j, k)`` with ``x = i*m^2 + j*m + k``.  Cells are a
``(m, m, m, ceil(L/8))`` uint8 array; the answer pass over them lives in
:func:`qspir.protocol.compute_answer_bundle`.
"""

from __future__ import annotations

import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bitops import bytes_for_bits, pad_value
from .errors import RangeError, StorageError, ValidationError

SNAPSHOT_MAGIC = b"QCUB"
SNAPSHOT_VERSION = 1


def cube_dims(n: int) -> int:
    """Smallest m with m**3 >= n, in exact integer arithmetic."""
    if n < 1:
        raise RangeError(f"database must hold at least one entry, got {n}")
    m = max(1, round(n ** (1 / 3)))
    while m**3 < n:
        m += 1
    while (m - 1) ** 3 >= n and m > 1:
        m -= 1
    return m


def index_to_coords(x: int, m: int) -> tuple[int, int, int]:
    """Coordinates of entry ``x`` in an m-cube."""
    if not 0 <= x < m**3:
        raise RangeError(f"index {x} outside cube of side {m}")
    i, rem = divmod(x, m * m)
    j, k = divmod(rem, m)
    return i, j, k


def coords_to_index(i: int, j: int, k: int, m: int) -> int:
    """Inverse of :func:`index_to_coords`."""
    for c in (i, j, k):
        if not 0 <= c < m:
            raise RangeError(f"coordinate {c} outside cube of side {m}")
    return i * m * m + j * m + k


@dataclass
class Database:
    """An immutable cube of fixed-width entries.

    Attributes:
        n: number of real entries (cells beyond ``n`` are zero padding).
        record_bits: entry width L in bits.
        m: cube side.
        cells: uint8 array of shape ``(m, m, m, ceil(L/8))``.

    Each cube also owns two ``(m, m, ceil(L/8))`` scratch planes for the
    answer pass, allocated once and lent out by :meth:`workspace`.
    """

    n: int
    record_bits: int
    m: int
    cells: np.ndarray

    def __post_init__(self):
        self._lock = threading.Lock()
        shape = (self.m, self.m, self.record_bytes)
        self._planes = (np.empty(shape, np.uint8), np.empty(shape, np.uint8))

    @property
    def record_bytes(self) -> int:
        return bytes_for_bits(self.record_bits)

    @classmethod
    def from_entries(cls, entries: list[bytes], record_bits: int) -> "Database":
        """Arrange ``entries`` (each at most ``record_bits`` bits) in a cube."""
        n = len(entries)
        m = cube_dims(n)
        lb = bytes_for_bits(record_bits)
        cells = np.zeros((m, m, m, lb), dtype=np.uint8)
        for x, entry in enumerate(entries):
            padded = pad_value(entry, record_bits)
            cells[index_to_coords(x, m)] = np.frombuffer(padded, dtype=np.uint8)
        return cls(n=n, record_bits=record_bits, m=m, cells=cells)

    def entry(self, x: int) -> bytes:
        """Entry ``x`` as its padded ``ceil(L/8)``-byte representation."""
        if not 0 <= x < self.n:
            raise RangeError(f"index {x} outside database of {self.n} entries")
        return self.cells[index_to_coords(x, self.m)].tobytes()

    @contextmanager
    def workspace(self):
        """Hold this cube's lock and lend out its two scratch planes.

        Daemons sharing one cube answer from several threads; the lock
        keeps them from writing the same planes at once.
        """
        with self._lock:
            yield self._planes

    def save(self, path) -> None:
        """Write the snapshot format: magic, version, (n, L, m), raw cells."""
        header = SNAPSHOT_MAGIC + struct.pack(
            ">BIII", SNAPSHOT_VERSION, self.n, self.record_bits, self.m
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.cells.tobytes())

    @classmethod
    def load(cls, path) -> "Database":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 17 or blob[:4] != SNAPSHOT_MAGIC:
            raise StorageError(f"{path}: not a cube snapshot")
        version, n, record_bits, m = struct.unpack(">BIII", blob[4:17])
        if version != SNAPSHOT_VERSION:
            raise StorageError(f"{path}: unsupported snapshot version {version}")
        lb = bytes_for_bits(record_bits)
        body = blob[17:]
        if len(body) != m**3 * lb:
            raise StorageError(
                f"{path}: cell payload is {len(body)} bytes, "
                f"expected {m ** 3 * lb}"
            )
        if not 1 <= n <= m**3 or (m > 1 and (m - 1) ** 3 >= n):
            raise StorageError(f"{path}: inconsistent dimensions n={n} m={m}")
        cells = (
            np.frombuffer(body, dtype=np.uint8).reshape(m, m, m, lb).copy()
        )
        return cls(n=n, record_bits=record_bits, m=m, cells=cells)


def load_manifest(manifest_path, base_dir) -> tuple[list[bytes], list[int]]:
    """Read a ``<index> <byte-length> <filename>`` manifest.

    Returns the entry payloads in index order plus their true byte lengths.
    Indices must be a gap-free 0..n-1 enumeration.
    """
    rows: dict[int, tuple[int, str]] = {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                raise ValidationError(
                    f"{manifest_path}:{lineno}: expected "
                    f"'<index> <byte-length> <filename>'"
                )
            try:
                idx, nbytes = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValidationError(
                    f"{manifest_path}:{lineno}: non-numeric field"
                ) from exc
            if idx in rows:
                raise ValidationError(
                    f"{manifest_path}:{lineno}: duplicate index {idx}"
                )
            rows[idx] = (nbytes, parts[2])
    if not rows:
        raise ValidationError(f"{manifest_path}: empty manifest")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ValidationError(
            f"{manifest_path}: indices must cover 0..{n - 1} without gaps"
        )
    entries: list[bytes] = []
    lengths: list[int] = []
    for idx in range(n):
        nbytes, fname = rows[idx]
        with open(os.path.join(base_dir, fname), "rb") as fh:
            payload = fh.read()
        if len(payload) != nbytes:
            raise ValidationError(
                f"{fname}: manifest says {nbytes} bytes, file has {len(payload)}"
            )
        entries.append(payload)
        lengths.append(nbytes)
    return entries, lengths
