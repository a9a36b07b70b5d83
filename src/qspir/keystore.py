"""Pre-shared key pools with index-scheduled reservations and OTP audit.

Every party pair (user and either data centre, or the two data centres)
shares one pool of key material. Sessions reserve their full bit budget up
front at offsets both ends compute from the session index alone
(:meth:`KeyPool.reserve_at`); a range that overlaps a live reservation or
leaves the pool is refused, pad applications must land on a reservation,
and no key bit is ever applied twice. An append-only ledger with logical
timestamps records every reservation and release, so consumption can be
audited against budgets and a restarted party can replay it: a range that
an earlier run reserved stays reserved.
"""

from __future__ import annotations

import enum
import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitops import bytes_for_bits, take_bits
from .errors import (
    BudgetExhaustedError,
    ConfigurationError,
    KeyReuseError,
    StorageError,
    ValidationError,
)

_POOL_MAGIC = b"QKEY"
_POOL_VERSION = 1


class Direction(enum.Enum):
    """The label a reservation's ledger line carries; a pool is one range."""

    WHOLE = "whole"


@dataclass(frozen=True)
class KeySlice:
    """A single-use window into a pool: absolute bit offset and length."""

    pool_id: str
    offset: int
    bits: int


@dataclass
class Reservation:
    """One session's claim on a contiguous bit range of a pool."""

    session: str
    offset: int
    bits: int
    purpose: str
    consumed_bits: int = 0
    used: bool = False


@dataclass
class PoolReport:
    """Read-only consumption summary for one pool."""

    pool_id: str
    capacity_bits: int
    reserved_bits: int
    consumed_bits: int
    reservations: list[Reservation] = field(default_factory=list)


class KeyPool:
    """Shared key material for one party pair, with its live reservations.

    Reservations are keyed by offset: ``reserve_at`` refuses overlaps, so
    no two live reservations start at the same bit.
    """

    def __init__(self, pool_id: str, material: bytes):
        if not material:
            raise ConfigurationError(f"pool {pool_id!r} created without material")
        self.pool_id = pool_id
        self._material = bytearray(material)
        self._reservations: dict[int, Reservation] = {}
        self._ever_reserved = 0
        # Reserved bits the pool file recorded when loaded; a replayed
        # ledger must account for at least this many.
        self._recorded_consumed = 0

    @property
    def capacity_bits(self) -> int:
        return 8 * len(self._material)

    @property
    def consumed(self) -> int:
        """Cumulative bits ever reserved (monotone; releases don't rewind)."""
        return self._ever_reserved

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        return tuple(self._reservations.values())

    def reserve_at(
        self,
        session: str,
        offset: int,
        bits: int,
        purpose: str,
        direction: Direction = Direction.WHOLE,
    ) -> KeySlice:
        """Claim an explicit bit range, for index-scheduled sessions.

        Lets parties that share a pool agree on per-session ranges by
        session index alone, so concurrent sessions stay aligned even when
        their frames arrive in different orders at the two ends. The range
        may lie anywhere in ``[0, capacity_bits)``; ``direction`` only
        labels the ledger line.
        """
        if bits <= 0:
            raise ValidationError(f"reservation of {bits} bits is not positive")
        if offset < 0 or offset + bits > self.capacity_bits:
            raise BudgetExhaustedError(
                self.pool_id, bits, max(0, self.capacity_bits - offset)
            )
        for r in self._reservations.values():
            if r.offset < offset + bits and offset < r.offset + r.bits:
                raise KeyReuseError(
                    f"pool {self.pool_id!r}: range [{offset}, "
                    f"{offset + bits}) overlaps an existing reservation"
                )
        return self._add(Reservation(session, offset, bits, purpose))

    def _add(self, reservation: Reservation) -> KeySlice:
        if reservation.offset in self._reservations:
            raise KeyReuseError(
                f"pool {self.pool_id!r}: two reservations start at bit "
                f"{reservation.offset}"
            )
        self._reservations[reservation.offset] = reservation
        self._ever_reserved += reservation.bits
        return KeySlice(self.pool_id, reservation.offset, reservation.bits)

    def _reservation(self, key_slice: KeySlice) -> Reservation:
        r = self._reservations.get(key_slice.offset)
        if r is None or r.bits != key_slice.bits:
            raise ValidationError(
                f"slice at bit {key_slice.offset} (+{key_slice.bits}) "
                f"matches no reservation in pool {self.pool_id!r}"
            )
        return r

    def release(self, key_slice: KeySlice) -> None:
        """Return an unused reservation's bits to the pool.

        Only reservations whose pad was never applied may be released;
        anything already sent stays consumed forever.
        """
        r = self._reservation(key_slice)
        if r.used:
            raise KeyReuseError(
                f"pool {self.pool_id!r}: slice at bit {r.offset} "
                "was applied and cannot be released"
            )
        del self._reservations[r.offset]

    # -- pad application ---------------------------------------------------

    def otp_apply(
        self, data: bytes, key_slice: KeySlice, data_bits: int | None = None
    ) -> bytes:
        """XOR ``data`` with the slice's key bits; marks the slice used.

        Self-inverse over identical material, but a slice can be applied
        only once: reuse is a hard protocol fault, not a recoverable error.

        Only the bytes under the pad are read, so the cost is linear in
        ``data_bits`` and independent of how deep the pool is.
        """
        if key_slice.pool_id != self.pool_id:
            raise ValidationError(
                f"slice belongs to pool {key_slice.pool_id!r}, "
                f"not {self.pool_id!r}"
            )
        if data_bits is None:
            data_bits = 8 * len(data)
        if data_bits > 8 * len(data):
            raise ValidationError("declared data bits exceed the buffer")
        if data_bits > key_slice.bits:
            raise ValidationError(
                f"data of {data_bits} bits exceeds slice of {key_slice.bits}"
            )
        reservation = self._reservation(key_slice)
        if reservation.used:
            raise KeyReuseError(
                f"slice at bit {key_slice.offset} of pool {self.pool_id!r} "
                "was already applied"
            )
        window = self._material[
            key_slice.offset >> 3:bytes_for_bits(key_slice.offset + data_bits)
        ]
        pad = take_bits(window, key_slice.offset & 7, data_bits)
        out = bytearray(data)
        np.frombuffer(out, np.uint8)[:len(pad)] ^= np.frombuffer(pad, np.uint8)
        reservation.used = True
        reservation.consumed_bits = data_bits
        return bytes(out)

    def slice_used(self, key_slice: KeySlice) -> bool:
        """Whether the slice's reservation has been applied."""
        return self._reservation(key_slice).used

    def material_digest(self) -> bytes:
        """SHA-256 of the raw material, for provisioning cross-checks."""
        return hashlib.sha256(self._material).digest()

    # -- reporting & audit -------------------------------------------------

    def report(self) -> PoolReport:
        reservations = self.reservations
        return PoolReport(
            pool_id=self.pool_id,
            capacity_bits=self.capacity_bits,
            reserved_bits=sum(r.bits for r in reservations),
            consumed_bits=sum(r.consumed_bits for r in reservations),
            reservations=list(reservations),
        )

    def audit_no_overlap(self) -> None:
        """Assert no two reservations share a key bit."""
        spans = sorted(
            (r.offset, r.offset + r.bits) for r in self._reservations.values()
        )
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            if start < prev_end:
                raise KeyReuseError(
                    f"pool {self.pool_id!r}: reservations overlap at bit "
                    f"{start}"
                )

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        pid = self.pool_id.encode()
        if len(pid) > 255:
            raise StorageError("pool id longer than 255 bytes")
        header = _POOL_MAGIC + struct.pack(">BB", _POOL_VERSION, len(pid))
        header += pid
        header += struct.pack(">QQ", self.consumed, self.capacity_bits)
        with open(path, "wb") as fh:
            fh.write(header + bytes(self._material))

    @classmethod
    def load(cls, path: str) -> "KeyPool":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _POOL_MAGIC:
            raise StorageError(f"{path}: not a key pool file")
        version, pid_len = struct.unpack(">BB", blob[4:6])
        if version != _POOL_VERSION:
            raise StorageError(f"{path}: unsupported pool version {version}")
        pos = 6
        pool_id = blob[pos:pos + pid_len].decode()
        pos += pid_len
        consumed, capacity = struct.unpack(">QQ", blob[pos:pos + 16])
        pos += 16
        material = blob[pos:]
        if 8 * len(material) != capacity:
            raise StorageError(
                f"{path}: header claims {capacity} bits, "
                f"file carries {8 * len(material)}"
            )
        pool = cls(pool_id, material)
        pool._recorded_consumed = consumed
        return pool

    def replay_ledger(self, entries: list["LedgerEntry"]) -> None:
        """Rebuild reservation state from ledger lines after :meth:`load`.

        All or nothing: a ledger that overlaps itself, releases a range it
        never reserved, or replays fewer reserved bits than the pool file
        recorded raises and leaves the pool as it was.
        """
        saved = dict(self._reservations), self._ever_reserved
        try:
            for entry in entries:
                if entry.pool_id != self.pool_id:
                    continue
                if entry.purpose.startswith("release:"):
                    self.release(
                        KeySlice(self.pool_id, entry.offset, entry.bits)
                    )
                    continue
                self._add(
                    Reservation(
                        entry.session, entry.offset, entry.bits, entry.purpose
                    )
                )
            self.audit_no_overlap()
            if self.consumed < self._recorded_consumed:
                raise StorageError(
                    f"pool {self.pool_id!r}: file records "
                    f"{self._recorded_consumed} reserved bits but ledger "
                    f"replays {self.consumed}"
                )
        except Exception:
            self._reservations, self._ever_reserved = saved
            raise


@dataclass(frozen=True)
class LedgerEntry:
    """One append-only ledger line.

    ``direction`` is the label after the ``#``, kept as plain text: replay
    reads only the absolute range, so a line cut inside its label, or
    written with the older ``send``/``receive`` labels, still reserves it.
    """

    timestamp: int
    pool_id: str
    session: str
    offset: int
    bits: int
    purpose: str
    direction: str

    def format(self) -> str:
        return (
            f"{self.timestamp} {self.pool_id} {self.session} "
            f"{self.offset} {self.bits} {self.purpose}#{self.direction}"
        )

    @classmethod
    def parse(cls, line: str) -> "LedgerEntry":
        parts = line.split()
        if len(parts) != 6:
            raise StorageError(f"malformed ledger line: {line!r}")
        purpose, _, direction = parts[5].rpartition("#")
        try:
            timestamp, offset, bits = (int(parts[i]) for i in (0, 3, 4))
        except ValueError:
            raise StorageError(f"malformed ledger line: {line!r}") from None
        return cls(
            timestamp=timestamp,
            pool_id=parts[1],
            session=parts[2],
            offset=offset,
            bits=bits,
            purpose=purpose,
            direction=direction,
        )


class KeyStore:
    """A party's pools plus the shared append-only ledger file."""

    def __init__(self, ledger_path: str | None = None):
        self._pools: dict[str, KeyPool] = {}
        self._ledger_path = ledger_path
        self._entries: list[LedgerEntry] = []
        self._clock = 0
        self._appended = False

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def add_pool(self, pool: KeyPool) -> KeyPool:
        if pool.pool_id in self._pools:
            raise ConfigurationError(f"duplicate pool id {pool.pool_id!r}")
        self._pools[pool.pool_id] = pool
        return pool

    def pool(self, pool_id: str) -> KeyPool:
        try:
            return self._pools[pool_id]
        except KeyError:
            raise ConfigurationError(f"unknown pool {pool_id!r}") from None

    def pools(self) -> tuple[KeyPool, ...]:
        return tuple(self._pools.values())

    def replay_ledger(self, entries: list[LedgerEntry]) -> None:
        """Resume from an earlier run's ledger lines.

        Every pool replays its reservations, and the entries and clock
        carry on from the replayed history.
        """
        for pool in self._pools.values():
            pool.replay_ledger(entries)
        self._entries[:0] = entries
        self._clock = max([self._clock, *(e.timestamp for e in entries)])

    def _record(
        self,
        pool_id: str,
        session: str,
        key_slice: KeySlice,
        purpose: str,
        direction: Direction,
    ) -> None:
        self._clock += 1
        entry = LedgerEntry(
            timestamp=self._clock,
            pool_id=pool_id,
            session=session,
            offset=key_slice.offset,
            bits=key_slice.bits,
            purpose=purpose,
            direction=direction.value,
        )
        self._entries.append(entry)
        if self._ledger_path:
            line = entry.format() + "\n"
            with open(self._ledger_path, "ab+") as fh:
                # A torn earlier write may have left the last line without
                # its newline; end it first, or this line would extend it.
                if not self._appended and fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        line = "\n" + line
                fh.write(line.encode())
            self._appended = True

    def reserve_at(
        self,
        pool_id: str,
        session: str,
        offset: int,
        bits: int,
        purpose: str,
        direction: Direction = Direction.WHOLE,
    ) -> KeySlice:
        pool = self.pool(pool_id)
        key_slice = pool.reserve_at(session, offset, bits, purpose, direction)
        self._record(pool_id, session, key_slice, purpose, direction)
        return key_slice

    def release(self, key_slice: KeySlice, session: str) -> None:
        pool = self.pool(key_slice.pool_id)
        pool.release(key_slice)
        self._record(
            key_slice.pool_id,
            session,
            key_slice,
            "release:unused",
            Direction.WHOLE,
        )

    def otp_apply(
        self, data: bytes, key_slice: KeySlice, data_bits: int | None = None
    ) -> bytes:
        return self.pool(key_slice.pool_id).otp_apply(
            data, key_slice, data_bits
        )

    def audit_no_reuse(self) -> None:
        """Cross-pool audit: every pool's reservations are disjoint."""
        for pool in self._pools.values():
            pool.audit_no_overlap()

    @staticmethod
    def read_ledger(path: str) -> list[LedgerEntry]:
        entries = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    entries.append(LedgerEntry.parse(line))
        return entries
