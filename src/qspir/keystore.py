"""Pre-shared key pools with budget reservations and one-time-pad audit.

Every party pair (user and either data centre, or the two data centres)
shares one pool of key material. Sessions reserve their full bit budget up
front; actual pad applications must land inside a reservation, and no key
bit is ever used twice. An append-only ledger with logical timestamps
records every reservation so consumption can be audited against budgets.

User-facing pools are split into two directional halves: outbound traffic
(queries) draws from the first half, inbound traffic (answers) from the
second, so the two directions can never collide. The data-centre pair pool
is allocated as a single undirected region, since its material pads a
shared mask set rather than directional traffic.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field

from .bitops import bytes_for_bits, take_bits, xor_bytes
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
    """Which region of a pool a reservation draws from."""

    SEND = "send"
    RECEIVE = "receive"
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
    direction: Direction
    timestamp: int
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
    """Shared key material for one party pair, with reservation ledger."""

    def __init__(self, pool_id: str, material: bytes):
        if not material:
            raise ConfigurationError(f"pool {pool_id!r} created without material")
        self.pool_id = pool_id
        self._material = bytearray(material)
        self._reservations: list[Reservation] = []
        self._clock = 0
        self._ever_reserved = 0

    @property
    def capacity_bits(self) -> int:
        return 8 * len(self._material)

    @property
    def consumed(self) -> int:
        """Cumulative bits ever reserved (monotone; releases don't rewind)."""
        return self._ever_reserved

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        return tuple(self._reservations)

    def append_material(self, material: bytes) -> None:
        """Extend capacity; only legal before any reservation exists."""
        if self._reservations:
            raise ConfigurationError(
                f"pool {self.pool_id!r} already has reservations; "
                "provision before use"
            )
        self._material.extend(material)

    # -- regions ----------------------------------------------------------

    @property
    def _boundary_bit(self) -> int:
        """First bit of the receive half (send gets the floor on odd size)."""
        return self.capacity_bits // 2

    def region(self, direction: Direction) -> tuple[int, int]:
        """Absolute [start, end) bit range of a direction's region."""
        return self._region(direction)

    def _region(self, direction: Direction) -> tuple[int, int]:
        if direction is Direction.SEND:
            return 0, self._boundary_bit
        if direction is Direction.RECEIVE:
            return self._boundary_bit, self.capacity_bits
        return 0, self.capacity_bits

    def _cursor(self, direction: Direction) -> int:
        start, _ = self._region(direction)
        ends = [
            r.offset + r.bits
            for r in self._reservations
            if r.direction is direction
        ]
        return max(ends, default=start)

    def remaining(self, direction: Direction = Direction.WHOLE) -> int:
        _, end = self._region(direction)
        return end - self._cursor(direction)

    def reserve(
        self,
        session: str,
        bits: int,
        purpose: str,
        direction: Direction = Direction.WHOLE,
    ) -> KeySlice:
        """Claim ``bits`` for a session; fails with the exact deficit."""
        if bits <= 0:
            raise ValidationError(f"reservation of {bits} bits is not positive")
        directional = {
            r.direction for r in self._reservations
        } - {Direction.WHOLE}
        if direction is Direction.WHOLE and directional:
            raise ValidationError(
                f"pool {self.pool_id!r} is partitioned; reserve on a half"
            )
        if direction is not Direction.WHOLE and any(
            r.direction is Direction.WHOLE for r in self._reservations
        ):
            raise ValidationError(
                f"pool {self.pool_id!r} already allocates undirected"
            )
        available = self.remaining(direction)
        if bits > available:
            raise BudgetExhaustedError(
                f"{self.pool_id}:{direction.value}", bits, available
            )
        offset = self._cursor(direction)
        return self._append_reservation(
            session, offset, bits, purpose, direction
        )

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
        their frames arrive in different orders at the two ends.
        """
        if bits <= 0:
            raise ValidationError(f"reservation of {bits} bits is not positive")
        start, end = self._region(direction)
        if offset < start or offset + bits > end:
            raise BudgetExhaustedError(
                f"{self.pool_id}:{direction.value}",
                bits,
                max(0, end - offset),
            )
        for r in self._reservations:
            if r.offset < offset + bits and offset < r.offset + r.bits:
                raise KeyReuseError(
                    f"pool {self.pool_id!r}: range [{offset}, "
                    f"{offset + bits}) overlaps an existing reservation"
                )
        return self._append_reservation(
            session, offset, bits, purpose, direction
        )

    def _append_reservation(
        self,
        session: str,
        offset: int,
        bits: int,
        purpose: str,
        direction: Direction,
    ) -> KeySlice:
        self._clock += 1
        self._reservations.append(
            Reservation(
                session=session,
                offset=offset,
                bits=bits,
                purpose=purpose,
                direction=direction,
                timestamp=self._clock,
            )
        )
        self._ever_reserved += bits
        return KeySlice(pool_id=self.pool_id, offset=offset, bits=bits)

    def release(self, key_slice: KeySlice) -> None:
        """Return an unused reservation's bits to the pool.

        Only reservations whose pad was never applied may be released;
        anything already sent stays consumed forever.
        """
        for i, r in enumerate(self._reservations):
            if r.offset == key_slice.offset and r.bits == key_slice.bits:
                if r.used:
                    raise KeyReuseError(
                        f"pool {self.pool_id!r}: slice at bit {r.offset} "
                        "was applied and cannot be released"
                    )
                del self._reservations[i]
                return
        raise ValidationError(
            f"slice at bit {key_slice.offset} (+{key_slice.bits}) matches "
            f"no reservation in pool {self.pool_id!r}"
        )

    # -- pad application ---------------------------------------------------

    def _matching(self, key_slice: KeySlice) -> list[Reservation]:
        matches = [
            r
            for r in self._reservations
            if r.offset == key_slice.offset and r.bits == key_slice.bits
        ]
        if not matches:
            raise ValidationError(
                f"slice at bit {key_slice.offset} (+{key_slice.bits}) "
                f"matches no reservation in pool {self.pool_id!r}"
            )
        return matches

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
        reservation = next(
            (r for r in self._matching(key_slice) if not r.used), None
        )
        if reservation is None:
            raise KeyReuseError(
                f"slice at bit {key_slice.offset} of pool {self.pool_id!r} "
                "was already applied"
            )
        window = self._material[
            key_slice.offset >> 3:bytes_for_bits(key_slice.offset + data_bits)
        ]
        pad = take_bits(window, key_slice.offset & 7, data_bits)
        pad += b"\x00" * (len(data) - len(pad))
        reservation.used = True
        reservation.consumed_bits = data_bits
        return xor_bytes(data, pad)

    def slice_used(self, key_slice: KeySlice) -> bool:
        """Whether every reservation matching the slice has been applied."""
        return all(r.used for r in self._matching(key_slice))

    def material_digest(self) -> bytes:
        """SHA-256 of the raw material, for provisioning cross-checks."""
        return hashlib.sha256(bytes(self._material)).digest()

    def duplicate_slice_for_test(self, key_slice: KeySlice) -> KeySlice:
        """Test hook: a fresh unused reservation over the same material.

        Exists only so involution and fault-injection tests can decrypt;
        production code paths never re-issue a range.
        """
        reservation = self._matching(key_slice)[0]
        self._clock += 1
        clone = Reservation(
            session=reservation.session + "/test-dup",
            offset=reservation.offset,
            bits=reservation.bits,
            purpose=reservation.purpose + "/test-dup",
            direction=reservation.direction,
            timestamp=self._clock,
        )
        self._reservations.append(clone)
        return KeySlice(
            pool_id=self.pool_id,
            offset=reservation.offset,
            bits=reservation.bits,
        )

    # -- reporting & audit -------------------------------------------------

    def report(self) -> PoolReport:
        return PoolReport(
            pool_id=self.pool_id,
            capacity_bits=self.capacity_bits,
            reserved_bits=sum(r.bits for r in self._reservations),
            consumed_bits=sum(r.consumed_bits for r in self._reservations),
            reservations=list(self._reservations),
        )

    def audit_no_overlap(self) -> None:
        """Assert no two non-test reservations share a key bit."""
        spans = sorted(
            (r.offset, r.offset + r.bits)
            for r in self._reservations
            if not r.purpose.endswith("/test-dup")
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
        pool._restored_consumed = consumed
        return pool

    def replay_ledger(self, entries: list["LedgerEntry"]) -> None:
        """Rebuild reservation state from ledger lines after :meth:`load`."""
        for entry in entries:
            if entry.pool_id != self.pool_id:
                continue
            self._clock = max(self._clock, entry.timestamp)
            if entry.purpose.startswith("release:"):
                self.release(
                    KeySlice(
                        pool_id=self.pool_id,
                        offset=entry.offset,
                        bits=entry.bits,
                    )
                )
                continue
            self._reservations.append(
                Reservation(
                    session=entry.session,
                    offset=entry.offset,
                    bits=entry.bits,
                    purpose=entry.purpose,
                    direction=Direction(entry.direction),
                    timestamp=entry.timestamp,
                )
            )
            self._ever_reserved += entry.bits
        self.audit_no_overlap()
        restored = getattr(self, "_restored_consumed", None)
        if restored is not None and restored != self.consumed:
            raise StorageError(
                f"pool {self.pool_id!r}: file records {restored} reserved "
                f"bits but ledger replays {self.consumed}"
            )


@dataclass(frozen=True)
class LedgerEntry:
    """One append-only ledger line."""

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
        return cls(
            timestamp=int(parts[0]),
            pool_id=parts[1],
            session=parts[2],
            offset=int(parts[3]),
            bits=int(parts[4]),
            purpose=purpose,
            direction=direction,
        )


def create_pool(pool_id: str, material: bytes) -> KeyPool:
    """New pool over fresh material; consumed starts at zero."""
    return KeyPool(pool_id, material)


def reserve_segment(
    pool: KeyPool,
    session: str,
    bits: int,
    purpose: str,
    direction: Direction = Direction.WHOLE,
) -> KeySlice:
    return pool.reserve(session, bits, purpose, direction)


def otp_apply(
    pool: KeyPool,
    data: bytes,
    key_slice: KeySlice,
    data_bits: int | None = None,
) -> bytes:
    return pool.otp_apply(data, key_slice, data_bits)


class DirectionalHalf:
    """A reserve-only view of one direction of a pool."""

    def __init__(self, pool: KeyPool, direction: Direction):
        self.pool = pool
        self.direction = direction

    @property
    def capacity_bits(self) -> int:
        start, end = self.pool._region(self.direction)
        return end - start

    @property
    def remaining(self) -> int:
        return self.pool.remaining(self.direction)

    def reserve(self, session: str, bits: int, purpose: str) -> KeySlice:
        return self.pool.reserve(session, bits, purpose, self.direction)


def partition_directional(
    pool: KeyPool,
) -> tuple[DirectionalHalf, DirectionalHalf]:
    """(send half, receive half); send gets the floor of an odd capacity."""
    return (
        DirectionalHalf(pool, Direction.SEND),
        DirectionalHalf(pool, Direction.RECEIVE),
    )


def ledger_report(pool: KeyPool) -> PoolReport:
    return pool.report()


class KeyStore:
    """A party's pools plus the shared append-only ledger file."""

    def __init__(self, ledger_path: str | None = None):
        self._pools: dict[str, KeyPool] = {}
        self._ledger_path = ledger_path
        self._entries: list[LedgerEntry] = []
        self._clock = 0

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def add_pool(self, pool: KeyPool) -> KeyPool:
        if pool.pool_id in self._pools:
            raise ConfigurationError(f"duplicate pool id {pool.pool_id!r}")
        self._pools[pool.pool_id] = pool
        return pool

    def create_pool(self, pool_id: str, material: bytes) -> KeyPool:
        return self.add_pool(create_pool(pool_id, material))

    def pool(self, pool_id: str) -> KeyPool:
        try:
            return self._pools[pool_id]
        except KeyError:
            raise ConfigurationError(f"unknown pool {pool_id!r}") from None

    def pools(self) -> tuple[KeyPool, ...]:
        return tuple(self._pools.values())

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
            with open(self._ledger_path, "a") as fh:
                fh.write(entry.format() + "\n")

    def reserve(
        self,
        pool_id: str,
        session: str,
        bits: int,
        purpose: str,
        direction: Direction = Direction.WHOLE,
    ) -> KeySlice:
        pool = self.pool(pool_id)
        key_slice = pool.reserve(session, bits, purpose, direction)
        self._record(pool_id, session, key_slice, purpose, direction)
        return key_slice

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
