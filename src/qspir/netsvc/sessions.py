"""Per-session key-slice geometry shared by client and daemons.

Each retrieval session is numbered by a monotone index carried in the
first eight bytes of the 16-byte session id (the rest is random). All
parties compute identical slice offsets from the index alone, so two
concurrent sessions stay aligned on both ends of every pool even when
their frames arrive in different orders.

On each user-database pool, session i owns one contiguous slot of S =
send + receive bits starting at i*S: the send slice of 3m + 3*ceil(log2 m)
bits (the query pad plus index-hint headroom), then directly after it the
receive slice of (3m + 7)L bits (the answer pad plus 3L slack). On the pair
pool it owns (9m + 10)L bits of mask material at i times that. Only the
leading 3m, (3m + 4)L and (6m + 13)L bits respectively are ever applied;
the remainder is reported as reserved-but-unconsumed.
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass

from ..cube import cube_dims
from ..errors import FramingError, SpirError
from ..keystore import KeySlice, KeyStore
from ..masking import answer_payload_bits, mask_material_bits


@dataclass(frozen=True)
class SessionGeometry:
    """Slice sizes (bits) for one (n, record_bits) database."""

    n: int
    record_bits: int
    m: int

    @classmethod
    def for_database(cls, n: int, record_bits: int) -> "SessionGeometry":
        return cls(n=n, record_bits=record_bits, m=cube_dims(n))

    @property
    def log_m(self) -> int:
        return (self.m - 1).bit_length()

    @property
    def query_bits(self) -> int:
        """Bits actually padded onto the wire query."""
        return 3 * self.m

    @property
    def answer_bits(self) -> int:
        """Bits actually padded onto the wire answer."""
        return answer_payload_bits(self.m, self.record_bits)

    @property
    def derive_bits(self) -> int:
        """Mask-material bits actually drawn per session."""
        return mask_material_bits(self.m, self.record_bits)

    @property
    def send_slice_bits(self) -> int:
        return 3 * self.m + 3 * self.log_m

    @property
    def receive_slice_bits(self) -> int:
        return (3 * self.m + 7) * self.record_bits

    @property
    def mask_slice_bits(self) -> int:
        return (9 * self.m + 10) * self.record_bits

    def send_offset(self, index: int) -> int:
        return index * (self.send_slice_bits + self.receive_slice_bits)

    def receive_offset(self, index: int) -> int:
        return self.send_offset(index) + self.send_slice_bits

    def mask_offset(self, index: int) -> int:
        return index * self.mask_slice_bits


@dataclass(frozen=True)
class SessionSlices:
    """One party's reservations for one session on one user pool."""

    send: KeySlice
    receive: KeySlice


def new_session_id(index: int, rng=None) -> bytes:
    """16-byte session id: 8-byte big-endian index plus 8 random bytes.

    ``rng`` (anything with ``take_bytes``) makes the id deterministic for
    seeded runs; the default draws from the OS entropy pool.
    """
    suffix = rng.take_bytes(8) if rng is not None else secrets.token_bytes(8)
    return struct.pack(">Q", index) + suffix


def session_index(session_id: bytes) -> int:
    if len(session_id) != 16:
        raise FramingError(
            f"session id must be 16 bytes, got {len(session_id)}"
        )
    return struct.unpack(">Q", session_id[:8])[0]


def reserve_user_slices(
    store: KeyStore,
    pool_id: str,
    session: str,
    geometry: SessionGeometry,
    index: int,
) -> SessionSlices:
    """Reserve the send and receive slices for one session, by index.

    All or nothing: if the receive slice cannot be reserved, the send
    slice is released again before the error propagates.
    """
    send = store.reserve_at(
        pool_id,
        session,
        geometry.send_offset(index),
        geometry.send_slice_bits,
        "query-otp",
    )
    try:
        receive = store.reserve_at(
            pool_id,
            session,
            geometry.receive_offset(index),
            geometry.receive_slice_bits,
            "answer-otp",
        )
    except SpirError:
        store.release(send, session)
        raise
    return SessionSlices(send=send, receive=receive)


def reserve_mask_slice(
    store: KeyStore,
    pool_id: str,
    session: str,
    geometry: SessionGeometry,
    index: int,
) -> KeySlice:
    return store.reserve_at(
        pool_id,
        session,
        geometry.mask_offset(index),
        geometry.mask_slice_bits,
        "mask-set",
    )


PROVISION_FORMAT = ">IIQ"


def encode_provision(n: int, record_bits: int, index: int) -> bytes:
    """PROVISION payload: public session parameters (n, L) plus the index."""
    return struct.pack(PROVISION_FORMAT, n, record_bits, index)


def decode_provision(payload: bytes) -> tuple[int, int, int]:
    if len(payload) != struct.calcsize(PROVISION_FORMAT):
        raise FramingError(
            f"provision payload is {len(payload)} bytes, expected "
            f"{struct.calcsize(PROVISION_FORMAT)}"
        )
    return struct.unpack(PROVISION_FORMAT, payload)
