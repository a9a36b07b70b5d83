"""Wire frame format shared by the in-process and socket transports.

Layout, all fields big-endian where multi-byte:

    magic "QSPR" (4) | version (1) | msg_type (1) | session_id (16) |
    payload_len (4)  | payload

A CLOSE frame with empty payload is exactly 26 bytes. ERROR frames carry a
single reason-code byte and never any key-derived data.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from ..errors import FramingError

MAGIC = b"QSPR"
VERSION = 1
HEADER_LEN = 26
_HEADER = ">4sBB16sI"


class MsgType(enum.IntEnum):
    QUERY = 0x01
    ANSWER = 0x02
    PROVISION = 0x03
    CLOSE = 0x04
    ERROR = 0x05


class ErrorReason(enum.IntEnum):
    """Single-byte ERROR payload codes."""

    BUDGET_EXHAUSTED = 0x01
    MALFORMED_QUERY = 0x02
    NOT_PROVISIONED = 0x03
    BAD_PHASE = 0x04
    BAD_PARAMETERS = 0x05


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    session_id: bytes
    payload: bytes = b""

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise FramingError(
                f"session id must be 16 bytes, got {len(self.session_id)}"
            )


def encode_frame(frame: Frame) -> bytes:
    header = struct.pack(
        _HEADER,
        MAGIC,
        VERSION,
        int(frame.msg_type),
        frame.session_id,
        len(frame.payload),
    )
    return header + frame.payload


def decode_header(header: bytes) -> tuple[MsgType, bytes, int]:
    """Check a ``HEADER_LEN``-byte header; (type, session id, payload length).

    Every field but the length is checked here, so a stream reader can
    refuse a bad frame before it reads the payload the header claims.
    """
    magic, version, msg_type, session_id, payload_len = struct.unpack(
        _HEADER, header
    )
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FramingError(f"unsupported frame version {version}")
    try:
        kind = MsgType(msg_type)
    except ValueError:
        raise FramingError(f"unknown message type {msg_type:#x}") from None
    return kind, session_id, payload_len


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame; trailing bytes are a framing error."""
    if len(data) < HEADER_LEN:
        raise FramingError(
            f"truncated frame header: {len(data)} of {HEADER_LEN} bytes"
        )
    kind, session_id, payload_len = decode_header(data[:HEADER_LEN])
    if len(data) != HEADER_LEN + payload_len:
        raise FramingError(
            f"payload length {payload_len} does not match "
            f"{len(data) - HEADER_LEN} bytes present"
        )
    return Frame(
        msg_type=kind, session_id=session_id, payload=data[HEADER_LEN:]
    )


def error_frame(session_id: bytes, reason: ErrorReason) -> Frame:
    return Frame(
        msg_type=MsgType.ERROR,
        session_id=session_id,
        payload=bytes([int(reason)]),
    )


def error_reason(frame: Frame) -> ErrorReason:
    if frame.msg_type is not MsgType.ERROR or len(frame.payload) != 1:
        raise FramingError("not a well-formed ERROR frame")
    try:
        return ErrorReason(frame.payload[0])
    except ValueError:
        raise FramingError(
            f"unknown error reason {frame.payload[0]:#x}"
        ) from None
