"""Data-centre daemon: answers masked queries out of its key pools.

One daemon serves one database copy. Per session it reserves the full key
budget at PROVISION time (user send/receive slices plus the pair-pool mask
slice, all scheduled by session index), then on QUERY decrypts the pad,
computes the answer bundle, masks it with the session's mask set, encrypts
the serialized bundle with the receive slice, and emits ANSWER then
CLOSE. Every failure aborts before any answer bits leave: the reply is a
plaintext ERROR carrying a reason code, and unused reservations are
returned to their pools.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from ..bitops import bytes_for_bits
from ..cube import Database
from ..errors import BudgetExhaustedError, KeyReuseError, SpirError
from ..keystore import KeySlice, KeyStore
from ..masking import derive_mask_set, mask_bundle, serialize_masked_bundle
from ..protocol import compute_answer_bundle, decode_query
from .frames import ErrorReason, Frame, MsgType, error_frame
from .sessions import (
    SessionGeometry,
    SessionSlices,
    decode_provision,
    encode_provision,
    reserve_mask_slice,
    reserve_user_slices,
    session_index,
)


class Phase(enum.Enum):
    INIT = "init"
    QUERIED = "queried"
    CLOSED = "closed"


@dataclass
class SessionState:
    session_id: bytes
    index: int
    geometry: SessionGeometry
    slices: SessionSlices
    mask_slice: KeySlice
    phase: Phase = Phase.INIT
    aborted: bool = field(default=False)


class DataCentreDaemon:
    """Frame handler for one data centre (role 1 or 2)."""

    def __init__(
        self,
        name: str,
        role: int,
        cube: Database,
        store: KeyStore,
        user_pool_id: str,
        pair_pool_id: str,
    ):
        self.name = name
        self.role = role
        self.cube = cube
        self.store = store
        self.user_pool_id = user_pool_id
        self.pair_pool_id = pair_pool_id
        self.geometry = SessionGeometry.for_database(
            cube.n, cube.record_bits
        )
        self.sessions: dict[bytes, SessionState] = {}
        self._lock = threading.Lock()

    # -- helpers -----------------------------------------------------------

    def pair_digest(self) -> bytes:
        """Digest of the pair-pool material, for provisioning cross-checks."""
        return self.store.pool(self.pair_pool_id).material_digest()

    def _session_name(self, index: int) -> str:
        return f"session-{index}"

    def _release_unused(self, state: SessionState) -> None:
        name = self._session_name(state.index)
        for key_slice in (
            state.slices.send,
            state.slices.receive,
            state.mask_slice,
        ):
            pool = self.store.pool(key_slice.pool_id)
            if not pool.slice_used(key_slice):
                self.store.release(key_slice, name)

    def _close(self, state: SessionState) -> None:
        # Release only on the transition into CLOSED: a later frame on the
        # same session must not return the slices a second time.
        if state.phase is not Phase.CLOSED:
            state.phase = Phase.CLOSED
            self._release_unused(state)

    def _abort(
        self, state: SessionState | None, sid: bytes, reason: ErrorReason
    ) -> list[Frame]:
        if state is not None:
            state.aborted = True
            self._close(state)
        return [error_frame(sid, reason)]

    # -- frame dispatch ----------------------------------------------------

    def handle_frame(self, frame: Frame, src: str) -> list[Frame]:
        with self._lock:
            if frame.msg_type is MsgType.PROVISION:
                return self._handle_provision(frame, src)
            if frame.msg_type is MsgType.QUERY:
                return self._handle_query(frame)
            if frame.msg_type is MsgType.CLOSE:
                state = self.sessions.get(frame.session_id)
                if state is not None:
                    self._close(state)
                return []
            return [error_frame(frame.session_id, ErrorReason.BAD_PHASE)]

    def _handle_provision(self, frame: Frame, src: str) -> list[Frame]:
        sid = frame.session_id
        if len(frame.payload) == 32:
            # Pair-pool digest cross-check from the other data centre
            # during the provisioning phase.
            if frame.payload == self.pair_digest():
                return [Frame(MsgType.PROVISION, sid, frame.payload)]
            return [error_frame(sid, ErrorReason.BAD_PARAMETERS)]
        try:
            n, record_bits, index = decode_provision(frame.payload)
        except SpirError:
            return [error_frame(sid, ErrorReason.BAD_PARAMETERS)]
        if (
            n != self.cube.n
            or record_bits != self.cube.record_bits
            or index != session_index(sid)
            or sid in self.sessions
        ):
            return [error_frame(sid, ErrorReason.BAD_PARAMETERS)]
        name = self._session_name(index)
        reserved: list[KeySlice] = []
        try:
            slices = reserve_user_slices(
                self.store, self.user_pool_id, name, self.geometry, index
            )
            reserved.extend([slices.send, slices.receive])
            mask_slice = reserve_mask_slice(
                self.store, self.pair_pool_id, name, self.geometry, index
            )
        except (BudgetExhaustedError, KeyReuseError):
            for key_slice in reserved:
                self.store.release(key_slice, name)
            return [error_frame(sid, ErrorReason.BUDGET_EXHAUSTED)]
        self.sessions[sid] = SessionState(
            session_id=sid,
            index=index,
            geometry=self.geometry,
            slices=slices,
            mask_slice=mask_slice,
        )
        return [Frame(MsgType.PROVISION, sid, encode_provision(
            n, record_bits, index
        ))]

    def _handle_query(self, frame: Frame) -> list[Frame]:
        sid = frame.session_id
        state = self.sessions.get(sid)
        if state is None:
            return [error_frame(sid, ErrorReason.NOT_PROVISIONED)]
        if state.phase is not Phase.INIT:
            return self._abort(state, sid, ErrorReason.BAD_PHASE)
        geom = state.geometry
        if len(frame.payload) != bytes_for_bits(geom.query_bits):
            return self._abort(state, sid, ErrorReason.MALFORMED_QUERY)

        try:
            plain = self.store.otp_apply(
                frame.payload, state.slices.send, geom.query_bits
            )
            query = decode_query(plain, geom.m)
            bundle = compute_answer_bundle(self.cube, query)

            mask_material = self.store.otp_apply(
                bytes(bytes_for_bits(geom.derive_bits)),
                state.mask_slice,
                geom.derive_bits,
            )
            masks = derive_mask_set(mask_material, geom.m, geom.record_bits)
            masked = mask_bundle(bundle, query, self.role, masks)
            payload = serialize_masked_bundle(masked, geom.record_bits)
            ciphertext = self.store.otp_apply(
                payload, state.slices.receive, geom.answer_bits
            )
        except SpirError:
            return self._abort(state, sid, ErrorReason.MALFORMED_QUERY)
        state.phase = Phase.CLOSED
        return [
            Frame(MsgType.ANSWER, sid, ciphertext),
            Frame(MsgType.CLOSE, sid),
        ]
