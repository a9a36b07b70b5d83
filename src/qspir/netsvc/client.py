"""User-side retrieval session across the two data centres.

A retrieval reserves its full key budget on both user pools up front,
announces the session with PROVISION, pads and sends the two query
triples, decrypts the two masked answer bundles, and combines them into
the requested record. If either data centre is unreachable or returns an
ERROR frame, the retrieval aborts: pads already applied stay consumed
forever, everything unsent is released back to its pool. A client over a
store that replayed its ledger resumes after the highest session index the
ledger names, so it never re-reserves an earlier session's slices.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable

from ..bitops import bytes_for_bits
from ..errors import ProtocolError, RangeError, SpirError
from ..keystore import KeySlice, KeyStore
from ..masking import deserialize_masked_bundle, unmask_reconstruct
from ..protocol import encode_query, gen_queries, sample_user_randomness
from ..rng import BitSource
from .frames import ErrorReason, Frame, MsgType, error_reason
from .sessions import (
    SessionGeometry,
    encode_provision,
    new_session_id,
    reserve_user_slices,
)

Transport = Callable[[Frame], list[Frame]]


@dataclass(frozen=True)
class DataCentreLink:
    """How the user reaches one data centre and which pool pads the link."""

    name: str
    pool_id: str
    request: Transport


@dataclass(frozen=True)
class RetrievalResult:
    value: bytes
    record: bytes
    padding: bool
    index: int


class UserClient:
    """Issues numbered retrieval sessions against a fixed database shape."""

    def __init__(
        self,
        store: KeyStore,
        geometry: SessionGeometry,
        dc1: DataCentreLink,
        dc2: DataCentreLink,
        rng: BitSource | None = None,
    ):
        self.store = store
        self.geometry = geometry
        self.dc1 = dc1
        self.dc2 = dc2
        self._rng = rng
        # Resume after every session the store's (replayed) ledger names.
        self._next_index = 1 + max(
            (
                int(e.session.removeprefix("session-"))
                for e in store.entries
                if e.session.startswith("session-")
            ),
            default=-1,
        )

    def _release_unused(self, session: str, slices: list[KeySlice]) -> None:
        for key_slice in slices:
            pool = self.store.pool(key_slice.pool_id)
            if not pool.slice_used(key_slice):
                self.store.release(key_slice, session)

    def _expect(
        self, link: DataCentreLink, frame: Frame, kinds: tuple[MsgType, ...]
    ) -> list[Frame]:
        replies = link.request(frame)
        if not replies:
            raise ProtocolError(f"{link.name}: no reply")
        if replies[0].msg_type is MsgType.ERROR:
            reason = error_reason(replies[0])
            raise ProtocolError(f"{link.name}: remote error {reason.name}")
        got = tuple(r.msg_type for r in replies)
        if got != kinds:
            raise ProtocolError(
                f"{link.name}: expected {[k.name for k in kinds]}, "
                f"got {[k.name for k in got]}"
            )
        return replies

    def retrieve(
        self,
        x: int,
        rng: BitSource | None = None,
        record_length: int | None = None,
        n: int | None = None,
    ) -> RetrievalResult:
        """Fetch entry ``x``; ``n`` marks indices past the database as pad."""
        geom = self.geometry
        m = geom.m
        if not 0 <= x < m**3:
            raise RangeError(
                f"index {x} outside the padded cube of {m**3} entries"
            )
        true_n = geom.n if n is None else n
        index = self._next_index
        self._next_index += 1
        if rng is None:
            rng = (
                self._rng.spawn(f"session-{index}")
                if self._rng is not None
                else BitSource(seed=secrets.token_bytes(32))
            )
        sid = new_session_id(index, rng)
        session = f"session-{index}"

        links = (self.dc1, self.dc2)
        all_slices: list[KeySlice] = []
        slices = {}
        try:
            for link in links:
                s = reserve_user_slices(
                    self.store, link.pool_id, session, geom, index
                )
                slices[link.name] = s
                all_slices.extend([s.send, s.receive])

            provision = encode_provision(geom.n, geom.record_bits, index)
            for link in links:
                self._expect(
                    link,
                    Frame(MsgType.PROVISION, sid, provision),
                    (MsgType.PROVISION,),
                )

            randomness = sample_user_randomness(m, rng)
            q1, q2 = gen_queries(x, randomness, m)
            bundles = []
            for link, query in zip(links, (q1, q2)):
                payload = self.store.otp_apply(
                    encode_query(query),
                    slices[link.name].send,
                    geom.query_bits,
                )
                answer, _close = self._expect(
                    link,
                    Frame(MsgType.QUERY, sid, payload),
                    (MsgType.ANSWER, MsgType.CLOSE),
                )
                if len(answer.payload) != bytes_for_bits(geom.answer_bits):
                    raise ProtocolError(
                        f"{link.name}: answer payload of "
                        f"{len(answer.payload)} bytes, expected "
                        f"{bytes_for_bits(geom.answer_bits)}"
                    )
                plain = self.store.otp_apply(
                    answer.payload,
                    slices[link.name].receive,
                    geom.answer_bits,
                )
                bundles.append(
                    deserialize_masked_bundle(plain, m, geom.record_bits)
                )
        except SpirError:
            self._release_unused(session, all_slices)
            raise

        value = unmask_reconstruct(bundles[0], bundles[1], x)
        record = value if record_length is None else value[:record_length]
        return RetrievalResult(
            value=value,
            record=record,
            padding=x >= true_n,
            index=index,
        )
