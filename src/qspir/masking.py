"""Symmetric masking of answer bundles with shared one-time-pad key.

An unmasked bundle reveals far more than the queried entry (every component
is a subcube XOR of the database). Before replying, each database blinds its
bundle with key material shared *between the two databases*, arranged so
that the honest user's eight-term combination cancels every pad while any
other combination stays fully padded.

Scheme, with G_d(T; table) = XOR of table[d][i] over positions i in the
m-bit membership set T (zero for the empty set):

  database 1 (query triple Q1)          database 2 (query triple Q2)
  A0'       = A0 xor a                  A0'       = A0 xor b
  flips'[d][p] = flips[d][p]            flips'[d][p] = flips[d][p]
      xor t_a[d]                            xor t_b[d]
      xor G_d(Q1_d ^ {p}; r)               xor G_d(Q2_d ^ {p}; r')
  tags[d]   = G_d(Q1_d; r') xor u1[d]   tags[d]   = G_d(Q2_d; r) xor u2[d]

  b = a xor XOR_d (t_a[d] xor t_b[d] xor u1[d] xor u2[d])

For honest queries Q2_d = Q1_d ^ {x_d}, so database 1's flip pad
G_d(Q1_d ^ {x_d}; r) equals the G-part of database 2's tag (and vice
versa); the t/u residues telescope into a xor b. Every pad cancels and the
combination below yields the plain entry.

The tag blinds u1, u2 are essential: without them the tags are bare
G-values over the *same* tables that pad the flips, and XOR-ing one
database's tag with all m of its flips in a dimension cancels the table
whenever the membership set has even parity, exposing an unpadded subcube
XOR. With the blinds, any GF(2) combination of one session's components
other than the honest one is a fresh one-time pad, and each database's
single view is exactly uniform regardless of database contents.

Per-session key consumption is (6m + 13)L bits: tables r and r' (3m L-bit
words each), t_a, t_b, u1, u2 (three words each), and a. b is derived, not
drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitops import (
    bytes_for_bits,
    mask_to_positions,
    take_bits,
    xor_bytes,
    xor_many,
)
from .cube import cube_dims, index_to_coords
from .errors import BudgetExhaustedError, ValidationError
from .protocol import AnswerBundle, QueryTriple

#: L-bit words per masked bundle: A0', 3m flips, 3 tags.
BUNDLE_WORDS_PER_M = 3


@dataclass(frozen=True)
class KeyBudget:
    """Per-session key reservations, in bits, for one retrieval."""

    user_dc_bits: int
    dc_dc_bits: int


@dataclass(frozen=True)
class MaskSet:
    """All pads for one session, shared by the two databases.

    ``r`` and ``r_prime`` are per-dimension tables of m L-bit words;
    ``t_a``, ``t_b``, ``u1``, ``u2`` hold one word per dimension; ``a`` is
    the first database's A0 pad and ``b`` the derived second-database pad.
    """

    m: int
    record_bits: int
    r: tuple[tuple[bytes, ...], ...]
    r_prime: tuple[tuple[bytes, ...], ...]
    t_a: tuple[bytes, bytes, bytes]
    t_b: tuple[bytes, bytes, bytes]
    u1: tuple[bytes, bytes, bytes]
    u2: tuple[bytes, bytes, bytes]
    a: bytes
    b: bytes


@dataclass(frozen=True)
class MaskedAnswerBundle:
    """A database's padded reply: A0', 3m padded flips, 3 blinded tags."""

    a0: bytes
    flips: tuple[tuple[bytes, ...], ...]
    tags: tuple[bytes, bytes, bytes]

    @property
    def m(self) -> int:
        return len(self.flips[0])


def mask_material_bits(m: int, record_bits: int) -> int:
    """Shared database-database key bits consumed per session."""
    return (6 * m + 13) * record_bits


def answer_payload_bits(m: int, record_bits: int) -> int:
    """Bits in a serialized masked bundle: (3m + 4) L-bit words."""
    return (3 * m + 4) * record_bits


def required_key_budget(n: int, record_bits: int) -> KeyBudget:
    """Reserved key bits per retrieval session on each link class.

    The user-database budget covers the 3m query bits plus three
    ceil(log2 m)-bit index hints on the send slice and the (3m + 4)L answer
    words plus 3L slack on the receive slice. The database-database budget
    is 3L per flip word plus 10L fixed overhead, a strict superset of the
    (6m + 13)L actually drawn.
    """
    m = cube_dims(n)
    log_m = (m - 1).bit_length()
    user_dc = 7 * record_bits + 3 * log_m + (3 + 3 * record_bits) * m
    dc_dc = 9 * record_bits * m + 10 * record_bits
    return KeyBudget(user_dc_bits=user_dc, dc_dc_bits=dc_dc)


def derive_mask_set(material: bytes, m: int, record_bits: int) -> MaskSet:
    """Slice one session's pads out of shared key material.

    Draw order is fixed: r (dimension-major, position-minor), r', t_a,
    t_b, u1, u2, a. Raises when the material cannot cover the full set.
    """
    need = mask_material_bits(m, record_bits)
    if 8 * len(material) < need:
        raise BudgetExhaustedError("mask-set", need, 8 * len(material))
    offset = 0

    def draw() -> bytes:
        nonlocal offset
        word = take_bits(material, offset, record_bits)
        offset += record_bits
        return word

    def draw_table() -> tuple[tuple[bytes, ...], ...]:
        return tuple(
            tuple(draw() for _ in range(m)) for _ in range(3)
        )

    def draw_triple() -> tuple[bytes, bytes, bytes]:
        return (draw(), draw(), draw())

    r = draw_table()
    r_prime = draw_table()
    t_a = draw_triple()
    t_b = draw_triple()
    u1 = draw_triple()
    u2 = draw_triple()
    a = draw()
    b = a
    for d in range(3):
        b = xor_bytes(b, t_a[d])
        b = xor_bytes(b, t_b[d])
        b = xor_bytes(b, u1[d])
        b = xor_bytes(b, u2[d])
    return MaskSet(
        m=m,
        record_bits=record_bits,
        r=r,
        r_prime=r_prime,
        t_a=t_a,
        t_b=t_b,
        u1=u1,
        u2=u2,
        a=a,
        b=b,
    )


def _g(table: tuple[tuple[bytes, ...], ...], d: int, members: int, m: int,
       nbytes: int) -> bytes:
    """G_d(members; table): XOR of table words at the set positions."""
    return xor_many(
        (table[d][p] for p in mask_to_positions(members, m)), nbytes
    )


def mask_bundle(
    bundle: AnswerBundle,
    query: QueryTriple,
    role: int,
    masks: MaskSet,
) -> MaskedAnswerBundle:
    """Pad one database's bundle; ``role`` is 1 or 2 per the scheme above.

    G is XOR-linear, so G_d(Q_d ^ {p}) = G_d(Q_d) xor table[d][p]: each
    dimension costs one G-sum, and every flip pad is that shared base
    xor one table word. Work is O(m) words per dimension, not O(m^2).
    """
    m = masks.m
    if role not in (1, 2):
        raise ValidationError(f"role must be 1 or 2, got {role}")
    if query.m != m or bundle.m != m:
        raise ValidationError(
            f"mask set sized for m={m}, query m={query.m}, "
            f"bundle m={bundle.m}"
        )
    nbytes = bytes_for_bits(masks.record_bits)
    if len(bundle.a0) != nbytes:
        raise ValidationError(
            f"bundle words are {len(bundle.a0)} bytes, masks expect {nbytes}"
        )
    if role == 1:
        a0_pad, t, flip_table, tag_table, blind = (
            masks.a, masks.t_a, masks.r, masks.r_prime, masks.u1
        )
    else:
        a0_pad, t, flip_table, tag_table, blind = (
            masks.b, masks.t_b, masks.r_prime, masks.r, masks.u2
        )
    bases = [
        xor_bytes(_g(flip_table, d, query.dim(d), m, nbytes), t[d])
        for d in range(3)
    ]
    flips = tuple(
        tuple(
            xor_many(
                (bundle.flips[d][p], bases[d], flip_table[d][p]), nbytes
            )
            for p in range(m)
        )
        for d in range(3)
    )
    tags = tuple(
        xor_bytes(_g(tag_table, d, query.dim(d), m, nbytes), blind[d])
        for d in range(3)
    )
    return MaskedAnswerBundle(
        a0=xor_bytes(bundle.a0, a0_pad), flips=flips, tags=tags
    )


def unmask_reconstruct(
    mb1: MaskedAnswerBundle, mb2: MaskedAnswerBundle, x: int
) -> bytes:
    """Honest combination: entries A0', flips'[d][x_d], and tags of both."""
    m = mb1.m
    if mb2.m != m:
        raise ValidationError(f"bundle sizes disagree: m={m} vs m={mb2.m}")
    coords = index_to_coords(x, m)
    acc = xor_bytes(mb1.a0, mb2.a0)
    for d in range(3):
        acc = xor_bytes(acc, mb1.flips[d][coords[d]])
        acc = xor_bytes(acc, mb2.flips[d][coords[d]])
        acc = xor_bytes(acc, mb1.tags[d])
        acc = xor_bytes(acc, mb2.tags[d])
    return acc


def _bundle_words(mb: MaskedAnswerBundle) -> list[bytes]:
    """Serialization order: A0', flips dimension-major, tags 1..3."""
    words = [mb.a0]
    for d in range(3):
        words.extend(mb.flips[d])
    words.extend(mb.tags)
    return words


def serialize_masked_bundle(
    mb: MaskedAnswerBundle, record_bits: int
) -> bytes:
    """Bit-pack the (3m + 4) L-bit words little-endian, zero-padded."""
    acc = 0
    offset = 0
    for word in _bundle_words(mb):
        acc |= int.from_bytes(word, "little") << offset
        offset += record_bits
    return acc.to_bytes(bytes_for_bits(offset), "little")


def deserialize_masked_bundle(
    payload: bytes, m: int, record_bits: int
) -> MaskedAnswerBundle:
    """Inverse of :func:`serialize_masked_bundle`; strict on size and pad."""
    total_bits = answer_payload_bits(m, record_bits)
    if len(payload) != bytes_for_bits(total_bits):
        raise ValidationError(
            f"answer payload is {len(payload)} bytes, expected "
            f"{bytes_for_bits(total_bits)} for m={m}, L={record_bits}"
        )
    if total_bits % 8 and payload[-1] >> (total_bits % 8):
        raise ValidationError("answer payload sets bits beyond its width")
    words = [
        take_bits(payload, i * record_bits, record_bits)
        for i in range(3 * m + 4)
    ]
    flips = tuple(
        tuple(words[1 + d * m + p] for p in range(m)) for d in range(3)
    )
    return MaskedAnswerBundle(
        a0=words[0], flips=flips, tags=tuple(words[1 + 3 * m:])
    )
