"""Honest-retrieval core of the two-database cube scheme.

A query to one database is a triple of m-bit membership vectors selecting a
subcube; the answer is the XOR of the selected cells plus, for every
dimension d and position p, the XOR with dimension d's vector toggled at p.
The second database receives the same triple with bit x_d toggled in each
dimension, so the eight subcube sums surrounding entry x telescope to the
entry itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bytes_for_bits, mask_to_positions
from .cube import Database, index_to_coords
from .errors import RangeError, ValidationError
from .rng import BitSource


@dataclass(frozen=True)
class UserRandomness:
    """Three uniform m-bit vectors, drawn independently of the index."""

    s1: int
    s2: int
    s3: int
    m: int

    @property
    def vectors(self) -> tuple[int, int, int]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class QueryTriple:
    """Three m-bit membership vectors, one per cube dimension."""

    t1: int
    t2: int
    t3: int
    m: int

    def __post_init__(self):
        limit = 1 << self.m
        for t in (self.t1, self.t2, self.t3):
            if not 0 <= t < limit:
                raise ValidationError(
                    f"membership vector {t:#x} does not fit {self.m} bits"
                )

    @property
    def vectors(self) -> tuple[int, int, int]:
        return (self.t1, self.t2, self.t3)

    def dim(self, d: int) -> int:
        """Dimension ``d`` (0-based) membership vector."""
        return self.vectors[d]


@dataclass(frozen=True)
class AnswerBundle:
    """One database's unmasked reply: ``1 + 3m`` components of L bits.

    ``a0`` is the queried subcube XOR as bytes. ``flips`` is a ``(3, m,
    ceil(L/8))`` uint8 array whose row ``flips[d][p]`` is the same XOR with
    dimension ``d``'s membership vector toggled at position ``p``.
    """

    a0: bytes
    flips: np.ndarray

    @property
    def m(self) -> int:
        return len(self.flips[0])


def sample_user_randomness(m: int, rng: BitSource) -> UserRandomness:
    """Draw the 3m uniform query bits."""
    if m < 1:
        raise RangeError(f"cube side must be positive, got {m}")
    return UserRandomness(
        s1=rng.take_int(m), s2=rng.take_int(m), s3=rng.take_int(m), m=m
    )


def gen_queries(
    x: int, randomness: UserRandomness, m: int
) -> tuple[QueryTriple, QueryTriple]:
    """Query pair for entry ``x``: (uniform triple, same with x toggled).

    The first query is a function of the randomness alone; the second
    toggles bit ``x_d`` of dimension ``d``'s vector for each dimension.
    """
    if randomness.m != m:
        raise ValidationError(
            f"randomness drawn for m={randomness.m}, queries need m={m}"
        )
    if not 0 <= x < m**3:
        raise RangeError(f"index {x} outside cube of side {m}")
    coords = index_to_coords(x, m)
    q1 = QueryTriple(*randomness.vectors, m=m)
    toggled = tuple(s ^ (1 << c) for s, c in zip(randomness.vectors, coords))
    q2 = QueryTriple(*toggled, m=m)
    return q1, q2


def _xor_planes(out: np.ndarray, planes) -> None:
    """Overwrite ``out`` with the XOR of ``planes`` (zeros if none)."""
    out.fill(0)
    for plane in planes:
        np.bitwise_xor(out, plane, out=out)


def compute_answer_bundle(cube: Database, query: QueryTriple) -> AnswerBundle:
    """All ``1 + 3m`` subcube XOR components for one received query.

    With S1, S2, S3 the positions set in the three membership vectors, one
    pass over the cube forms two partial sums in the cube's scratch planes:

    * ``T[j,k] = XOR_{i in S1} cell[i,j,k]`` from the |S1| contiguous
      i-planes, and
    * ``U[i,k] = XOR_{j in S2} cell[i,j,k]`` from the |S2| j-slices.

    For uniform vectors each pass reads half the cube, so together about
    one read of the cube and no copies of it.  Every toggle sum follows
    from them in O(m^2) more work: ``X0[i] = XOR_{k in S3} U[i,k]``,
    ``X1[j] = XOR_{k in S3} T[j,k]``, ``X2[k] = XOR_{j in S2} T[j,k]``;
    then ``a0 = XOR_{i in S1} X0[i]`` and ``flips[d][p] = a0 ^ X_d[p]``.
    An empty set contributes zeros.  The planes are shared by every caller
    of the cube, so they are filled and read under its workspace lock.
    """
    if query.m != cube.m:
        raise ValidationError(
            f"query sized for m={query.m}, cube has m={cube.m}"
        )
    m, cells = cube.m, cube.cells
    s1, s2, s3 = (mask_to_positions(v, m) for v in query.vectors)
    sums = np.empty((3, m, cube.record_bytes), np.uint8)
    with cube.workspace() as (t, u):
        _xor_planes(t, (cells[i] for i in s1))
        _xor_planes(u, (cells[:, j] for j in s2))
        _xor_planes(sums[0], (u[:, k] for k in s3))
        _xor_planes(sums[1], (t[:, k] for k in s3))
        _xor_planes(sums[2], (t[j] for j in s2))
    a0 = np.bitwise_xor.reduce(sums[0][s1], axis=0)
    np.bitwise_xor(sums, a0, out=sums)
    return AnswerBundle(a0=a0.tobytes(), flips=sums)


def reconstruct_plain(
    ans1: AnswerBundle, ans2: AnswerBundle, x: int
) -> bytes:
    """Eight-term reconstruction of entry ``x`` from both unmasked bundles."""
    m = ans1.m
    if ans2.m != m:
        raise ValidationError(f"bundle sizes disagree: m={m} vs m={ans2.m}")
    rows = [0, 1, 2], list(index_to_coords(x, m))
    a0 = np.frombuffer(ans1.a0, np.uint8) ^ np.frombuffer(ans2.a0, np.uint8)
    flips = ans1.flips[rows] ^ ans2.flips[rows]
    return (a0 ^ np.bitwise_xor.reduce(flips, axis=0)).tobytes()


def encode_query(query: QueryTriple) -> bytes:
    """Pack the three m-bit vectors into exactly ceil(3m/8) bytes.

    Bit-packed little-endian: dimension 1 occupies bits [0, m), dimension 2
    bits [m, 2m), dimension 3 bits [2m, 3m).
    """
    m = query.m
    acc = query.t1 | (query.t2 << m) | (query.t3 << (2 * m))
    return acc.to_bytes(bytes_for_bits(3 * m), "little")


def decode_query(payload: bytes, m: int) -> QueryTriple:
    """Inverse of :func:`encode_query`; rejects wrong-sized payloads."""
    if len(payload) != bytes_for_bits(3 * m):
        raise ValidationError(
            f"query payload is {len(payload)} bytes, expected "
            f"{bytes_for_bits(3 * m)} for m={m}"
        )
    acc = int.from_bytes(payload, "little")
    mask = (1 << m) - 1
    if acc >> (3 * m):
        raise ValidationError("query payload has bits beyond 3m")
    return QueryTriple(
        t1=acc & mask, t2=(acc >> m) & mask, t3=(acc >> (2 * m)) & mask, m=m
    )
