import random
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import brute_subcube_xor
from qspir.bitops import bytes_for_bits
from qspir.cube import Database, cube_dims, index_to_coords
from qspir.errors import RangeError, ValidationError
from qspir.protocol import (
    QueryTriple,
    UserRandomness,
    compute_answer_bundle,
    decode_query,
    encode_query,
    gen_queries,
    reconstruct_plain,
    sample_user_randomness,
)
from qspir.rng import BitSource


def _database(rng, n, record_bits):
    nbytes = bytes_for_bits(record_bits)
    entries = [
        rng.getrandbits(record_bits).to_bytes(nbytes, "little")
        for _ in range(n)
    ]
    return Database.from_entries(entries, record_bits)


def test_first_query_is_the_randomness_verbatim():
    for m in (1, 2, 3):
        for s1 in range(1 << m):
            r = UserRandomness(s1=s1, s2=(s1 * 3) % (1 << m), s3=0, m=m)
            for x in range(m**3):
                q1, _ = gen_queries(x, r, m)
                assert q1.vectors == r.vectors


def test_second_query_toggles_exactly_the_coords():
    rng = random.Random(21)
    for _ in range(200):
        m = rng.choice([2, 3, 4, 7])
        r = UserRandomness(
            *(rng.getrandbits(m) for _ in range(3)), m=m
        )
        x = rng.randrange(m**3)
        q1, q2 = gen_queries(x, r, m)
        coords = index_to_coords(x, m)
        for d in range(3):
            diff = q1.dim(d) ^ q2.dim(d)
            assert diff == 1 << coords[d]


def test_gen_queries_validation():
    r = UserRandomness(1, 2, 3, m=2)
    with pytest.raises(RangeError):
        gen_queries(8, r, 2)
    with pytest.raises(ValidationError):
        gen_queries(0, r, 3)
    with pytest.raises(ValidationError):
        QueryTriple(4, 0, 0, m=2)


def test_sample_user_randomness_uses_3m_bits():
    src = BitSource("sample")
    r = sample_user_randomness(5, src)
    check = BitSource("sample")
    assert r.vectors == tuple(check.take_int(5) for _ in range(3))
    with pytest.raises(RangeError):
        sample_user_randomness(0, src)


def test_bundle_components_are_subcube_xors():
    rng = random.Random(22)
    for m in (1, 2, 3, 4):
        for record_bits in (1, 5, 8, 17):
            n = rng.randrange((m - 1) ** 3 + 1, m**3 + 1)
            db = _database(rng, n, record_bits)
            assert db.m == m
            padded = [db.entry(x) for x in range(n)]
            padded += [bytes(db.record_bytes)] * (m**3 - n)
            full = (1 << m) - 1
            masks = [(0, 0, 0), (full, full, full)]
            masks += [
                tuple(rng.getrandbits(m) for _ in range(3)) for _ in range(3)
            ]
            for vectors in masks:
                bundle = compute_answer_bundle(db, QueryTriple(*vectors, m=m))
                assert bundle.m == m
                assert bundle.a0 == brute_subcube_xor(
                    padded, m, db.record_bytes, *vectors
                )
                for d in range(3):
                    for p in range(m):
                        toggled = list(vectors)
                        toggled[d] ^= 1 << p
                        row = bundle.flips[d][p].tobytes()
                        assert row == brute_subcube_xor(
                            padded, m, db.record_bytes, *toggled
                        )


def _random_cube(seed, m, record_bytes):
    cells = np.random.default_rng(seed).integers(
        0, 256, size=(m, m, m, record_bytes), dtype=np.uint8
    )
    return Database(n=m**3, record_bits=8 * record_bytes, m=m, cells=cells)


def test_threads_sharing_a_cube_get_single_thread_bundles():
    db = _random_cube(26, 24, 96)
    rng = random.Random(26)
    queries = [
        QueryTriple(*(rng.getrandbits(db.m) for _ in range(3)), m=db.m)
        for _ in range(100)
    ]
    expect = [compute_answer_bundle(db, q) for q in queries]
    got = [None] * len(queries)

    def answer(part):
        for i in range(part, len(queries), 2):
            got[i] = compute_answer_bundle(db, queries[i])

    threads = [threading.Thread(target=answer, args=(p,)) for p in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [(b.a0, b.flips.tobytes()) for b in got] == [
        (b.a0, b.flips.tobytes()) for b in expect
    ]


def test_answer_allocates_less_than_one_cube_plane():
    db = _random_cube(27, 20, 64)
    q = QueryTriple(0x5A5A5, 0xFFFFF, 0x12345, m=db.m)
    compute_answer_bundle(db, q)
    tracemalloc.start()
    try:
        compute_answer_bundle(db, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < db.m**2 * db.record_bytes


def test_reconstruction_yields_requested_entry():
    rng = random.Random(23)
    for n, record_bits in ((8, 8), (27, 1), (64, 24), (50, 13)):
        db = _database(rng, n, record_bits)
        m = db.m
        src = BitSource(f"recon-{n}-{record_bits}")
        for _ in range(25):
            x = rng.randrange(n)
            r = sample_user_randomness(m, src)
            q1, q2 = gen_queries(x, r, m)
            ans1 = compute_answer_bundle(db, q1)
            ans2 = compute_answer_bundle(db, q2)
            assert reconstruct_plain(ans1, ans2, x) == db.entry(x)


def test_padding_cells_reconstruct_to_zero():
    rng = random.Random(24)
    db = _database(rng, 5, 16)  # m = 2, cells 5..7 are padding
    src = BitSource("padding")
    for x in (5, 6, 7):
        r = sample_user_randomness(db.m, src)
        q1, q2 = gen_queries(x, r, db.m)
        out = reconstruct_plain(
            compute_answer_bundle(db, q1), compute_answer_bundle(db, q2), x
        )
        assert out == bytes(db.record_bytes)


def test_query_codec_roundtrip_and_strictness():
    rng = random.Random(25)
    for m in (1, 2, 3, 8, 10):
        for _ in range(30):
            q = QueryTriple(*(rng.getrandbits(m) for _ in range(3)), m=m)
            wire = encode_query(q)
            assert len(wire) == bytes_for_bits(3 * m)
            assert decode_query(wire, m) == q
    with pytest.raises(ValidationError):
        decode_query(b"\x00\x00", 10)  # wrong size for m=10
    # Spare bits beyond 3m must be rejected.
    q = QueryTriple(1, 1, 1, m=2)
    wire = bytearray(encode_query(q))
    wire[-1] |= 0x80
    with pytest.raises(ValidationError):
        decode_query(bytes(wire), 2)


def test_query_sizes_pinned():
    # The 800-entry production shape: m = 10 gives a 4-byte query.
    assert cube_dims(800) == 10
    assert bytes_for_bits(3 * 10) == 4
