import random

import numpy as np
import pytest

from qspir.bitops import bytes_for_bits, xor_bytes
from qspir.cube import Database, index_to_coords
from qspir.errors import BudgetExhaustedError, ValidationError
from qspir.masking import (
    MaskedAnswerBundle,
    answer_payload_bits,
    derive_mask_set,
    deserialize_masked_bundle,
    mask_bundle,
    mask_material_bits,
    required_key_budget,
    serialize_masked_bundle,
    unmask_reconstruct,
)
from qspir.protocol import (
    compute_answer_bundle,
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


def _session(db, x, seed):
    src = BitSource(seed)
    r = sample_user_randomness(db.m, src)
    q1, q2 = gen_queries(x, r, db.m)
    material = src.take_bytes(
        bytes_for_bits(mask_material_bits(db.m, db.record_bits))
    )
    masks = derive_mask_set(material, db.m, db.record_bits)
    mb1 = mask_bundle(compute_answer_bundle(db, q1), q1, 1, masks)
    mb2 = mask_bundle(compute_answer_bundle(db, q2), q2, 2, masks)
    return q1, q2, masks, mb1, mb2


def _words(rows):
    """Each L-bit row of an array as ``bytes``, nested like the array."""
    if rows.ndim == 1:
        return rows.tobytes()
    return tuple(_words(row) for row in rows)


def test_budget_pinned_values():
    budget = required_key_budget(800, 4656)
    assert budget.user_dc_bits == 172_314
    assert budget.dc_dc_bits == 465_600
    assert required_key_budget(1, 1) == required_key_budget(1, 1)
    assert (
        required_key_budget(1, 1).user_dc_bits,
        required_key_budget(1, 1).dc_dc_bits,
    ) == (13, 19)
    assert (
        required_key_budget(8, 1).user_dc_bits,
        required_key_budget(8, 1).dc_dc_bits,
    ) == (22, 28)


def test_budget_covers_consumption():
    """The DC-DC reservation always covers the mask material drawn."""
    for n in (1, 2, 8, 9, 100, 800, 999):
        for record_bits in (1, 8, 4656):
            budget = required_key_budget(n, record_bits)
            from qspir.cube import cube_dims

            m = cube_dims(n)
            assert mask_material_bits(m, record_bits) <= budget.dc_dc_bits
            # Equality exactly at m = 1, strict surplus beyond.
            if m == 1:
                assert (
                    mask_material_bits(m, record_bits) == budget.dc_dc_bits
                )


def test_mask_material_accounting():
    assert mask_material_bits(10, 4656) == (6 * 10 + 13) * 4656
    assert answer_payload_bits(10, 4656) == (3 * 10 + 4) * 4656


def test_derive_mask_set_draw_order_and_b():
    m, L = 2, 8
    src = BitSource("draw")
    material = src.take_bytes(bytes_for_bits(mask_material_bits(m, L)))
    masks = derive_mask_set(material, m, L)
    words = [material[i : i + 1] for i in range(6 * m + 13)]
    expect_r = tuple(
        tuple(words[d * m + p] for p in range(m)) for d in range(3)
    )
    expect_rp = tuple(
        tuple(words[3 * m + d * m + p] for p in range(m)) for d in range(3)
    )
    assert _words(masks.r) == expect_r
    assert _words(masks.r_prime) == expect_rp
    base = 6 * m
    assert _words(masks.t_a) == tuple(words[base : base + 3])
    assert _words(masks.t_b) == tuple(words[base + 3 : base + 6])
    assert _words(masks.u1) == tuple(words[base + 6 : base + 9])
    assert _words(masks.u2) == tuple(words[base + 9 : base + 12])
    assert _words(masks.a) == words[base + 12]
    b = _words(masks.a)
    for d in range(3):
        for part in (masks.t_a[d], masks.t_b[d], masks.u1[d], masks.u2[d]):
            b = xor_bytes(b, _words(part))
    assert _words(masks.b) == b


def test_derive_mask_set_insufficient_material():
    need = mask_material_bits(2, 8)
    with pytest.raises(BudgetExhaustedError) as info:
        derive_mask_set(bytes(bytes_for_bits(need) - 1), 2, 8)
    assert info.value.needed == need


def test_masked_session_reconstructs_like_plain():
    rng = random.Random(31)
    for n, record_bits in ((8, 1), (27, 8), (800, 37), (64, 4656)):
        db = _database(rng, n, record_bits)
        for trial in range(4):
            x = rng.randrange(n)
            q1, q2, masks, mb1, mb2 = _session(
                db, x, f"mask-{n}-{record_bits}-{trial}"
            )
            plain = reconstruct_plain(
                compute_answer_bundle(db, q1),
                compute_answer_bundle(db, q2),
                x,
            )
            assert plain == db.entry(x)
            assert unmask_reconstruct(mb1, mb2, x) == plain


def test_masking_actually_pads_components():
    """No masked component may equal its unmasked counterpart's pattern
    across independent mask draws (overwhelmingly unlikely at L = 64)."""
    rng = random.Random(32)
    db = _database(rng, 27, 64)
    x = 13
    q1, q2, masks, mb1, mb2 = _session(db, x, "pad-check")
    bundle1 = compute_answer_bundle(db, q1)
    assert _words(mb1.a0) != bundle1.a0
    changed = sum(
        _words(mb1.flips[d][p]) != _words(bundle1.flips[d][p])
        for d in range(3)
        for p in range(db.m)
    )
    assert changed == 3 * db.m


def test_masked_bundle_is_one_array_of_rows_in_wire_order():
    rng = random.Random(36)
    for record_bits in (1, 5, 16, 17):
        db = _database(rng, 27, record_bits)
        x = rng.randrange(27)
        _, _, _, mb1, mb2 = _session(db, x, f"rows-{record_bits}")
        m, nbytes = db.m, bytes_for_bits(record_bits)
        assert mb1.words.shape == (3 * m + 4, nbytes)
        for view in (mb1.a0, mb1.flips, mb1.tags):
            assert np.shares_memory(view, mb1.words)
        words = [mb1.a0, *mb1.flips.reshape(-1, nbytes), *mb1.tags]
        packed = 0
        for i, word in enumerate(words):
            packed |= int.from_bytes(word, "little") << (i * record_bits)
        assert serialize_masked_bundle(mb1, record_bits) == packed.to_bytes(
            bytes_for_bits(answer_payload_bits(m, record_bits)), "little"
        )
        # The honest combination is the XOR of 7 rows from each bundle.
        i, j, k = index_to_coords(x, m)
        acc = 0
        for mb in (mb1, mb2):
            for word in (mb.a0, mb.flips[0][i], mb.flips[1][j],
                         mb.flips[2][k], *mb.tags):
                acc ^= int.from_bytes(word, "little")
        assert unmask_reconstruct(mb1, mb2, x) == acc.to_bytes(
            nbytes, "little"
        ) == db.entry(x)


def test_serialize_roundtrip_and_strictness():
    rng = random.Random(33)
    for n, record_bits in ((8, 1), (27, 5), (27, 16)):
        db = _database(rng, n, record_bits)
        _, _, _, mb1, _ = _session(db, 0, f"ser-{n}-{record_bits}")
        wire = serialize_masked_bundle(mb1, record_bits)
        assert len(wire) == bytes_for_bits(
            answer_payload_bits(db.m, record_bits)
        )
        back = deserialize_masked_bundle(wire, db.m, record_bits)
        assert back == mb1
        with pytest.raises(ValidationError):
            deserialize_masked_bundle(wire + b"\x00", db.m, record_bits)
        # 10 and 65 payload bits leave spare high bits; 208 bits do not.
        used = answer_payload_bits(db.m, record_bits) % 8
        if used:
            for spare in (used, 7):
                tampered = bytearray(wire)
                tampered[-1] |= 1 << spare
                with pytest.raises(ValidationError):
                    deserialize_masked_bundle(
                        bytes(tampered), db.m, record_bits
                    )


def test_mask_bundle_validation():
    rng = random.Random(34)
    db = _database(rng, 8, 8)
    q1, q2, masks, _, _ = _session(db, 3, "validate")
    bundle = compute_answer_bundle(db, q1)
    with pytest.raises(ValidationError):
        mask_bundle(bundle, q1, 3, masks)
    other = _database(rng, 27, 8)
    wrong_q = sample_user_randomness(3, BitSource("wq"))
    other_q, _ = gen_queries(0, wrong_q, 3)
    with pytest.raises(ValidationError):
        mask_bundle(bundle, other_q, 1, masks)


def _mask_bundle_per_flip(bundle, query, role, masks):
    """Reference masking: a full G-sum over Q_d ^ {p} for every flip."""
    m, nbytes = masks.m, bytes_for_bits(masks.record_bits)
    if role == 1:
        a0_pad, t, flip_table, tag_table, blind = (
            masks.a, masks.t_a, masks.r, masks.r_prime, masks.u1
        )
    else:
        a0_pad, t, flip_table, tag_table, blind = (
            masks.b, masks.t_b, masks.r_prime, masks.r, masks.u2
        )

    def g(table, d, members):
        acc = bytes(nbytes)
        for i in range(m):
            if (members >> i) & 1:
                acc = xor_bytes(acc, _words(table[d][i]))
        return acc

    flips = tuple(
        tuple(
            xor_bytes(
                xor_bytes(_words(bundle.flips[d][p]), _words(t[d])),
                g(flip_table, d, query.dim(d) ^ (1 << p)),
            )
            for p in range(m)
        )
        for d in range(3)
    )
    tags = tuple(
        xor_bytes(g(tag_table, d, query.dim(d)), _words(blind[d]))
        for d in range(3)
    )
    words = [xor_bytes(bundle.a0, _words(a0_pad)), *sum(flips, ()), *tags]
    return MaskedAnswerBundle(
        np.frombuffer(b"".join(words), np.uint8).reshape(3 * m + 4, nbytes)
    )


def test_mask_bundle_equals_per_flip_g_sums():
    rng = random.Random(35)
    for record_bits in (1, 5, 16):
        for n in (8, 27, 100):
            db = _database(rng, n, record_bits)
            for trial in range(3):
                x = rng.randrange(n)
                q1, q2, masks, mb1, mb2 = _session(
                    db, x, f"linear-{n}-{record_bits}-{trial}"
                )
                for role, query, got in ((1, q1, mb1), (2, q2, mb2)):
                    bundle = compute_answer_bundle(db, query)
                    assert got == _mask_bundle_per_flip(
                        bundle, query, role, masks
                    )
