"""Acceptance suite: one test per shipped guarantee.

Every test states its tolerance inline and covers the full advertised
scope (exhaustive enumerations are exhaustive, sample counts are the
advertised counts). Run with ``pytest -v tests/test_acceptance.py`` to get
one pass/fail line per guarantee.
"""

import os
import random
import secrets
import time
from itertools import product

import pytest

from helpers_gf2 import low_part_span
from helpers_symbolic import symbolic_database, symbolic_mask_material
from oracles import key_length_oracle, toeplitz_matrix_oracle
from qspir.bitops import bytes_for_bits, xor_bytes
from qspir.cube import Database, cube_dims
from qspir.errors import KeyReuseError
from qspir.keystore import Direction, KeyPool, KeyStore
from qspir.masking import (
    derive_mask_set,
    deserialize_masked_bundle,
    mask_bundle,
    mask_material_bits,
    required_key_budget,
    serialize_masked_bundle,
    unmask_reconstruct,
)
from qspir.netsvc import (
    Frame,
    InProcessNetwork,
    LinkMonitor,
    MsgType,
    new_session_id,
)
from qspir.protocol import (
    QueryTriple,
    UserRandomness,
    compute_answer_bundle,
    gen_queries,
    sample_user_randomness,
)
from qspir.qkd.channel import ChannelModel, ProtocolParams, simulate_tallies
from qspir.qkd.distill import distill_session
from qspir.qkd.finitekey import EpsilonBudget, finite_key_length
from qspir.qkd.optimize import sweep_distance
from qspir.qkd.toeplitz import toeplitz_hash
from qspir.rng import BitSource


def test_criterion_01_key_budget_exactness():
    # Exact integer equality at the production shape, and each evaluation
    # finishes in under a millisecond.
    budgets = required_key_budget(800, 4656)
    assert (budgets.user_dc_bits, budgets.dc_dc_bits) == (172_314, 465_600)
    best = float("inf")
    for _ in range(200):
        start = time.perf_counter()
        required_key_budget(800, 4656)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


def test_criterion_02_end_to_end_retrieval(demo_session):
    # The 800-entry / 582-byte-max demo returns the requested record
    # byte-exactly, within 60 s, with zero monitor alarms, and every link
    # consumes no more than its per-session budget.
    report = demo_session["report"]
    budgets = required_key_budget(800, 4656)
    assert report.byte_exact is True
    assert report.alarm_count == 0
    assert demo_session["elapsed"] < 60.0
    assert report.pool_reports  # one report per (party, pool)
    for name, rep in report.pool_reports.items():
        budget = (
            budgets.dc_dc_bits
            if name.endswith("/dc-pair")
            else budgets.user_dc_bits
        )
        assert rep.reserved_bits == budget  # one session reserves the budget
        assert 0 < rep.consumed_bits <= budget


def _masked_retrieval(db, x, randomness, material):
    """Full protocol path: queries, bundles, masking, wire, reconstruction."""
    m = db.m
    q1, q2 = gen_queries(x, randomness, m)
    masks = derive_mask_set(material, m, db.record_bits)
    wires = [
        serialize_masked_bundle(
            mask_bundle(compute_answer_bundle(db, q), q, role, masks),
            db.record_bits,
        )
        for role, q in ((1, q1), (2, q2))
    ]
    mb1, mb2 = (
        deserialize_masked_bundle(w, m, db.record_bits) for w in wires
    )
    return unmask_reconstruct(mb1, mb2, x)


def test_criterion_03_retrieval_correctness_suite():
    # Exhaustive at m=2, L=1: 8 seeded databases x all 64 randomness values
    # x all 8 indices = 4096 cases, plus 1000 randomized cases at
    # m in {3,4}, L in {1,8} bits -- every case must match direct lookup.
    material_bits = mask_material_bits(2, 1)
    db_source = BitSource("correctness-databases")
    mat_source = BitSource("correctness-material")
    cases = failures = 0
    for _ in range(8):
        db = Database.from_entries(
            [bytes([db_source.take_int(1)]) for _ in range(8)], record_bits=1
        )
        for s1, s2, s3 in product(range(4), repeat=3):
            randomness = UserRandomness(s1, s2, s3, m=2)
            for x in range(8):
                material = mat_source.take_bytes(
                    bytes_for_bits(material_bits)
                )
                got = _masked_retrieval(db, x, randomness, material)
                cases += 1
                failures += got != db.entry(x)
    assert cases == 4096 and failures == 0

    rng = random.Random(2026_08)
    draw = BitSource("correctness-random-phase")
    for _ in range(1000):
        m = rng.choice((3, 4))
        record_bits = rng.choice((1, 8))
        n = rng.randint((m - 1) ** 3 + 1, m**3)
        raw = [
            bytes([draw.take_int(record_bits)]) for _ in range(n)
        ]
        db = Database.from_entries(raw, record_bits)
        assert db.m == m
        x = rng.randrange(n)
        randomness = sample_user_randomness(m, draw)
        material = draw.take_bytes(
            bytes_for_bits(mask_material_bits(m, record_bits))
        )
        got = _masked_retrieval(db, x, randomness, material)
        assert got == db.entry(x) == raw[x]


def test_criterion_04_user_privacy():
    # (a) Exact x-independence: the first query equals the drawn randomness
    # for every index, enumerated exhaustively at m=2.
    for s1, s2, s3 in product(range(4), repeat=3):
        randomness = UserRandomness(s1, s2, s3, m=2)
        for x in range(8):
            q1, _ = gen_queries(x, randomness, 2)
            assert q1.vectors == (s1, s2, s3)

    # (b) Exact uniformity of the second query by enumeration: for every
    # index the randomness -> Q2 map is a bijection on all 64 triples.
    for x in range(8):
        images = {
            gen_queries(x, UserRandomness(s1, s2, s3, m=2), 2)[1].vectors
            for s1, s2, s3 in product(range(4), repeat=3)
        }
        assert len(images) == 64

    # (c) Uniformity with the production entropy source: chi-square over
    # 64 bins with 64,000 samples; statistic below the df=63, p=0.001
    # critical value 103.4422.
    source = BitSource(seed=secrets.token_bytes(32))
    counts = [0] * 64
    for _ in range(64_000):
        randomness = sample_user_randomness(2, source)
        q2 = gen_queries(5, randomness, 2)[1]
        t1, t2, t3 = q2.vectors
        counts[t1 | (t2 << 2) | (t3 << 4)] += 1
    statistic = sum((c - 1000.0) ** 2 / 1000.0 for c in counts)
    assert statistic < 103.4422


def test_criterion_05_database_privacy_rank_oracle():
    # All 64 x 64 = 4096 (Q1, Q2) patterns at m=2, L=1 word: GF(2)
    # elimination over every user-visible component must recover exactly
    # {0, w_x} for the 512 honest patterns and exactly {0} otherwise.
    m = 2
    cube = symbolic_database(m)
    masks = derive_mask_set(
        symbolic_mask_material(m), m, cube.record_bits
    )
    triples = [
        QueryTriple(t1, t2, t3, m=m)
        for t1, t2, t3 in product(range(4), repeat=3)
    ]
    bundles = {q.vectors: compute_answer_bundle(cube, q) for q in triples}

    def components(mb):
        words = [mb.a0, *mb.flips[0], *mb.flips[1], *mb.flips[2], *mb.tags]
        return [int.from_bytes(w, "little") for w in words]

    honest = checked = 0
    for q1 in triples:
        mb1 = mask_bundle(bundles[q1.vectors], q1, 1, masks)
        rows1 = components(mb1)
        for q2 in triples:
            mb2 = mask_bundle(bundles[q2.vectors], q2, 2, masks)
            leak = low_part_span(rows1 + components(mb2), m**3)
            deltas = [a ^ b for a, b in zip(q1.vectors, q2.vectors)]
            singleton = all(d and d & (d - 1) == 0 for d in deltas)
            if singleton:
                i, j, k = (d.bit_length() - 1 for d in deltas)
                x = i * m * m + j * m + k
                assert leak == [1 << x], (q1.vectors, q2.vectors)
                honest += 1
            else:
                assert leak == [], (q1.vectors, q2.vectors)
            checked += 1
    assert checked == 4096 and honest == 512


def test_criterion_06_length_formula_against_oracle():
    # 1000 random parameter points: the production evaluation agrees with
    # an independent 60-digit evaluation to within 1 bit, and the pinned
    # reference point matches exactly; monotonicity holds on the grid.
    assert finite_key_length(1000, 100_000, 0.02, 20_000) == 66_583

    rng = random.Random(20260815)
    points = []
    for _ in range(1000):
        n0 = rng.uniform(0, 1e6)
        n1 = rng.uniform(0, 1e7)
        e1 = rng.uniform(0, 0.5)
        leak = rng.uniform(0, 5e5)
        eps = EpsilonBudget(
            *(10 ** rng.uniform(-18, -6) for _ in range(4))
        )
        points.append((n0, n1, e1, leak, eps))
        got = finite_key_length(n0, n1, e1, leak, eps)
        want = key_length_oracle(
            n0, n1, e1, leak,
            eps.eps_cor, eps.eps_prime, eps.eps_hat, eps.eps_pa,
        )
        assert abs(got - want) <= 1

    for n0, n1, e1, leak, eps in points[:200]:
        base = finite_key_length(n0, n1, e1, leak, eps)
        assert finite_key_length(n0 + 1e4, n1, e1, leak, eps) >= base
        assert finite_key_length(n0, n1 + 1e4, e1, leak, eps) >= base
        assert finite_key_length(
            n0, n1, min(0.5, e1 + 0.02), leak, eps
        ) <= base
        assert finite_key_length(n0, n1, e1, leak + 1e4, eps) <= base


def test_criterion_07_distance_curve_reproduction():
    # Both published sweep configurations clear the 465,600-bit pair budget
    # at 50 km total distance, and the calibrated 25 km/arm distillation
    # (QBER 0.83%, PE fraction 10.34%, f_EC = 1.41) lands within a factor
    # of 5 of the reference 6.50e5 bits.
    budgets = required_key_budget(800, 4656)
    capped = sweep_distance(ChannelModel(), 5.85e12, [50.0])
    assert capped[0].l >= budgets.dc_dc_bits == 465_600
    uncapped_channel = ChannelModel(
        saturation_cps=None, repetition_rate_hz=1.25e9
    )
    uncapped = sweep_distance(uncapped_channel, 3.75e10, [50.0])
    assert uncapped[0].l >= budgets.dc_dc_bits

    params = ProtocolParams()
    assert params.pe_fraction == 0.1034
    assert params.ec_efficiency == 1.41
    tallies = simulate_tallies(ChannelModel(distance_km=25.0), params)
    qber = tallies.errors[("Z", 0, 0)] / tallies.coinc[("Z", 0, 0)]
    assert abs(100.0 * qber - 0.83) < 0.01
    _, _, result = distill_session(ChannelModel(distance_km=25.0), params, 0)
    assert 6.5e5 / 5 <= result.l <= 6.5e5 * 5


def test_criterion_08_distillation_integrity():
    # 50 seeded distillations: both returned key strings identical and of
    # length exactly l, every run.
    channel, params = ChannelModel(), ProtocolParams()
    for seed in range(50):
        key_a, key_b, result = distill_session(channel, params, seed)
        assert key_a.material == key_b.material
        assert key_a.bit_length == key_b.bit_length == result.l
        assert len(key_a.material) == bytes_for_bits(result.l)
        assert result.l > 0


def test_criterion_09_toeplitz_equivalence():
    # 100 random instances up to 2^16 input bits: FFT output bit-identical
    # to the naive matrix-vector evaluation (itself tied to the explicit
    # matrix oracle on small instances); linearity on 100 random pairs.
    rng = random.Random(916)
    for trial in range(100):
        n_bits = 1 << 16 if trial < 3 else rng.randrange(1, (1 << 16) + 1)
        out_len = rng.randrange(1, 2049)
        data = rng.randbytes(bytes_for_bits(n_bits))
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        naive = toeplitz_hash(data, n_bits, seed, out_len, "naive")
        fft = toeplitz_hash(data, n_bits, seed, out_len, "fft")
        assert naive == fft

    for _ in range(10):
        n_bits = rng.randrange(1, 161)
        out_len = rng.randrange(1, 49)
        data = rng.randbytes(bytes_for_bits(n_bits))
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        assert toeplitz_hash(data, n_bits, seed, out_len, "fft") == (
            toeplitz_matrix_oracle(data, n_bits, seed, out_len)
        )

    for _ in range(100):
        n_bits = rng.randrange(1, 4097)
        out_len = rng.randrange(1, 513)
        nb = bytes_for_bits(n_bits)
        x, y = rng.randbytes(nb), rng.randbytes(nb)
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        hx = toeplitz_hash(x, n_bits, seed, out_len)
        hy = toeplitz_hash(y, n_bits, seed, out_len)
        assert toeplitz_hash(xor_bytes(x, y), n_bits, seed, out_len) == (
            xor_bytes(hx, hy)
        )


def test_criterion_10_one_time_pad_discipline(demo_session):
    # (a) Ledger audit over the end-to-end run: replaying every party's
    # ledger shows no two live reservations ever sharing a key bit.
    total_entries = 0
    for party in ("user", "dc1", "dc2"):
        path = os.path.join(demo_session["workdir"], "ledgers", f"{party}.txt")
        entries = KeyStore.read_ledger(path)
        total_entries += len(entries)
        live: dict[str, list[tuple[int, int]]] = {}
        for entry in entries:
            spans = live.setdefault(entry.pool_id, [])
            if entry.purpose.startswith("release:"):
                spans.remove((entry.offset, entry.bits))
                continue
            for offset, bits in spans:
                overlap = (
                    offset < entry.offset + entry.bits
                    and entry.offset < offset + bits
                )
                assert not overlap, f"{party}: key bits reserved twice"
            spans.append((entry.offset, entry.bits))
    assert total_entries > 0

    # (b) Fault injection: applying the same pad twice hard-fails.
    pool = KeyPool("fault-a", BitSource("fault-a").take_bytes(32))
    used = pool.reserve_at("s1", 0, 64, "pad")
    pool.otp_apply(bytes(8), used)
    with pytest.raises(KeyReuseError):
        pool.otp_apply(bytes(8), used)

    # (c) Fault injection: overlapping explicit reservations hard-fail.
    pool_b = KeyPool("fault-b", BitSource("fault-b").take_bytes(32))
    pool_b.reserve_at("s1", 0, 64, "pad", Direction.WHOLE)
    with pytest.raises(KeyReuseError):
        pool_b.reserve_at("s2", 32, 64, "pad", Direction.WHOLE)


def test_criterion_11_non_communication_monitor():
    # After provisioning closes, 100 of 100 injected data-centre pair
    # frames are dropped before any handler runs, each raising an alarm;
    # user links stay unaffected.
    handled = []
    monitor = LinkMonitor(dc_names={"dc1", "dc2"})
    network = InProcessNetwork(monitor)
    for name in ("dc1", "dc2"):
        def handler(frame, src, _name=name):
            handled.append((_name, frame.msg_type))
            return [Frame(MsgType.CLOSE, frame.session_id)]
        network.register(name, handler)

    rng = BitSource("monitor-trials")
    open_reply = network.request(
        "dc1", "dc2", Frame(MsgType.PROVISION, new_session_id(0, rng), b"hs")
    )
    assert len(open_reply) == 1 and len(handled) == 1  # provisioning passes
    monitor.close_provisioning()
    handled.clear()

    kinds = list(MsgType)
    blocked = 0
    for trial in range(100):
        src, dst = ("dc1", "dc2") if trial % 2 else ("dc2", "dc1")
        frame = Frame(
            kinds[trial % len(kinds)],
            new_session_id(trial + 1, rng),
            b"\x01",
        )
        if network.request(src, dst, frame) == []:
            blocked += 1
    assert blocked == 100
    assert handled == []  # no injected frame ever reached a daemon
    assert len(monitor.alarms) == 100
    assert all(e.event.startswith("alarm-blocked") for e in monitor.alarms)

    user_reply = network.request(
        "user", "dc1", Frame(MsgType.CLOSE, new_session_id(200, rng))
    )
    assert len(user_reply) == 1 and handled == [("dc1", MsgType.CLOSE)]
    assert len(monitor.alarms) == 100
