import random

import pytest
from scipy.fft import next_fast_len

from oracles import toeplitz_matrix_oracle
from qspir.bitops import bytes_for_bits, xor_bytes
from qspir.errors import ValidationError
from qspir.qkd import toeplitz
from qspir.qkd.toeplitz import FFT_THRESHOLD, toeplitz_hash


def _rand_instance(rng, max_n, max_out):
    n_bits = rng.randrange(1, max_n + 1)
    out_len = rng.randrange(1, max_out + 1)
    data = rng.randbytes(bytes_for_bits(n_bits))
    seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
    return data, n_bits, seed, out_len


def test_both_methods_match_matrix_oracle():
    rng = random.Random(61)
    for _ in range(40):
        data, n_bits, seed, out_len = _rand_instance(rng, 200, 64)
        want = toeplitz_matrix_oracle(data, n_bits, seed, out_len)
        assert toeplitz_hash(data, n_bits, seed, out_len, "naive") == want
        assert toeplitz_hash(data, n_bits, seed, out_len, "fft") == want


def test_fft_equals_naive_on_larger_inputs():
    rng = random.Random(62)
    for _ in range(25):
        data, n_bits, seed, out_len = _rand_instance(rng, 1 << 13, 4096)
        naive = toeplitz_hash(data, n_bits, seed, out_len, "naive")
        fft = toeplitz_hash(data, n_bits, seed, out_len, "fft")
        assert naive == fft


def test_fft_exact_when_seed_length_is_a_fast_length():
    # n_bits + out_len - 1 = 4096 is already a fast FFT length, so the
    # circular correlation has no zero padding to absorb a wrap-around.
    assert next_fast_len(4096, real=True) == 4096
    rng = random.Random(65)
    for n_bits, out_len in ((4096, 1), (3000, 1097), (2048, 2049)):
        data = rng.randbytes(bytes_for_bits(n_bits))
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        naive = toeplitz_hash(data, n_bits, seed, out_len, "naive")
        assert toeplitz_hash(data, n_bits, seed, out_len, "fft") == naive


def test_auto_switches_at_threshold(monkeypatch):
    calls = []
    real_naive, real_fft = toeplitz._naive, toeplitz._fft
    monkeypatch.setattr(
        toeplitz, "_naive", lambda *a: calls.append("naive") or real_naive(*a)
    )
    monkeypatch.setattr(
        toeplitz, "_fft", lambda *a: calls.append("fft") or real_fft(*a)
    )
    rng = random.Random(63)
    for n_bits, expect in (
        (FFT_THRESHOLD - 1, "naive"),
        (FFT_THRESHOLD, "fft"),
    ):
        out_len = 128
        data = rng.randbytes(bytes_for_bits(n_bits))
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        calls.clear()
        auto = toeplitz_hash(data, n_bits, seed, out_len)
        assert calls == [expect]
        assert auto == real_naive(data, n_bits, seed, out_len)


def test_linearity_over_xor():
    rng = random.Random(64)
    for _ in range(30):
        n_bits = rng.randrange(1, 600)
        out_len = rng.randrange(1, 96)
        nb = bytes_for_bits(n_bits)
        x, y = rng.randbytes(nb), rng.randbytes(nb)
        seed = rng.randbytes(bytes_for_bits(n_bits + out_len - 1))
        hx = toeplitz_hash(x, n_bits, seed, out_len)
        hy = toeplitz_hash(y, n_bits, seed, out_len)
        hxy = toeplitz_hash(xor_bytes(x, y), n_bits, seed, out_len)
        assert hxy == xor_bytes(hx, hy)


def test_spare_data_bits_ignored():
    seed = bytes(range(1, 20))
    full = toeplitz_hash(b"\xff\xff", 3, seed, 16)
    assert full == toeplitz_hash(b"\x07\x00", 3, seed, 16)
    assert full == toeplitz_matrix_oracle(b"\xff\xff", 3, seed, 16)


def test_edge_cases():
    assert toeplitz_hash(b"\x01", 1, b"\xff", 0) == b""
    assert toeplitz_hash(b"", 0, b"", 9) == b"\x00\x00"
    one = toeplitz_hash(b"\x01", 1, b"\x01", 1)
    assert one == b"\x01"


def test_validation():
    with pytest.raises(ValidationError):
        toeplitz_hash(b"\x00", 1, b"", 1)  # seed too short
    with pytest.raises(ValidationError):
        toeplitz_hash(b"", 9, b"\x00\x00", 1)  # data too short
    with pytest.raises(ValidationError):
        toeplitz_hash(b"\x00", -1, b"\x00", 1)
    with pytest.raises(ValidationError):
        toeplitz_hash(b"\x00", 1, b"\x00", -2)
    with pytest.raises(ValidationError):
        toeplitz_hash(b"\x00", 1, b"\x00", 1, method="magic")
