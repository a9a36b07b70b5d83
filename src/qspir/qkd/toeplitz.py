"""Toeplitz universal hashing over GF(2) for privacy amplification.

The hash of an ``n``-bit input to ``out_len`` bits uses a Toeplitz matrix
``T`` built from ``n + out_len - 1`` seed bits:

    T[i][j] = seed[out_len - 1 + j - i]

(first row reads ``seed[out_len-1:]``, first column reads ``seed[:out_len]``
bottom-up), and ``out[i] = XOR_j T[i][j] & x[j]``.

Two evaluation paths compute identical bits:

* ``naive`` — sliding big-integer window with popcount parity; the direct
  matrix-vector form, O(n * out_len / wordsize).
* ``fft`` — the outputs are cross-correlations of the seed with the input
  at lags 0..out_len-1, evaluated as one circular real-FFT correlation of
  size ``next_fast_len(n + out_len - 1)`` (the seed length, about half the
  full linear convolution) with exact integer rounding (coefficients are
  bounded by n, far below 2^53).

Inputs and outputs are packed bytes, little-endian bit order.
"""

from __future__ import annotations

import numpy as np

from ..bitops import bytes_for_bits
from ..errors import ValidationError

FFT_THRESHOLD = 1 << 12  # input size above which "auto" switches to FFT


def toeplitz_hash(
    data: bytes,
    n_bits: int,
    seed: bytes,
    out_len: int,
    method: str = "auto",
) -> bytes:
    """Hash ``n_bits`` of ``data`` down to ``out_len`` bits."""
    if out_len < 0 or n_bits < 0:
        raise ValidationError("bit lengths must be non-negative")
    if out_len == 0:
        return b""
    if n_bits == 0:
        return b"\x00" * bytes_for_bits(out_len)
    seed_bits = n_bits + out_len - 1
    if len(seed) < bytes_for_bits(seed_bits):
        raise ValidationError(
            f"seed holds {8 * len(seed)} bits, need {seed_bits}"
        )
    if len(data) < bytes_for_bits(n_bits):
        raise ValidationError(
            f"data holds {8 * len(data)} bits, need {n_bits}"
        )
    if method == "auto":
        method = "fft" if n_bits >= FFT_THRESHOLD else "naive"
    if method == "naive":
        return _naive(data, n_bits, seed, out_len)
    if method == "fft":
        return _fft(data, n_bits, seed, out_len)
    raise ValidationError(f"unknown toeplitz method {method!r}")


def _naive(data: bytes, n_bits: int, seed: bytes, out_len: int) -> bytes:
    x = int.from_bytes(data, "little") & ((1 << n_bits) - 1)
    s = int.from_bytes(seed, "little") & ((1 << (n_bits + out_len - 1)) - 1)
    mask = (1 << n_bits) - 1
    out = 0
    # out[i] = parity(seed[out_len-1-i : out_len-1-i+n] & x)
    for i in range(out_len):
        window = (s >> (out_len - 1 - i)) & mask
        if (window & x).bit_count() & 1:
            out |= 1 << i
    return out.to_bytes(bytes_for_bits(out_len), "little")


def _bits_to_array(buf: bytes, nbits: int) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=np.uint8)
    bits = np.unpackbits(arr, bitorder="little")
    return bits[:nbits]


def _fft(data: bytes, n_bits: int, seed: bytes, out_len: int) -> bytes:
    # Local import keeps SciPy off the retrieval path, which never calls this.
    from scipy.fft import irfft, next_fast_len, rfft

    seed_bits_n = n_bits + out_len - 1
    x = _bits_to_array(data, n_bits).astype(np.float64)
    s = _bits_to_array(seed, seed_bits_n).astype(np.float64)
    # Circular cross-correlation: corr[d] = sum_j s[(j+d) mod size] x[j].
    # Only lags d < out_len are read, and j + d <= seed_bits_n - 1 < size,
    # so no term wraps around.
    size = next_fast_len(seed_bits_n, real=True)
    corr = irfft(rfft(s, size) * np.conj(rfft(x, size)), size)
    counts = np.rint(corr[:out_len]).astype(np.int64)
    # counts[d] = correlation at lag d = out[out_len-1-d]  =>  reverse.
    bits = (counts & 1).astype(np.uint8)[::-1]
    packed = np.packbits(bits, bitorder="little").tobytes()
    return packed.ljust(bytes_for_bits(out_len), b"\x00")
