"""Independent numeric oracles frozen for the test suite.

These deliberately re-derive results with different tools than the package
uses (``decimal`` arithmetic, direct bit-matrix construction, brute-force
cell loops) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from decimal import ROUND_FLOOR, Decimal, getcontext

from qspir.bitops import bytes_for_bits

getcontext().prec = 60

_LN2 = Decimal(2).ln()


def _log2(x: Decimal) -> Decimal:
    return x.ln() / _LN2


def _entropy(e1: float) -> Decimal:
    if e1 in (0.0, 1.0):
        return Decimal(0)
    e = Decimal(e1)
    return -(e * _log2(e)) - (1 - e) * _log2(1 - e)


def key_length_oracle(
    n0: float,
    n1: float,
    e1: float,
    leak_ec: float,
    eps_cor: float,
    eps_prime: float,
    eps_hat: float,
    eps_pa: float,
) -> int:
    """High-precision evaluation of the extractable-length formula."""
    raw = (
        Decimal(n0)
        + Decimal(n1) * (1 - _entropy(e1))
        - Decimal(leak_ec)
        - _log2(Decimal(8) / Decimal(eps_cor))
        - 2 * _log2(Decimal(2) / (Decimal(eps_prime) * Decimal(eps_hat)))
        - 2 * _log2(1 / (2 * Decimal(eps_pa)))
    )
    floored = int(raw.to_integral_value(rounding=ROUND_FLOOR))
    return max(0, floored)


def bit_get(buf: bytes, i: int) -> int:
    """Bit ``i`` of a little-endian-bit-order buffer."""
    return (buf[i >> 3] >> (i & 7)) & 1


def pack_bits(bits) -> bytes:
    """Pack a 0/1 sequence into bytes, little-endian bit order."""
    acc = 0
    for i, b in enumerate(bits):
        if b:
            acc |= 1 << i
    return acc.to_bytes(bytes_for_bits(len(bits)), "little")


def unpack_bits(buf: bytes, nbits: int) -> list[int]:
    """Inverse of :func:`pack_bits`."""
    return [bit_get(buf, i) for i in range(nbits)]


def toeplitz_matrix_oracle(
    data: bytes, n_bits: int, seed: bytes, out_len: int
) -> bytes:
    """Hash via the explicit matrix T[i][j] = seed[out_len - 1 + j - i]."""
    out = 0
    for i in range(out_len):
        acc = 0
        for j in range(n_bits):
            if bit_get(seed, out_len - 1 + j - i) and bit_get(data, j):
                acc ^= 1
        if acc:
            out |= 1 << i
    return out.to_bytes(bytes_for_bits(out_len), "little")


def brute_subcube_xor(entries, m, record_bytes, mask1, mask2, mask3):
    """Cell-by-cell XOR over the product of three membership masks."""
    acc = 0
    for i in range(m):
        if not (mask1 >> i) & 1:
            continue
        for j in range(m):
            if not (mask2 >> j) & 1:
                continue
            for k in range(m):
                if not (mask3 >> k) & 1:
                    continue
                x = i * m * m + j * m + k
                acc ^= int.from_bytes(entries[x], "little")
    return acc.to_bytes(record_bytes, "little")


def poisson_pmf(mu: float, j: int) -> float:
    return math.exp(-mu) * mu**j / math.factorial(j)
