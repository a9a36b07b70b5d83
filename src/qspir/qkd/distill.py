"""Raw-key distillation: sifting, reconciliation accounting, amplification.

The simulated link sets the parameter-estimation sample aside, accounts
the reconciliation leak

    leak_EC = ceil(f_EC * n_kept * h(QBER_Z)),

evaluates the extractable length, and Toeplitz-hashes the kept string to
the final identical secret pair. Reconciliation is modeled by an oracle
that leaves both parties with the same kept bits; its information cost is
what matters here, so only the n_kept bits that survive it are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bitops import bytes_for_bits
from ..errors import ValidationError
from ..rng import BitSource
from .channel import ChannelModel, ProtocolParams, TallySet, simulate_tallies
from .decoy import decoy_bounds
from .finitekey import EpsilonBudget, FiniteKeyResult, binary_entropy, finite_key_length
from .toeplitz import toeplitz_hash


@dataclass(frozen=True)
class DistilledKey:
    """Final secret material: ``bit_length`` bits packed little-endian."""

    material: bytes
    bit_length: int

    def __post_init__(self):
        if len(self.material) != bytes_for_bits(self.bit_length):
            raise ValidationError("material length does not match bit length")


def key_accounting(
    tallies: TallySet, params: ProtocolParams
) -> tuple[int, FiniteKeyResult]:
    """Kept bits and finite-key result for one session's tallies.

    The one definition of the accounting from tallies to length, shared by
    distillation, the ``qkd-sim`` report and the optimizer. The sifted and
    parameter-estimation counts are whole bits, and nothing kept means a
    length of 0.
    """
    coinc = tallies.coinc[("Z", 0, 0)]
    qber = tallies.errors[("Z", 0, 0)] / coinc if coinc > 0 else 0.0
    n_sift = int(round(coinc))
    n_kept = n_sift - int(round(params.pe_fraction * n_sift))
    leak_ec = math.ceil(params.ec_efficiency * n_kept * binary_entropy(qber))
    n0, n1, e1 = decoy_bounds(tallies, params)
    eps = EpsilonBudget(
        params.eps_cor, params.eps_prime, params.eps_hat, params.eps_pa
    )
    l = finite_key_length(n0, n1, e1, leak_ec, eps) if n_kept > 0 else 0
    return n_kept, FiniteKeyResult(
        n0_lower=n0, n1_lower=n1, e1_upper=e1, leak_ec=leak_ec, l=l
    )


def _np_rng(source: BitSource) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(source.take_int(64)))


def distill_session(
    channel: ChannelModel,
    params: ProtocolParams,
    seed: int | str,
) -> tuple[DistilledKey, DistilledKey, FiniteKeyResult]:
    """Run one full distillation; both returned keys are identical.

    Deterministic for a given ``seed``.  The finite-key accounting uses the
    expected-value tallies, so the extractable length depends only on
    (channel, params); the sampled raw strings depend on the seed.
    """
    source = BitSource(seed)
    n_kept, result = key_accounting(simulate_tallies(channel, params), params)
    l = result.l
    if l == 0:
        empty = DistilledKey(material=b"", bit_length=0)
        return empty, empty, result

    # The bits both parties hold after reconciliation.
    kept = _np_rng(source.spawn("raw")).integers(0, 2, n_kept, dtype=np.uint8)
    kept_bytes = np.packbits(kept, bitorder="little").tobytes()
    seed_bits = n_kept + l - 1
    hash_seed = source.spawn("toeplitz").take_bits(seed_bits)
    final = toeplitz_hash(kept_bytes, n_kept, hash_seed, l)
    key = DistilledKey(material=final, bit_length=l)
    return key, DistilledKey(material=final, bit_length=l), result
