"""Expected-value channel model for a time-bin MDI link.

Both parties send phase-randomized weak coherent pulses over fibre arms to a
middle Bell-state measurement (BSM) node with four threshold detectors.  The
closed forms below give, per gate, the coincidence ("BSM success")
probability and error probability for each basis and intensity pair:

Z basis (computational):
    s_a = eta_a * mu_a,  s_b = eta_b * mu_b,  s = s_a + s_b,
    gamma = sqrt(s_a * s_b) / 2,
    Q_C = 2 (1-p_d)^2 e^{-s/2} [1-(1-p_d)e^{-s_a/2}] [1-(1-p_d)e^{-s_b/2}]
    Q_E = 2 p_d (1-p_d)^2 e^{-s/2} [I_0(2 gamma) - (1-p_d) e^{-s/2}]
    Q_Z = Q_C + Q_E,        E_Z Q_Z = e_d Q_C + (1-e_d) Q_E

X basis (superposition): averaged over the random relative phase theta,
with interference amplitudes m0/m1 = s/4 +- gamma cos(theta):
    c_i = 1 - (1-p_d) e^{-m_i}
    Q_X(theta) = [c_0 (1-c_1) + c_1 (1-c_0)]^2
    T_X(theta) = 2 c_0 c_1 (1-c_0) (1-c_1)
    E_X Q_X = e_d (Q_X - T_X) + (1-e_d) T_X

(e_d = misalignment, p_d = dark-count probability per gate per detector,
eta = arm transmittance including detector efficiency.)  The phase average
uses a fixed 256-node trapezoidal rule, spectrally accurate for these
smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import RangeError, ValidationError
from ..rng import BitSource

PHASE_NODES = 256


@dataclass(frozen=True)
class ChannelModel:
    """Physical-layer constants for one symmetric MDI link."""

    distance_km: float = 25.0  # per arm
    attenuation_db_km: float = 0.2
    detector_efficiency: float = 0.7073
    dark_count_prob: float = 1e-7  # per gate, per detector
    misalignment: float = 0.0083
    saturation_cps: float | None = 2e6  # per-detector counts/second cap
    repetition_rate_hz: float = 125e6

    def __post_init__(self):
        for name in ("detector_efficiency", "dark_count_prob", "misalignment"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise RangeError(f"{name} must be in [0,1], got {v}")
        if self.distance_km < 0 or self.attenuation_db_km < 0:
            raise RangeError("distances and attenuation must be non-negative")
        if self.repetition_rate_hz <= 0:
            raise RangeError("repetition rate must be positive")

    @property
    def arm_transmittance(self) -> float:
        """One arm's end-to-end transmittance, detector included."""
        return self.detector_efficiency * 10 ** (
            -self.attenuation_db_km * self.distance_km / 10
        )

    def at_distance(self, distance_km: float) -> "ChannelModel":
        return replace(self, distance_km=distance_km)


@dataclass(frozen=True)
class ProtocolParams:
    """Decoy-state emission schedule and security-parameter budget.

    ``basis_intensity_probs[basis][j]`` is each party's probability of
    emitting intensity ``intensities[j]`` in ``basis``; entries sum to 1
    across the six (basis, intensity) combinations.
    """

    intensities: tuple[float, float, float] = (0.14, 0.05, 0.0)
    z_probs: tuple[float, float, float] = (0.03, 0.30, 0.25)
    x_probs: tuple[float, float, float] = (0.04, 0.23, 0.15)
    n_pulses: float = 5.85e12
    eps_cor: float = 1e-15
    eps_prime: float = 1e-11
    eps_hat: float = 1e-11
    eps_pa: float = 1e-11
    eps_pe: float = 1e-11  # total parameter-estimation budget, split per use
    pe_fraction: float = 0.1034
    ec_efficiency: float = 1.41

    def __post_init__(self):
        mu1, mu2, mu3 = self.intensities
        if not (mu1 > mu2 > mu3 >= 0):
            raise RangeError(
                f"intensities must satisfy mu1 > mu2 > mu3 >= 0, got "
                f"{self.intensities}"
            )
        total = sum(self.z_probs) + sum(self.x_probs)
        if any(p < 0 for p in self.z_probs + self.x_probs):
            raise RangeError("emission probabilities must be non-negative")
        if abs(total - 1.0) > 1e-9:
            raise RangeError(
                f"emission probabilities must sum to 1, got {total!r}"
            )
        for name in ("eps_cor", "eps_prime", "eps_hat", "eps_pa", "eps_pe"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise RangeError(f"{name} must be in (0,1), got {v}")
        if not 0.0 <= self.pe_fraction < 1.0:
            raise RangeError("pe_fraction must be in [0,1)")
        if self.n_pulses <= 0:
            raise RangeError("n_pulses must be positive")

    def prob(self, basis: str, j: int) -> float:
        return (self.z_probs if basis == "Z" else self.x_probs)[j]

    @property
    def mean_intensity(self) -> float:
        """Average emitted intensity per party over the whole schedule."""
        return sum(
            p * mu
            for probs in (self.z_probs, self.x_probs)
            for p, mu in zip(probs, self.intensities)
        )


@dataclass
class TallySet:
    """Per-(basis, intensity pair) observation counts.

    Keys are ``(basis, j, k)`` with ``basis`` in {"Z","X"} and ``j``/``k``
    the sender intensity indices.  Counts may be non-integral in
    expected-value mode.
    """

    intensities: tuple[float, float, float]
    sent: dict = field(default_factory=dict)
    coinc: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def add(self, key, sent, coinc, errors):
        if not (0 <= errors <= coinc <= sent or sent == 0):
            raise ValidationError(
                f"tally ordering violated for {key}: "
                f"errors={errors} coinc={coinc} sent={sent}"
            )
        self.sent[key] = sent
        self.coinc[key] = coinc
        self.errors[key] = errors


def z_gain_error(
    mu_a: float, mu_b: float, eta_a: float, eta_b: float, pd: float, ed: float
) -> tuple[float, float]:
    """Z-basis per-gate (coincidence probability, error probability)."""
    # Local import keeps SciPy off the retrieval path, which never calls this.
    from scipy.special import i0

    sa = eta_a * mu_a
    sb = eta_b * mu_b
    sp = sa + sb
    gam = math.sqrt(sa * sb) / 2.0
    qc = (
        2.0
        * (1 - pd) ** 2
        * math.exp(-sp / 2)
        * (1 - (1 - pd) * math.exp(-sa / 2))
        * (1 - (1 - pd) * math.exp(-sb / 2))
    )
    qe = (
        2.0
        * pd
        * (1 - pd) ** 2
        * math.exp(-sp / 2)
        * (float(i0(2 * gam)) - (1 - pd) * math.exp(-sp / 2))
    )
    q = qc + qe
    eq = ed * qc + (1 - ed) * qe
    return q, eq


def x_gain_error(
    mu_a: float, mu_b: float, eta_a: float, eta_b: float, pd: float, ed: float
) -> tuple[float, float]:
    """X-basis per-gate (coincidence probability, error probability)."""
    sa = eta_a * mu_a
    sb = eta_b * mu_b
    u = (sa + sb) / 4.0
    gam = math.sqrt(sa * sb) / 2.0
    theta = np.linspace(0.0, 2 * np.pi, PHASE_NODES, endpoint=False)
    m0 = u + gam * np.cos(theta)
    m1 = u - gam * np.cos(theta)
    c0 = 1 - (1 - pd) * np.exp(-m0)
    c1 = 1 - (1 - pd) * np.exp(-m1)
    q_theta = (c0 * (1 - c1) + c1 * (1 - c0)) ** 2
    t_theta = 2 * c0 * c1 * (1 - c0) * (1 - c1)
    q = float(q_theta.mean())
    t = float(t_theta.mean())
    eq = ed * (q - t) + (1 - ed) * t
    return q, eq


def gain_and_error(
    basis: str, mu_a: float, mu_b: float, channel: ChannelModel
) -> tuple[float, float]:
    eta = channel.arm_transmittance
    fn = z_gain_error if basis == "Z" else x_gain_error
    return fn(
        mu_a, mu_b, eta, eta, channel.dark_count_prob, channel.misalignment
    )


def detector_click_prob(channel: ChannelModel, mean_mu: float) -> float:
    """Average per-gate click probability of one BSM detector.

    Each of the four detectors sees on average a quarter of the arriving
    mean photon number; used for the saturation constraint.
    """
    s_total = 2 * channel.arm_transmittance * mean_mu
    return 1 - (1 - channel.dark_count_prob) * math.exp(-s_total / 4)


def saturation_ok(channel: ChannelModel, params: ProtocolParams) -> bool:
    """Whether the emission schedule stays under the detector-rate cap."""
    if channel.saturation_cps is None:
        return True
    rate = channel.repetition_rate_hz * detector_click_prob(
        channel, params.mean_intensity
    )
    return rate <= channel.saturation_cps


def simulate_tallies(
    channel: ChannelModel,
    params: ProtocolParams,
    sample_source: BitSource | None = None,
) -> TallySet:
    """Expected-value tallies for every same-basis intensity pair.

    With ``sample_source`` given, coincidence and error counts are drawn
    Poisson around their expectations instead (deterministic under the
    source's seed); sent counts stay exact.
    """
    tallies = TallySet(intensities=params.intensities)
    for basis in ("Z", "X"):
        for j in range(3):
            for k in range(3):
                sent = params.n_pulses * params.prob(basis, j) * params.prob(
                    basis, k
                )
                q, eq = gain_and_error(
                    basis,
                    params.intensities[j],
                    params.intensities[k],
                    channel,
                )
                coinc = sent * q
                errs = sent * eq
                if sample_source is not None and sent > 0:
                    coinc = float(
                        _poisson_draw(sample_source, coinc)
                    )
                    errs = float(_poisson_draw(sample_source, errs))
                    coinc = min(coinc, sent)
                    errs = min(errs, coinc)
                tallies.add((basis, j, k), sent, coinc, errs)
    return tallies


def _poisson_draw(source: BitSource, lam: float) -> int:
    """Poisson sample; normal approximation above a small-mean cutoff."""
    if lam <= 0:
        return 0
    if lam < 50:
        # Knuth's product method.
        limit = math.exp(-lam)
        k, prod = 0, 1.0
        while True:
            prod *= source.take_int(53) / float(1 << 53)
            if prod <= limit:
                return k
            k += 1
    u1 = max(source.take_int(53) / float(1 << 53), 1e-300)
    u2 = source.take_int(53) / float(1 << 53)
    z = math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)
    return max(0, int(round(lam + z * math.sqrt(lam))))
