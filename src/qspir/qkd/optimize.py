"""Emission-schedule optimization and distance sweeps.

The extractable length is maximized by deterministic coordinate descent
over a documented discrete search space: signal/decoy intensities
(mu3 fixed at vacuum) and the six per-basis emission weights.  Each
candidate is scored through the full expected-value pipeline (tallies ->
decoy bounds -> leak accounting -> length formula), with
saturation-infeasible candidates discarded.

When the detector-rate cap binds, the best schedules sit on the
saturation boundary, so every intensity candidate is also tried with its
emission weights rescaled onto that boundary (excess probability shifted
to the vacuum intensity).  Descent runs from a fixed set of starting
schedules and keeps the best result, which makes each distance's outcome
independent of every other distance: sweeps are trivially parallel and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import ChannelModel, ProtocolParams, saturation_ok, simulate_tallies
from .distill import key_accounting

MU1_GRID = (0.08, 0.11, 0.14, 0.2, 0.25, 0.3, 0.35, 0.45, 0.6, 0.8)
MU2_GRID = (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.25)
WEIGHT_GRID = (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.25, 0.35, 0.5, 0.7)
DESCENT_ROUNDS = 3


@dataclass(frozen=True)
class SweepPoint:
    distance_km: float
    l: int
    params: ProtocolParams


def evaluate_length(channel: ChannelModel, params: ProtocolParams) -> int:
    """Extractable bits for one configuration (0 when infeasible)."""
    if not saturation_ok(channel, params):
        return 0
    return key_accounting(simulate_tallies(channel, params), params)[1].l


def _with_weights(base: ProtocolParams, weights: list[float]) -> ProtocolParams:
    total = sum(weights)
    z = tuple(w / total for w in weights[:3])
    x = tuple(w / total for w in weights[3:])
    return replace(base, z_probs=z, x_probs=x)


def _mean_intensity_cap(channel: ChannelModel) -> float | None:
    """Largest schedule mean intensity the detector-rate cap allows."""
    if channel.saturation_cps is None:
        return None
    c_max = channel.saturation_cps / channel.repetition_rate_hz
    pd = channel.dark_count_prob
    if c_max >= 1.0 or (1.0 - c_max) / (1.0 - pd) >= 1.0:
        return 0.0  # even dark counts overrun the cap
    eta = channel.arm_transmittance
    return 2.0 * math.log((1.0 - pd) / (1.0 - c_max)) / eta


def _cap_projected(
    params: ProtocolParams, mean_cap: float | None
) -> ProtocolParams:
    """Rescale emissions onto the saturation boundary when they overrun.

    Non-vacuum emission probabilities shrink by a common factor and the
    freed probability mass moves to each basis's vacuum-intensity slot,
    which leaves the weight *structure* intact while hitting the largest
    feasible mean intensity.  Schedules already under the cap (or with a
    vacuum-free intensity triple) are returned unchanged.
    """
    mean = params.mean_intensity
    if mean_cap is None or mean <= mean_cap or params.intensities[2] != 0.0:
        return params
    f = 0.999 * mean_cap / mean
    z = list(params.z_probs)
    x = list(params.x_probs)
    z_new = (z[0] * f, z[1] * f, z[2] + (1 - f) * (z[0] + z[1]))
    x_new = (x[0] * f, x[1] * f, x[2] + (1 - f) * (x[0] + x[1]))
    return replace(params, z_probs=z_new, x_probs=x_new)


_START_SCHEDULES = (
    # Near the calibrated distillation profile: low-power capped links.
    ((0.14, 0.05, 0.0), (0.03, 0.30, 0.25), (0.04, 0.23, 0.15)),
    # Strong signal with thin decoys: high-rate uncapped links.
    ((0.45, 0.05, 0.0), (0.45, 0.08, 0.08), (0.08, 0.20, 0.11)),
    # Rare bright signal pulses: capped links near saturation.
    ((0.60, 0.02, 0.0), (0.08, 0.25, 0.25), (0.02, 0.25, 0.15)),
)


def optimize_params(
    channel: ChannelModel,
    n_pulses: float,
    start: ProtocolParams | None = None,
) -> tuple[ProtocolParams, int]:
    """Best found (params, l) for the channel at ``n_pulses`` gates.

    Runs coordinate descent from ``start`` if given, otherwise from each
    documented starting schedule, and returns the best outcome.  Purely
    deterministic in its arguments.
    """
    if start is not None:
        starts = [replace(start, n_pulses=n_pulses)]
    else:
        starts = [
            ProtocolParams(
                intensities=mus, z_probs=z, x_probs=x, n_pulses=n_pulses
            )
            for mus, z, x in _START_SCHEDULES
        ]
    mean_cap = _mean_intensity_cap(channel)
    best_params, best_l = None, -1
    for entry in starts:
        params, l = _descend(channel, entry, mean_cap)
        if l > best_l:
            best_params, best_l = params, l
    return best_params, max(best_l, 0)


def _descend(
    channel: ChannelModel, start: ProtocolParams, mean_cap: float | None
) -> tuple[ProtocolParams, int]:
    best_params = _cap_projected(start, mean_cap)
    best_l = evaluate_length(channel, best_params)

    for _ in range(DESCENT_ROUNDS):
        improved = False
        # Intensities, each candidate also tried on the saturation boundary.
        for cand1 in MU1_GRID:
            for cand2 in MU2_GRID:
                if cand2 >= cand1:
                    continue
                cand = replace(best_params, intensities=(cand1, cand2, 0.0))
                for trial in (cand, _cap_projected(cand, mean_cap)):
                    l = evaluate_length(channel, trial)
                    if l > best_l:
                        best_l, best_params, improved = l, trial, True
        # Emission weights, one coordinate at a time.
        weights = list(best_params.z_probs) + list(best_params.x_probs)
        for i in range(6):
            for w in WEIGHT_GRID:
                trial_w = list(weights)
                trial_w[i] = w
                cand = _with_weights(best_params, trial_w)
                for trial in (cand, _cap_projected(cand, mean_cap)):
                    l = evaluate_length(channel, trial)
                    if l > best_l:
                        best_l, best_params, improved = l, trial, True
                        weights = list(trial.z_probs) + list(trial.x_probs)
        if not improved:
            break
    return best_params, best_l


def sweep_distance(
    channel: ChannelModel,
    n_pulses: float,
    distances: list[float],
    start: ProtocolParams | None = None,
) -> list[SweepPoint]:
    """Optimized extractable length at each total link distance.

    ``distances`` are symmetric end-to-end distances; each arm spans half.
    Every point is optimized independently (from ``start`` when given), so
    results do not depend on evaluation order.
    """
    if not distances:
        raise ValueError("distance list must be non-empty")
    points: list[SweepPoint] = []
    for dist in sorted(distances):
        ch = channel.at_distance(dist / 2.0)
        params, l = optimize_params(ch, n_pulses, start=start)
        points.append(SweepPoint(distance_km=dist, l=l, params=params))
    return points


def export_curve_csv(
    points: list[SweepPoint],
    thresholds: dict[str, int],
    path,
    header_note: str = "",
) -> None:
    """Write ``distance_km,l_bits,mu1,mu2,mu3`` rows plus threshold rows."""
    if not points:
        raise ValueError("curve must be non-empty")
    lines = []
    note = f" {header_note}" if header_note else ""
    lines.append(f"# calibrated-model curve;{note}".rstrip())
    lines.append("distance_km,l_bits,mu1,mu2,mu3")
    for pt in points:
        mu1, mu2, mu3 = pt.params.intensities
        lines.append(f"{pt.distance_km:g},{pt.l},{mu1:g},{mu2:g},{mu3:g}")
    for name, value in thresholds.items():
        lines.append(f"# threshold,{name},{value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
