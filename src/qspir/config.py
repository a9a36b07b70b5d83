"""Line-oriented configuration with defaults, file values, and flag overrides.

Files are ``key = value`` lines grouped under ``[section]`` headers; ``#``
starts a comment. Every field has a documented default; command-line flags
override file values, which override defaults, and each field remembers
where its value came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigurationError
from .qkd.channel import ChannelModel, ProtocolParams


def _parse_float(raw: str) -> float:
    return float(raw)


def _parse_str(raw: str) -> str:
    return raw


def _parse_optional_float(raw: str) -> float | None:
    if raw.lower() in ("none", "off"):
        return None
    return float(raw)


def _parse_triple(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {raw!r}")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True)
class ConfigField:
    section: str
    key: str
    parse: Callable[[str], Any]
    default: Any
    help: str

    @property
    def path(self) -> tuple[str, str]:
        return (self.section, self.key)


_FIELDS = [
    ConfigField("channel", "distance_km", _parse_float, 25.0,
                "fibre length per arm, km"),
    ConfigField("channel", "attenuation_db_km", _parse_float, 0.2,
                "fibre loss coefficient"),
    ConfigField("channel", "detector_efficiency", _parse_float, 0.7073,
                "detector efficiency fraction"),
    ConfigField("channel", "dark_count_prob", _parse_float, 1e-7,
                "dark-count probability per gate"),
    ConfigField("channel", "misalignment", _parse_float, 0.0083,
                "polarization misalignment error fraction"),
    ConfigField("channel", "saturation_cps", _parse_optional_float, 2e6,
                "detector saturation cap in counts/s; 'none' disables"),
    ConfigField("channel", "repetition_rate_hz", _parse_float, 125e6,
                "pulse repetition rate"),
    ConfigField("protocol", "intensities", _parse_triple, (0.14, 0.05, 0.0),
                "signal, decoy, vacuum intensities"),
    ConfigField("protocol", "z_probs", _parse_triple, (0.03, 0.30, 0.25),
                "per-intensity emission probabilities, Z basis"),
    ConfigField("protocol", "x_probs", _parse_triple, (0.04, 0.23, 0.15),
                "per-intensity emission probabilities, X basis"),
    ConfigField("protocol", "n_pulses", _parse_float, 5.85e12,
                "total signal pulses per session"),
    ConfigField("protocol", "eps_cor", _parse_float, 1e-15,
                "correctness failure probability"),
    ConfigField("protocol", "eps_prime", _parse_float, 1e-11,
                "smoothing epsilon"),
    ConfigField("protocol", "eps_hat", _parse_float, 1e-11,
                "smoothing epsilon (hat)"),
    ConfigField("protocol", "eps_pa", _parse_float, 1e-11,
                "privacy-amplification epsilon"),
    ConfigField("protocol", "eps_pe", _parse_float, 1e-11,
                "parameter-estimation epsilon budget"),
    ConfigField("protocol", "pe_fraction", _parse_float, 0.1034,
                "fraction of sifted bits spent on parameter estimation"),
    ConfigField("protocol", "ec_efficiency", _parse_float, 1.41,
                "error-correction inefficiency factor"),
    ConfigField("net", "dc1", _parse_str, "127.0.0.1:7341",
                "host:port of data centre 1"),
    ConfigField("net", "dc2", _parse_str, "127.0.0.1:7342",
                "host:port of data centre 2"),
    ConfigField("run", "seed", _parse_str, "0",
                "deterministic seed for all randomized steps"),
]

SCHEMA: dict[tuple[str, str], ConfigField] = {f.path: f for f in _FIELDS}


class AppConfig:
    """Resolved configuration with per-field provenance."""

    def __init__(self):
        self._values: dict[tuple[str, str], Any] = {
            f.path: f.default for f in _FIELDS
        }
        self._provenance: dict[tuple[str, str], str] = {
            f.path: "default" for f in _FIELDS
        }

    def get(self, section: str, key: str) -> Any:
        try:
            return self._values[(section, key)]
        except KeyError:
            raise ConfigurationError(
                f"unknown config field {section}.{key}"
            ) from None

    def provenance(self, section: str, key: str) -> str:
        return self._provenance[(section, key)]

    def _set(self, path: tuple[str, str], raw: str, source: str,
             context: str) -> str | None:
        """Set one field from text; returns an error description or None."""
        field = SCHEMA.get(path)
        if field is None:
            return f"{context}: unknown key {path[0]}.{path[1]}"
        try:
            value = field.parse(raw.strip())
        except (ValueError, TypeError) as exc:
            return f"{context}: bad value for {path[0]}.{path[1]}: {exc}"
        self._values[path] = value
        self._provenance[path] = source
        return None

    def channel_model(self) -> ChannelModel:
        return ChannelModel(
            distance_km=self.get("channel", "distance_km"),
            attenuation_db_km=self.get("channel", "attenuation_db_km"),
            detector_efficiency=self.get("channel", "detector_efficiency"),
            dark_count_prob=self.get("channel", "dark_count_prob"),
            misalignment=self.get("channel", "misalignment"),
            saturation_cps=self.get("channel", "saturation_cps"),
            repetition_rate_hz=self.get("channel", "repetition_rate_hz"),
        )

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            intensities=self.get("protocol", "intensities"),
            z_probs=self.get("protocol", "z_probs"),
            x_probs=self.get("protocol", "x_probs"),
            n_pulses=self.get("protocol", "n_pulses"),
            eps_cor=self.get("protocol", "eps_cor"),
            eps_prime=self.get("protocol", "eps_prime"),
            eps_hat=self.get("protocol", "eps_hat"),
            eps_pa=self.get("protocol", "eps_pa"),
            eps_pe=self.get("protocol", "eps_pe"),
            pe_fraction=self.get("protocol", "pe_fraction"),
            ec_efficiency=self.get("protocol", "ec_efficiency"),
        )

    def endpoint(self, which: str) -> tuple[str, int]:
        raw = self.get("net", which)
        host, _, port = raw.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"net.{which} must be host:port, got {raw!r}"
            )
        return host, int(port)


def parse_config(
    text: str | None,
    flags: dict[tuple[str, str], str] | None = None,
) -> AppConfig:
    """Build a config from optional file text plus flag overrides.

    All problems are collected and reported together, each naming its
    source line or flag.
    """
    config = AppConfig()
    problems: list[str] = []
    if text is not None:
        section = ""
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip()
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                problems.append(f"line {lineno}: expected key = value")
                continue
            problem = config._set(
                (section, key.strip()), value, "file", f"line {lineno}"
            )
            if problem:
                problems.append(problem)
    for path, raw in (flags or {}).items():
        problem = config._set(path, raw, "flag", f"flag {path[0]}.{path[1]}")
        if problem:
            problems.append(problem)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return config


def flag_path(name: str) -> tuple[str, str]:
    """Map a ``section.key`` override string to a schema path."""
    section, sep, key = name.partition(".")
    if not sep:
        raise ConfigurationError(
            f"override {name!r} must be section.key=value"
        )
    return (section, key)
