import pytest

from qspir.config import SCHEMA, AppConfig, flag_path, parse_config
from qspir.errors import ConfigurationError
from qspir.qkd.channel import ChannelModel, ProtocolParams


def test_defaults_match_calibrated_models():
    config = parse_config(None)
    assert config.channel_model() == ChannelModel()
    assert config.protocol_params() == ProtocolParams()
    assert config.get("run", "seed") == "0"
    assert {section for section, _ in SCHEMA} == {
        "channel", "protocol", "net", "run"
    }
    for path in SCHEMA:
        assert config.provenance(*path) == "default"


def test_file_values_and_provenance():
    text = """
    # comment line
    [channel]
    distance_km = 50      # trailing comment
    saturation_cps = none

    [protocol]
    intensities = 0.45, 0.05, 0.0
    n_pulses = 3.75e10

    [run]
    seed = abc
    """
    config = parse_config(text)
    assert config.get("channel", "distance_km") == 50.0
    assert config.get("channel", "saturation_cps") is None
    assert config.get("protocol", "intensities") == (0.45, 0.05, 0.0)
    assert config.get("protocol", "n_pulses") == 3.75e10
    assert config.get("run", "seed") == "abc"
    assert config.provenance("channel", "distance_km") == "file"
    assert config.provenance("channel", "attenuation_db_km") == "default"
    assert config.channel_model().saturation_cps is None


def test_flags_override_file():
    text = "[channel]\ndistance_km = 50\n"
    config = parse_config(text, {("channel", "distance_km"): "75.5"})
    assert config.get("channel", "distance_km") == 75.5
    assert config.provenance("channel", "distance_km") == "flag"


def test_problems_are_collected_with_locations():
    text = "\n".join(
        [
            "[channel]",
            "distance_km = fast",  # line 2: bad float
            "unknown_key = 1",  # line 3: unknown key
            "just-some-noise",  # line 4: no equals sign
            "[protocol]",
            "intensities = 1, 2",  # line 6: not a triple
        ]
    )
    with pytest.raises(ConfigurationError) as err:
        parse_config(text, {("net", "dc3"): "x"})
    message = str(err.value)
    assert "line 2: bad value for channel.distance_km" in message
    assert "line 3: unknown key channel.unknown_key" in message
    assert "line 4: expected key = value" in message
    assert "line 6: bad value for protocol.intensities" in message
    assert "flag net.dc3: unknown key net.dc3" in message


def test_unknown_field_lookup():
    config = AppConfig()
    with pytest.raises(ConfigurationError):
        config.get("channel", "bandwidth")


def test_endpoint_parsing():
    config = parse_config("[net]\ndc1 = dc-one.internal:9001\n")
    assert config.endpoint("dc1") == ("dc-one.internal", 9001)
    assert config.endpoint("dc2") == ("127.0.0.1", 7342)
    bad = parse_config("[net]\ndc1 = nocolon\ndc2 = host:notaport\n")
    for which in ("dc1", "dc2"):
        with pytest.raises(ConfigurationError):
            bad.endpoint(which)


def test_flag_path_parsing():
    assert flag_path("channel.distance_km") == ("channel", "distance_km")
    with pytest.raises(ConfigurationError):
        flag_path("distance_km")


def test_scientific_notation_floats():
    config = parse_config("[protocol]\nn_pulses = 1e3\n")
    assert config.get("protocol", "n_pulses") == 1000.0
