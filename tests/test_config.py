"""Config loading: defaults, overrides, validation, parse errors."""

import json

import pytest

from foglink import ConfigError, dump_defaults, load_params
from foglink.config import BANDWIDTH_PROFILES, DEPLOY_DEFAULTS, RADIO_DEFAULTS


def write(tmp_path, content):
    path = tmp_path / "params.json"
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_baseline_values(self):
        radio, deploy = load_params()
        assert radio.bandwidth_hz == 18e6
        assert radio.sample_rate_hz == 30.72e6
        assert radio.n_ofdm == 2048
        assert radio.delta_f_hz == 15e3
        assert radio.beta == 0.4
        assert radio.psi_w_per_bps == 1e-10
        assert radio.p_lo_w == 0.0675
        assert radio.p_mix_w == 0.021
        assert radio.dac_bits == 10
        assert radio.v_dd == 3.0
        assert radio.i_0_a == 5e-6
        assert radio.c_p_f == 1e-12
        assert radio.gamma_mod_flops_per_w == 120e9
        assert deploy.cameras == 1
        assert deploy.rate_bps == 6e6
        assert deploy.carrier_hz == 3.5e9
        assert deploy.p_video_w == 0.242
        assert deploy.gamma_flops_per_w == 5e9

    def test_narrowband_profile(self):
        radio, _ = load_params(profile="9mhz")
        assert radio.sample_rate_hz == 15.36e6
        assert radio.bandwidth_hz == 9e6
        assert radio.n_ofdm == 1024

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="profile"):
            load_params(profile="13mhz")

    def test_dump_round_trips(self):
        dumped = json.loads(dump_defaults())
        assert dumped == {**RADIO_DEFAULTS, **DEPLOY_DEFAULTS}


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        radio, deploy = load_params(write(tmp_path, ""))
        assert (radio, deploy) == load_params()

    def test_empty_object_gives_defaults(self, tmp_path):
        radio, deploy = load_params(write(tmp_path, "{}"))
        assert (radio, deploy) == load_params()

    def test_camera_override(self, tmp_path):
        radio, deploy = load_params(write(tmp_path, '{"cameras": 10}'))
        assert deploy.cameras == 10
        base_radio, base_deploy = load_params()
        assert radio == base_radio
        assert deploy.rate_bps == base_deploy.rate_bps

    def test_flag_overrides_beat_file(self, tmp_path):
        _, deploy = load_params(
            write(tmp_path, '{"cameras": 10}'), overrides={"cameras": 3}
        )
        assert deploy.cameras == 3

    def test_transform_size_invariant_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="n_ofdm.*power of two"):
            load_params(write(tmp_path, '{"n_ofdm": 1000}'))

    def test_coherent_but_non_power_of_two_triple_rejected(self, tmp_path):
        content = '{"n_ofdm": 1000, "sample_rate_hz": 15e6, "bandwidth_hz": 9e6}'
        with pytest.raises(ConfigError, match="power of two"):
            load_params(write(tmp_path, content))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="antenna_gain_db"):
            load_params(write(tmp_path, '{"antenna_gain_db": 15}'))

    def test_parse_error_carries_line(self, tmp_path):
        path = write(tmp_path, '{\n  "cameras": 10,\n  oops\n}')
        with pytest.raises(ConfigError, match=":3"):
            load_params(path)

    def test_non_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            load_params(write(tmp_path, "[1, 2, 3]"))

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cameras"):
            load_params(write(tmp_path, '{"cameras": "ten"}'))

    def test_fractional_integer_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dac_bits"):
            load_params(write(tmp_path, '{"dac_bits": 9.5}'))

    @pytest.mark.parametrize("key, literal", [
        ("n_ofdm", "1e400"), ("cameras", "NaN"), ("distance_km", "Infinity"),
        ("carrier_hz", "-Infinity"), ("rate_bps", "1" + "0" * 400),
    ])
    def test_non_finite_value_rejected_by_key(self, tmp_path, key, literal):
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            load_params(write(tmp_path, f'{{"{key}": {literal}}}'))

    def test_non_finite_override_rejected_by_key(self):
        with pytest.raises(ConfigError, match="distance_km.*finite"):
            load_params(overrides={"distance_km": float("inf")})

    def test_overrides_are_coerced_without_a_file(self):
        _, deploy = load_params(overrides={"cameras": 10.0, "distance_km": 1})
        assert deploy.cameras == 10 and isinstance(deploy.cameras, int)
        assert deploy.distance_km == 1.0 and isinstance(deploy.distance_km, float)

    def test_layer_order_defaults_file_profile_overrides(self, tmp_path):
        path = write(tmp_path, '{"bandwidth_hz": 5e6, "cameras": 4, "dac_bits": 8}')
        radio, deploy = load_params(path, {"cameras": 2}, profile="9mhz")
        assert radio.bandwidth_hz == 9e6  # the profile beats the file
        assert radio.dac_bits == 8  # the file beats the defaults
        assert deploy.cameras == 2  # overrides beat the file

    def test_profile_switch_as_overrides(self, tmp_path):
        path = write(tmp_path, "{}")
        radio, _ = load_params(path, overrides=BANDWIDTH_PROFILES["9mhz"])
        assert radio.n_ofdm == 1024
        assert radio.bandwidth_hz == 9e6
