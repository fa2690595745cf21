"""Baseline parameters and flat JSON config loading.

A config file is a single flat JSON object; any subset of the keys below
may appear and missing keys take the baseline defaults.  Units are fixed
per key (Hz, W, km, A, F, V, bits per second); nothing is dB-scaled here.
"""

import math

from .chain import DeploymentParams, RadioParams
from .errors import ConfigError, DomainError

__all__ = [
    "RADIO_DEFAULTS",
    "DEPLOY_DEFAULTS",
    "BANDWIDTH_PROFILES",
    "load_params",
    "dump_defaults",
]

# Coherent (sample rate, useful bandwidth, transform size) triples for the
# two supported channelizations.
BANDWIDTH_PROFILES = {
    "9mhz": {"sample_rate_hz": 15.36e6, "bandwidth_hz": 9e6, "n_ofdm": 1024},
    "18mhz": {"sample_rate_hz": 30.72e6, "bandwidth_hz": 18e6, "n_ofdm": 2048},
}

RADIO_DEFAULTS = {
    **BANDWIDTH_PROFILES["18mhz"],
    "delta_f_hz": 15e3,
    "gamma_mod_flops_per_w": 120e9,
    "dac_bits": 10,
    "v_dd": 3.0,
    "i_0_a": 5e-6,
    "c_p_f": 1e-12,
    "p_lo_w": 0.0675,
    "p_mix_w": 0.021,
    "psi_w_per_bps": 1e-10,
    "beta": 0.4,
}

DEPLOY_DEFAULTS = {
    "cameras": 1,
    "distance_km": 0.02,
    "carrier_hz": 3.5e9,
    "rate_bps": 6e6,
    "p_video_w": 0.242,
    "gamma_flops_per_w": 5e9,
    "theta_flop_per_bit": 320.0,
}

_INT_KEYS = {
    name
    for record in (RadioParams, DeploymentParams)
    for name, kind in record.__annotations__.items()
    if kind is int
}


def _build(values: dict) -> tuple[RadioParams, DeploymentParams]:
    radio_kwargs = {k: values[k] for k in RADIO_DEFAULTS}
    deploy_kwargs = {k: values[k] for k in DEPLOY_DEFAULTS}
    try:
        return RadioParams(**radio_kwargs), DeploymentParams(**deploy_kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(key: str, value) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    if key in _INT_KEYS:
        if not number.is_integer():
            raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
        return int(value)
    return number


def _read_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.strip():
        return {}
    import json  # only a config file or print-defaults needs it

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a flat JSON object of key/value pairs")
    return data


def load_params(
    path: str | None = None,
    overrides: dict | None = None,
    profile: str | None = None,
) -> tuple[RadioParams, DeploymentParams]:
    """Parameters from the defaults, then the file, the profile and the overrides.

    ``path`` names a flat JSON file, ``profile`` a key of
    BANDWIDTH_PROFILES, and ``overrides`` (e.g. from command-line flags)
    are applied last, so flags win.  Every supplied value must be a finite
    number; unknown keys and invariant violations raise ConfigError naming
    the offending key, and parse errors carry the line.
    """
    if profile is not None and profile not in BANDWIDTH_PROFILES:
        raise ConfigError(
            f"unknown bandwidth profile {profile!r}; "
            f"choose from {sorted(BANDWIDTH_PROFILES)}"
        )
    values = {**RADIO_DEFAULTS, **DEPLOY_DEFAULTS}
    sources = (
        _read_file(path) if path is not None else {},
        BANDWIDTH_PROFILES.get(profile, {}),
        overrides or {},
    )
    for source in sources:
        for key, raw in source.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw)
    return _build(values)


def dump_defaults() -> str:
    """Baseline parameters as editable JSON text."""
    import json

    return json.dumps({**RADIO_DEFAULTS, **DEPLOY_DEFAULTS}, indent=2, sort_keys=True)
