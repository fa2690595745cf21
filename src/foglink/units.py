"""dB and dBm conversion helpers.

All internal math in this package runs on linear-scale quantities (watts,
power ratios); these helpers are used only at API and I/O boundaries.  A
level without a finite power ratio, or a non-positive power, raises
DomainError.
"""

import math

from .errors import DomainError


def db_to_linear(value_db: float) -> float:
    """Power ratio from its decibel representation."""
    try:
        ratio = 10.0 ** (value_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise DomainError(f"{value_db!r} dB has no finite power ratio")
    return ratio


def linear_to_db(ratio: float) -> float:
    """Decibel representation of a positive power ratio."""
    if not ratio > 0.0:
        raise DomainError(f"a dB value needs a positive ratio, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def dbm_to_watts(value_dbm: float) -> float:
    """Watts from a dBm level."""
    return db_to_linear(value_dbm - 30.0)


def watts_to_dbm(power_w: float) -> float:
    """dBm level of a positive power in watts."""
    milliwatts = power_w * 1e3
    if milliwatts == math.inf and power_w < math.inf:  # above ~1.8e305 W
        return linear_to_db(power_w) + 30.0
    return linear_to_db(milliwatts)
