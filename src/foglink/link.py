"""Uplink budget: path gain, noise floor, rate inversion, clip-power sizing.

The propagation model is the urban-macro path loss with a 15 dBi net
antenna-gain term folded in, valid from 10 m outward; the noise floor is
thermal noise plus a 5 dB receiver noise figure.  A scaled Shannon relation
maps the stream rate to the SINR the link must deliver.  Sizing has two
parts, and ``chain.size_link`` is the one place they are put together
(``chain.breakdown_at`` adds the distance): ``snr_ceiling`` gives the SNR
ceiling that the rate demand alone fixes, at which ``pa.optimal_ibos``
solves the amplifier, and ``clip_power`` turns that ceiling into the
clipping power through the distance- and band-dependent path gain and
noise; at a fixed ceiling it grows as ``distance_km ** PATH_LOSS_EXPONENT``.
"""

import math
from typing import Tuple

from . import pa
from .errors import DomainError, InfeasibleLinkError
from .units import db_to_linear, dbm_to_watts, linear_to_db

__all__ = [
    "MIN_DISTANCE_KM",
    "PATH_LOSS_EXPONENT",
    "path_gain_db",
    "noise_dbm",
    "required_sinr",
    "snr_ceiling",
    "clip_power",
]

# Path-loss model validity floor; below ~10 m the urban-macro fit would
# produce positive gain artifacts.
MIN_DISTANCE_KM = 0.01

# The path loss rises by 37.6 dB per decade of distance: |h|^2 ~ d^-3.76.
PATH_LOSS_EXPONENT = 37.6 / 10

# Rate inversions with 2^exponent beyond this are treated as infeasible
# rather than silently overflowing.
_MAX_RATE_EXPONENT = 60.0


def path_gain_db(distance_km: float, carrier_hz: float) -> float:
    """Net channel power gain 10*log10(|h|^2) in dB.

    Computes 15 - (128.1 + 37.6*log10(d_km) + 21*log10(f / 2 GHz)), which
    is negative in the model's validity region; a carrier so low that the
    fit turns into a gain, a zero or negative one included, raises
    DomainError.
    """
    if not distance_km >= MIN_DISTANCE_KM:
        raise DomainError(
            f"distance_km = {distance_km!r} is below the {MIN_DISTANCE_KM} km "
            f"path-loss validity floor"
        )
    ratio = carrier_hz / 2e9  # rounds to 0 for a subnormal carrier
    carrier_term = 21.0 * math.log10(ratio) if ratio > 0.0 else -math.inf
    gain = 15.0 - (128.1 + 10.0 * PATH_LOSS_EXPONENT * math.log10(distance_km) + carrier_term)
    if not gain < 0.0:
        raise DomainError(
            f"path gain {gain:.6g} dB at distance_km = {distance_km!r}, "
            f"carrier_hz = {carrier_hz!r} is not a loss; the model does not apply"
        )
    return gain


def noise_dbm(bandwidth_hz: float) -> float:
    """Receiver noise power in dBm: thermal floor plus a 5 dB noise figure."""
    if not bandwidth_hz > 0.0:
        raise DomainError(f"bandwidth_hz must be positive, got {bandwidth_hz!r}")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + 5.0


def required_sinr(bandwidth_hz: float, cameras: int, rate_bps: float, beta: float) -> float:
    """Linear SINR needed to carry the aggregate rate, 2^(M*R/(beta*B)) - 1.

    ``cameras`` devices share the band in time, each delivering ``rate_bps``
    on average, so a device bursts at ``cameras * rate_bps`` during its
    slot; ``beta`` is the Shannon-gap scaling of the rate relation (0.4 for
    a fading uplink, 0.55 for AWGN SISO).  Raises InfeasibleLinkError once
    the exponent exceeds 60, where the implied SINR requirement is
    numerically astronomical.  ``expm1`` keeps every digit of a small
    exponent, so a positive one gives a positive SINR.
    """
    shannon_hz = beta * bandwidth_hz
    exponent = cameras * rate_bps / shannon_hz if shannon_hz else math.inf
    if exponent > _MAX_RATE_EXPONENT:
        raise InfeasibleLinkError(
            f"rate exponent M*R/(beta*B) = {exponent:.3f} exceeds "
            f"{_MAX_RATE_EXPONENT:g}; required SINR would overflow "
            f"(cameras = {cameras}, rate_bps = {rate_bps!r}, "
            f"beta = {beta!r}, bandwidth_hz = {bandwidth_hz!r})"
        )
    return math.expm1(exponent * math.log(2.0))


def snr_ceiling(
    bandwidth_hz: float, cameras: int, rate_bps: float, beta: float
) -> Tuple[float, float]:
    """The ``required_sinr`` of a rate demand and the SNR ceiling that sizes
    its link, ``(required_sinr_linear, snr_max_linear)``.

    The ceiling is the affine SINR fit inverted at the required SINR, so it
    depends on the rate demand alone; the SINR-optimal amplifier operating
    point is ``pa.optimal_ibos`` at it.  A zero rate has no ceiling
    (DomainError); one below ``pa.MIN_SNR_CEILING``, the lowest ceiling the
    back-off solve accepts, is refused (DomainError), and one above
    ``pa.MAX_SNR_CEILING`` cannot be solved (InfeasibleLinkError).

    The achieved SINR misses the required one by the fit's error, rated at
    0.5 dB for ceilings of -10 to 50 dB only.  At d = 0.02 km, achieved minus
    required is +0.41 and +1.37 dB at 9 MHz with 1 and 10 cameras (the
    latter at a 62.4 dB ceiling, outside the rating), and +0.49 and -0.33 dB
    at 18 MHz: with 10 cameras there the link falls short of its rate.
    """
    sinr = required_sinr(bandwidth_hz, cameras, rate_bps, beta)
    demand = (f"rate_bps = {rate_bps!r} with cameras = {cameras}, beta = {beta!r} and "
              f"bandwidth_hz = {bandwidth_hz!r}")
    if sinr == 0.0:
        raise DomainError(f"{demand} needs no SINR, so there is no SNR ceiling to size "
                          f"the clipping power at")
    snr_max_db = pa.snr_max_for_sinr_db(linear_to_db(sinr))
    snr_max = db_to_linear(snr_max_db)
    if snr_max < pa.MIN_SNR_CEILING:
        raise DomainError(
            f"{demand} needs an SNR ceiling of {snr_max_db:.6g} dB, below "
            f"the {linear_to_db(pa.MIN_SNR_CEILING):.6g} dB the back-off solve accepts"
        )
    if snr_max > pa.MAX_SNR_CEILING:
        raise InfeasibleLinkError(
            f"{demand} needs an SNR ceiling of {snr_max_db:.6g} dB, above "
            f"the {linear_to_db(pa.MAX_SNR_CEILING):.6g} dB the back-off solve accepts"
        )
    return sinr, snr_max


def clip_power(
    distance_km: float, carrier_hz: float, bandwidth_hz: float, snr_max_linear: float
) -> float:
    """Clipping power P_MAX = SNR_max * N / |h|^2 in watts that puts the link
    at SNR ceiling ``snr_max_linear``; InfeasibleLinkError if 0 or not finite."""
    gain_db = path_gain_db(distance_km, carrier_hz)
    gain_linear = db_to_linear(gain_db)
    noise_level_dbm = noise_dbm(bandwidth_hz)
    p_max = (dbm_to_watts(noise_level_dbm) / gain_linear * snr_max_linear
             if gain_linear > 0.0 else math.inf)
    if not 0.0 < p_max < math.inf:
        raise InfeasibleLinkError(
            f"clipping power {p_max!r} W is not representable for path gain "
            f"{gain_db:.6g} dB and noise {noise_level_dbm:.6g} dBm at "
            f"distance_km={distance_km!r}, carrier_hz={carrier_hz!r}, "
            f"bandwidth_hz={bandwidth_hz!r}"
        )
    return p_max
