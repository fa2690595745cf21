"""Uplink budget: path gain, noise floor, rate inversion, clip-power sizing.

The propagation model is the urban-macro path loss with a 15 dBi net
antenna-gain term folded in, valid from 10 m outward; the noise floor is
thermal noise plus a 5 dB receiver noise figure.  A scaled Shannon relation
maps the stream rate to the SINR the link must deliver, and inverting the
affine SINR approximation sizes the amplifier clipping power.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import pa
from .errors import DomainError, InfeasibleLinkError, require_int, require_positive
from .units import db_to_linear, dbm_to_watts

__all__ = [
    "LinkGeometry",
    "ChannelState",
    "MIN_DISTANCE_KM",
    "path_gain_db",
    "noise_dbm",
    "required_sinr",
    "required_p_max",
    "build_channel",
    "operating_point",
]

# Path-loss model validity floor; below ~10 m the urban-macro fit would
# produce positive gain artifacts.
MIN_DISTANCE_KM = 0.01

# Rate inversions with 2^exponent beyond this are treated as infeasible
# rather than silently overflowing.
_MAX_RATE_EXPONENT = 60.0


@dataclass(frozen=True)
class LinkGeometry:
    """Scenario geometry and rate demand for one TDMA uplink.

    ``cameras`` devices share the band in time, each delivering
    ``rate_bps`` on average, so a device bursts at ``cameras * rate_bps``
    during its slot.  ``beta`` is the Shannon-gap scaling of the rate
    relation (0.4 for a fading uplink, 0.55 for AWGN SISO).
    """

    distance_km: float
    carrier_hz: float
    bandwidth_hz: float
    cameras: int
    rate_bps: float
    beta: float

    def __post_init__(self):
        require_positive(
            distance_km=self.distance_km,
            carrier_hz=self.carrier_hz,
            bandwidth_hz=self.bandwidth_hz,
        )
        require_int("cameras", self.cameras)
        if self.rate_bps < 0.0:
            raise DomainError(f"rate_bps must be non-negative, got {self.rate_bps!r}")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {self.beta!r}")


@dataclass(frozen=True)
class ChannelState:
    """Solved channel: path gain, noise floor and sized clipping power."""

    path_gain_db: float
    noise_dbm: float
    p_max_w: float


def path_gain_db(distance_km: float, carrier_hz: float) -> float:
    """Net channel power gain 10*log10(|h|^2) in dB.

    Computes 15 - (128.1 + 37.6*log10(d_km) + 21*log10(f / 2 GHz)), which
    is negative in the model's validity region; a carrier so low that the
    fit turns into a gain raises DomainError.
    """
    if not distance_km >= MIN_DISTANCE_KM:
        raise DomainError(
            f"distance_km = {distance_km!r} is below the {MIN_DISTANCE_KM} km "
            f"path-loss validity floor"
        )
    if not carrier_hz > 0.0:
        raise DomainError(f"carrier_hz must be positive, got {carrier_hz!r}")
    ratio = carrier_hz / 2e9  # rounds to 0 for a subnormal carrier
    carrier_term = 21.0 * math.log10(ratio) if ratio > 0.0 else -math.inf
    gain = 15.0 - (128.1 + 37.6 * math.log10(distance_km) + carrier_term)
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


def required_sinr(geometry: LinkGeometry) -> float:
    """Linear SINR needed to carry the aggregate rate, 2^(M*R/(beta*B)) - 1.

    Raises InfeasibleLinkError once the exponent exceeds 60, where the
    implied SINR requirement is numerically astronomical, and DomainError
    when a positive rate demand rounds to a zero SINR.
    """
    shannon_hz = geometry.beta * geometry.bandwidth_hz
    exponent = geometry.cameras * geometry.rate_bps / shannon_hz if shannon_hz else math.inf
    if exponent > _MAX_RATE_EXPONENT:
        raise InfeasibleLinkError(
            f"rate exponent M*R/(beta*B) = {exponent:.3f} exceeds "
            f"{_MAX_RATE_EXPONENT:g}; required SINR would overflow "
            f"(cameras = {geometry.cameras}, rate_bps = {geometry.rate_bps!r}, "
            f"beta = {geometry.beta!r}, bandwidth_hz = {geometry.bandwidth_hz!r})"
        )
    sinr = 2.0 ** exponent - 1.0
    if sinr == 0.0 < exponent:
        raise DomainError(f"required SINR rounds to 0 for {geometry}")
    return sinr


def required_p_max(geometry: LinkGeometry, gain_db: float, noise_level_dbm: float) -> float:
    """Clipping power in watts that lets the optimal back-off meet the rate.

    Inverts the affine SINR approximation at the required SINR:

        P_MAX = (N / |h|^2) * 10^(log10(S) / 0.84 + 2.23 / 8.4)

    with S the required SINR, N the linear noise power and |h|^2 the linear
    path gain.  Strictly increasing in distance, cameras and rate, strictly
    decreasing in bandwidth; zero when the rate demand is zero.
    """
    sinr = required_sinr(geometry)
    if sinr == 0.0:
        return 0.0
    noise_w = dbm_to_watts(noise_level_dbm)
    gain_linear = db_to_linear(gain_db)
    exponent = (
        math.log10(sinr) / pa.SINR_APPROX_SLOPE
        - pa.SINR_APPROX_OFFSET_DB / (10.0 * pa.SINR_APPROX_SLOPE)
    )
    p_max = noise_w / gain_linear * 10.0 ** exponent if gain_linear > 0.0 else math.inf
    if not 0.0 < p_max < math.inf:
        raise InfeasibleLinkError(
            f"clipping power {p_max!r} W is not representable for path gain "
            f"{gain_db:.6g} dB and noise {noise_level_dbm:.6g} dBm in {geometry}"
        )
    return p_max


def build_channel(geometry: LinkGeometry) -> ChannelState:
    """Evaluate path gain and noise for a geometry and size the clip power."""
    gain = path_gain_db(geometry.distance_km, geometry.carrier_hz)
    noise = noise_dbm(geometry.bandwidth_hz)
    return ChannelState(
        path_gain_db=gain,
        noise_dbm=noise,
        p_max_w=required_p_max(geometry, gain, noise),
    )


def operating_point(
    geometry: LinkGeometry, channel: Optional[ChannelState] = None
) -> pa.PaOperatingPoint:
    """Fully sized amplifier operating point for a link scenario.

    Derives the channel when not supplied, forms the SNR ceiling
    |h|^2 * P_MAX / N, solves for the SINR-optimal back-off and attaches
    the absolute power levels (mean input power sigma^2 = P_MAX / IBO).
    The achieved SINR tracks the rate requirement to within the 0.5 dB
    class accuracy of the affine approximation used for sizing.
    """
    if channel is None:
        channel = build_channel(geometry)
    noise_w = dbm_to_watts(channel.noise_dbm)
    gain_linear = db_to_linear(channel.path_gain_db)
    snr_max = gain_linear * channel.p_max_w / noise_w
    point = pa.optimal_ibo(snr_max)
    return replace(
        point,
        p_max_w=channel.p_max_w,
        sigma2_w=channel.p_max_w / point.ibo_linear,
    )
