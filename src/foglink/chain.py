"""Transmitter component power models and the local-vs-offload comparison.

Per-component draws (video coder, redundancy coding, OFDM modulator, DACs,
local oscillator, mixers, power amplifier) are aggregated into the mean
offload power of one camera under TDMA duty cycling, and compared against
the power of running the analytics workload on the device itself.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, require_int, require_positive
from .link import LinkGeometry, clip_power, operating_point
from .pa import PaOperatingPoint, pa_consumed_power

__all__ = [
    "RadioParams",
    "DeploymentParams",
    "PowerBreakdown",
    "local_power",
    "coding_power",
    "ofdm_power",
    "dac_power",
    "duty_cycled_breakdown",
    "link_geometry",
    "breakdown_at",
    "offload_power",
    "breakeven_at",
]


# Converter resolutions whose 2^bits is still a finite float.
MAX_DAC_BITS = 1023


def _require_transform_size(n_ofdm) -> None:
    if not (isinstance(n_ofdm, int) and n_ofdm >= 2 and n_ofdm & (n_ofdm - 1) == 0):
        raise DomainError(f"n_ofdm must be a power of two >= 2, got {n_ofdm!r}")


@dataclass(frozen=True)
class RadioParams:
    """Front-end constants of the transmit chain.

    The OFDM transform size is tied to the converter rate by
    n_ofdm = sample_rate_hz / delta_f_hz exactly, and the converters run
    faster than the useful band (sample_rate_hz > bandwidth_hz).
    """

    sample_rate_hz: float
    bandwidth_hz: float
    n_ofdm: int
    delta_f_hz: float
    gamma_mod_flops_per_w: float
    dac_bits: int
    v_dd: float
    i_0_a: float
    c_p_f: float
    p_lo_w: float
    p_mix_w: float
    psi_w_per_bps: float
    beta: float

    def __post_init__(self):
        require_positive(
            sample_rate_hz=self.sample_rate_hz,
            bandwidth_hz=self.bandwidth_hz,
            delta_f_hz=self.delta_f_hz,
            gamma_mod_flops_per_w=self.gamma_mod_flops_per_w,
            v_dd=self.v_dd,
            i_0_a=self.i_0_a,
            p_lo_w=self.p_lo_w,
            p_mix_w=self.p_mix_w,
            psi_w_per_bps=self.psi_w_per_bps,
        )
        if self.c_p_f < 0.0:
            raise DomainError(f"c_p_f must be non-negative, got {self.c_p_f!r}")
        require_int("dac_bits", self.dac_bits, 1, MAX_DAC_BITS)
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {self.beta!r}")
        _require_transform_size(self.n_ofdm)
        if self.n_ofdm != self.sample_rate_hz / self.delta_f_hz:
            raise DomainError(
                f"n_ofdm = {self.n_ofdm!r} must equal sample_rate_hz / delta_f_hz "
                f"= {self.sample_rate_hz / self.delta_f_hz!r}"
            )
        if not self.sample_rate_hz > self.bandwidth_hz:
            raise DomainError(
                f"sample_rate_hz = {self.sample_rate_hz!r} must exceed "
                f"bandwidth_hz = {self.bandwidth_hz!r}"
            )


@dataclass(frozen=True)
class DeploymentParams:
    """Scenario knobs: fleet size, link geometry, stream and workload."""

    cameras: int
    distance_km: float
    carrier_hz: float
    rate_bps: float
    p_video_w: float
    gamma_flops_per_w: float
    theta_flop_per_bit: float

    def __post_init__(self):
        require_int("cameras", self.cameras)
        require_positive(
            distance_km=self.distance_km,
            carrier_hz=self.carrier_hz,
            rate_bps=self.rate_bps,
            p_video_w=self.p_video_w,
            gamma_flops_per_w=self.gamma_flops_per_w,
            theta_flop_per_bit=self.theta_flop_per_bit,
        )


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component mean powers of one camera, in watts.

    Every field already includes its duty-cycle share, so the components
    sum to ``total_w`` exactly; multiply the OFDM, DAC, mixer and PA
    entries by the camera count to recover raw per-device draws.
    """

    video_w: float
    cod_w: float
    ofdm_w: float
    dac_w: float
    lo_w: float
    mix_w: float
    pa_w: float
    total_w: float

    def __post_init__(self):
        parts = (
            self.video_w, self.cod_w, self.ofdm_w, self.dac_w,
            self.lo_w, self.mix_w, self.pa_w,
        )
        if any(p < 0.0 for p in parts):
            raise DomainError(f"component powers must be non-negative, got {parts!r}")
        total = sum(parts)
        if abs(total - self.total_w) > 1e-12 * max(total, self.total_w):
            raise DomainError(
                f"total_w = {self.total_w!r} does not match component sum {total!r}"
            )


def local_power(theta_flop_per_bit: float, rate_bps: float, gamma_flops_per_w: float) -> float:
    """On-device analytics power: theta * R / Gamma watts."""
    if theta_flop_per_bit < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta_flop_per_bit!r}")
    require_positive(rate_bps=rate_bps, gamma_flops_per_w=gamma_flops_per_w)
    return theta_flop_per_bit * rate_bps / gamma_flops_per_w


def coding_power(rate_bps: float, psi_w_per_bps: float) -> float:
    """Redundancy-coding power, proportional to the bitrate: R * psi."""
    if rate_bps < 0.0:
        raise DomainError(f"rate_bps must be non-negative, got {rate_bps!r}")
    require_positive(psi_w_per_bps=psi_w_per_bps)
    return rate_bps * psi_w_per_bps


def ofdm_power(n_ofdm: int, delta_f_hz: float, gamma_mod_flops_per_w: float) -> float:
    """OFDM modulator power, dominated by the inverse FFT.

    The transform costs 4*N*log2(N) - 6*N + 8 operations per symbol of
    duration 1/delta_f, mapped to watts through the modem efficiency.
    N must be a power of two for the operation count to apply.
    """
    _require_transform_size(n_ofdm)
    require_positive(delta_f_hz=delta_f_hz, gamma_mod_flops_per_w=gamma_mod_flops_per_w)
    flop_per_symbol = 4.0 * n_ofdm * math.log2(n_ofdm) - 6.0 * n_ofdm + 8.0
    return flop_per_symbol * delta_f_hz / gamma_mod_flops_per_w


def dac_power(bits: int, v_dd: float, i_0_a: float, c_p_f: float, sample_rate_hz: float) -> float:
    """Converter power: static current-steering term plus dynamic term.

    P = V_dd * I_0 * (2^bits - 1) + 0.5 * bits * C_p * f_s * V_dd^2
    """
    require_int("bits", bits, 1, MAX_DAC_BITS)
    require_positive(v_dd=v_dd, i_0_a=i_0_a, sample_rate_hz=sample_rate_hz)
    if c_p_f < 0.0:
        raise DomainError(f"c_p_f must be non-negative, got {c_p_f!r}")
    static = v_dd * i_0_a * (2.0 ** bits - 1.0)
    dynamic = 0.5 * bits * c_p_f * sample_rate_hz * v_dd * v_dd
    return static + dynamic


def duty_cycled_breakdown(
    video_w: float,
    cod_w: float,
    ofdm_w: float,
    dac_w: float,
    lo_w: float,
    mix_w: float,
    pa_w: float,
    cameras: int,
) -> PowerBreakdown:
    """Aggregate raw per-device component draws under TDMA duty cycling.

    The modulator, the two DACs, the two mixers and the amplifier are
    active only during the camera's 1/M slot; video compression, coding
    and the local oscillator stay on continuously.
    """
    require_int("cameras", cameras)
    m = float(cameras)
    parts = dict(
        video_w=video_w,
        cod_w=cod_w,
        ofdm_w=ofdm_w / m,
        dac_w=2.0 * dac_w / m,
        lo_w=lo_w,
        mix_w=2.0 * mix_w / m,
        pa_w=pa_w / m,
    )
    return PowerBreakdown(total_w=sum(parts.values()), **parts)


def link_geometry(radio: RadioParams, deploy: DeploymentParams) -> LinkGeometry:
    """The uplink a scenario asks for: its distance, band, fleet and rate."""
    return LinkGeometry(
        distance_km=deploy.distance_km,
        carrier_hz=deploy.carrier_hz,
        bandwidth_hz=radio.bandwidth_hz,
        cameras=deploy.cameras,
        rate_bps=deploy.rate_bps,
        beta=radio.beta,
    )


def breakdown_at(
    radio: RadioParams, deploy: DeploymentParams, point: PaOperatingPoint, p_max_w: float
) -> PowerBreakdown:
    """Duty-cycled component powers, the amplifier at ``point`` clipping at ``p_max_w``."""
    return duty_cycled_breakdown(
        video_w=deploy.p_video_w,
        cod_w=coding_power(deploy.rate_bps, radio.psi_w_per_bps),
        ofdm_w=ofdm_power(radio.n_ofdm, radio.delta_f_hz, radio.gamma_mod_flops_per_w),
        dac_w=dac_power(
            radio.dac_bits, radio.v_dd, radio.i_0_a, radio.c_p_f, radio.sample_rate_hz
        ),
        lo_w=radio.p_lo_w,
        mix_w=radio.p_mix_w,
        pa_w=pa_consumed_power(p_max_w, point.ibo_linear),
        cameras=deploy.cameras,
    )


def offload_power(radio: RadioParams, deploy: DeploymentParams) -> PowerBreakdown:
    """Mean power one camera spends to offload its stream.

    Sizes the amplifier for the rate and the link, evaluates every
    component model and applies the duty-cycle accounting.
    """
    geometry = link_geometry(radio, deploy)
    point = operating_point(geometry)
    return breakdown_at(radio, deploy, point, clip_power(geometry, point.snr_max_linear))


def breakeven_at(offload_w: float, deploy: DeploymentParams) -> float:
    """Workload complexity theta* = Gamma * P_offload / R (FLOP/bit) at which
    local compute draws ``offload_w``; above it, offloading wins."""
    return deploy.gamma_flops_per_w * offload_w / deploy.rate_bps
