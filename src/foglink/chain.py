"""Transmitter power model and the local-vs-offload comparison.

``clip_independent_parts`` and ``breakdown_at`` hold the per-component
draws (video coder, redundancy coding, OFDM modulator, DACs, local
oscillator, mixers, power amplifier) and their TDMA duty cycling;
``offload_power`` gives the mean offload power of one camera on a link.
``breakeven_at`` compares it against the power of running the analytics
workload on the device itself.
"""

import math
from typing import Dict, Tuple

from .errors import DomainError, require_int, require_positive
from .link import clip_power, snr_ceiling
from .pa import optimal_ibos, pa_consumed_power
from .record import Record

__all__ = [
    "RadioParams",
    "DeploymentParams",
    "PowerBreakdown",
    "local_power",
    "clip_independent_parts",
    "breakdown_at",
    "offload_power",
    "breakeven_at",
]


# Converter resolutions whose 2^bits is still a finite float.
MAX_DAC_BITS = 1023

# The config keys each clip-independent component power is made from; the
# per-camera division by the camera count cannot make a finite draw infinite.
_PART_KEYS = {
    "video_w": "p_video_w",
    "cod_w": "rate_bps and psi_w_per_bps",
    "ofdm_w": "n_ofdm, delta_f_hz and gamma_mod_flops_per_w",
    "dac_w": "v_dd, i_0_a, dac_bits, c_p_f and sample_rate_hz",
    "lo_w": "p_lo_w",
    "mix_w": "p_mix_w",
}


class RadioParams(Record):
    """Front-end constants of the transmit chain.

    The OFDM transform size is a power of two tied to the converter rate
    by n_ofdm = sample_rate_hz / delta_f_hz exactly, and the converters run
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
        n = self.n_ofdm
        if not (isinstance(n, int) and n >= 2 and n & (n - 1) == 0):
            raise DomainError(f"n_ofdm must be a power of two >= 2, got {n!r}")
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


class DeploymentParams(Record):
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


class PowerBreakdown(Record):
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


def local_power(theta_flop_per_bit: float, rate_bps: float, gamma_flops_per_w: float) -> float:
    """On-device analytics power: theta * R / Gamma watts."""
    if theta_flop_per_bit < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta_flop_per_bit!r}")
    require_positive(rate_bps=rate_bps, gamma_flops_per_w=gamma_flops_per_w)
    local_w = theta_flop_per_bit * rate_bps / gamma_flops_per_w
    if not math.isfinite(local_w):
        raise DomainError(f"local power is not finite for theta = {theta_flop_per_bit!r}, "
                          f"rate_bps = {rate_bps!r}, gamma_flops_per_w = {gamma_flops_per_w!r}")
    return local_w


def clip_independent_parts(
    radio: RadioParams, deploy: DeploymentParams
) -> Tuple[Dict[str, float], float]:
    """The duty-cycled draws of every component but the amplifier, keyed by
    their ``PowerBreakdown`` field, and their sum H.

    Raw per-device draws:

    - redundancy coding: R * psi
    - OFDM modulator, dominated by the inverse FFT of N points:
      (4*N*log2(N) - 6*N + 8) * delta_f / Gamma_mod
    - each of the two DACs, static current steering plus dynamic switching:
      V_dd * I_0 * (2^bits - 1) + 0.5 * bits * C_p * f_s * V_dd^2
    - local oscillator, each of the two mixers: their constant draws

    The modulator, DACs and mixers are active only during the camera's 1/M
    slot, so they are divided by M; video compression, coding and the local
    oscillator stay on continuously.  A part or H that is not finite raises
    DomainError naming the config keys it is computed from.
    """
    m = float(deploy.cameras)
    n = radio.n_ofdm
    flop_per_symbol = 4.0 * n * math.log2(n) - 6.0 * n + 8.0
    v_dd, bits = radio.v_dd, radio.dac_bits
    static = v_dd * radio.i_0_a * (2.0 ** bits - 1.0)
    dynamic = 0.5 * bits * radio.c_p_f * radio.sample_rate_hz * v_dd * v_dd
    parts = dict(
        video_w=deploy.p_video_w,
        cod_w=deploy.rate_bps * radio.psi_w_per_bps,
        ofdm_w=flop_per_symbol * radio.delta_f_hz / radio.gamma_mod_flops_per_w / m,
        dac_w=2.0 * (static + dynamic) / m,
        lo_w=radio.p_lo_w,
        mix_w=2.0 * radio.p_mix_w / m,
    )
    for name, keys in _PART_KEYS.items():
        if not math.isfinite(parts[name]):
            raise DomainError(
                f"{name} = {parts[name]!r} W is not finite; it is computed from {keys}"
            )
    head = sum(parts.values())
    if not math.isfinite(head):
        raise DomainError(f"the clip-independent parts sum to {head!r} W, which is not "
                          f"finite; they are computed from {'; '.join(_PART_KEYS.values())}")
    return parts, head


def breakdown_at(
    radio: RadioParams, deploy: DeploymentParams, ibo_linear: float, p_max_w: float
) -> PowerBreakdown:
    """``clip_independent_parts`` and the amplifier at back-off ``ibo_linear``
    clipping at ``p_max_w``: its class B supply power, linear in ``p_max_w``,
    divided by M as it is active only during the camera's 1/M slot.  An
    amplifier draw that overflows, or that makes the total overflow, raises
    DomainError."""
    parts, head = clip_independent_parts(radio, deploy)
    pa_w = pa_consumed_power(p_max_w, ibo_linear) / float(deploy.cameras)
    total_w = head + pa_w
    if not total_w < math.inf:
        raise DomainError(
            f"amplifier draw pa_w = {pa_w!r} W at clipping power {p_max_w!r} W makes "
            f"the offload power {total_w!r} W, which is not finite"
        )
    return PowerBreakdown(**parts, pa_w=pa_w, total_w=total_w)


def offload_power(radio: RadioParams, deploy: DeploymentParams) -> PowerBreakdown:
    """Mean power one camera spends to offload its stream.

    Sizes the amplifier for the rate and the link, evaluates every
    component model and applies the duty-cycle accounting.
    """
    _, snr_max = snr_ceiling(radio.bandwidth_hz, deploy.cameras, deploy.rate_bps, radio.beta)
    [(ibo, _, _)] = optimal_ibos([snr_max])
    p_max = clip_power(deploy.distance_km, deploy.carrier_hz, radio.bandwidth_hz, snr_max)
    return breakdown_at(radio, deploy, ibo, p_max)


def breakeven_at(offload_w: float, deploy: DeploymentParams) -> float:
    """Workload complexity theta* = Gamma * P_offload / R (FLOP/bit) at which
    local compute draws ``offload_w``; above it, offloading wins."""
    theta = deploy.gamma_flops_per_w * offload_w / deploy.rate_bps
    if not math.isfinite(theta):
        raise DomainError(f"breakeven theta is not finite for gamma_flops_per_w = "
                          f"{deploy.gamma_flops_per_w!r}, offload power {offload_w!r} W, "
                          f"rate_bps = {deploy.rate_bps!r}")
    return theta
