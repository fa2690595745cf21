"""Soft-limiter power amplifier model.

A memoryless clipper driven by a complex-Gaussian (OFDM-like) input admits
closed forms for the Bussgang gain, the self-distortion power, the SINR at
the receiver, and the mean supply power of a class B amplifier stage.  This
module provides those closed forms plus the solve for the input back-off
(IBO) that maximizes SINR.

All quantities here are linear-scale ratios or watts; only functions whose
name carries ``_db`` accept or return decibels.
"""

import math
from typing import Iterable, Iterator, Tuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "bussgang_alpha",
    "clipping",
    "sinr_of_ibo",
    "optimal_ibos",
    "sinr_approx_db",
    "snr_max_for_sinr_db",
    "pa_consumed_power",
]

_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * _SQRT_PI

# Search bracket for the optimal back-off, in linear IBO.  It holds a sign
# change of the stationarity gap for every SNR ceiling from MIN_SNR_CEILING,
# -39.475 dB, below which the gap at its lower end z = sqrt(1e-8) = 1e-4 is
# negative, up to MAX_SNR_CEILING; at its upper end erfc(sqrt(1e3)) is 0.0,
# so the gap is -sqrt(1e3) / SNR_MAX < 0 for every finite ceiling.
IBO_BRACKET = (1e-8, 1e3)
_Z_BRACKET = (math.sqrt(IBO_BRACKET[0]), math.sqrt(IBO_BRACKET[1]))
MIN_SNR_CEILING = 1e-4 / (_HALF_SQRT_PI * math.erfc(1e-4))

# Largest SNR ceiling the back-off solve accepts, 156.5 dB.  Near 160 dB
# the optimal back-off approaches ~36 (linear), where the Bussgang gain is
# no longer distinguishable from 1.0 in double precision: measured on a
# 0.01 dB grid, the solve fails from 157.79 dB through 159.48 dB, so the
# cap sits below that band and above the 156.24 dB that fig4's default
# grid reaches.
MAX_SNR_CEILING = 10.0 ** 15.65

# Approximation of the maximum achievable SINR in dB as an affine function
# of the SNR ceiling in dB.
SINR_APPROX_SLOPE = 0.84
SINR_APPROX_OFFSET_DB = -2.23


def _clipping(ibo_linear: float) -> Tuple[float, float]:
    """The Bussgang gain and the distortion power at a back-off, unchecked:
    the one place both closed forms are written."""
    root = math.sqrt(ibo_linear)
    e = math.exp(-ibo_linear)
    alpha = 1.0 - e + _HALF_SQRT_PI * root * math.erfc(root)
    return alpha, 1.0 - alpha * alpha - e


def clipping(ibo_linear: float) -> Tuple[float, float]:
    """Bussgang gain and clipping-distortion power at unit mean input power.

        alpha = 1 - exp(-IBO) + 0.5 * sqrt(pi * IBO) * erfc(sqrt(IBO))
        D     = 1 - alpha^2 - exp(-IBO)

    alpha is strictly increasing in the back-off; it tends to 1 as clipping
    vanishes (saturating to exactly 1.0 in floats once IBO exceeds the
    mid-thirties) and falls off like 0.5 * sqrt(pi * IBO) under heavy
    clipping.
    """
    if not (math.isfinite(ibo_linear) and ibo_linear > 0.0):
        raise DomainError(f"ibo_linear must be positive and finite, got {ibo_linear!r}")
    return _clipping(ibo_linear)


def bussgang_alpha(ibo_linear: float) -> float:
    """Bussgang gain of the soft limiter for complex-Gaussian input, the
    first value of :func:`clipping`."""
    return clipping(ibo_linear)[0]


def sinr_of_ibo(ibo_linear: float, snr_max_linear: float) -> float:
    """Receiver SINR at a given back-off and SNR ceiling.

        SINR = alpha^2 / (D + IBO / SNR_MAX)

    The denominator is the normalized clipping-distortion power plus the
    thermal-noise share; the numerator is the surviving useful power.
    """
    if not (math.isfinite(snr_max_linear) and snr_max_linear > 0.0):
        raise DomainError(
            f"snr_max_linear must be positive and finite, got {snr_max_linear!r}"
        )
    alpha, distortion = clipping(ibo_linear)
    denominator = distortion + ibo_linear / snr_max_linear  # 0.0 once both underflow
    sinr = alpha * alpha / denominator if denominator else math.nan
    if not (math.isfinite(sinr) and sinr > 0.0):
        raise DomainError(
            f"SINR degenerated to {sinr!r} at ibo = {ibo_linear!r}, "
            f"snr_max = {snr_max_linear!r}"
        )
    return sinr


def optimal_ibos(ceilings: Iterable[float]) -> Iterator[Tuple[float, float, float]]:
    """Back-offs that maximize SINR, one per SNR ceiling, in order.

    Yields ``(ibo_linear, alpha, sinr_linear)`` for each ceiling, the bits of
    ``bussgang_alpha(ibo_linear)`` and ``sinr_of_ibo(ibo_linear, s)``, and
    raises at the first ceiling that fails.

    Solves the stationarity condition in z = sqrt(IBO) by Newton steps kept
    inside a shrinking sign-change bracket, with a bisection step whenever
    a Newton step would leave it (the condition is strictly decreasing in
    z, so the root is unique).

    Raises DomainError for a ceiling outside [MIN_SNR_CEILING,
    MAX_SNR_CEILING], ConvergenceError when the gap is not within 1e-13
    after 200 steps or once a step makes no progress, and DomainError when
    the solved SINR is not finite and positive, or else the Bussgang gain
    lies outside (0, 1) or the SINR outside (0, s).
    """
    erfc, exp, sqrt, log, isfinite = math.erfc, math.exp, math.sqrt, math.log, math.isfinite
    half_sqrt_pi = _HALF_SQRT_PI
    z_lo, z_hi = _Z_BRACKET
    for s in ceilings:
        if not (isfinite(s) and s > 0.0):
            raise DomainError(f"snr_max_linear must be positive and finite, got {s!r}")
        if s < MIN_SNR_CEILING:
            raise DomainError(
                f"snr_max_linear = {s!r} is below "
                f"{10.0 * math.log10(MIN_SNR_CEILING):.3f} dB, the lowest SNR ceiling "
                f"whose optimal back-off lies in the searched range {IBO_BRACKET}"
            )
        if s > MAX_SNR_CEILING:
            raise DomainError(
                f"snr_max_linear = {s!r} exceeds {MAX_SNR_CEILING:g}, "
                f"where the Bussgang gain saturates to 1.0 in double precision"
            )
        inv_s = 1.0 / s
        lo, hi = z_lo, z_hi
        # d(gap)/dz at the root flattens toward -1/s for large s, so start near
        # the asymptotic root location to keep the iteration count low; for
        # s in (e, MAX_SNR_CEILING] it lies in (1, 6.01), inside the bracket.
        z = sqrt(log(s)) if s > math.e else 0.5
        # the stationarity gap (sqrt(pi)/2) * erfc(z) - z / s, in z = sqrt(IBO)
        g = half_sqrt_pi * erfc(z) - z / s
        for _ in range(200):
            if -1e-13 <= g <= 1e-13:
                break
            slope = -exp(-z * z) - inv_s
            z_next = z - g / slope
            # the gap falls with z: the root lies above z while g > 0
            if g > 0.0:
                lo = z
            else:
                hi = z
            if not lo < z_next < hi:
                z_next = 0.5 * (lo + hi)
            if z_next == z:
                break
            z = z_next
            g = half_sqrt_pi * erfc(z) - z / s
        if abs(g) > 1e-13:
            raise ConvergenceError(
                f"back-off solve did not converge: |gap| = {abs(g)!r} at z = {z!r}, "
                f"snr_max_linear = {s!r}"
            )
        # the closed forms at the root, with sinr_of_ibo's operations
        ibo = z * z
        alpha, distortion = _clipping(ibo)
        sinr = alpha * alpha / (distortion + ibo / s)
        if not (0.0 < alpha < 1.0 and 0.0 < sinr < s):
            if not 0.0 < sinr < math.inf:
                raise DomainError(
                    f"SINR degenerated to {sinr!r} at ibo = {ibo!r}, snr_max = {s!r}"
                )
            if not 0.0 < alpha < 1.0:
                raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
            raise DomainError(f"sinr_linear must lie in (0, snr_max_linear), got "
                              f"{sinr!r} with ceiling {s!r}")
        yield ibo, alpha, sinr


def sinr_approx_db(snr_max_db: float) -> float:
    """Affine dB approximation of the maximum achievable SINR.

    Returns 0.84 * snr_max_db - 2.23.  Used when sizing the clipping
    power from a rate requirement; the exact solve stays available via
    :func:`optimal_ibos` for verification.

    The fit's error against the exact optimum is rated at 0.5 dB, to one
    decimal, for snr_max_db in [-10, 50] dB.  The measured maximum on a
    0.1 dB grid is 0.510856 dB, at the -10 dB edge, which rounds to that
    rating but is not strictly below 0.5 dB.
    """
    return SINR_APPROX_SLOPE * snr_max_db + SINR_APPROX_OFFSET_DB


def snr_max_for_sinr_db(sinr_db: float) -> float:
    """Inverse of :func:`sinr_approx_db`: the dB SNR ceiling that makes the
    affine approximation deliver ``sinr_db``."""
    return (sinr_db - SINR_APPROX_OFFSET_DB) / SINR_APPROX_SLOPE


def pa_consumed_power(p_max_w: float, ibo_linear: float) -> float:
    """Mean supply power of a class B stage clipping at ``p_max_w``.

        P = (2 * P_MAX / sqrt(pi * IBO)) * erf(sqrt(IBO))

    This averages the instantaneous class B draw (4/pi) * sqrt(p * P_MAX)
    over the Rayleigh amplitude distribution of the clipped signal.  Linear
    in ``p_max_w`` at fixed back-off.
    """
    if not (math.isfinite(p_max_w) and p_max_w >= 0.0):
        raise DomainError(f"p_max_w must be non-negative, got {p_max_w!r}")
    if not (math.isfinite(ibo_linear) and ibo_linear > 0.0):
        raise DomainError(f"ibo_linear must be positive, got {ibo_linear!r}")
    root = math.sqrt(ibo_linear)
    # factored so the scaling in p_max_w is exact in floating point
    return p_max_w * (2.0 * math.erf(root) / (_SQRT_PI * root))
