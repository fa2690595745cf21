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
    "clipping",
    "checked_sinr",
    "optimal_ibos",
    "sinr_approx_db",
    "snr_max_for_sinr_db",
    "pa_consumed_power",
]

_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * _SQRT_PI

# Smallest SNR ceiling the back-off solve accepts, -39.475 dB: the one
# whose optimal back-off is 1e-8, where the stationarity gap
# (sqrt(pi)/2) * erfc(z) - z / SNR_MAX has its root at z = 1e-4.  Only a
# refusal: lifting it waits for a start accurate below -40 dB.
MIN_SNR_CEILING = 1e-4 / (_HALF_SQRT_PI * math.erfc(1e-4))

# Largest SNR ceiling the back-off solve accepts, 156.5 dB.  Near 160 dB
# the optimal back-off approaches ~36 (linear), where the Bussgang gain
# rounds to 1.0 in double precision: with the cap lifted, on a 0.01 dB
# grid to 164.99 dB, the solve refuses from 157.79 through 159.48 dB and
# from 162.56 dB on, so the cap sits below the first refusal and above
# the 156.24 dB that fig4's default grid reaches.
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


def checked_sinr(
    alpha: float, distortion: float, ibo_linear: float, snr_max_linear: float
) -> float:
    """Receiver SINR from the closed forms at a back-off and SNR ceiling.

        SINR = alpha^2 / (D + IBO / SNR_MAX)

    The denominator is the normalized clipping-distortion power plus the
    thermal-noise share; the numerator is the surviving useful power.  The
    one place the SINR is formed.  DomainError unless the ceiling is
    positive and finite, then unless the SINR is finite and positive.
    """
    if not 0.0 < snr_max_linear < math.inf:
        raise DomainError(f"snr_max_linear must be positive and finite, got {snr_max_linear!r}")
    denominator = distortion + ibo_linear / snr_max_linear  # 0.0 once both underflow
    sinr = alpha * alpha / denominator if denominator else math.nan
    if not 0.0 < sinr < math.inf:
        raise DomainError(f"SINR degenerated to {sinr!r} at ibo = {ibo_linear!r}, "
                          f"snr_max = {snr_max_linear!r}")
    return sinr


def optimal_ibos(ceilings: Iterable[float]) -> Iterator[Tuple[float, float, float]]:
    """Back-offs that maximize SINR, one per SNR ceiling, in order.

    Yields ``(ibo_linear, alpha, sinr_linear)`` for each ceiling, the bits of
    ``clipping(ibo_linear)`` and ``checked_sinr(alpha, D, ibo_linear, s)``, and
    raises at the first ceiling that fails.

    Solves the stationarity condition in z = sqrt(IBO) by Newton steps.
    On z > 0 its gap is strictly decreasing and convex, so the root is
    unique and Newton from any positive start overshoots at most once,
    to a positive z below the root, and then rises to it.  The 1e-13 stop
    fires before a step can round to nothing: that needs z within half an
    ulp of the root, where every accepted ceiling's gap is below 1e-16.

    Raises DomainError for a ceiling outside [MIN_SNR_CEILING,
    MAX_SNR_CEILING], ConvergenceError when the gap is not within 1e-13
    by the 200th step, and DomainError when the solved SINR is not finite
    and positive, or else the Bussgang gain lies outside (0, 1) or the
    SINR outside (0, s).
    """
    erfc, exp, sqrt, log, isfinite = math.erfc, math.exp, math.sqrt, math.log, math.isfinite
    half_sqrt_pi = _HALF_SQRT_PI
    for s in ceilings:
        if not (isfinite(s) and s > 0.0):
            raise DomainError(f"snr_max_linear must be positive and finite, got {s!r}")
        if s < MIN_SNR_CEILING:
            raise DomainError(
                f"snr_max_linear = {s!r} is below "
                f"{10.0 * math.log10(MIN_SNR_CEILING):.3f} dB, the lowest SNR ceiling "
                "the back-off solve accepts"
            )
        if s > MAX_SNR_CEILING:
            raise DomainError(
                f"snr_max_linear = {s!r} exceeds {MAX_SNR_CEILING:g}, "
                f"where the Bussgang gain saturates to 1.0 in double precision"
            )
        inv_s = 1.0 / s
        # d(gap)/dz at the root flattens toward -1/s for large s, so start near
        # the asymptotic root location to keep the iteration count low; for
        # s in (e, MAX_SNR_CEILING] it lies in (1, 6.01).
        z = sqrt(log(s)) if s > math.e else 0.5
        # the stationarity gap (sqrt(pi)/2) * erfc(z) - z / s, in z = sqrt(IBO)
        g = half_sqrt_pi * erfc(z) - z / s
        for _ in range(200):
            if -1e-13 <= g <= 1e-13:
                break
            z -= g / (-exp(-z * z) - inv_s)
            g = half_sqrt_pi * erfc(z) - z / s
        else:
            raise ConvergenceError(
                f"back-off solve did not converge: |gap| = {abs(g)!r} at z = {z!r}, "
                f"snr_max_linear = {s!r}"
            )
        ibo = z * z
        alpha, distortion = _clipping(ibo)
        sinr = checked_sinr(alpha, distortion, ibo, s)
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not sinr < s:
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
