"""References the tests hold the package's own computations to.

The bisection here shares no code with ``foglink.pa.optimal_ibos``: it uses
only the sign of ``f`` and halves the bracket until it is ``tol`` wide.
``soft_limit`` is the complex-sample soft limiter, and
``moment_sums_exact`` the exactly rounded moment sums that
``foglink._kernels.moment_sums`` must come within a few roundings of, and
``moment_sums_reference`` the same sums taken whole-row by ``ndarray.sum``.
``format_cell`` prints one CSV cell on its own, as ``cli.render_csv``'s row
templates must print it.
"""

import math

import numpy as np

from foglink import ConvergenceError, DomainError, NumericError


def solve_bisection(f, lo, hi, *, tol=1e-12, max_iter=200):
    """Root of ``f`` on [lo, hi]; returns once the interval width is <= tol.

    Requires f(lo) and f(hi) to differ in sign, otherwise ValueError.
    The returned root always lies inside the original bracket.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got [{lo!r}, {hi!r}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo) = {flo!r}, f(hi) = {fhi!r}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection interval still {hi - lo!r} wide after {max_iter} iterations"
    )


def format_cell(value):
    """A str as is, a number at 9 significant digits (a bool as its int, as
    ``%`` prints it); inf and nan raise NumericError."""
    if isinstance(value, str):
        return value
    number = float(value)
    if not math.isfinite(number):
        raise NumericError(f"non-finite value {value!r} in CSV output")
    return f"{number:.9g}"


def soft_limit(sample, p_max_w):
    """Soft limiter: pass below the clip amplitude, clamp magnitude above.

    Samples with |x| < sqrt(p_max_w) are returned unchanged; larger ones
    are scaled to magnitude sqrt(p_max_w) with their phase preserved.
    Accepts a complex scalar or a numpy array.
    """
    if not p_max_w > 0.0:
        raise DomainError(f"p_max_w must be positive, got {p_max_w!r}")
    clip = math.sqrt(p_max_w)
    if isinstance(sample, np.ndarray):
        mag = np.abs(sample)
        scale = np.ones_like(mag)
        over = mag >= clip
        scale[over] = clip / mag[over]
        return sample * scale
    mag = abs(sample)
    if mag < clip:
        return sample
    return sample * (clip / mag)


def exact_sum(values):
    """``math.fsum`` of a float64 array of at most 2**26 finite values: the
    exactly rounded sum, from integer sums of the mantissas grouped by
    binary exponent."""
    mantissa, exponent = np.frexp(values)  # value = mantissa * 2**exponent
    lowest = int(exponent.min(initial=0))
    group = np.subtract(exponent, lowest, dtype=np.intp)
    # mantissa * 2**53 = high * 2**26 + low, with integers |high| <= 2**27
    # and 0 <= low < 2**26, so every partial sum of up to 2**26 of them is
    # an integer below 2**53, held exactly in float64
    mantissa *= 2.0 ** 27
    high = np.floor(mantissa)
    low = mantissa  # in place: no page faults on a fresh array
    low -= high
    low *= 2.0 ** 26
    total = sum(
        ((int(h) << 26) + int(l)) << shift
        for shift, (h, l) in enumerate(
            zip(np.bincount(group, weights=high), np.bincount(group, weights=low))
        )
    )
    scale = lowest - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def moment_sums_exact(u1, clip_powers):
    """The (len(clip_powers), 10) moment sums of ``foglink._kernels`` over
    the uniforms ``u1``, each the exactly rounded sum of its per-sample
    terms."""
    b = -np.log1p(-u1)  # |x|^2
    r = np.sqrt(b)  # |x|
    out = np.empty((len(clip_powers), 10))
    out[:, 2] = exact_sum(b)
    out[:, 6] = exact_sum(b * b)
    for row, p_max in zip(out, clip_powers):
        rho = np.minimum(r, math.sqrt(p_max))  # |y|
        cre = r * rho  # Re(y * conj(x))
        a = rho * rho  # |y|^2
        terms = (cre, a, rho, cre * cre, a * a, a * cre, a * b, b * cre)
        for index, term in zip((0, 1, 3, 4, 5, 7, 8, 9), terms):
            row[index] = exact_sum(term)
    return out


def moment_sums_reference(u1, clip_powers):
    """The (len(clip_powers), 10) moment sums of ``foglink._kernels``, each
    one ufunc pass and one ``ndarray.sum`` over the whole row.

    Leaves ``u1`` unchanged.
    """
    n = u1.shape[0]
    b, r, a, cre, tmp = np.empty((5, n))
    out = np.empty((len(clip_powers), 10))
    np.negative(u1, out=b)
    np.log1p(b, out=b)
    np.negative(b, out=b)  # |x|^2
    np.sqrt(b, out=r)  # r = |x|
    out[:, 2] = b.sum()
    np.multiply(b, b, out=tmp)
    out[:, 6] = tmp.sum()
    for row, p_max in zip(out, clip_powers):
        np.minimum(r, math.sqrt(p_max), out=a)  # rho = |y|
        row[3] = a.sum()
        np.multiply(r, a, out=cre)  # Re(c) = r * rho
        np.multiply(a, a, out=a)  # |y|^2
        row[0] = cre.sum()
        row[1] = a.sum()
        for index, (left, right) in zip(
            (4, 5, 7, 8, 9), ((cre, cre), (a, a), (a, cre), (a, b), (b, cre))
        ):
            np.multiply(left, right, out=tmp)
            row[index] = tmp.sum()
    return out
