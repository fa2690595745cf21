"""Hot moment-accumulation kernel for the Monte-Carlo verifier.

The soft limiter keeps the phase of its input, so every moment the
verifier needs depends only on the input radius.  The kernel maps Philox
uniforms u1 to |x|^2 = -sigma2 * log(1 - u1) (the radial half of the
Box-Muller transform) and r = |x| once, together with their three
clip-independent sums.  Then, for each clip power p_max in turn, it clips
the radius at sqrt(p_max) to get rho = |y| and accumulates the eight
clip-dependent sums.  With c = y * conj(x), Re(c) = r * rho and Im(c) is
exactly zero.

Every step is an in-place numpy ufunc writing into a caller-owned
workspace, so a call allocates nothing but its result.  Each sum is a
plain ``ndarray.sum`` over a contiguous row, never BLAS, so the result
bits do not depend on the thread count.  A clip's row applies the same
ufuncs to the same values whatever other clips share the call, so its
bits equal those of a call with that clip alone.

Sum layout (x = input sample, y = clipped sample, c = y * conj(x));
2, 4 and 7 do not depend on the clip power:
  0: sum Re(c)        1: sum |y|^2        2: sum |x|^2      3: sum |y|
  4: sum |x|          5: sum Re(c)^2      6: sum |y|^4      7: sum |x|^4
  8: sum |y|^2 Re(c)  9: sum |y|^2|x|^2  10: sum |x|^2 Re(c)
"""

import math
from typing import Sequence

import numpy as np

N_SUMS = 11
# Rows of the float64 workspace ``moment_sums`` needs besides ``u1``, each
# at least as long as ``u1``.
WORK_ROWS = 4


def moment_sums(
    u1: np.ndarray, sigma2: float, clip_powers: Sequence[float], work: np.ndarray
) -> np.ndarray:
    """Moment sums of the samples drawn from the uniforms ``u1``.

    Returns a (len(clip_powers), N_SUMS) array, one row per clip power in
    the order given.  ``work`` is a float64 array of shape (WORK_ROWS, m)
    with m >= len(u1); its contents are overwritten, and so are those of
    ``u1``, which serves as the product scratch row once it is read.
    """
    n = u1.shape[0]
    b, r, a, cre = work[:WORK_ROWS, :n]
    tmp = u1
    out = np.empty((len(clip_powers), N_SUMS))
    np.negative(u1, out=b)
    np.log1p(b, out=b)
    np.multiply(b, -sigma2, out=b)  # |x|^2
    np.sqrt(b, out=r)  # r = |x|
    out[:, 4] = r.sum()
    out[:, 2] = b.sum()
    np.multiply(b, b, out=tmp)
    out[:, 7] = tmp.sum()
    last = len(clip_powers) - 1
    for k, p_max in enumerate(clip_powers):
        row = out[k]
        np.minimum(r, math.sqrt(p_max), out=a)  # rho = |y|
        row[3] = a.sum()
        if k == last:  # r is not read again: overwrite it
            cre = r
        np.multiply(r, a, out=cre)  # Re(c) = r * rho
        np.multiply(a, a, out=a)  # |y|^2
        row[0] = cre.sum()
        row[1] = a.sum()
        for index, (left, right) in zip(
            (5, 6, 8, 9, 10), ((cre, cre), (a, a), (a, cre), (a, b), (b, cre))
        ):
            np.multiply(left, right, out=tmp)
            row[index] = tmp.sum()
    return out
