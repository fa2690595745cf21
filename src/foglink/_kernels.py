"""Hot moment-accumulation kernel for the Monte-Carlo verifier.

The soft limiter keeps the phase of its input, so every moment the
verifier needs depends only on the input radius.  The kernel maps Philox
uniforms u1 to |x|^2 = -sigma2 * log(1 - u1) (the radial half of the
Box-Muller transform), clips the radius r = |x| at sqrt(p_max) to get
rho = |y|, and accumulates the 11 moment sums listed below.  With
c = y * conj(x), Re(c) = r * rho and Im(c) is exactly zero.

Every step is an in-place numpy ufunc writing into a caller-owned
workspace, so a call allocates nothing but its result.  Each sum is a
plain ``ndarray.sum`` over a contiguous row, never BLAS, so the result
bits do not depend on the thread count.

Sum layout (x = input sample, y = clipped sample, c = y * conj(x)):
  0: sum Re(c)        1: sum |y|^2        2: sum |x|^2      3: sum |y|
  4: sum |x|          5: sum Re(c)^2      6: sum |y|^4      7: sum |x|^4
  8: sum |y|^2 Re(c)  9: sum |y|^2|x|^2  10: sum |x|^2 Re(c)
"""

import math

import numpy as np

N_SUMS = 11
# Rows of the float64 workspace ``moment_sums`` needs, each at least as
# long as its input.
WORK_ROWS = 4


def moment_sums(u1: np.ndarray, sigma2: float, p_max: float, work: np.ndarray) -> np.ndarray:
    """Moment sums of the samples drawn from the uniforms ``u1``.

    ``work`` is a float64 array of shape (WORK_ROWS, m) with m >= len(u1);
    its contents are overwritten.
    """
    n = u1.shape[0]
    b, c, a, tmp = work[:WORK_ROWS, :n]
    out = np.empty(N_SUMS)
    np.negative(u1, out=b)
    np.log1p(b, out=b)
    np.multiply(b, -sigma2, out=b)  # |x|^2
    np.sqrt(b, out=c)  # r = |x|
    out[4] = c.sum()
    np.minimum(c, math.sqrt(p_max), out=a)  # rho = |y|
    out[3] = a.sum()
    np.multiply(c, a, out=c)  # Re(c) = r * rho
    np.multiply(a, a, out=a)  # |y|^2
    out[0] = c.sum()
    out[1] = a.sum()
    out[2] = b.sum()
    for index, (left, right) in enumerate(((c, c), (a, a), (b, b), (a, c), (a, b), (b, c)), 5):
        np.multiply(left, right, out=tmp)
        out[index] = tmp.sum()
    return out
