"""Hot moment-accumulation kernel for the Monte-Carlo verifier.

The verifier runs at unit mean input power.  The soft limiter keeps the
phase of its input, so every moment the verifier needs depends only on
the input radius.  The kernel draws Philox uniforms u1 and maps them to
b = |x|^2 = -log(1 - u1) (the radial half of the Box-Muller transform)
and r = |x| = sqrt(b).  At clip amplitude c = sqrt(p_max) the clipped
radius is rho = |y| = min(r, c), and with c' = y * conj(x), Re(c') =
r * rho and Im(c') is exactly zero.

Sorted leaves.  The kernel works one leaf of at most ``LEAF_SAMPLES``
samples at a time, while the leaf's rows sit in L2 cache.  It draws the
leaf's uniforms, which are the next doubles of the generator's stream
whatever the leaf size, maps them to b and sorts b, so r is sorted too,
and forms the rows b*b, b, r and b*r.  A clip amplitude c splits the
sorted leaf at j = searchsorted(r, c): below j a sample is unclipped
(rho = r, and r*r is b to rounding), from j on it is clipped (rho = c).
So each clip takes two reductions per leaf, of the rows b*b, b and r over
the unclipped slice (lo_bb, lo_b, lo_r) and of the rows b, r and b*r over
the clipped slice (hi_b, hi_r, hi_br); the leaf's work before them does
not depend on the clip count.  The leaf sums are added across leaves in
order, and with n_A the clipped count the nine sums are:
  0 = lo_b + c*hi_r       1 = lo_b + c^2*n_A       2 = sum b
  3 = lo_r + c*n_A        4 = lo_bb + c^2*hi_b     5 = lo_bb + c^4*n_A
  6 = sum b*b             7 = lo_bb + c^3*hi_r     8 = lo_bb + c*hi_br

Determinism.  Each clip's sums are a pure function of (generator state,
count, clip power): its two reductions per leaf read only the leaf rows
and its own cut, and no sum uses BLAS, so its bits are reproducible and
do not depend on the thread count or on the other clips of the call.
They are not equal to a whole-row ``ndarray.sum``, as the samples are
summed in sorted order; they lie within a few rounding errors of the
exactly rounded sums.  A call holds four leaf rows (1 MiB) and nothing as
long as the chunk, so concurrent calls in separate threads each need only
their own leaf rows.

Sum layout (x = input sample, y = clipped sample, c' = y * conj(x));
2 and 6 do not depend on the clip power, and 4 is also sum |y|^2|x|^2,
as Re(c')^2 = rho^2 r^2:
  0: sum Re(c')       1: sum |y|^2        2: sum |x|^2      3: sum |y|
  4: sum Re(c')^2     5: sum |y|^4        6: sum |x|^4      7: sum |y|^2 Re(c')
  8: sum |x|^2 Re(c')
"""

from collections.abc import Sequence

import numpy as np

N_SUMS = 9
# Samples per leaf: its four rows (1 MiB) stay in a 2 MiB L2 cache.
LEAF_SAMPLES = 1 << 15


def moment_sums(
    generator: np.random.Generator, count: int, clip_powers: Sequence[float]
) -> np.ndarray:
    """Moment sums of ``count`` samples drawn from ``generator``.

    Returns a (len(clip_powers), N_SUMS) array, one row per clip power in
    the order given.  The uniforms are drawn one leaf at a time, as
    ``count`` consecutive doubles of ``generator``.
    """
    c = np.sqrt(np.array(clip_powers, dtype=float))  # clip amplitudes
    # per clip: sums of b*b, b, r below its cut and of b, r, b*r above it
    below, above, leaf_below, leaf_above = np.zeros((4, len(c), 3))
    unclipped = np.zeros(len(c), dtype=np.intp)
    totals = np.zeros(2)  # sums of b*b and b
    rows = np.empty((4, min(count, LEAF_SAMPLES)))
    for start in range(0, count, LEAF_SAMPLES):
        leaf = rows[:, : min(LEAF_SAMPLES, count - start)]
        bb, b, r, br = leaf
        generator.random(out=b)  # u1
        np.negative(b, out=b)
        np.log1p(b, out=b)
        np.negative(b, out=b)  # |x|^2
        b.sort()
        np.sqrt(b, out=r)  # r = |x|, sorted as b is
        np.multiply(b, r, out=br)
        np.multiply(b, b, out=bb)
        totals += np.add.reduce(leaf[:2], axis=1)
        cuts = np.searchsorted(r, c)  # r[cut:] >= c: clipped
        for cut, lo, hi in zip(cuts.tolist(), leaf_below, leaf_above):
            np.add.reduce(leaf[:3, :cut], axis=1, out=lo)
            np.add.reduce(leaf[1:, cut:], axis=1, out=hi)
        below += leaf_below
        above += leaf_above
        unclipped += cuts
    lo_bb, lo_b, lo_r = below.T
    hi_b, hi_r, hi_br = above.T
    n_a = count - unclipped
    sum_bb, sum_b = totals
    c2 = c * c
    # each power of c multiplies its clipped sum last: an empty clipped
    # slice then gives 0, not inf * 0, at any finite clip power
    return np.stack(np.broadcast_arrays(
        lo_b + c * hi_r, lo_b + c2 * n_a, sum_b, lo_r + c * n_a,
        lo_bb + c2 * hi_b, lo_bb + c2 * (c2 * n_a), sum_bb, lo_bb + c2 * (c * hi_r),
        lo_bb + c * hi_br,
    ), axis=1)
