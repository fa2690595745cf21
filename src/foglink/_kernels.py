"""Hot moment-accumulation kernel for the Monte-Carlo verifier.

The soft limiter keeps the phase of its input, so every moment the
verifier needs depends only on the input radius.  The kernel draws Philox
uniforms u1, maps them to |x|^2 = -sigma2 * log(1 - u1) (the radial half
of the Box-Muller transform) and r = |x|, and takes their three
clip-independent sums.  For each clip power p_max it then clips the
radius at sqrt(p_max) to get rho = |y| and accumulates the eight
clip-dependent sums.  With c = y * conj(x), Re(c) = r * rho and Im(c) is
exactly zero.

Leaf tree.  ``ndarray.sum`` over a contiguous float64 row of n values is
numpy's pairwise summation: it splits the row at n//2 - (n//2) % 8,
recurses, and adds the halves' sums left + right.  The kernel follows that
tree down to leaves of at most ``LEAF_SAMPLES`` values (``leaf_sizes``)
and does all its work one leaf at a time, in row order, while the leaf's
rows sit in L2 cache: it draws the leaf's uniforms, which are the next
doubles of the generator's stream whatever the leaf size, computes |x|^2
and r, and runs every clip.  Each element comes from the same ufuncs on
the same operands as in a whole-row pass, each leaf row is summed with
``ndarray.sum``, and ``tree_join`` adds the leaf sums up the same tree, so
every sum equals the whole-row ``ndarray.sum`` bit for bit.

Shortcut.  On a leaf whose largest radius lies below sqrt(p_max), rho is
exactly r, so Re(c) = |y|^2 = r*r and the eight sums are Sum r, Sum r*r
(sums 0 and 1), Sum (r*r)^2 (sums 5, 6 and 8) and Sum (r*r)*|x|^2 (sums 9
and 10; IEEE multiplication commutes).  These are computed once per leaf
and shared by every clip that does not reach it.

Workspace.  A call allocates its result, the leaf partials and five leaf
rows (1.25 MiB at most), and nothing as long as the chunk, so concurrent
calls in separate threads each need only their own leaf rows.  No sum
uses BLAS, so the bits do not depend on the thread count, and a clip's
row applies the same ufuncs to the same values whatever other clips share
the call, so its bits equal those of a call with that clip alone.

Sum layout (x = input sample, y = clipped sample, c = y * conj(x));
2, 4 and 7 do not depend on the clip power:
  0: sum Re(c)        1: sum |y|^2        2: sum |x|^2      3: sum |y|
  4: sum |x|          5: sum Re(c)^2      6: sum |y|^4      7: sum |x|^4
  8: sum |y|^2 Re(c)  9: sum |y|^2|x|^2  10: sum |x|^2 Re(c)
"""

import math
from typing import Iterator, List, Sequence

import numpy as np

N_SUMS = 11
# Largest leaf of the summation tree: its five leaf rows (1.25 MiB) stay
# in a 2 MiB L2 cache.
LEAF_SAMPLES = 1 << 15
# Columns of the clip-dependent sums, in the order the shortcut lists them.
_CLIP_SUMS = [3, 0, 1, 5, 6, 8, 9, 10]


def _half(n: int) -> int:
    """Length of the left half where numpy's pairwise sum splits n values."""
    return n // 2 - (n // 2) % 8


def leaf_sizes(n: int) -> List[int]:
    """Lengths, in row order, of the leaves of numpy's pairwise summation
    tree over n values, cut at LEAF_SAMPLES."""
    if n <= LEAF_SAMPLES:
        return [n]
    half = _half(n)
    return leaf_sizes(half) + leaf_sizes(n - half)


def tree_join(partials: Iterator, n: int):
    """Add per-leaf partial sums, taken in row order from ``partials``, up
    the pairwise tree over n values, as ``ndarray.sum`` adds them."""
    if n <= LEAF_SAMPLES:
        return next(partials)
    half = _half(n)
    return tree_join(partials, half) + tree_join(partials, n - half)


def moment_sums(
    generator: np.random.Generator, count: int, sigma2: float, clip_powers: Sequence[float]
) -> np.ndarray:
    """Moment sums of ``count`` samples drawn from ``generator``.

    Returns a (len(clip_powers), N_SUMS) array, one row per clip power in
    the order given.  The uniforms are drawn one leaf at a time, in row
    order, as ``count`` consecutive doubles of ``generator``.
    """
    clips = [math.sqrt(p_max) for p_max in clip_powers]
    sizes = leaf_sizes(count)
    partials = np.empty((len(sizes), len(clips), N_SUMS))
    rows = np.empty((5, min(count, LEAF_SAMPLES)))
    for part, size in zip(partials, sizes):
        b, r, rho, cre, tmp = rows[:, :size]
        generator.random(out=b)  # u1
        np.negative(b, out=b)
        np.log1p(b, out=b)
        np.multiply(b, -sigma2, out=b)  # |x|^2
        np.sqrt(b, out=r)  # r = |x|
        s_r = r.sum()
        part[:, 4] = s_r
        part[:, 2] = b.sum()
        np.multiply(b, b, out=tmp)
        part[:, 7] = tmp.sum()
        peak = r.max()
        unclipped = None
        for row, clip in zip(part, clips):
            if peak < clip:  # rho == r on the whole leaf
                if unclipped is None:
                    np.multiply(r, r, out=rho)  # r*r = Re(c) = |y|^2
                    s_rr = rho.sum()
                    np.multiply(rho, rho, out=tmp)
                    s_rr2 = tmp.sum()
                    np.multiply(rho, b, out=tmp)
                    s_rrb = tmp.sum()
                    unclipped = (s_r, s_rr, s_rr, s_rr2, s_rr2, s_rr2, s_rrb, s_rrb)
                row[_CLIP_SUMS] = unclipped
                continue
            np.minimum(r, clip, out=rho)  # rho = |y|
            row[3] = rho.sum()
            np.multiply(r, rho, out=cre)  # Re(c) = r * rho
            np.multiply(rho, rho, out=rho)  # |y|^2
            row[0] = cre.sum()
            row[1] = rho.sum()
            for index, (left, right) in zip(
                (5, 6, 8, 9, 10), ((cre, cre), (rho, rho), (rho, cre), (rho, b), (b, cre))
            ):
                np.multiply(left, right, out=tmp)
                row[index] = tmp.sum()
    return tree_join(iter(partials), count)
