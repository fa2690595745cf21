"""Seeded Monte-Carlo verification of the analytic amplifier model.

Draws complex-Gaussian samples of unit mean power, pushes them through
the soft limiter at each of several clipping powers and estimates the
Bussgang gain, the clipping-distortion power and the mean class B supply
power, each with a standard error, for direct comparison against the
closed forms in :mod:`foglink.pa`, which are stated at unit input power
too.  The SNR ceiling plays no part here: it enters only the SINR
columns that ``foglink.cli.mc_verify`` forms from these estimates.

Determinism contract: at unit input power, each clip power's estimate is
a pure function of (seed, n_samples, that clip power), whatever other
clip powers share the run and in whatever order they are given.
Samples are generated in fixed-size chunks, each from its own jump-ahead
Philox substream (``Philox(key=seed).jumped(chunk_index)``).  A run
computes its chunks on one worker thread per CPU it may use (at most one
per chunk); each worker needs memory only for the four cache-sized leaf
rows (1 MiB) of the chunk it is on, not for the chunk.  Each chunk's
partial sums join the running sums in chunk order, and the chunk layout
does not depend on the worker count, so the bits do not either.  A sample is
``x = sqrt(-log(1 - u1)) * exp(2j * pi * u2)`` (Box-Muller), but
only u1, the first ``count`` uniforms of each substream, is drawn: the
soft limiter keeps the phase, so no estimator depends on u2.  Every clip
power is applied to the same draw of each chunk.  The kernel sorts each
cache-sized leaf of the draw once and takes a clip's ten moment sums from
two reductions, over the leaf's samples below and above that clip, which
read nothing of the other clips.  So a clip's bits are the same whether
it runs alone or shares the run with other clips.  The sums lie within a
few roundings of the exactly rounded sums, but are not equal to a
whole-row ``ndarray.sum``.  This choice is fixed because reproducibility
per seed is promised within a build.
"""

import contextvars
import math
import os
import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np

from . import _kernels
from .errors import NumericError

__all__ = ["CHUNK_SAMPLES", "run_mc"]

# Fixed chunk size; part of the reproducibility contract, not a tuning knob.
CHUNK_SAMPLES = 1 << 20

_FOUR_OVER_PI = 4.0 / math.pi


def _chunk_layout(n_samples: int):
    """Yield (chunk_index, chunk_size) pairs covering n_samples."""
    full, rest = divmod(n_samples, CHUNK_SAMPLES)
    for index in range(full):
        yield index, CHUNK_SAMPLES
    if rest:
        yield full, rest


def _chunk_sums(
    seed: int, chunk_index: int, count: int, clip_powers: Tuple[float, ...]
) -> np.ndarray:
    """Moment sums of one chunk, one row per clip power, from the chunk's
    own jump-ahead Philox substream."""
    generator = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))
    return _kernels.moment_sums(generator, count, clip_powers)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _summed_chunks(
    clip_powers: Tuple[float, ...], n_samples: int, seed: int, workers: int
) -> np.ndarray:
    """Moment sums of the whole run, one row per clip power.

    ``workers`` threads, at most one per chunk, take chunks in turn, each
    in a copy of the caller's context, so the caller's ``np.errstate``
    holds in every one; the calling thread is one of them.  Each chunk's
    partial is added to the sums once every earlier chunk's has been, so
    the sums do not depend on ``workers``, and only the partials that
    finish out of order are held.  The first exception a worker raises is
    raised here, once every worker has stopped.
    """
    pending = _chunk_layout(n_samples)
    lock = threading.Lock()
    errors: List[BaseException] = []
    sums = np.zeros((len(clip_powers), _kernels.N_SUMS))
    early: Dict[int, np.ndarray] = {}  # finished partials awaiting an earlier chunk
    next_index = 0

    def work():
        nonlocal next_index
        try:
            while not errors:
                with lock:
                    index, count = next(pending, (None, 0))
                if index is None:
                    return
                partial = _chunk_sums(seed, index, count, clip_powers)
                with lock:
                    early[index] = partial
                    while next_index in early:
                        np.add(sums, early.pop(next_index), out=sums)
                        next_index += 1
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(min(workers, -(-n_samples // CHUNK_SAMPLES)) - 1)
    ]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sums


def _mean_and_stderr(total: float, total_sq: float, n: int):
    mean = total / n
    # clamp: the difference of large sums can round slightly negative
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def run_mc(clip_powers: Iterable[float], n_samples: int, seed: int) -> List[Tuple[float, ...]]:
    """Monte-Carlo estimates at every clip power, all from one draw.

    Returns one ``(alpha_hat, stderr_alpha, distortion_hat,
    stderr_distortion, pa_hat, stderr_pa)`` tuple per clip power, in the
    order given.  With x the input sample and y the clipped one:
      alpha_hat       = mean(Re(y * conj(x)))
      distortion_hat  = mean(|y - alpha_hat * x|^2), expanded in moments so
                        a single pass suffices
      pa_hat          = mean((4/pi) * sqrt(|y|^2 * p_max))
    each with a first-order standard error (sample standard deviation over
    sqrt(n_samples)).

    Preconditions, checked by the caller (``foglink.cli.mc_verify``): at
    least one clip power, each positive and finite; ``n_samples`` an
    integer >= 2, as one sample has no standard error; ``seed`` an integer
    in [0, 2**64).  Raises NumericError, naming the clip powers concerned,
    if accumulations go non-finite.
    """
    clip_powers = tuple(clip_powers)
    sums = _summed_chunks(clip_powers, n_samples, seed, _cpu_count())
    finite = np.all(np.isfinite(sums), axis=1)
    if not finite.all():
        concerned = [p_max for p_max, ok in zip(clip_powers, finite) if not ok]
        raise NumericError(
            f"non-finite accumulation at clip power(s) {concerned!r} W for "
            f"n_samples = {n_samples!r}, seed = {seed!r}"
        )
    return [_estimate(p_max, n_samples, row) for p_max, row in zip(clip_powers, sums)]


def _estimate(p_max: float, n: int, sums: np.ndarray) -> Tuple[float, ...]:
    """Estimates at clip power ``p_max`` from its row of moment sums over
    ``n`` samples, in :func:`run_mc`'s order."""
    s_cre, s_a, s_b, s_ampy, s_cre2, s_a2, s_b2, s_ac, s_ab, s_bc = sums

    # the Bussgang gain mean(Re(c)) / sigma2, at sigma2 = 1
    a_hat, stderr_alpha = _mean_and_stderr(s_cre, s_cre2, n)
    mean_a = s_a / n
    mean_b = s_b / n
    distortion = mean_a - 2.0 * a_hat * a_hat + a_hat * a_hat * mean_b
    # second moment of the per-sample distortion, expanded with plug-in alpha
    mean_d2 = (
        s_a2
        - 4.0 * a_hat * s_ac
        + 2.0 * a_hat * a_hat * s_ab
        + 4.0 * a_hat * a_hat * s_cre2
        - 4.0 * a_hat ** 3 * s_bc
        + a_hat ** 4 * s_b2
    ) / n
    var_d = max(mean_d2 - distortion * distortion, 0.0) * n / (n - 1)
    stderr_distortion = math.sqrt(var_d / n)

    pa_scale = _FOUR_OVER_PI * math.sqrt(p_max)
    mean_ampy, stderr_ampy = _mean_and_stderr(s_ampy, s_a, n)

    # Python floats, not numpy scalars, so messages print plain numbers
    return (
        float(a_hat), float(stderr_alpha), float(distortion), float(stderr_distortion),
        float(pa_scale * mean_ampy), float(pa_scale * stderr_ampy),
    )
