"""Seeded Monte-Carlo verification of the analytic amplifier model.

Draws complex-Gaussian samples of unit mean power, pushes them through
the soft limiter at each of several clipping powers and estimates the
Bussgang gain, the clipping-distortion power and the mean class B supply
power, each with a standard error, and the empirical SINR, for direct
comparison against the closed forms in :mod:`foglink.pa`, which are stated
at unit input power too.

Determinism contract: at unit input power, each clip power's estimate is
a pure function of (seed, n_samples, snr_max_linear, that clip power),
whatever other clip powers share the run and in whatever order they are
given.
Samples are generated in fixed-size chunks, each from its own jump-ahead
Philox substream (``Philox(key=seed).jumped(chunk_index)``).  A run
computes its chunks on one worker thread per CPU it may use (at most one
per chunk); each worker needs memory only for the cache-sized rows of the
chunk it is on, not for the chunk.  The chunk partial sums are stored by
chunk index and added in chunk order, and the chunk layout does not
depend on the worker count, so the bits do not either.  A sample is
``x = sqrt(-log(1 - u1)) * exp(2j * pi * u2)`` (Box-Muller), but
only u1, the first ``count`` uniforms of each substream, is drawn: the
soft limiter keeps the phase, so no estimator depends on u2.  Every clip
power is applied to the same draw of each chunk, and the kernel computes
each clip's ten moment sums with the same operations as it would for that
clip alone.  The kernel draws and works in cache-sized leaves of numpy's
pairwise summation tree and adds the leaf sums up that tree, which
reproduces a whole-row ``ndarray.sum`` bit for bit, and its shortcut for
a leaf that a clip does not reach gives the same bits as clipping it.
So a clip's bits are the same whether it runs alone or shares the run
with other clips.  This choice is fixed because reproducibility per seed
is promised within a build.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import DomainError, NumericError

__all__ = ["CHUNK_SAMPLES", "McConfig", "McEstimate", "run_mc"]

# Fixed chunk size; part of the reproducibility contract, not a tuning knob.
CHUNK_SAMPLES = 1 << 20

_FOUR_OVER_PI = 4.0 / math.pi


@dataclass(frozen=True)
class McConfig:
    """Inputs of one Monte-Carlo run at unit mean input power.

    ``clip_powers_w`` are the clipping powers, each applied to the same
    samples (stored as a tuple).  ``snr_max_linear`` sets the receiver
    noise implied at each clipping power, from which the empirical SINR is
    formed.
    """

    clip_powers_w: Tuple[float, ...]
    n_samples: int
    seed: int
    snr_max_linear: float

    def __post_init__(self):
        clip_powers = tuple(self.clip_powers_w)
        if not clip_powers:
            raise DomainError("clip_powers_w must hold at least one clipping power")
        for p_max in clip_powers:
            if not 0.0 < p_max < math.inf:
                raise DomainError(f"clip_powers_w must be positive and finite, got {p_max!r}")
        object.__setattr__(self, "clip_powers_w", clip_powers)
        if not (isinstance(self.n_samples, int) and self.n_samples >= 2):
            # one sample has no standard error
            raise DomainError(f"n_samples must be an integer >= 2, got {self.n_samples!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.snr_max_linear < math.inf:
            raise DomainError(f"snr_max_linear must be positive and finite, "
                              f"got {self.snr_max_linear!r}")


@dataclass(frozen=True)
class McEstimate:
    """Estimates with standard errors at one clipping power of a run.

    Standard errors are first-order (sample standard deviation over
    sqrt(n)).
    """

    alpha_hat: float
    distortion_power_hat: float
    pa_power_hat: float
    sinr_hat: float
    stderr_alpha: float
    stderr_distortion: float
    stderr_pa: float


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


def _summed_chunks(config: McConfig, workers: int) -> np.ndarray:
    """Moment sums of the whole run, one row per clip power.

    ``workers`` threads, at most one per chunk, take chunks in turn, each
    in a copy of the caller's context, so the caller's ``np.errstate``
    holds in every one; the calling thread is one of them.  The chunk
    partials are added in chunk order, so the sums do not depend on
    ``workers``.  The first exception a worker raises is raised here, once
    every worker has stopped.
    """
    layout = list(_chunk_layout(config.n_samples))
    partials: List[Optional[np.ndarray]] = [None] * len(layout)
    pending = iter(layout)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def work():
        try:
            while not errors:
                with lock:
                    index, count = next(pending, (None, 0))
                if index is None:
                    return
                partials[index] = _chunk_sums(config.seed, index, count, config.clip_powers_w)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(min(workers, len(layout)) - 1)
    ]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    sums = np.zeros((len(config.clip_powers_w), _kernels.N_SUMS))
    for partial in partials:
        sums += partial
    return sums


def _mean_and_stderr(total: float, total_sq: float, n: int):
    mean = total / n
    # clamp: the difference of large sums can round slightly negative
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def run_mc(config: McConfig) -> List[McEstimate]:
    """Run the Monte-Carlo estimators at every clip power of ``config``.

    Returns one estimate per entry of ``config.clip_powers_w``, in that
    order.  Estimators (x input sample, y clipped sample, n sample count):
      alpha_hat       = mean(Re(y * conj(x)))
      distortion      = mean(|y - alpha_hat * x|^2), expanded in moments so
                        a single pass suffices
      pa_power_hat    = mean((4/pi) * sqrt(|y|^2 * p_max))
      sinr_hat        = alpha_hat^2 / (distortion + p_max/snr_max)

    Raises NumericError, naming the clip powers concerned, if accumulations
    go non-finite.
    """
    clip_powers = config.clip_powers_w
    sums = _summed_chunks(config, _cpu_count())
    finite = np.all(np.isfinite(sums), axis=1)
    if not finite.all():
        concerned = [p_max for p_max, ok in zip(clip_powers, finite) if not ok]
        raise NumericError(
            f"non-finite accumulation at clip power(s) {concerned!r} W for config {config!r}"
        )
    return [_estimate(config, p_max, row) for p_max, row in zip(clip_powers, sums)]


def _estimate(config: McConfig, p_max: float, sums: np.ndarray) -> McEstimate:
    """Estimates at clip power ``p_max`` from its row of moment sums."""
    n = config.n_samples
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
    pa_power_hat = pa_scale * mean_ampy
    stderr_pa = pa_scale * stderr_ampy

    sinr_hat = a_hat * a_hat / (distortion + p_max / config.snr_max_linear)

    # Python floats, not numpy scalars, so messages print plain numbers
    return McEstimate(
        alpha_hat=float(a_hat),
        distortion_power_hat=float(distortion),
        pa_power_hat=float(pa_power_hat),
        sinr_hat=float(sinr_hat),
        stderr_alpha=float(stderr_alpha),
        stderr_distortion=float(stderr_distortion),
        stderr_pa=float(stderr_pa),
    )
