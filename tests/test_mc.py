"""Monte-Carlo verifier: estimators, determinism, the radial moment kernel."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from foglink import (
    DomainError,
    McConfig,
    NumericError,
    bussgang_alpha,
    pa_consumed_power,
    run_mc,
)
from foglink import _kernels, mc
from foglink.mc import CHUNK_SAMPLES, _chunk_layout, _chunk_sums, _summed_chunks
from foglink.pa import optimal_ibos
from oracles import moment_sums_reference, soft_limit


# five back-offs (dB) as in the benchmark, and their clip powers at unit input power
BACKOFFS_DB = (-3.0, 0.0, 3.0, 6.0, 12.0)
CLIP_POWERS = tuple(10.0 ** (x / 10.0) for x in BACKOFFS_DB)

LEAF = _kernels.LEAF_SAMPLES
# around the leaf size, odd tails, and the chunk lengths of real runs
TREE_COUNTS = (
    1, 7, 8, 9, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5, 100_003, 562_816, CHUNK_SAMPLES,
)


def config(ibo=1.0, n=1_000_000, seed=42, snr_max=100.0, clips=None):
    return McConfig(
        clip_powers_w=(ibo,) if clips is None else clips,
        n_samples=n,
        seed=seed,
        snr_max_linear=snr_max,
    )


def run_one(**kwargs):
    [estimate] = run_mc(config(**kwargs))
    return estimate


def analytic_distortion(ibo):
    alpha = bussgang_alpha(ibo)
    return 1.0 - alpha * alpha - math.exp(-ibo)


class TestSoftLimit:
    def test_below_threshold_unchanged(self):
        x = 0.1 + 0.1j
        assert soft_limit(x, 1.0) is x

    def test_clamped_magnitude(self):
        # |3+4i| = 5 against a clip amplitude of 2: scaled by 2/5
        out = soft_limit(3 + 4j, 4.0)
        assert abs(out - (1.2 + 1.6j)) <= 1e-15

    def test_boundary_magnitude_preserved(self):
        # |3+4i| = 5 equals the clip amplitude exactly: scale factor 1.0
        out = soft_limit(3 + 4j, 25.0)
        assert abs(out) == 5.0
        assert out == 3 + 4j

    def test_array_input(self):
        samples = np.array([0.1 + 0.1j, 3 + 4j, -5j])
        out = soft_limit(samples, 4.0)
        assert out[0] == samples[0]
        assert abs(out[1] - (1.2 + 1.6j)) <= 1e-15
        assert abs(abs(out[2]) - 2.0) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            soft_limit(1 + 1j, 0.0)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        # spans multiple chunks to exercise the jump-ahead layout
        cfg = config(n=CHUNK_SAMPLES + 12345, snr_max=100.0, clips=CLIP_POWERS)
        assert run_mc(cfg) == run_mc(cfg)

    def test_seed_changes_results(self):
        a = run_one(n=100_000, seed=1)
        b = run_one(n=100_000, seed=2)
        assert a.alpha_hat != b.alpha_hat

    def test_chunk_combination_order_is_fixed(self):
        # simulate out-of-order workers: evaluate chunk partials in reverse,
        # then combine by chunk index; the sums must match bit for bit
        cfg = config(n=2 * CHUNK_SAMPLES + 999, clips=CLIP_POWERS)
        layout = list(_chunk_layout(cfg.n_samples))
        shape = (len(CLIP_POWERS), _kernels.N_SUMS)
        forward = np.zeros(shape)
        for index, count in layout:
            forward += _chunk_sums(cfg.seed, index, count, cfg.clip_powers_w)
        partials = {
            index: _chunk_sums(cfg.seed, index, count, cfg.clip_powers_w)
            for index, count in reversed(layout)
        }
        unordered = np.zeros(shape)
        for index, _ in layout:
            unordered += partials[index]
        assert np.array_equal(forward, unordered)

    @pytest.mark.parametrize("n, workers", [
        pytest.param(3 * CHUNK_SAMPLES + 7, (1, 2, 3), id="four-chunks"),
        # one chunk: more workers than chunks
        pytest.param(CHUNK_SAMPLES - 5, (1, 4), id="one-chunk"),
    ])
    def test_sums_do_not_depend_on_the_worker_count(self, n, workers):
        # the estimates are a pure function of these sums
        cfg = config(n=n, clips=CLIP_POWERS)
        first, *others = [_summed_chunks(cfg, count) for count in workers]
        for sums in others:
            assert np.array_equal(sums, first)
        assert run_mc(cfg) == [mc._estimate(cfg, p, row) for p, row in zip(CLIP_POWERS, first)]

    @pytest.mark.parametrize("clips", [
        CLIP_POWERS,
        # unsorted, with a duplicate, and the no-clipping case
        (CLIP_POWERS[3], 1e6, CLIP_POWERS[0], CLIP_POWERS[3], CLIP_POWERS[1]),
    ])
    def test_shared_draw_equals_one_clip_runs(self, clips):
        # each clip's estimate is a function of (seed, n, snr_max, that clip)
        # alone: sharing a run changes none of its bits
        n = 2 * CHUNK_SAMPLES + 999
        shared = run_mc(config(n=n, snr_max=100.0, clips=clips))
        alone = [run_one(n=n, snr_max=100.0, ibo=p_max) for p_max in clips]
        assert shared == alone

    def test_non_finite_accumulation_names_the_clip_powers(self, monkeypatch):
        # at unit input power the kernel cannot overflow, so the chunk sums
        # overflow here for the clip powers above 1; each of the run's three
        # worker threads must see the caller's errstate, or the overflow
        # warning, an error here, would end the run instead
        barrier = threading.Barrier(3, timeout=60)
        threads = set()

        def chunk_sums(seed, chunk_index, count, clip_powers):
            barrier.wait()  # one chunk on each of the three threads
            threads.add(threading.get_ident())
            return np.multiply(np.array(clip_powers)[:, None], np.full(_kernels.N_SUMS, 1e308))

        monkeypatch.setattr(mc, "_cpu_count", lambda: 3)
        monkeypatch.setattr(mc, "_chunk_sums", chunk_sums)
        cfg = config(n=2 * CHUNK_SAMPLES + 1, clips=(2.5, 0.5, 7.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"), pytest.raises(NumericError) as refused:
                run_mc(cfg)
        assert "[2.5, 7.5]" in str(refused.value)
        assert len(threads) == 3

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        def chunk_sums(seed, chunk_index, count, clip_powers):
            if chunk_index == 2:
                raise RuntimeError("chunk 2 failed")
            return np.zeros((len(clip_powers), _kernels.N_SUMS))

        monkeypatch.setattr(mc, "_cpu_count", lambda: 3)
        monkeypatch.setattr(mc, "_chunk_sums", chunk_sums)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            run_mc(config(n=3 * CHUNK_SAMPLES + 7))
        assert threading.active_count() == threads  # every worker joined

    def test_every_chunk_runs_once_under_contention(self, monkeypatch):
        # eight workers, switching threads as often as the interpreter
        # allows: no chunk is lost or run twice
        calls = []

        def chunk_sums(seed, chunk_index, count, clip_powers):
            calls.append(chunk_index)
            return np.full((len(clip_powers), _kernels.N_SUMS), float(chunk_index))

        monkeypatch.setattr(mc, "_chunk_sums", chunk_sums)
        chunks = 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sums = _summed_chunks(config(n=chunks * CHUNK_SAMPLES), 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(chunks))
        assert np.all(sums == chunks * (chunks - 1) / 2)

    def test_chunk_layout_covers_exactly(self):
        for n in (1, 10, CHUNK_SAMPLES, CHUNK_SAMPLES + 1, 3 * CHUNK_SAMPLES + 7):
            layout = list(_chunk_layout(n))
            assert sum(count for _, count in layout) == n
            assert [index for index, _ in layout] == list(range(len(layout)))


class TestRadialKernel:
    @staticmethod
    def box_muller_sums(u1, u2, p_max):
        # the full complex path: Box-Muller samples through the soft limiter
        x = np.sqrt(-np.log1p(-u1)) * np.exp(2j * math.pi * u2)
        y = soft_limit(x, p_max)
        c = y * np.conj(x)
        assert np.all(np.abs(c.imag) <= 1e-15 * np.abs(c) + 1e-300)
        c_re, a, b = c.real, np.abs(y) ** 2, np.abs(x) ** 2
        return np.array([
            c_re.sum(), a.sum(), b.sum(), np.abs(y).sum(),
            (c_re * c_re).sum(), (a * a).sum(), (b * b).sum(),
            (a * c_re).sum(), (a * b).sum(), (b * c_re).sum(),
        ])

    @pytest.mark.parametrize("ibo_db, count", [
        (-3.0, CHUNK_SAMPLES), (0.0, CHUNK_SAMPLES), (3.0, CHUNK_SAMPLES),
        (12.0, CHUNK_SAMPLES), (0.0, 100_003),
        # five clips in one call
        pytest.param(BACKOFFS_DB, CHUNK_SAMPLES, id="five-1048576"),
        pytest.param(BACKOFFS_DB, 100_003, id="five-100003"),
    ])
    def test_matches_complex_path(self, ibo_db, count):
        clips = [10.0 ** (x / 10.0) for x in np.atleast_1d(ibo_db)]
        rng = np.random.Generator(np.random.Philox(key=7))
        u1 = rng.random(count)
        u2 = rng.random(count)
        # the kernel draws u1 leaf by leaf from a generator seeded alike
        generator = np.random.Generator(np.random.Philox(key=7))
        radial = _kernels.moment_sums(generator, count, clips)
        assert radial.shape == (len(clips), _kernels.N_SUMS)
        for row, p_max in zip(radial, clips):
            expected = self.box_muller_sums(u1, u2, p_max)
            assert np.allclose(row, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count", TREE_COUNTS)
    def test_matches_whole_row_reference(self, count):
        # summing in leaves and adding them up numpy's pairwise tree gives
        # the whole-row sums bit for bit, on the clipping path and on the
        # shortcut for leaves a clip does not reach
        def generator():
            return np.random.Generator(np.random.Philox(key=11))

        u1 = generator().random(count)
        smallest = -math.log1p(-u1.min())  # the least |x|^2
        largest = -math.log1p(-u1.max())
        assert 0.0 < 1e-20 < smallest
        clip_sets = {
            "unsorted with a duplicate": (4.0, 0.5, 1e6, 4.0, 1.3),
            "above every sample": (1e6,),
            "below every sample": (1e-20,),
            "only the largest sample clipped": (largest * (1.0 - 1e-9),),
            "-3..12 dB": CLIP_POWERS,
        }
        for name, clips in clip_sets.items():
            expected = moment_sums_reference(u1, clips)
            got = _kernels.moment_sums(generator(), count, clips)
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("count", TREE_COUNTS)
    def test_leaf_tree_equals_ndarray_sum(self, count):
        # the kernel's bits rest on this: if numpy changes its pairwise
        # summation, this fails rather than the results drifting
        rng = np.random.default_rng(count)
        values = rng.standard_normal(count) * 10.0 ** rng.uniform(-8.0, 8.0, count)
        sizes = _kernels.leaf_sizes(count)
        assert sum(sizes) == count and max(sizes) <= LEAF
        bounds = np.cumsum([0] + sizes)
        leaves = (values[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:]))
        assert _kernels.tree_join(leaves, count) == values.sum()

    def test_run_mc_peak_stays_below_one_chunk_array(self):
        # each worker holds only leaf rows, never a chunk-length row: the
        # traced peak of a multi-chunk run stays below one chunk-sized
        # float64 array
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_mc(config(n=3 * CHUNK_SAMPLES + 7, clips=CLIP_POWERS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_SAMPLES * 8


class TestEstimators:
    @pytest.mark.parametrize("ibo", [0.5, 1.0, 4.0])
    def test_agree_with_closed_forms(self, ibo):
        est = run_one(ibo=ibo, n=1_000_000, snr_max=100.0)
        alpha = bussgang_alpha(ibo)
        assert abs(est.alpha_hat - alpha) <= max(3 * est.stderr_alpha, 0.01 * alpha)
        distortion = analytic_distortion(ibo)
        assert abs(est.distortion_power_hat - distortion) <= max(
            3 * est.stderr_distortion, 0.01 * distortion
        )
        pa_w = pa_consumed_power(ibo, ibo)
        assert abs(est.pa_power_hat - pa_w) <= max(3 * est.stderr_pa, 0.01 * pa_w)

    def test_no_clipping_leaves_no_distortion(self):
        # clip amplitude 1000 sigma: the limiter never engages, and the
        # residual distortion estimate is the plug-in quadratic in the
        # alpha estimation error, a chi-square of scale 1/n
        n = 1_000_000
        est = run_one(ibo=1e6, n=n)
        floor = 13.0 * 1.0 / n
        assert est.distortion_power_hat <= max(3 * est.stderr_distortion, floor)
        assert abs(est.alpha_hat - 1.0) <= 3 * est.stderr_alpha + 1e-6

    def test_stderr_scales_with_sample_count(self):
        small = run_one(n=10_000)
        large = run_one(n=1_000_000)
        ratio = small.stderr_alpha / large.stderr_alpha
        assert 8.5 < ratio < 11.5
        ratio_pa = small.stderr_pa / large.stderr_pa
        assert 8.5 < ratio_pa < 11.5

    def test_empirical_sinr_peaks_at_analytic_optimum(self):
        snr_max = 100.0
        best, _, _ = next(optimal_ibos([snr_max]))
        estimates = {
            factor: run_one(ibo=best * factor, n=1_000_000, snr_max=snr_max)
            for factor in (0.5, 1.0, 2.0)
        }
        # the SINR drop at a factor-two detuning dwarfs the Monte-Carlo
        # noise at this sample count
        assert estimates[1.0].sinr_hat > estimates[0.5].sinr_hat
        assert estimates[1.0].sinr_hat > estimates[2.0].sinr_hat


class TestConfigValidation:
    def test_has_no_defaults(self):
        # every input of a run is stated by its caller
        names = ("clip_powers_w", "n_samples", "seed", "snr_max_linear")
        assert McConfig._fields == names
        full = dict(clip_powers_w=(1.0,), n_samples=10, seed=0, snr_max_linear=100.0)
        McConfig(**full)
        for name in names:
            with pytest.raises(TypeError, match=name):
                McConfig(**{key: value for key, value in full.items() if key != name})

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            config(n=0)
        with pytest.raises(DomainError):
            config(n=10.5)

    def test_rejects_a_single_sample(self):
        # one sample has no standard error
        with pytest.raises(DomainError, match="^n_samples must be an integer >= 2, got 1$"):
            config(n=1)
        assert config(n=2).n_samples == 2

    def test_rejects_bad_powers(self):
        for clips in ((0.0,), (1.0, 0.0), (1.0, math.nan), ()):
            with pytest.raises(DomainError):
                config(n=10, clips=clips)

    def test_keeps_clip_powers_as_a_tuple(self):
        clips = [2.0, 1.0, 2.0]
        cfg = config(n=10, clips=clips)
        clips.append(3.0)
        assert cfg.clip_powers_w == (2.0, 1.0, 2.0)

    def test_rejects_bad_seed(self):
        with pytest.raises(DomainError):
            config(n=10, seed=-1)
        with pytest.raises(DomainError):
            config(n=10, seed=2 ** 64)

    @pytest.mark.parametrize("field, fields", [
        ("clip_powers_w", {"clips": [1.0, math.inf]}),
        ("snr_max_linear", {"snr_max": math.inf}),
    ])
    def test_rejects_infinite_inputs_naming_the_field(self, field, fields):
        # refused before any sampling, not after a whole run
        with pytest.raises(DomainError, match=f"^{field} must be positive and finite"):
            config(n=10, **fields)

    def test_rejects_bad_ceiling(self):
        with pytest.raises(DomainError):
            config(n=10, snr_max=0.0)
