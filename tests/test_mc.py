"""Monte-Carlo verifier: estimators, determinism, the radial moment kernel."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import foglink.cli as cli
from foglink import DomainError, NumericError, linear_to_db, pa_consumed_power
from foglink import _kernels, mc
from foglink.mc import CHUNK_SAMPLES, _chunk_layout, _chunk_sums, _summed_chunks, run_mc
from foglink.pa import clipping, optimal_ibos
from oracles import exact_sum, moment_sums_exact, moment_sums_reference, soft_limit


# five back-offs (dB) as in the benchmark, and their clip powers at unit input power
BACKOFFS_DB = (-3.0, 0.0, 3.0, 6.0, 12.0)
CLIP_POWERS = tuple(10.0 ** (x / 10.0) for x in BACKOFFS_DB)

LEAF = _kernels.LEAF_SAMPLES
# around the leaf size (LEAF + 1 ends in a one-sample leaf), odd tails, and
# the chunk lengths of real runs
LEAF_COUNTS = (
    1, 7, 8, 9, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5, 100_003, 562_816, CHUNK_SAMPLES,
)


def run_one(ibo=1.0, n=1_000_000, seed=42):
    """The estimate tuple of a one-clip run: (alpha_hat, stderr_alpha,
    distortion_hat, stderr_distortion, pa_hat, stderr_pa)."""
    [estimate] = run_mc([ibo], n, seed)
    return estimate


def analytic_distortion(ibo):
    alpha = clipping(ibo)[0]
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
        args = (CLIP_POWERS, CHUNK_SAMPLES + 12345, 42)
        assert run_mc(*args) == run_mc(*args)

    def test_seed_changes_results(self):
        a = run_one(n=100_000, seed=1)
        b = run_one(n=100_000, seed=2)
        assert a[0] != b[0]

    def test_chunk_combination_order_is_fixed(self):
        # simulate out-of-order workers: evaluate chunk partials in reverse,
        # then combine by chunk index; the sums must match bit for bit
        layout = list(_chunk_layout(2 * CHUNK_SAMPLES + 999))
        shape = (len(CLIP_POWERS), _kernels.N_SUMS)
        forward = np.zeros(shape)
        for index, count in layout:
            forward += _chunk_sums(42, index, count, CLIP_POWERS)
        partials = {
            index: _chunk_sums(42, index, count, CLIP_POWERS)
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
        first, *others = [_summed_chunks(CLIP_POWERS, n, 42, count) for count in workers]
        for sums in others:
            assert np.array_equal(sums, first)
        assert run_mc(CLIP_POWERS, n, 42) == [
            mc._estimate(p, n, row) for p, row in zip(CLIP_POWERS, first)
        ]

    @pytest.mark.parametrize("clips", [
        CLIP_POWERS,
        # unsorted, with a duplicate, and the no-clipping case
        (CLIP_POWERS[3], 1e6, CLIP_POWERS[0], CLIP_POWERS[3], CLIP_POWERS[1]),
    ])
    def test_shared_draw_equals_one_clip_runs(self, clips):
        # each clip's estimate is a function of (seed, n, that clip) alone:
        # sharing a run changes none of its bits
        n = 2 * CHUNK_SAMPLES + 999
        shared = run_mc(clips, n, 42)
        alone = [run_one(n=n, ibo=p_max) for p_max in clips]
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"), pytest.raises(NumericError) as refused:
                run_mc([2.5, 0.5, 7.5], 2 * CHUNK_SAMPLES + 1, 42)
        assert str(refused.value) == (
            "non-finite accumulation at clip power(s) [2.5, 7.5] W for "
            f"n_samples = {2 * CHUNK_SAMPLES + 1}, seed = 42"
        )
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
            run_mc([1.0], 3 * CHUNK_SAMPLES + 7, 42)
        assert threading.active_count() == threads  # every worker joined

    def test_huge_sample_count_takes_chunks_as_it_goes(self, monkeypatch):
        # 10**400 samples are ~1e394 chunks: a run that listed its chunk
        # layout, or a partial per chunk, before working would never reach
        # chunk 6
        def chunk_sums(seed, chunk_index, count, clip_powers):
            if chunk_index == 6:
                raise RuntimeError("chunk 6 failed")
            return np.zeros((len(clip_powers), _kernels.N_SUMS))

        monkeypatch.setattr(mc, "_chunk_sums", chunk_sums)
        with pytest.raises(RuntimeError, match="chunk 6 failed"):
            run_mc([1.0], 10 ** 400, 42)

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
            sums = _summed_chunks((1.0,), chunks * CHUNK_SAMPLES, 42, 8)
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

    def test_exact_reference_is_fsum(self):
        # the reference the next test holds the kernel to: integer sums of
        # mantissas give math.fsum's exactly rounded sum, at any spread of
        # magnitudes and signs
        rng = np.random.default_rng(5)
        values = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-300.0, 300.0, 10_000)
        for part in (values[:0], values[:1], values[:7], np.abs(values), values):
            assert exact_sum(part) == math.fsum(part.tolist())

    @pytest.mark.parametrize("count", LEAF_COUNTS)
    def test_matches_exact_sums(self, count):
        # every sum lies within a few roundings of the exactly rounded sum
        # of its per-sample terms, whatever the split into clipped and
        # unclipped samples: either side empty, one sample on a side, or a
        # sample exactly at the clip amplitude
        def generator():
            return np.random.Generator(np.random.Philox(key=11))

        u1 = generator().random(count)
        b = -np.log1p(-u1)  # |x|^2
        assert 0.0 < 1e-20 < b.min()
        clip_sets = {"-3..12 dB": CLIP_POWERS}
        if count < CHUNK_SAMPLES:  # exact sums over a whole chunk take seconds
            clip_sets.update({
                "unsorted with a duplicate": (4.0, 0.5, 1e6, 4.0, 1.3),
                # the largest: c**4 overflows, but no sample reaches c
                "above every sample": (1e6, 1e300),
                "below every sample": (1e-20,),
                "only the largest sample clipped": (b.max() * (1.0 - 1e-9),),
                # sqrt of it is that sample's radius: r == c at the cut
                "a sample's own power": (b[count // 2],),
            })
        for name, clips in clip_sets.items():
            exact = moment_sums_exact(u1, clips)
            got = _kernels.moment_sums(generator(), count, clips)
            assert got.shape == exact.shape, name
            assert np.all(np.abs(got - exact) <= 2e-15 * exact), name

    @pytest.mark.parametrize("count", LEAF_COUNTS)
    def test_matches_whole_row_reference(self, count):
        # the sorted-slice sums against one ndarray.sum over the whole row of
        # each per-sample term: cheap enough for every clip set at every
        # count, the whole chunk included. The kernel lies within 2e-15 of
        # the exact sums (above), and numpy's pairwise sums of these
        # nonnegative terms within 2e-15 of them too, so the two agree
        # within 4e-15
        def generator():
            return np.random.Generator(np.random.Philox(key=11))

        u1 = generator().random(count)
        b = -np.log1p(-u1)  # |x|^2
        clip_sets = {
            "-3..12 dB": CLIP_POWERS,
            "unsorted with a duplicate": (4.0, 0.5, 1e6, 4.0, 1.3),
            "above every sample": (1e6, 1e300),
            "below every sample": (1e-20,),
            "only the largest sample clipped": (b.max() * (1.0 - 1e-9),),
            "a sample's own power": (b[count // 2],),
        }
        for name, clips in clip_sets.items():
            expected = moment_sums_reference(u1, clips)
            got = _kernels.moment_sums(generator(), count, clips)
            assert got.shape == expected.shape, name
            assert np.all(np.abs(got - expected) <= 4e-15 * expected), name

    def test_run_mc_peak_stays_below_one_chunk_array(self):
        # each worker holds only leaf rows, never a chunk-length row: the
        # traced peak of a multi-chunk run stays below one chunk-sized
        # float64 array
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_mc(CLIP_POWERS, 3 * CHUNK_SAMPLES + 7, 42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_SAMPLES * 8


class TestEstimators:
    @pytest.mark.parametrize("ibo", [0.5, 1.0, 4.0])
    def test_agree_with_closed_forms(self, ibo):
        a_hat, stderr_alpha, d_hat, stderr_distortion, pa_hat, stderr_pa = run_one(ibo=ibo)
        alpha = clipping(ibo)[0]
        assert abs(a_hat - alpha) <= max(3 * stderr_alpha, 0.01 * alpha)
        distortion = analytic_distortion(ibo)
        assert abs(d_hat - distortion) <= max(3 * stderr_distortion, 0.01 * distortion)
        pa_w = pa_consumed_power(ibo, ibo)
        assert abs(pa_hat - pa_w) <= max(3 * stderr_pa, 0.01 * pa_w)

    def test_no_clipping_leaves_no_distortion(self):
        # clip amplitude 1000 sigma: the limiter never engages, and the
        # residual distortion estimate is the plug-in quadratic in the
        # alpha estimation error, a chi-square of scale 1/n
        n = 1_000_000
        a_hat, stderr_alpha, d_hat, stderr_distortion, _, _ = run_one(ibo=1e6, n=n)
        floor = 13.0 * 1.0 / n
        assert d_hat <= max(3 * stderr_distortion, floor)
        assert abs(a_hat - 1.0) <= 3 * stderr_alpha + 1e-6

    def test_stderr_scales_with_sample_count(self):
        small = run_one(n=10_000)
        large = run_one(n=1_000_000)
        ratio = small[1] / large[1]  # alpha
        assert 8.5 < ratio < 11.5
        ratio_pa = small[5] / large[5]
        assert 8.5 < ratio_pa < 11.5

    def test_empirical_sinr_peaks_at_analytic_optimum(self):
        # at a 20 dB ceiling; mc_verify forms the empirical SINR
        best, _, _ = next(optimal_ibos([100.0]))
        factors = (0.5, 1.0, 2.0)
        _, rows, _ = cli.mc_verify(
            [linear_to_db(best * factor) for factor in factors], 1_000_000, 42, 20.0
        )
        sinr_hat = dict(zip(factors, (row[11] for row in rows)))
        # the SINR drop at a factor-two detuning dwarfs the Monte-Carlo
        # noise at this sample count
        assert sinr_hat[1.0] > sinr_hat[0.5]
        assert sinr_hat[1.0] > sinr_hat[2.0]


def refusal(monkeypatch, ibo_db=(0.0,), n=10, seed=0, snr_max_db=20.0):
    """The message with which ``cli.mc_verify`` refuses these inputs, which
    it must do before any sampling."""
    def no_sampling(*args):
        raise AssertionError(f"sampled {args!r} before refusing an input")

    # mc_verify imports run_mc from foglink.mc when it is called
    monkeypatch.setattr(mc, "run_mc", no_sampling)
    with pytest.raises(DomainError) as refused:
        cli.mc_verify(list(ibo_db), n, seed, snr_max_db)
    return str(refused.value)


class TestConfigValidation:
    """``cli.mc_verify`` checks each input of a run once; ``run_mc`` trusts
    what it is given."""

    def test_has_no_defaults(self):
        # every input of a run is stated by its caller
        run_args = {"clip_powers": (1.0,), "n_samples": 10, "seed": 0}
        verify_args = {"ibo_db_values": [0.0], "n_samples": 10, "seed": 0, "snr_max_db": 20.0}
        for call, full in ((run_mc, run_args), (cli.mc_verify, verify_args)):
            call(**full)
            for name in full:
                with pytest.raises(TypeError, match=name):
                    call(**{key: value for key, value in full.items() if key != name})

    def test_rejects_bad_counts(self, monkeypatch, capsys):
        for n in (0, -2):
            assert refusal(monkeypatch, n=n) == f"--samples must be at least 2, got {n}"
        # the command line takes whole sample counts only
        with pytest.raises(SystemExit) as usage:
            cli.main(["mc-verify", "--samples", "10.5"])
        assert usage.value.code == 2
        assert "invalid int value: '10.5'" in capsys.readouterr().err

    def test_rejects_a_single_sample(self, monkeypatch):
        # one sample has no standard error
        assert refusal(monkeypatch, n=1) == "--samples must be at least 2, got 1"
        monkeypatch.undo()
        _, [row], _ = cli.mc_verify([0.0], 2, 0, 20.0)
        assert all(math.isfinite(cell) for cell in row[:-1])

    def test_rejects_bad_powers(self, monkeypatch):
        assert refusal(monkeypatch, ibo_db=()) == "--ibo-db produced an empty back-off list"
        # -inf dB is a zero clip power, and nan dB none
        for ibo_db in ((-math.inf,), (0.0, -math.inf), (0.0, math.nan)):
            assert refusal(monkeypatch, ibo_db=ibo_db).endswith(
                f" [scenario: ibo_db={ibo_db[-1]!r}, snr_max_db=20.0]"
            )

    def test_keeps_clip_powers_as_a_tuple(self):
        # run_mc reads its clip powers once, so any iterable gives the same run
        clips = [2.0, 1.0, 2.0]
        expected = run_mc(tuple(clips), 10, 0)
        assert run_mc(clips, 10, 0) == expected
        assert run_mc(iter(clips), 10, 0) == expected

    def test_rejects_bad_seed(self, monkeypatch):
        for seed in (-1, 2 ** 64):
            assert refusal(monkeypatch, seed=seed) == (
                f"seed must be a 64-bit unsigned integer, got {seed} "
                "[scenario: ibo_db=[0.0], snr_max_db=20.0]"
            )
        assert len(run_mc([1.0], 10, 2 ** 64 - 1)) == 1

    @pytest.mark.parametrize("field, inputs", [
        ("ibo_db", {"ibo_db": (1.0, math.inf)}),
        ("snr_max_db", {"snr_max_db": math.inf}),
    ])
    def test_rejects_infinite_inputs_naming_the_field(self, monkeypatch, field, inputs):
        # refused before any sampling, not after a whole run
        assert refusal(monkeypatch, **inputs).startswith(
            f"inf dB has no finite power ratio [scenario: {field}=inf"
        )

    def test_rejects_bad_ceiling(self, monkeypatch):
        assert refusal(monkeypatch, snr_max_db=-1e5) == (
            "-100000.0 dB has no positive power ratio [scenario: snr_max_db=-100000.0]"
        )

    def test_checks_inputs_in_order(self, monkeypatch):
        # with every input bad, the first in mc_verify's order is refused;
        # mending it moves the refusal on to the next
        inputs = {"ibo_db": (), "n": 1, "snr_max_db": math.inf, "seed": -1}
        steps = (
            ("ibo_db", (math.nan,), "--ibo-db produced an empty back-off list"),
            ("n", 10, "--samples must be at least 2, got 1"),
            ("snr_max_db", 20.0, "inf dB has no finite power ratio [scenario: snr_max_db=inf]"),
            ("ibo_db", (0.0,), "nan dB has no finite power ratio "
             "[scenario: ibo_db=nan, snr_max_db=20.0]"),
            ("seed", 0, "seed must be a 64-bit unsigned integer, got -1 "
             "[scenario: ibo_db=[0.0], snr_max_db=20.0]"),
        )
        for name, mended, message in steps:
            assert refusal(monkeypatch, **inputs) == message
            inputs[name] = mended
