"""Amplifier model: Bussgang gain, SINR curve, optimal back-off, supply power."""

import hashlib
import math
import re

import numpy as np
import pytest

from foglink import (
    ConvergenceError,
    DomainError,
    FoglinkError,
    pa_consumed_power,
    sinr_approx_db,
    snr_max_for_sinr_db,
)
from foglink.pa import (
    MAX_SNR_CEILING,
    MIN_SNR_CEILING,
    checked_sinr,
    clipping,
    optimal_ibos,
)
from oracles import solve_bisection

SQRT_PI = math.sqrt(math.pi)

# sha256 over the solve's outcome at every 0.01 dB from -40 to 157 dB, both
# sides of MIN_SNR_CEILING and MAX_SNR_CEILING included: one line per
# ceiling, the repr of (ibo, alpha, sinr) in float.hex, or the exception's
# type name and message.  A change that moves the solver's bits on purpose
# re-pins it with the digest the failing test prints.
SOLVER_GRID_SHA256 = "a670f443fe9718d209fe275f4237be0ac2bba011297711417f883406a4e95181"


def solved(snr_max):
    """The ``(ibo_linear, alpha, sinr_linear)`` the batch solve yields for
    one SNR ceiling."""
    return next(optimal_ibos([snr_max]))


def gap_at(ibo, snr_max):
    """The solve's stationarity gap (sqrt(pi)/2) * erfc(z) - z / SNR_MAX at a
    back-off, in z = sqrt(IBO)."""
    z = math.sqrt(ibo)
    return 0.5 * SQRT_PI * math.erfc(z) - z / snr_max


def sinr_at(ibo, snr_max):
    """The SINR at a back-off and SNR ceiling, from the closed forms."""
    return checked_sinr(*clipping(ibo), ibo, snr_max)


def bisect_optimal_ibo(snr_max, tol=1e-11):
    """Independent bisection oracle for the SINR-optimal back-off."""
    return solve_bisection(
        lambda i: 0.5 * SQRT_PI * math.erfc(math.sqrt(i)) - math.sqrt(i) / snr_max,
        1e-8,
        1e3,
        tol=tol,
    )


class TestBussgangAlpha:
    """The first value of ``clipping``."""

    def test_no_clipping_limit(self):
        assert abs(clipping(50.0)[0] - 1.0) <= 1e-9

    def test_unit_backoff(self):
        # frozen from direct evaluation 1 - e^-1 + 0.5*sqrt(pi)*erfc(1);
        # cross-checked empirically in the Monte-Carlo suite
        assert abs(clipping(1.0)[0] - 0.7715233514688886) < 1e-15

    def test_heavy_clipping_series(self):
        # series oracle: alpha = 0.5*sqrt(pi*I) - I^2/6 + O(I^(5/2));
        # frozen value of the truncated series at I = 0.001
        series = 0.02802478941532298
        assert abs(0.5 * math.sqrt(math.pi * 0.001) - 0.001 ** 2 / 6.0 - series) < 1e-17
        assert abs(clipping(0.001)[0] - series) <= 1e-9

    def test_strictly_increasing(self):
        # strict up to 30, where 1 - alpha ~ 5e-14 still resolves in floats;
        # beyond that consecutive values land on the same double
        grid = np.geomspace(1e-6, 30.0, 300)
        values = [clipping(float(i))[0] for i in grid]
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        # past 30 the values sit within one ulp of 1.0 and may wobble by
        # a single rounding step
        tail = [clipping(float(i))[0] for i in np.linspace(30.0, 50.0, 50)]
        assert all(b >= a - 2.0 ** -52 for a, b in zip(tail[:-1], tail[1:]))
        assert all(abs(v - 1.0) <= 1e-13 for v in tail)

    def test_open_interval(self):
        for i in (1e-9, 1e-3, 0.5, 1.0, 10.0, 30.0):
            assert 0.0 < clipping(i)[0] < 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            clipping(bad)


class TestDistortionPower:
    def test_closed_form(self):
        # clipping gives the Bussgang gain and D = 1 - alpha^2 - e^-IBO
        for ibo in (1e-6, 0.1, 1.0, 10.0):
            alpha, distortion = clipping(ibo)
            root = math.sqrt(ibo)
            assert alpha == 1.0 - math.exp(-ibo) + 0.5 * SQRT_PI * root * math.erfc(root)
            assert distortion == 1.0 - alpha * alpha - math.exp(-ibo)

    def test_sinr_denominator_is_distortion_plus_noise(self):
        ibo, snr_max = 1.0, 100.0
        alpha, distortion = clipping(ibo)
        expected = alpha * alpha / (distortion + ibo / snr_max)
        assert checked_sinr(alpha, distortion, ibo, snr_max) == expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match="ibo_linear must be positive and finite"):
            clipping(bad)


class TestSinrOfIbo:
    """The SINR as a function of the back-off, ``checked_sinr`` of the
    closed forms."""

    def test_noise_free_reduction(self):
        # at a huge ceiling the noise share vanishes and the closed form
        # alpha^2 / (1 - alpha^2 - e^-IBO) remains
        alpha = clipping(1.0)[0]
        noise_free = alpha * alpha / (1.0 - alpha * alpha - math.exp(-1.0))
        assert abs(sinr_at(1.0, 1e12) - noise_free) / noise_free <= 1e-9

    def test_moderate_point(self):
        # frozen from direct evaluation; Monte-Carlo agreement covered in
        # the mc suite and the acceptance run
        assert abs(sinr_at(1.0, 100.0) - 12.699367736791796) < 1e-12

    def test_heavy_clipping_limit(self):
        # as IBO -> 0 both the useful power (alpha^2 ~ pi*I/4) and the
        # denominator (~ I*(1 - pi/4 + 1/snr)) vanish linearly, leaving
        # the classical limiter ratio (pi/4) / (1 - pi/4 + 1/snr), about
        # 3.4968 at a ceiling of 100; the value is small only relative to
        # the ceiling, it does not drop below 1
        limit = (math.pi / 4.0) / (1.0 - math.pi / 4.0 + 1.0 / 100.0)
        value = sinr_at(1e-6, 100.0)
        assert abs(value - limit) / limit <= 1e-4
        assert 0.0 < value < 100.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sinr_at(-1.0, 100.0)
        with pytest.raises(DomainError):
            sinr_at(1.0, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e10, float("inf"), float("nan")])
    def test_ceiling_must_be_positive_and_finite(self, bad):
        # refused by name before the division: 0.0 and -0.0 would divide by
        # zero, and -1e10 and inf would give a SINR of 16.14
        with pytest.raises(DomainError, match=r"^snr_max_linear must be positive and finite, "
                                              rf"got {bad!r}$"):
            sinr_at(1.0, bad)

    def test_denominator_that_underflows_is_refused(self):
        # at the smallest subnormal back-off D and IBO / SNR_MAX both round
        # to 0.0; the SINR is refused, not divided by zero
        with pytest.raises(DomainError, match="^SINR degenerated to nan at ibo = 5e-324"):
            sinr_at(5e-324, 100.0)


class TestOptimalIbo:
    def test_matches_bisection_oracle_at_unity(self):
        ibo, _, _ = solved(1.0)
        # frozen from the bisection oracle at tol 1e-15
        assert abs(ibo - 0.2099321545908347) <= 1e-8
        assert abs(ibo - bisect_optimal_ibo(1.0)) <= 1e-8

    def test_backoff_condition_agrees_with_bisection(self):
        # at an SNR ceiling of 100 (20 dB); frozen from a converged
        # bisection scan of the same condition
        ibo, _, _ = solved(100.0)
        assert abs(ibo - bisect_optimal_ibo(100.0)) <= 1e-8
        assert abs(ibo - 2.7621807077544887) <= 1e-8

    def test_residual_small_everywhere(self):
        for snr_db in np.linspace(-10.0, 50.0, 61):
            s = 10.0 ** (snr_db / 10.0)
            ibo, _, _ = solved(s)
            assert abs(gap_at(ibo, s)) <= 1e-10

    def test_point_carries_the_closed_forms_at_its_backoff(self):
        # the solve computes alpha once and forms the SINR from it; the
        # bits must be those of the standalone closed forms.  fig3's
        # default grid, plus ceilings where the back-off is large
        for snr_db in [*map(float, np.linspace(-10.0, 50.0, 601)), 100.0, 137.0, 156.0]:
            s = 10.0 ** (snr_db / 10.0)
            ibo, alpha, sinr = solved(s)
            assert alpha == clipping(ibo)[0]
            assert sinr == sinr_at(ibo, s)

    def test_relative_error_against_a_converged_bisection(self):
        # every 0.1 dB from -39.4 dB over the fit's rated range, against a
        # float bisection of the same gap run until its bracket is 4e-16 *
        # IBO wide.  The solve stops at |gap| <= 1e-13, which leaves
        # the worst relative IBO error at 1.79e-10 (47.2 dB) and 2.18e-13
        # below -10 dB; a 40-digit bisection on a 1 dB grid agrees (1.1e-10
        # at 47 dB).  Solving the back-off to its own precision takes both
        # to <= 1e-15.  Above 50 dB the error grows to 0.14 at 140 dB.
        # -39.47 and -39.11 dB end the span where plain Newton steps and a
        # bisection fallback part by up to 1.8e-14 (1.4e-14 and 1.8e-14 there)
        worst, worst_below_10 = 0.0, 0.0
        grid = [-394.7, *range(-394, 501), -391.1]
        ceilings = [10.0 ** (k / 100.0) for k in grid]
        for k, s, (ibo, _, _) in zip(grid, ceilings, optimal_ibos(ceilings)):
            oracle = bisect_optimal_ibo(s, tol=4e-16 * ibo)
            error = abs(ibo - oracle) / oracle
            worst = max(worst, error)
            if k < -100:
                worst_below_10 = max(worst_below_10, error)
        assert worst <= 1.8e-10
        assert worst_below_10 <= 2.2e-13

    def test_huge_ceiling(self):
        ibo, _, _ = solved(1e10)
        assert abs(gap_at(ibo, 1e10)) <= 1e-10
        assert ibo > 10.0

    def test_monotone_in_ceiling(self):
        previous = 0.0
        for snr_db in np.linspace(-10.0, 50.0, 121):
            ibo, _, _ = solved(10.0 ** (snr_db / 10.0))
            assert ibo > previous
            previous = ibo

    def test_is_local_maximum(self):
        for snr_db in (-10.0, 0.0, 10.0, 25.0, 50.0):
            s = 10.0 ** (snr_db / 10.0)
            ibo, _, best = solved(s)
            for factor in (0.9, 0.99, 1.01, 1.1):
                perturbed = sinr_at(ibo * factor, s)
                assert perturbed <= best * (1.0 + 1e-12)

    def test_ceiling_cap(self):
        with pytest.raises(DomainError):
            solved(MAX_SNR_CEILING * 10.0)

    def test_solvable_on_a_fine_grid_up_to_the_cap(self):
        # the solve failed from 157.79 dB on; every ceiling it accepts solves
        cap_db = 10.0 * math.log10(MAX_SNR_CEILING)
        assert 156.25 < cap_db < 157.78
        for k in range(int((cap_db - 100.0) * 100.0) + 1):
            _, alpha, _ = solved(10.0 ** ((100.0 + 0.01 * k) / 10.0))
            assert 0.0 < alpha < 1.0

    def test_solves_down_to_the_lowest_ceiling(self):
        # MIN_SNR_CEILING, -39.475 dB, is the ceiling whose optimal back-off
        # is 1e-8; below it the solve refuses
        ibo, _, _ = solved(10.0 ** -3.9)
        assert abs(gap_at(ibo, 10.0 ** -3.9)) <= 1e-13
        with pytest.raises(DomainError, match="is below -39.475 dB"):
            solved(10.0 ** -4.0)
        ibo, _, _ = solved(MIN_SNR_CEILING)
        assert abs(ibo - 1e-8) <= 1e-15

    def test_gap_without_a_root_stops_at_the_step_cap(self, monkeypatch):
        # a sign change with no zero: Newton steps cycle across the jump
        # and the solve gives up after its 200 steps, one gap evaluation
        # each after the start's
        calls = []

        def step_erfc(z):  # at s = 100 the gap is > 0 below z = 2 and < 0 above
            calls.append(z)
            return 1.0 if z < 2.0 else 0.0

        monkeypatch.setattr(math, "erfc", step_erfc)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solved(100.0)
        assert len(calls) == 201

    def test_a_step_that_rounds_to_nothing_stops_at_the_step_cap(self, monkeypatch):
        # the gap is 1 and its slope -1e300 at the start z = 0.5, so no step
        # moves z: the solve still gives up at the step cap, reporting the
        # start's gap and z
        monkeypatch.setattr(math, "exp", lambda x: 1e300)
        monkeypatch.setattr(math, "erfc", lambda z: 2.0 / (0.5 * SQRT_PI))
        message = ("back-off solve did not converge: |gap| = 0.9999999999999998 "
                   "at z = 0.5, snr_max_linear = 0.5")
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            solved(0.5)

    def test_gap_evaluations_on_a_fine_grid(self, monkeypatch):
        # the solve's work at every 0.01 dB of [MIN_SNR_CEILING,
        # MAX_SNR_CEILING]: math.erfc calls less the one in _clipping.
        # 1907 ceilings take one evaluation; the worst take 22, from
        # 126.09 dB up, where the gap's slope flattens to -1/s.  Solving
        # the back-off to its own precision (ROADMAP item 1) lowers both
        # pins.  After the first step the iterates rise strictly to the
        # root, as the gap's convexity has it, so no step rounds to nothing
        erfc, calls = math.erfc, []

        def counted_erfc(z):
            calls.append(z)
            return erfc(z)

        monkeypatch.setattr(math, "erfc", counted_erfc)
        evaluations = []
        for k in range(-3947, 15651):
            del calls[:]
            solved(10.0 ** (k / 1000.0))
            evaluations.append(len(calls) - 1)
            stepped = calls[1:-1]  # the last call is _clipping's
            assert all(a < b for a, b in zip(stepped, stepped[1:])), k
        assert max(evaluations) <= 22
        assert sum(evaluations) == 214129

    def test_domain(self):
        with pytest.raises(DomainError):
            solved(0.0)

    def test_a_solved_point_that_fails_its_checks_raises_the_first(self, monkeypatch):
        # the batch checks each solved point itself: the SINR first, then
        # alpha, then the SINR against the ceiling.  Past the cap the root
        # solves, but alpha rounds to 1.0
        monkeypatch.setattr("foglink.pa.MAX_SNR_CEILING", math.inf)
        with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\), got 1\.0$"):
            next(optimal_ibos([10.0 ** 15.8]))
        # alpha just below 1 and almost no distortion: the SINR tops the
        # ceiling
        monkeypatch.setattr("foglink.pa._clipping", lambda ibo: (0.99, 0.0099 - ibo))
        with pytest.raises(DomainError, match=r"^sinr_linear must lie in .*, got 99\.0000"):
            next(optimal_ibos([1.0]))
        # alpha above 1 and D = 1 - alpha^2 leave the SINR negative: the
        # SINR check is the one that raises
        monkeypatch.setattr("foglink.pa._clipping", lambda ibo: (1.0 + ibo / 100.0,
                                                                  1.0 - (1.0 + ibo / 100.0) ** 2))
        with pytest.raises(DomainError, match=r"^SINR degenerated to -37\.2"):
            next(optimal_ibos([100.0]))

    def test_bits_are_pinned_on_a_fine_grid(self):
        digest = hashlib.sha256()
        ceilings, points = [], []
        for k in range(-4000, 15701):
            s = 10.0 ** (k / 1000.0)
            try:
                ibo, alpha, sinr = solved(s)
            except FoglinkError as exc:
                line = f"{type(exc).__name__}: {exc}"
            else:
                assert alpha == clipping(ibo)[0]
                assert sinr == sinr_at(ibo, s)
                ceilings.append(s)
                points.append((ibo, alpha, sinr))
                line = repr((ibo.hex(), alpha.hex(), sinr.hex()))
            digest.update(line.encode() + b"\n")
        # one batch over every ceiling that solves gives the same tuples
        assert list(optimal_ibos(ceilings)) == points
        assert digest.hexdigest() == SOLVER_GRID_SHA256, (
            f"solver bits moved; new digest {digest.hexdigest()}"
        )


class TestSinrApproxDb:
    def test_at_zero_db(self):
        assert sinr_approx_db(0.0) == -2.23

    def test_at_ten_db(self):
        assert abs(sinr_approx_db(10.0) - 6.17) < 1e-12

    def test_inverse(self):
        for x in np.linspace(-10.0, 50.0, 31):
            assert abs(snr_max_for_sinr_db(sinr_approx_db(float(x))) - x) <= 1e-12

    def test_gap_to_exact_curve(self):
        # The affine fit tracks the exact optimum within about half a dB,
        # but not strictly below 0.5: the measured maximum gap on the
        # [-10, 50] dB grid is 0.510856 dB, attained at the -10 dB edge
        # (verified against a 40-digit reference solve).
        max_gap = 0.0
        for k in range(601):
            x = -10.0 + 0.1 * k
            _, _, sinr = solved(10.0 ** (x / 10.0))
            exact_db = 10.0 * math.log10(sinr)
            max_gap = max(max_gap, abs(sinr_approx_db(x) - exact_db))
        assert abs(max_gap - 0.5108560931682808) <= 1e-9
        assert max_gap < 0.52


class TestPaConsumedPower:
    def test_zero_clip_power(self):
        assert pa_consumed_power(0.0, 1.0) == 0.0

    def test_unit_backoff(self):
        # frozen from 2*erf(1)/sqrt(pi)
        assert abs(pa_consumed_power(1.0, 1.0) - 0.9508860188593272) < 1e-15

    def test_deep_backoff(self):
        # frozen from 2/(5*sqrt(pi)) * erf(5)
        assert abs(pa_consumed_power(1.0, 25.0) - 0.22567583341875552) < 1e-15

    def test_linear_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = float(rng.uniform(1e-9, 1e3))
            ibo = float(rng.uniform(1e-4, 50.0))
            assert pa_consumed_power(p, ibo) == p * pa_consumed_power(1.0, ibo)

    def test_domain(self):
        with pytest.raises(DomainError):
            pa_consumed_power(-1.0, 1.0)
        with pytest.raises(DomainError):
            pa_consumed_power(1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="p_max_w must be non-negative"):
                pa_consumed_power(bad, 1.0)


class TestPaOperatingPoint:
    """The amplifier operating point, the ``(ibo_linear, alpha,
    sinr_linear)`` the solve yields per SNR ceiling."""

    def test_sinr_below_ceiling_enforced(self):
        # every solved point lies inside the ranges the solve checks
        # (test_a_solved_point_that_fails_its_checks_raises_the_first)
        for k in range(-39, 157):
            s = 10.0 ** (k / 10.0)
            _, alpha, sinr = solved(s)
            assert 0.0 < alpha < 1.0
            assert 0.0 < sinr < s
