"""Amplifier model: Bussgang gain, SINR curve, optimal back-off, supply power."""

import hashlib
import math

import numpy as np
import pytest

from foglink import (
    ConvergenceError,
    DomainError,
    FoglinkError,
    bussgang_alpha,
    pa_consumed_power,
    sinr_approx_db,
    sinr_of_ibo,
    snr_max_for_sinr_db,
)
from foglink.pa import IBO_BRACKET, MAX_SNR_CEILING, MIN_SNR_CEILING, clipping, optimal_ibos
from oracles import solve_bisection

SQRT_PI = math.sqrt(math.pi)

# sha256 over the solve's outcome at every 0.01 dB from -40 to 157 dB, both
# sides of MIN_SNR_CEILING and MAX_SNR_CEILING included: one line per
# ceiling, the repr of (ibo, alpha, sinr) in float.hex, or the exception's
# type name and message.  A change that moves the solver's bits on purpose
# re-pins it with the digest the failing test prints.
SOLVER_GRID_SHA256 = "e00070646ded4d85ed58502b1975996c28e475f4426d167174e6e8f939ef61f6"


def solved(snr_max):
    """The ``(ibo_linear, alpha, sinr_linear)`` the batch solve yields for
    one SNR ceiling."""
    return next(optimal_ibos([snr_max]))


def gap_at(ibo, snr_max):
    """The solve's stationarity gap (sqrt(pi)/2) * erfc(z) - z / SNR_MAX at a
    back-off, in z = sqrt(IBO)."""
    z = math.sqrt(ibo)
    return 0.5 * SQRT_PI * math.erfc(z) - z / snr_max


def bisect_optimal_ibo(snr_max, tol=1e-11):
    """Independent bisection oracle for the SINR-optimal back-off."""
    return solve_bisection(
        lambda i: 0.5 * SQRT_PI * math.erfc(math.sqrt(i)) - math.sqrt(i) / snr_max,
        IBO_BRACKET[0],
        IBO_BRACKET[1],
        tol=tol,
    )


class TestBussgangAlpha:
    def test_no_clipping_limit(self):
        assert abs(bussgang_alpha(50.0) - 1.0) <= 1e-9

    def test_unit_backoff(self):
        # frozen from direct evaluation 1 - e^-1 + 0.5*sqrt(pi)*erfc(1);
        # cross-checked empirically in the Monte-Carlo suite
        assert abs(bussgang_alpha(1.0) - 0.7715233514688886) < 1e-15

    def test_heavy_clipping_series(self):
        # series oracle: alpha = 0.5*sqrt(pi*I) - I^2/6 + O(I^(5/2));
        # frozen value of the truncated series at I = 0.001
        series = 0.02802478941532298
        assert abs(0.5 * math.sqrt(math.pi * 0.001) - 0.001 ** 2 / 6.0 - series) < 1e-17
        assert abs(bussgang_alpha(0.001) - series) <= 1e-9

    def test_strictly_increasing(self):
        # strict up to 30, where 1 - alpha ~ 5e-14 still resolves in floats;
        # beyond that consecutive values land on the same double
        grid = np.geomspace(1e-6, 30.0, 300)
        values = [bussgang_alpha(float(i)) for i in grid]
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        # past 30 the values sit within one ulp of 1.0 and may wobble by
        # a single rounding step
        tail = [bussgang_alpha(float(i)) for i in np.linspace(30.0, 50.0, 50)]
        assert all(b >= a - 2.0 ** -52 for a, b in zip(tail[:-1], tail[1:]))
        assert all(abs(v - 1.0) <= 1e-13 for v in tail)

    def test_open_interval(self):
        for i in (1e-9, 1e-3, 0.5, 1.0, 10.0, 30.0):
            assert 0.0 < bussgang_alpha(i) < 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bussgang_alpha(bad)


class TestDistortionPower:
    def test_closed_form(self):
        # clipping gives the Bussgang gain and D = 1 - alpha^2 - e^-IBO
        for ibo in (1e-6, 0.1, 1.0, 10.0):
            alpha, distortion = clipping(ibo)
            assert alpha == bussgang_alpha(ibo)
            assert distortion == 1.0 - alpha * alpha - math.exp(-ibo)

    def test_sinr_denominator_is_distortion_plus_noise(self):
        ibo, snr_max = 1.0, 100.0
        alpha, distortion = clipping(ibo)
        expected = alpha * alpha / (distortion + ibo / snr_max)
        assert sinr_of_ibo(ibo, snr_max) == expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match="ibo_linear must be positive and finite"):
            clipping(bad)


class TestSinrOfIbo:
    def test_noise_free_reduction(self):
        # at a huge ceiling the noise share vanishes and the closed form
        # alpha^2 / (1 - alpha^2 - e^-IBO) remains
        alpha = bussgang_alpha(1.0)
        noise_free = alpha * alpha / (1.0 - alpha * alpha - math.exp(-1.0))
        assert abs(sinr_of_ibo(1.0, 1e12) - noise_free) / noise_free <= 1e-9

    def test_moderate_point(self):
        # frozen from direct evaluation; Monte-Carlo agreement covered in
        # the mc suite and the acceptance run
        assert abs(sinr_of_ibo(1.0, 100.0) - 12.699367736791796) < 1e-12

    def test_heavy_clipping_limit(self):
        # as IBO -> 0 both the useful power (alpha^2 ~ pi*I/4) and the
        # denominator (~ I*(1 - pi/4 + 1/snr)) vanish linearly, leaving
        # the classical limiter ratio (pi/4) / (1 - pi/4 + 1/snr), about
        # 3.4968 at a ceiling of 100; the value is small only relative to
        # the ceiling, it does not drop below 1
        limit = (math.pi / 4.0) / (1.0 - math.pi / 4.0 + 1.0 / 100.0)
        value = sinr_of_ibo(1e-6, 100.0)
        assert abs(value - limit) / limit <= 1e-4
        assert 0.0 < value < 100.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sinr_of_ibo(-1.0, 100.0)
        with pytest.raises(DomainError):
            sinr_of_ibo(1.0, 0.0)

    def test_denominator_that_underflows_is_refused(self):
        # at the smallest subnormal back-off D and IBO / SNR_MAX both round
        # to 0.0; the SINR is refused, not divided by zero
        with pytest.raises(DomainError, match="^SINR degenerated to nan at ibo = 5e-324"):
            sinr_of_ibo(5e-324, 100.0)


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
            assert alpha == bussgang_alpha(ibo)
            assert sinr == sinr_of_ibo(ibo, s)

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
                perturbed = sinr_of_ibo(ibo * factor, s)
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

    def test_bracket_holds_down_to_its_edge(self):
        # IBO_BRACKET holds a sign change from -39.475 dB up
        ibo, _, _ = solved(10.0 ** -3.9)
        assert abs(gap_at(ibo, 10.0 ** -3.9)) <= 1e-13
        with pytest.raises(DomainError, match="is below -39.475 dB"):
            solved(10.0 ** -4.0)
        ibo, _, _ = solved(MIN_SNR_CEILING)
        assert abs(ibo - IBO_BRACKET[0]) <= 1e-15

    def test_gap_without_a_root_stops_when_steps_make_no_progress(self, monkeypatch):
        # a sign change with no zero: bisection shrinks the bracket to
        # adjacent floats in ~55 steps, well inside the 200-step limit
        calls = []

        def step_erfc(z):  # at s = 100 the gap is > 0 below z = 2 and < 0 above
            calls.append(z)
            return 1.0 if z < 2.0 else 0.0

        monkeypatch.setattr(math, "erfc", step_erfc)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solved(100.0)
        assert len(calls) < 100
        assert abs(calls[-1] - 2.0) <= math.ulp(2.0)

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
        # exp held just above (sqrt(pi)/2) z erfc(z) at the root leaves alpha
        # just below 1 and almost no distortion: the SINR tops the ceiling
        z = math.sqrt(solved(1.0)[0])
        c = 0.5 * SQRT_PI * z * math.erfc(z) + 0.01
        monkeypatch.setattr(math, "exp", lambda x: c)
        with pytest.raises(DomainError, match=r"^sinr_linear must lie in .*, got 98\.99"):
            next(optimal_ibos([1.0]))
        # exp = 0 leaves alpha above 1 and the SINR negative: the SINR
        # check is the one that raises
        monkeypatch.setattr(math, "exp", lambda x: 0.0)
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
                assert alpha == bussgang_alpha(ibo)
                assert sinr == sinr_of_ibo(ibo, s)
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
