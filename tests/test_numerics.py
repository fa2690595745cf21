"""Special-function accuracy against independent oracles, and solver behavior."""

import math

import numpy as np
import pytest

from foglink import (
    BracketError,
    ConvergenceError,
    DomainError,
    erfc,
    solve_bisection,
    solve_newton,
)

SQRT_PI = math.sqrt(math.pi)


def erf_maclaurin(x, max_terms=300):
    """Series oracle: 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)).

    Converges with absolute error below 1e-13 for |x| <= 3; cancellation
    ruins it beyond that.
    """
    total, term, n = 0.0, x, 0
    while abs(term) > 1e-22 and n < max_terms:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / SQRT_PI * total


def erfc_continued_fraction(x, levels=300):
    """Continued-fraction oracle, relative error below 1e-13 for x >= 1:

    erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + (2/2)/(x + ...)))
    """
    cf = 0.0
    for k in range(levels, 0, -1):
        cf = (k / 2.0) / (x + cf)
    return math.exp(-x * x) / SQRT_PI / (x + cf)


class TestErf:
    """``math.erf``, which the class B supply-power model calls."""

    def test_zero(self):
        assert math.erf(0.0) == 0.0

    def test_saturation(self):
        assert abs(math.erf(6.0) - 1.0) <= 1e-12

    def test_against_series_oracle(self):
        # frozen from erf_maclaurin(1.0)
        assert abs(erf_maclaurin(1.0) - 0.8427007929497148) < 1e-15
        assert abs(math.erf(1.0) - 0.8427007929497148) <= 1e-12

    def test_series_agreement_grid(self):
        for x in np.linspace(0.0, 3.0, 301):
            assert abs(math.erf(float(x)) - erf_maclaurin(float(x))) <= 1e-12

    def test_cf_agreement_large_x(self):
        for x in np.linspace(2.0, 6.0, 81):
            oracle = 1.0 - erfc_continued_fraction(float(x))
            assert abs(math.erf(float(x)) - oracle) <= 1e-12

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1234)
        for x in rng.uniform(-6.0, 6.0, 200):
            assert math.erf(float(-x)) == -math.erf(float(x))


class TestErfc:
    def test_zero(self):
        assert erfc(0.0) == 1.0

    def test_against_series_oracle(self):
        # frozen from 1 - erf_maclaurin(1.0)
        assert abs(erfc(1.0) - 0.15729920705028522) <= 1e-12

    def test_cancellation_safety(self):
        # frozen from erfc_continued_fraction(3.0); checks relative accuracy
        # where naive 1 - math.erf(x) would have lost ten digits
        oracle = 2.2090496998585448e-05
        assert abs(erfc_continued_fraction(3.0) - oracle) < 1e-19
        assert abs(erfc(3.0) - oracle) / oracle <= 1e-10

    def test_relative_accuracy_grid(self):
        for x in np.linspace(1.0, 6.0, 101):
            oracle = erfc_continued_fraction(float(x))
            assert abs(erfc(float(x)) - oracle) / oracle <= 1e-10

    def test_complement_identity(self):
        for x in np.linspace(0.0, 6.0, 601):
            assert abs(math.erf(float(x)) + erfc(float(x)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            erfc(bad)


class TestNewton:
    def test_sqrt_two(self):
        report = solve_newton(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0)
        assert report.method == "newton"
        assert abs(report.root - 1.4142135623730951) < 1e-12
        assert report.residual <= 1e-12

    def test_linear(self):
        report = solve_newton(lambda x: x, lambda x: 1.0, 5.0)
        assert report.root == 0.0

    def test_backoff_condition_agrees_with_bisection(self):
        # SINR-optimal back-off condition at an SNR ceiling of 100 (20 dB),
        # written in the linear back-off variable
        s = 100.0

        def f(i):
            return 0.5 * SQRT_PI * math.erfc(math.sqrt(i)) - math.sqrt(i) / s

        def df(i):
            z = math.sqrt(i)
            return -math.exp(-i) / (2.0 * z) - 1.0 / (2.0 * z * s)

        newton = solve_newton(f, df, 1.0, tol=1e-13, bracket=(1e-8, 1e3))
        bisect = solve_bisection(f, 1e-8, 1e3, tol=1e-11)
        assert abs(newton.root - bisect.root) <= 1e-8
        # frozen from a converged bisection scan of the same condition
        assert abs(newton.root - 2.7621807077544887) <= 1e-8

    def test_divergence_carries_best_iterate(self):
        # x^3 - 2x + 2 from 0 cycles between 0 and 1 under plain Newton
        with pytest.raises(ConvergenceError) as excinfo:
            solve_newton(
                lambda x: x ** 3 - 2.0 * x + 2.0,
                lambda x: 3.0 * x * x - 2.0,
                0.0,
                max_iter=40,
            )
        err = excinfo.value
        assert err.best_root is not None
        assert err.best_residual is not None and err.best_residual > 0.0
        assert err.iterations == 40

    def test_bracket_guard_converges_where_plain_newton_cycles(self):
        f = lambda x: x ** 3 - 2.0 * x + 2.0
        df = lambda x: 3.0 * x * x - 2.0
        report = solve_newton(f, df, 0.0, bracket=(-3.0, 0.5))
        assert abs(f(report.root)) <= 1e-12

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            solve_newton(lambda x: x, lambda x: 1.0, 1.0, tol=0.0)

    def test_bracket_without_sign_change(self):
        with pytest.raises(BracketError):
            solve_newton(lambda x: x * x + 1.0, lambda x: 2.0 * x, 1.0, bracket=(0.0, 2.0))


class TestBisection:
    def test_linear(self):
        report = solve_bisection(lambda x: x - 1.0, 0.0, 2.0, tol=1e-12)
        assert report.method == "bisection"
        assert abs(report.root - 1.0) <= 1e-12

    def test_cosine(self):
        tol = 1e-12
        report = solve_bisection(math.cos, 1.0, 2.0, tol=tol)
        assert abs(report.root - 1.5707963267948966) <= tol
        assert 1.0 <= report.root <= 2.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_bisection(lambda x: x + 5.0, 0.0, 1.0)

    def test_bad_bracket_order(self):
        with pytest.raises(DomainError):
            solve_bisection(lambda x: x, 2.0, 0.0)

    def test_backoff_condition_has_single_sign_change(self):
        # dense scan of the optimality condition at a 10 dB SNR ceiling
        s = 10.0
        grid = np.geomspace(1e-6, 100.0, 20000)
        values = [
            0.5 * SQRT_PI * math.erfc(math.sqrt(i)) - math.sqrt(i) / s for i in grid
        ]
        changes = sum(
            1 for a, b in zip(values[:-1], values[1:]) if (a > 0.0) != (b > 0.0)
        )
        assert changes == 1


def test_newton_and_bisection_agree_on_monotone_functions():
    rng = np.random.default_rng(77)
    for _ in range(25):
        root = float(rng.uniform(-5.0, 5.0))
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.1, 2.0))
        f = lambda x, r=root, a=a, b=b: a * (x - r) + b * (x - r) ** 3
        df = lambda x, r=root, a=a, b=b: a + 3.0 * b * (x - r) ** 2
        lo, hi = root - 2.0, root + 3.0
        newton = solve_newton(f, df, lo + 0.1, tol=1e-13, bracket=(lo, hi))
        bisect = solve_bisection(f, lo, hi, tol=1e-11)
        assert abs(newton.root - bisect.root) <= 1e-8
