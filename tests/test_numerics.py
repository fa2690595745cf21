"""Accuracy of the special functions the amplifier model calls, against
independent series and continued-fraction oracles, and the behavior of the
bisection oracle the back-off solve is checked against."""

import math

import numpy as np
import pytest

from foglink import DomainError
from oracles import solve_bisection

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
    """``math.erfc``, which the Bussgang gain and the back-off solve call."""

    def test_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_against_series_oracle(self):
        # frozen from 1 - erf_maclaurin(1.0)
        assert abs(math.erfc(1.0) - 0.15729920705028522) <= 1e-12

    def test_cancellation_safety(self):
        # frozen from erfc_continued_fraction(3.0); checks relative accuracy
        # where naive 1 - math.erf(x) would have lost ten digits
        oracle = 2.2090496998585448e-05
        assert abs(erfc_continued_fraction(3.0) - oracle) < 1e-19
        assert abs(math.erfc(3.0) - oracle) / oracle <= 1e-10

    def test_relative_accuracy_grid(self):
        for x in np.linspace(1.0, 6.0, 101):
            oracle = erfc_continued_fraction(float(x))
            assert abs(math.erfc(float(x)) - oracle) / oracle <= 1e-10

    def test_complement_identity(self):
        for x in np.linspace(0.0, 6.0, 601):
            assert abs(math.erf(float(x)) + math.erfc(float(x)) - 1.0) <= 1e-12


class TestBisection:
    def test_linear(self):
        root = solve_bisection(lambda x: x - 1.0, 0.0, 2.0, tol=1e-12)
        assert abs(root - 1.0) <= 1e-12

    def test_cosine(self):
        tol = 1e-12
        root = solve_bisection(math.cos, 1.0, 2.0, tol=tol)
        assert abs(root - 1.5707963267948966) <= tol
        assert 1.0 <= root <= 2.0

    def test_no_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
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

