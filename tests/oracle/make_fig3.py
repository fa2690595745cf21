"""Write ``fig3.csv``: the default ``fig3`` grid re-derived at 40 digits.

Run by hand, from the repository root, where mpmath is installed:

    PYTHONPATH=src python tests/oracle/make_fig3.py

Tier-1 never runs this script; ``tests/test_oracle.py`` reads only the CSV
it writes, so the suite does not need mpmath.  For each of the 601 default
grid points the script takes the program's own grid value and the SNR
ceiling ``db_to_linear`` gives for it, so the oracle measures the solve and
what follows it, not the dB conversion.  It then finds, in mpmath at 40
digits:

- z, the root of (sqrt(pi)/2) * erfc(z) = z / s, the stationarity
  condition of the SINR in z = sqrt(IBO);
- the back-off 10 * log10(z^2) in dB;
- the exact SINR alpha^2 / (D + IBO / s) in dB, with alpha and D from
  their closed forms at 40 digits;
- the affine approximation 0.84 * x - 2.23 of the published fit.

Each value is written to 17 significant digits.
"""

from pathlib import Path

import mpmath
from mpmath import mp, mpf

from foglink import db_to_linear
from foglink.cli import sweep_fig3

mp.dps = 40
OUT = Path(__file__).resolve().with_name("fig3.csv")
COLUMNS = ["snr_max_db", "snr_max_linear", "z", "ibo_db_optimal", "sinr_db_exact",
           "sinr_db_approx"]
SLOPE, OFFSET_DB = mpf("0.84"), mpf("-2.23")


def root(s):
    """z with (sqrt(pi)/2) * erfc(z) = z / s, by bisection: the left side
    falls and the right side rises in z > 0."""
    def gap(z):
        return mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc(z) - z / s

    low, high = mpf(0), mpf(1)
    while gap(high) > 0:
        high *= 2
    for _ in range(200):  # 2**-200 of the bracket: far below 40 digits
        mid = (low + high) / 2
        if gap(mid) > 0:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def row(index, x):
    # the program's grid is the decimal grid -10, -9.9, ..., 50 to a few ulps
    assert abs(x - (-10 + index / mpf(10))) < mpf("1e-12"), (index, x)
    s = mpf(db_to_linear(x))
    z = root(s)
    ibo = z * z
    e = mpmath.exp(-ibo)
    alpha = 1 - e + mpmath.sqrt(mpmath.pi * ibo) / 2 * mpmath.erfc(z)
    distortion = 1 - alpha * alpha - e
    sinr = alpha * alpha / (distortion + ibo / s)
    values = (mpf(x), s, z, 10 * mpmath.log10(ibo), 10 * mpmath.log10(sinr),
              SLOPE * mpf(x) + OFFSET_DB)
    return ",".join(mpmath.nstr(value, 17, min_fixed=-4, max_fixed=17) for value in values)


def main():
    _, rows, _ = sweep_fig3(-10.0, 50.0, 601)
    lines = [",".join(COLUMNS)] + [row(i, printed[0]) for i, printed in enumerate(rows)]
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
