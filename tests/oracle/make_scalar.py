"""Write ``link-power.csv`` and ``breakeven.csv``: the default ``link-power``
and ``breakeven`` rows re-derived at 40 digits.

Run by hand, from the repository root, where mpmath is installed:

    PYTHONPATH=src python tests/oracle/make_scalar.py

Tier-1 never runs this script; ``tests/test_oracle.py`` reads only the CSVs
it writes, so the suite does not need mpmath.  The script takes the
baseline parameters from ``foglink.config`` and restates the rest of the
chain in mpmath at 40 digits:

- the SINR the rate needs, 2^(M*R/(beta*B)) - 1, and the SNR ceiling that
  the affine fit 0.84 * x - 2.23, inverted, gives for it;
- z, the root of (sqrt(pi)/2) * erfc(z) = z / s at that ceiling s, the
  back-off z^2, the Bussgang gain alpha, the distortion D and the SINR
  alpha^2 / (D + IBO / s);
- the path gain 15 - (128.1 + 37.6 log10(d) + 21 log10(f / 2 GHz)) dB, the
  noise -174 + 10 log10(B) + 5 dBm, the clipping power P_MAX = s * N / |h|^2
  and the input power sigma^2 = P_MAX / IBO;
- every component power, the amplifier's class B draw
  (2 P_MAX / sqrt(pi IBO)) erf(sqrt(IBO)) / M among them, the total, its
  dBm value and the breakeven complexity theta* = Gamma * P / R.

Each value is written to 17 significant digits, under the column names the
program prints.
"""

from pathlib import Path

import mpmath
from mpmath import mp, mpf

from foglink.config import DEPLOY_DEFAULTS, RADIO_DEFAULTS
from make_fig3 import root  # this script's directory leads sys.path

mp.dps = 40
HERE = Path(__file__).resolve().parent


def db(ratio):
    return 10 * mpmath.log10(ratio)


def undb(value_db):
    return mpmath.power(10, value_db / 10)


def scenario():
    """Every quantity of the default scenario, by the program's column name."""
    radio = {key: mpf(value) for key, value in RADIO_DEFAULTS.items()}
    deploy = {key: mpf(value) for key, value in DEPLOY_DEFAULTS.items()}
    bandwidth, cameras = radio["bandwidth_hz"], deploy["cameras"]
    distance, carrier, rate = deploy["distance_km"], deploy["carrier_hz"], deploy["rate_bps"]

    required = mpmath.power(2, cameras * rate / (radio["beta"] * bandwidth)) - 1
    snr_max_db = (db(required) - mpf("-2.23")) / mpf("0.84")
    s = undb(snr_max_db)
    z = root(s)
    ibo = z * z
    e = mpmath.exp(-ibo)
    alpha = 1 - e + mpmath.sqrt(mpmath.pi * ibo) / 2 * mpmath.erfc(z)
    distortion = 1 - alpha * alpha - e
    sinr = alpha * alpha / (distortion + ibo / s)

    gain_db = 15 - (mpf("128.1") + mpf("37.6") * mpmath.log10(distance)
                    + 21 * mpmath.log10(carrier / mpf("2e9")))
    noise_dbm = -174 + 10 * mpmath.log10(bandwidth) + 5
    p_max = undb(noise_dbm - 30) / undb(gain_db) * s

    n, v_dd, bits = radio["n_ofdm"], radio["v_dd"], radio["dac_bits"]
    static = v_dd * radio["i_0_a"] * (mpmath.power(2, bits) - 1)
    dynamic = bits / 2 * radio["c_p_f"] * radio["sample_rate_hz"] * v_dd * v_dd
    flop_per_symbol = 4 * n * mpmath.log(n, 2) - 6 * n + 8
    parts = {
        "video_w": deploy["p_video_w"],
        "cod_w": rate * radio["psi_w_per_bps"],
        "ofdm_w": flop_per_symbol * radio["delta_f_hz"] / radio["gamma_mod_flops_per_w"]
        / cameras,
        "dac_w": 2 * (static + dynamic) / cameras,
        "lo_w": radio["p_lo_w"],
        "mix_w": 2 * radio["p_mix_w"] / cameras,
        "pa_w": 2 * p_max / mpmath.sqrt(mpmath.pi * ibo) * mpmath.erf(z) / cameras,
    }
    total = sum(parts.values())
    return {
        "distance_km": distance, "carrier_hz": carrier, "bandwidth_hz": bandwidth,
        "cameras": cameras, "rate_bps": rate, "path_gain_db": gain_db,
        "noise_dbm": noise_dbm, "p_max_w": p_max, "snr_max_db": snr_max_db,
        "ibo_db": db(ibo), "sinr_db": db(sinr), "alpha": alpha, "sigma2_w": p_max / ibo,
        **parts, "total_w": total, "total_dbm": db(total * 1000),
        "offload_total_w": total, "offload_total_dbm": db(total * 1000),
        "theta_star": deploy["gamma_flops_per_w"] * total / rate,
    }


COLUMNS = {
    "link-power": [
        "distance_km", "carrier_hz", "bandwidth_hz", "cameras", "rate_bps",
        "path_gain_db", "noise_dbm", "p_max_w", "snr_max_db", "ibo_db", "sinr_db",
        "alpha", "sigma2_w", "video_w", "cod_w", "ofdm_w", "dac_w", "lo_w", "mix_w",
        "pa_w", "total_w", "total_dbm",
    ],
    "breakeven": [
        "distance_km", "bandwidth_hz", "cameras",
        "offload_total_w", "offload_total_dbm", "theta_star",
    ],
}


def main():
    values = scenario()
    for command, columns in COLUMNS.items():
        row = ",".join(mpmath.nstr(values[column], 17, min_fixed=-4, max_fixed=17)
                       for column in columns)
        path = HERE / f"{command}.csv"
        path.write_text(",".join(columns) + "\n" + row + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
