"""CLI surface: sweeps, CSV schema, determinism, exit codes."""

import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import foglink.cli as cli
from foglink import (
    DomainError, FoglinkError, InfeasibleLinkError, load_params, replace, watts_to_dbm
)
from foglink.chain import breakeven_at, clip_independent_parts, offload_power
from foglink.config import BANDWIDTH_PROFILES
from foglink.link import PATH_LOSS_EXPONENT, required_sinr
from foglink.pa import MAX_SNR_CEILING, snr_max_for_sinr_db
from foglink.units import db_to_linear, linear_to_db


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# the bandwidth of a distance-sweep row, and its profile
PROFILE_OF_BANDWIDTH = {
    values["bandwidth_hz"]: name for name, values in BANDWIDTH_PROFILES.items()
}

FIG5_HEADER = [
    "distance_km", "bandwidth_hz", "cameras", "total_dbm", "video_dbm", "cod_dbm",
    "ofdm_dbm", "dac_dbm", "lo_dbm", "mix_dbm", "pa_dbm",
]


def curve_law(radio, deploy, profile, cameras, d0):
    """H and the amplifier draw at d0 of one distance-sweep curve: its offload
    power at d is H + pa_w * (d / d0) ** PATH_LOSS_EXPONENT."""
    curve_radio = replace(radio, **BANDWIDTH_PROFILES[profile])
    curve_deploy = replace(deploy, cameras=cameras, distance_km=d0)
    head_w = clip_independent_parts(curve_radio, curve_deploy)[1]
    return head_w, offload_power(curve_radio, curve_deploy).pa_w


def run_cli(args, capsys=None):
    code = cli.main(args)
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return header, rows


class TestPrintDefaults:
    def test_emits_parseable_baseline(self, capsys):
        code, out, err = run_cli(["print-defaults"], capsys)
        assert code == 0
        assert err == ""
        values = json.loads(out)
        assert values["cameras"] == 1
        assert values["bandwidth_hz"] == 18e6


class TestFig3:
    def test_single_point_at_zero_db(self, capsys):
        code, out, _ = run_cli(
            ["fig3", "--db-from", "0", "--db-to", "0", "--steps", "1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["snr_max_db", "ibo_db_optimal", "sinr_db_exact", "sinr_db_approx"]
        assert len(rows) == 1
        assert rows[0]["sinr_db_approx"] == -2.23
        assert abs(rows[0]["sinr_db_exact"] - (-1.77371155)) < 1e-6

    def test_trailer_reports_measured_gap(self, capsys):
        code, out, _ = run_cli(["fig3", "--steps", "61"], capsys)
        assert code == 0
        trailer = [l for l in out.strip().splitlines() if l.startswith("#")]
        assert len(trailer) == 1
        label, value = trailer[0].lstrip("# ").split(",")
        assert label == "max_abs_approx_error_db"
        # the 1 dB grid still lands on the -10 dB edge where the fit is
        # worst; measured maximum is just above 0.5 dB
        assert abs(float(value) - 0.5108561) < 1e-6

    def test_monotone_backoff_column(self, capsys):
        code, out, _ = run_cli(["fig3", "--steps", "61"], capsys)
        _, rows = parse_csv(out)
        ibo = [row["ibo_db_optimal"] for row in rows]
        assert all(b > a for a, b in zip(ibo[:-1], ibo[1:]))

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["fig3", "--steps", "61", "--out", str(a)]) == 0
        assert run_cli(["fig3", "--steps", "61", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def fig4_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4") / "fig4.csv"
    assert run_cli(["fig4", "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    return rows


class TestFig4:
    @pytest.fixture
    def rows(self, fig4_rows):
        return fig4_rows

    def test_backoff_negative_beyond_seven_mhz(self, rows):
        singles = {row["bandwidth_hz"]: row for row in rows if row["cameras"] == 1}
        assert singles[9e6]["ibo_db"] < 0.0
        assert singles[6e6]["ibo_db"] > 0.0
        assert singles[8e6]["ibo_db"] < 0.0

    def test_sinr_decreasing_in_bandwidth(self, rows):
        for cameras in (1, 10):
            series = [r["sinr_db"] for r in rows if r["cameras"] == cameras]
            assert all(b < a for a, b in zip(series[:-1], series[1:]))

    def test_fleet_needs_higher_sinr(self, rows):
        by_bandwidth = {}
        for row in rows:
            by_bandwidth.setdefault(row["bandwidth_hz"], {})[row["cameras"]] = row
        both = [v for v in by_bandwidth.values() if len(v) == 2]
        assert both, "no bandwidth has both camera counts"
        for pair in both:
            assert pair[10]["sinr_db"] > pair[1]["sinr_db"]

    def test_no_feasible_point_still_prints_the_header(self, capsys):
        # no camera count meets the rate at 1-2 Hz, so there is no first row
        # to take the columns from
        code, out, err = run_cli(
            ["fig4", "--b-from-hz", "1", "--b-to-hz", "2", "--steps", "3"], capsys
        )
        assert (code, out, err) == (0, "bandwidth_hz,cameras,sinr_db,ibo_db\n", "")

    def test_infeasible_narrowband_fleet_rows_omitted(self, rows):
        assert not any(
            row["cameras"] == 10 and row["bandwidth_hz"] <= 2.5e6 for row in rows
        )
        assert any(row["cameras"] == 1 and row["bandwidth_hz"] == 1e6 for row in rows)


class TestFig5:
    def test_short_distance_claims(self, capsys):
        code, out, _ = run_cli(
            ["fig5", "--d-from-km", "0.02", "--d-to-km", "0.02", "--steps", "1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == FIG5_HEADER
        assert len(rows) == 4
        totals = [row["total_dbm"] for row in rows]
        assert all(abs(t - 26.0) < 1.0 for t in totals)
        assert max(totals) - min(totals) < 1.0
        for row in rows:
            assert abs(row["video_dbm"] - watts_to_dbm(0.242)) < 1e-6

    def test_pa_dominates_far_narrowband_fleet(self, capsys):
        code, out, _ = run_cli(
            ["fig5", "--d-from-km", "2", "--d-to-km", "2", "--steps", "1"], capsys
        )
        rows = [
            r for _, rws in [parse_csv(out)] for r in rws
            if r["bandwidth_hz"] == 9e6 and r["cameras"] == 10
        ]
        assert len(rows) == 1
        row = rows[0]
        others = [row[c] for c in FIG5_HEADER[4:-1]]
        assert row["pa_dbm"] > max(others)
        # more than half the total budget
        assert row["pa_dbm"] > row["total_dbm"] - 3.01

    def test_rows_equal_library_offload_power(self, tmp_path):
        # each curve is solved once, at the first distance d0: its total and
        # amplifier cells are those of H + pa_w(d0) * (d / d0) ** 3.76 bit for
        # bit, and every cell prints as the per-scenario offload_power and is
        # within 1e-13 of it
        path = tmp_path / "params.json"
        path.write_text('{"rate_bps": 1e7, "carrier_hz": 2.6e9}', encoding="utf-8")
        radio, deploy = load_params(str(path))
        columns, rows = cli.sweep_fig5(radio, deploy, 0.01, 2.0, 50)
        assert columns == FIG5_HEADER
        assert len(rows) == 4 * 50
        for distance_km, bandwidth, cameras, *cells in rows:
            profile = PROFILE_OF_BANDWIDTH[bandwidth]
            head_w, pa_d0_w = curve_law(radio, deploy, profile, cameras, 0.01)
            pa_w = pa_d0_w * (distance_km / 0.01) ** PATH_LOSS_EXPONENT
            assert (cells[0], cells[-1]) == (watts_to_dbm(head_w + pa_w), watts_to_dbm(pa_w))
            down = offload_power(
                replace(radio, **BANDWIDTH_PROFILES[profile]),
                replace(deploy, cameras=cameras, distance_km=distance_km),
            )
            for column, cell in zip(columns[3:], cells):
                expected = watts_to_dbm(getattr(down, column.replace("_dbm", "_w")))
                assert cli._format_cell(cell) == cli._format_cell(expected)
                assert abs(cell - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("carrier_hz, start_km, stop_km", [
        (1e3, 10.0, 20.0),  # the path-loss fit is a gain at 1 km, a loss beyond 8 km
        (1e155, 0.01, 0.02),  # the clipping power overflows a float at 1 km
    ])
    def test_link_is_checked_at_grid_distances_only(self, carrier_hz, start_km, stop_km):
        radio, deploy = load_params()
        deploy = replace(deploy, carrier_hz=carrier_hz)
        with pytest.raises(FoglinkError):  # at 9 MHz with ten cameras
            offload_power(replace(radio, **BANDWIDTH_PROFILES["9mhz"]),
                          replace(deploy, cameras=10, distance_km=1.0))
        columns, rows = cli.sweep_fig5(radio, deploy, start_km, stop_km, 3)
        assert len(rows) == 4 * 3
        for distance_km, bandwidth, cameras, total_dbm, *_ in rows:
            down = offload_power(
                replace(radio, **BANDWIDTH_PROFILES[PROFILE_OF_BANDWIDTH[bandwidth]]),
                replace(deploy, cameras=cameras, distance_km=distance_km),
            )
            assert cli._format_cell(total_dbm) == cli._format_cell(watts_to_dbm(down.total_w))


class TestFig6:
    def test_matches_library_breakeven(self, capsys):
        code, out, _ = run_cli(
            ["fig6", "--d-from-km", "0.02", "--d-to-km", "1", "--steps", "2"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["distance_km", "bandwidth_hz", "cameras", "theta_star"]
        assert len(rows) == 8
        radio, deploy = load_params()

        for row in rows:
            profile = "9mhz" if row["bandwidth_hz"] == 9e6 else "18mhz"
            scenario = replace(
                deploy, cameras=int(row["cameras"]), distance_km=row["distance_km"]
            )
            down = offload_power(replace(radio, **BANDWIDTH_PROFILES[profile]), scenario)
            expected = breakeven_at(down.total_w, scenario)
            # CSV cells carry 9 significant digits
            assert abs(row["theta_star"] - expected) <= 1e-8 * expected

    def test_rows_equal_library_breakeven(self, tmp_path):
        # each curve is solved once, at the first distance d0: theta* is the
        # breakeven of H + pa_w(d0) * (d / d0) ** 3.76 bit for bit, and prints
        # as the per-scenario value
        path = tmp_path / "params.json"
        path.write_text('{"rate_bps": 1e7, "carrier_hz": 2.6e9}', encoding="utf-8")
        radio, deploy = load_params(str(path))
        columns, rows = cli.sweep_fig6(radio, deploy, 0.01, 2.0, 50)
        assert columns == ["distance_km", "bandwidth_hz", "cameras", "theta_star"]
        assert len(rows) == 4 * 50
        for distance_km, bandwidth, cameras, theta in rows:
            profile = PROFILE_OF_BANDWIDTH[bandwidth]
            head_w, pa_d0_w = curve_law(radio, deploy, profile, cameras, 0.01)
            law_w = head_w + pa_d0_w * (distance_km / 0.01) ** PATH_LOSS_EXPONENT
            scenario = replace(deploy, cameras=cameras, distance_km=distance_km)
            assert theta == breakeven_at(law_w, scenario)
            down = offload_power(replace(radio, **BANDWIDTH_PROFILES[profile]), scenario)
            expected = breakeven_at(down.total_w, scenario)
            assert cli._format_cell(theta) == cli._format_cell(expected)
            assert abs(theta - expected) <= 1e-13 * expected


@pytest.mark.parametrize("command", ["fig5", "fig6"])
def test_dense_distance_grid_keeps_the_default_rows(capsys, command):
    # the 1961-point grid holds the 50-point one at every 40th distance; its
    # rows there print the reference bytes, and fig6 divides the same total
    # that fig5 prints
    code, out, err = run_cli([command, "--steps", "1961"], capsys)
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    curves = len(cli.FIGURE_COMBOS)
    kept = [line for k in range(0, 1961, 40) for line in lines[k * curves:(k + 1) * curves]]
    assert [header, *kept] == (REFERENCE_DIR / f"{command}.csv").read_text().splitlines()

    radio, deploy = load_params()
    laws = [curve_law(radio, deploy, *combo, 0.01) for combo in cli.FIGURE_COMBOS]
    distances = cli._grid("distance_km", 0.01, 2.0, 1961, log_spaced=True)
    column = -1 if command == "fig6" else 3  # theta_star, or total_dbm
    for k, d in enumerate(distances):
        for j, (head_w, pa_d0_w) in enumerate(laws):
            total_w = head_w + pa_d0_w * (d / 0.01) ** PATH_LOSS_EXPONENT
            cell = (breakeven_at(total_w, deploy) if command == "fig6"
                    else watts_to_dbm(total_w))
            assert lines[k * curves + j].split(",")[column] == cli._format_cell(cell)


def test_dense_snr_grid_keeps_the_default_rows(capsys):
    # fig3's 24001-point grid holds the 601-point one at every 40th ceiling;
    # the max-gap trailer may differ, as the dense grid samples more points
    code, out, err = run_cli(["fig3", "--steps", "24001"], capsys)
    assert (code, err) == (0, "")
    header, *lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 24001
    reference = (REFERENCE_DIR / "fig3.csv").read_text().splitlines()
    assert [header, *lines[::40]] == [line for line in reference if not line.startswith("#")]


# sha256 of the stdout of `fig3 --steps 24001`, every row and the trailer;
# a change that moves fig3's bytes on purpose re-pins it with the digest
# the failing test prints
DENSE_FIG3_SHA256 = "37b640f7c8bb4287c24545e1a9f9f29c607231d5dcbcebefcd611aebb0152324"


def test_dense_snr_grid_keeps_its_bytes(capsys):
    code, out, err = run_cli(["fig3", "--steps", "24001"], capsys)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DENSE_FIG3_SHA256, f"fig3 bytes moved; new digest {digest}"


class TestBreakeven:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(["breakeven"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(rows[0]["theta_star"] - 329.403248) < 1e-4

    def test_profile_and_camera_flags(self, capsys):
        code, out, _ = run_cli(
            ["breakeven", "--bandwidth-profile", "9mhz", "--cameras", "10"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["bandwidth_hz"] == 9e6
        assert rows[0]["cameras"] == 10

    def test_theta_sweep_crosses_zero_at_breakeven(self, capsys):
        code, out, _ = run_cli(
            ["breakeven", "--theta-from", "100", "--theta-to", "600",
             "--steps", "11"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 11
        gaps = [row["local_minus_offload_w"] for row in rows]
        assert gaps[0] < 0.0 < gaps[-1]
        signs = [g > 0 for g in gaps]
        assert signs.index(True) == signs.count(False)

    def test_half_open_theta_range_rejected(self, capsys):
        code, _, err = run_cli(["breakeven", "--theta-from", "100"], capsys)
        assert code == 1
        assert "--theta-to" in err


class TestLinkPower:
    def test_row_is_self_consistent(self, capsys):
        code, out, _ = run_cli(["link-power"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "distance_km", "carrier_hz", "bandwidth_hz", "cameras", "rate_bps",
            "path_gain_db", "noise_dbm", "p_max_w", "snr_max_db", "ibo_db", "sinr_db",
            "alpha", "sigma2_w", "video_w", "cod_w", "ofdm_w", "dac_w", "lo_w",
            "mix_w", "pa_w", "total_w", "total_dbm",
        ]
        row = rows[0]
        parts = sum(
            row[c] for c in ("video_w", "cod_w", "ofdm_w", "dac_w", "lo_w",
                             "mix_w", "pa_w")
        )
        assert abs(parts - row["total_w"]) <= 1e-8 * row["total_w"]
        assert abs(row["total_dbm"] - watts_to_dbm(row["total_w"])) < 1e-6


class TestMcVerify:
    def test_smoke_rows_well_formed(self, capsys):
        code, out, err = run_cli(
            ["mc-verify", "--samples", "2000", "--seed", "9"], capsys
        )
        assert code == 0
        assert err == ""
        header, rows = parse_csv(out)
        assert header == [
            "ibo_db", "alpha_analytic", "alpha_hat", "stderr_alpha",
            "distortion_w_analytic", "distortion_w_hat", "stderr_distortion",
            "pa_w_analytic", "pa_w_hat", "stderr_pa",
            "sinr_analytic", "sinr_hat", "status",
        ]
        assert [row["ibo_db"] for row in rows] == [-3.0, 0.0, 3.0, 6.0]
        assert all(row["status"] == "pass" for row in rows)

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc-verify", "--samples", "2000", "--seed", "9"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_backoff_list(self, capsys):
        code, out, _ = run_cli(
            ["mc-verify", "--samples", "1000", "--ibo-db", "1.5"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["ibo_db"] == 1.5

    def test_statistical_failure_exits_nonzero(self, capsys, monkeypatch):
        import foglink.mc

        run_mc = foglink.mc.run_mc

        def biased_run_mc(cfg):
            estimates = run_mc(cfg)
            for est in estimates:
                object.__setattr__(est, "alpha_hat", est.alpha_hat * 1.5)
            return estimates

        # mc_verify imports run_mc from foglink.mc when it is called
        monkeypatch.setattr(foglink.mc, "run_mc", biased_run_mc)
        code, out, err = run_cli(
            ["mc-verify", "--samples", "2000", "--seed", "9"], capsys
        )
        assert code == 1
        assert "alpha" in err
        _, rows = parse_csv(out)
        assert all(row["status"] == "fail" for row in rows)

    def test_failure_lines_print_plain_floats(self, capsys):
        # at 300 dB nothing clips, and 1000 samples miss the zero distortion
        code, _, err = run_cli(["mc-verify", "--ibo-db=300", "--samples", "1000"], capsys)
        assert code == 1
        assert err and "np." not in err
        line = re.compile(
            r"mc-verify: ibo_db=300: \w+ estimate (\S+) deviates from analytic (\S+) "
            r"by more than (\S+)"
        )
        for failure in err.splitlines():
            numbers = line.fullmatch(failure).groups()
            assert all(math.isfinite(float(number)) for number in numbers)

    def test_bad_backoff_list(self, capsys):
        code, _, err = run_cli(["mc-verify", "--ibo-db", "a,b"], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "ibo-db" in err

    @pytest.mark.parametrize("flag", ["--ibo-db", "--ibo"])
    def test_space_separated_negative_backoff_list(self, capsys, flag):
        # argparse alone reads "-3,0" as an unknown option and exits 2
        spaced = run_cli(["mc-verify", flag, "-3,0", "--samples", "1000"], capsys)
        joined = run_cli(["mc-verify", "--ibo-db=-3,0", "--samples", "1000"], capsys)
        assert spaced == joined
        assert spaced[0] == 0 and spaced[1].count("\n") == 3

    def test_bad_backoff_is_refused_before_sampling(self, capsys, monkeypatch):
        import foglink.mc

        def no_sampling(cfg):
            raise AssertionError(f"sampled {cfg!r} before refusing a back-off")

        monkeypatch.setattr(foglink.mc, "run_mc", no_sampling)
        code, out, err = run_cli(["mc-verify", "--ibo-db=0,1e5"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: 100000.0 dB has no finite power ratio "
            "[scenario: ibo_db=100000.0, snr_max_db=20.0]"
        ]

    def test_empty_backoff_list_is_refused(self):
        # main refuses an empty --ibo-db first; a Python caller gets
        # McConfig's refusal of an empty clip list
        with pytest.raises(DomainError, match="clip_powers_w must hold at least one"):
            cli.mc_verify([], 10, 1, 20.0)

    def test_unrepresentable_ceiling_names_the_whole_run(self, capsys):
        # the SNR ceiling belongs to the run, not to the first back-off: it
        # is checked once, before any back-off, and the line names it alone
        code, out, err = run_cli(["mc-verify", "--snr-max-db", "1e5", "--samples", "10"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: 100000.0 dB has no finite power ratio [scenario: snr_max_db=100000.0]"
        ]

    def test_zero_ceiling_names_the_whole_run(self, capsys):
        code, out, err = run_cli(["mc-verify", "--snr-max-db=-1e5", "--samples", "10"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: -100000.0 dB has no positive power ratio [scenario: snr_max_db=-100000.0]"
        ]

    def test_closed_forms_are_evaluated_once_per_backoff(self, capsys, monkeypatch):
        import foglink.pa

        calls = []
        original = foglink.pa._clipping

        def counted(ibo):
            calls.append(ibo)
            return original(ibo)

        monkeypatch.setattr(foglink.pa, "_clipping", counted)
        code, out, _ = run_cli(["mc-verify", "--samples", "100000"], capsys)
        assert code == 0 and out.count("\n") == 5
        assert calls == [10.0 ** (x / 10.0) for x in (-3.0, 0.0, 3.0, 6.0)]

    def test_bad_seed_names_the_whole_run(self, capsys):
        # the seed belongs to the run, not to the first back-off
        code, out, err = run_cli(["mc-verify", "--seed", "-1", "--samples", "10"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: seed must be a 64-bit unsigned integer, got -1 "
            "[scenario: ibo_db=[-3.0, 0.0, 3.0, 6.0], snr_max_db=20.0]"
        ]

    @pytest.mark.parametrize("samples", [-2, 0, 1])
    def test_too_few_samples_names_the_flag(self, capsys, samples):
        # one sample has no standard error, so its NaN cells could not print
        code, out, err = run_cli(["mc-verify", "--samples", str(samples)], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: --samples must be at least 2, got {samples}"]


class TestErrorExits:
    def test_distance_below_floor(self, capsys):
        # a row's error names its distance and its curve
        for command in ("fig5", "fig6"):
            code, out, err = run_cli(
                [command, "--steps", "2", "--d-from-km", "0.001", "--d-to-km", "1"],
                capsys,
            )
            assert code == 1 and out == ""
            assert err.splitlines() == [
                "error: distance_km = 0.001 is below the 0.01 km path-loss validity "
                "floor [scenario: distance_km=0.001, bandwidth_profile='9mhz', cameras=1]"
            ]

    @pytest.mark.parametrize("args, line", [
        (["--d-from-km", "0.001"],
         "error: distance_km = 0.001 is below the 0.01 km path-loss validity floor "
         "[scenario: distance_km=0.001, bandwidth_profile='9mhz', cameras=1]"),
        # (distance_km / d0) ** 3.76 overflows a float
        (["--d-to-km", "1e300"],
         "error: offload power 0.38852539999999997 W + 1.0608735209848913e-08 W * "
         "(distance_km / 0.01) ** 3.76 is not finite [scenario: "
         "distance_km=1.9306977288832772e+84, bandwidth_profile='9mhz', cameras=1]"),
        # on a fine grid a later curve of the same distance fails first;
        # fig6's theta* overflows sooner, on the first row
        (["--d-from-km", "1e80", "--d-to-km", "1e86", "--steps", "2000"], {
            "fig5": "error: offload power 0.31794254 W + 2.757370757632164e+304 W * "
            "(distance_km / 1e+80) ** 3.76 is not finite [scenario: "
            "distance_km=1.0339683702740127e+81, bandwidth_profile='9mhz', cameras=10]",
            "fig6": "error: breakeven theta is not finite for gamma_flops_per_w = "
            "5000000000.0, offload power 2.2164789426981296e+300 W, rate_bps = 6000000.0 "
            "[scenario: distance_km=1e+80, bandwidth_profile='9mhz', cameras=1]",
        }),
        # every curve is checked as a link at the first distance before any row
        (["--d-from-km", "1e82", "--d-to-km", "1e83", "--steps", "2"],
         "error: clipping power inf W is not representable for path gain -3201.4 dB and "
         "noise -99.4576 dBm at distance_km=1e+82, carrier_hz=3500000000.0, "
         "bandwidth_hz=9000000.0 [scenario: "
         "distance_km=1e+82, bandwidth_profile='9mhz', cameras=10]"),
    ], ids=["below-floor", "unrepresentable", "later-curve", "first-unrepresentable"])
    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_row_error_names_the_row(self, capsys, command, args, line):
        if isinstance(line, dict):
            line = line[command]
        code, out, err = run_cli([command, *args], capsys)
        assert (code, out, err) == (1, "", line + "\n")

    def test_overflowing_component_power_is_one_error_line(self, capsys, tmp_path):
        # the DAC draw overflows to inf; the curve's breakdown refuses it
        # before any row, and the error names the part, its keys and the curve
        path = tmp_path / "params.json"
        path.write_text('{"v_dd": 1e200}', encoding="utf-8")
        code, out, err = run_cli(["fig5", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == (
            "error: dac_w = inf W is not finite; it is computed from v_dd, i_0_a, dac_bits, "
            "c_p_f and sample_rate_hz [scenario: bandwidth_profile='9mhz', cameras=1]\n"
        )

    @pytest.mark.parametrize("entry, part, key", [
        ('"v_dd": 1e200', "dac_w", "v_dd"),
        ('"gamma_mod_flops_per_w": 1e-300', "ofdm_w", "gamma_mod_flops_per_w"),
        ('"psi_w_per_bps": 1e303', "cod_w", "psi_w_per_bps"),
    ])
    def test_overflowing_component_power_names_its_key(
        self, capsys, tmp_path, entry, part, key
    ):
        path = tmp_path / "params.json"
        path.write_text("{" + entry + "}", encoding="utf-8")
        code, out, err = run_cli(["link-power", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {part} = inf W is not finite; it is computed from ")
        assert key in err

    @pytest.mark.parametrize("command", ["link-power", "breakeven", "fig5", "fig6"])
    def test_overflowing_sum_of_parts_names_its_keys(self, capsys, tmp_path, command):
        # each part is finite, but their sum is not
        path = tmp_path / "params.json"
        path.write_text('{"p_video_w": 1e308, "p_lo_w": 1e308}', encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "error: the clip-independent parts sum to inf W, which is not finite; "
            "they are computed from p_video_w; rate_bps and psi_w_per_bps; "
        )
        assert "; p_lo_w; p_mix_w" in err

    @pytest.mark.parametrize("command, entry, args, named", [
        ("breakeven", None, ["--theta-from", "0", "--theta-to", "1e308", "--steps", "3"],
         "theta = 5e+307"),
        ("fig6", '"gamma_flops_per_w": 1e308', [], "gamma_flops_per_w = 1e+308"),
    ])
    def test_overflowing_theta_or_local_power_names_its_inputs(
        self, capsys, tmp_path, command, entry, args, named
    ):
        if entry is not None:
            path = tmp_path / "params.json"
            path.write_text("{" + entry + "}", encoding="utf-8")
            args = [*args, "--config", str(path)]
        code, out, err = run_cli([command, *args], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err and "rate_bps = 6000000.0" in err

    def test_bad_config_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_ofdm": 1000}', encoding="utf-8")
        code, _, err = run_cli(["breakeven", "--config", str(path)], capsys)
        assert code == 1
        assert "n_ofdm" in err

    @pytest.mark.parametrize("command", ["print-defaults", "fig3"])
    def test_unwritable_out_path(self, capsys, tmp_path, command):
        for out in (tmp_path, tmp_path / "absent" / "out.csv"):
            code, _, err = run_cli([command, "--out", str(out)], capsys)
            assert code == 1
            assert err.startswith("error: cannot write --out") and "--out" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["breakeven", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 1
        assert "absent.json" in err


    @pytest.mark.parametrize("args, named", [
        (["link-power", "--distance-km", "inf"], "distance_km"),
        (["link-power", "--distance-km", "nan"], "distance_km"),
        (["link-power", "--distance-km", "1e300"], "distance_km=1e+300"),
        (["fig5", "--d-to-km", "1e300"], "distance_km"),
        (["fig6", "--d-to-km", "1e300"], "distance_km"),
        (["fig4", "--b-to-hz", "1e300"], "bandwidth_hz"),
        (["mc-verify", "--ibo-db", "1e5", "--samples", "1000"], "ibo_db=100000.0"),
        (["mc-verify", "--snr-max-db", "1e5", "--samples", "1000"], "snr_max_db=100000.0"),
        (["breakeven", "--theta-from", "100", "--theta-to", "1e400"], "theta"),
        # below -39.475 dB the optimal back-off leaves the searched range
        (["fig3", "--db-from", "-45", "--db-to", "0", "--steps", "4"], "snr_max_db=-45.0"),
        # a ceiling past MAX_SNR_CEILING mid-grid, and as the last point
        (["fig3", "--db-from", "150", "--db-to", "160", "--steps", "11"], "snr_max_db=157.0"),
        (["fig3", "--db-from", "150", "--db-to", "157", "--steps", "8"], "snr_max_db=157.0"),
        # a subnormal back-off, whose SINR denominator underflows to 0.0
        (["mc-verify", "--ibo-db=-3233", "--samples", "1000"], "ibo_db=-3233.0"),
    ])
    def test_unrepresentable_flag_is_one_error_line(self, capsys, args, named):
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize("command, args, entry, named", [
        # the swept band enters at fig4's grid, not through a scenario record
        ("fig4", ["--b-from-hz", "0"], None, "bandwidth_hz must be positive, got 0.0"),
        # a finite clipping power whose amplifier draw overflows
        ("link-power", ["--distance-km", "1.4410110442132077e+82"], None,
         "amplifier draw pa_w = inf W at clipping power "),
        # a positive rate whose required SINR is exactly 0
        ("link-power", [], '"rate_bps": 5e-324', "rate_bps = 5e-324"),
        ("fig4", [], '"rate_bps": 5e-324', "rate_bps = 5e-324"),
        # a rate so low that its SNR ceiling lies below the solvable range
        ("link-power", [], '"rate_bps": 1', "rate_bps = 1.0 with cameras = 1, beta = 0.4"),
        ("fig4", [], '"rate_bps": 1', "rate_bps = 1.0 with cameras = 1, beta = 0.4"),
    ], ids=["fig4-zero-band", "link-power-amplifier-overflow", "link-power-zero-sinr",
            "fig4-zero-sinr", "link-power-ceiling-too-low", "fig4-ceiling-too-low"])
    def test_refusal_is_one_line_naming_its_input(
        self, capsys, tmp_path, command, args, entry, named
    ):
        if entry is not None:
            path = tmp_path / "params.json"
            path.write_text("{" + entry + "}", encoding="utf-8")
            args = [*args, "--config", str(path)]
        code, out, err = run_cli([command, *args], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err
        if "5e-324" in named:
            assert "needs no SINR" in err
        if "rate_bps = 1.0 " in named:
            assert "dB, below the -39.475 dB the back-off solve accepts" in err

    def test_too_low_snr_ceiling_names_the_limit(self, capsys):
        # the same input as the -45 dB case above
        code, _, err = run_cli(
            ["fig3", "--db-from", "-45", "--db-to", "0", "--steps", "4"], capsys
        )
        assert code == 1
        assert "is below -39.475 dB, the lowest SNR ceiling" in err

    @pytest.mark.parametrize("command, entry, named", [
        ("link-power", '"carrier_hz": 1e300', "carrier_hz=1e+300"),
        ("breakeven", '"carrier_hz": 1e300', "carrier_hz=1e+300"),
        ("link-power", '"carrier_hz": 1e-300', "carrier_hz = 1e-300"),
        ("fig4", '"rate_bps": 1e-300', "rate_bps=1e-300"),
        ("link-power", '"dac_bits": 2000', "dac_bits"),
        ("link-power", '"n_ofdm": 1e400', "n_ofdm"),
        ("fig5", '"cameras": NaN', "cameras"),
        ("fig6", '"p_video_w": Infinity', "p_video_w"),
    ])
    def test_unrepresentable_config_value_is_one_error_line(
        self, capsys, tmp_path, command, entry, named
    ):
        path = tmp_path / "params.json"
        path.write_text("{" + entry + "}", encoding="utf-8")
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize("command", ["fig5", "link-power"])
    def test_power_near_the_float_limit_prints_finite_dbm(self, capsys, tmp_path, command):
        # the video draw alone is finite in watts, but not in milliwatts
        path = tmp_path / "params.json"
        path.write_text('{"p_video_w": 1.7e308}', encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows and all(math.isfinite(v) for row in rows for v in row.values())
        column = "video_dbm" if command == "fig5" else "total_dbm"
        assert {row[column] for row in rows} == {float(f"{10 * math.log10(1.7e308) + 30:.9g}")}

    @pytest.mark.parametrize("command", ["link-power", "breakeven"])
    def test_ceiling_above_the_solvable_range_names_rate_bps(self, capsys, tmp_path, command):
        # rate exponent 50: the SINR is representable, its 181.8 dB ceiling
        # is above MAX_SNR_CEILING
        path = tmp_path / "params.json"
        path.write_text('{"rate_bps": 3.6e8}', encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "rate_bps = 360000000.0" in err and "181.839 dB" in err

    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_ceiling_above_the_solvable_range_names_the_combo(self, capsys, tmp_path, command):
        # 9 MHz shared by ten cameras is above the cap at any distance, so
        # the line names the curve and no distance
        path = tmp_path / "params.json"
        path.write_text('{"rate_bps": 2e7}', encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "rate_bps = 20000000.0" in err
        assert "[scenario: bandwidth_profile='9mhz', cameras=10]" in err
        assert "distance_km" not in err

    def test_ceiling_above_the_solvable_range_is_omitted_from_fig4(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"rate_bps": 2e7}', encoding="utf-8")
        code, out, err = run_cli(["fig4", "--config", str(path)], capsys)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        kept = {(row["bandwidth_hz"], row["cameras"]) for row in rows}
        solvable = set()
        for b in cli._grid("bandwidth_hz", 1e6, 20e6, 39):
            for cameras in cli.FIGURE_CAMERA_COUNTS:
                try:
                    sinr_db = linear_to_db(required_sinr(b, cameras, 2e7, 0.4))
                except InfeasibleLinkError:  # the rate exponent overflows
                    continue
                if db_to_linear(snr_max_for_sinr_db(sinr_db)) <= MAX_SNR_CEILING:
                    solvable.add((b, cameras))
        assert kept == solvable
        assert len(solvable) < 2 * 39  # the curve loses points, not the run

    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_invalid_profile_radio_names_key_and_profile(self, capsys, tmp_path, command):
        # valid as given, but the 9 MHz profile's sample rate makes n_ofdm 512
        path = tmp_path / "params.json"
        path.write_text('{"delta_f_hz": 30e3, "n_ofdm": 1024}', encoding="utf-8")
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "n_ofdm" in err and "bandwidth_profile='9mhz'" in err


class TestSolveCounts:
    @staticmethod
    def solves(args, capsys, monkeypatch):
        """The calls of ``pa.optimal_ibos`` a command makes, each as the list
        of SNR ceilings it solved, and the command's CSV rows."""
        import foglink.pa

        calls = []
        original = foglink.pa.optimal_ibos

        def counted(ceilings):
            seen = []
            calls.append(seen)

            def passed_on():
                for s in ceilings:
                    seen.append(s)
                    yield s

            return original(passed_on())

        monkeypatch.setattr(foglink.pa, "optimal_ibos", counted)
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        return calls, parse_csv(out)[1]

    def test_link_power_solves_the_operating_point_once(self, capsys, monkeypatch):
        calls, _ = self.solves(["link-power"], capsys, monkeypatch)
        assert list(map(len, calls)) == [1]

    @pytest.mark.parametrize("steps", [50, 1961])
    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_distance_sweeps_solve_once_per_curve(self, capsys, monkeypatch, command, steps):
        calls, _ = self.solves([command, "--steps", str(steps)], capsys, monkeypatch)
        assert list(map(len, calls)) == [1] * len(cli.FIGURE_COMBOS) == [1] * 4

    def test_fig3_solves_its_grid_in_one_batch(self, capsys, monkeypatch):
        calls, rows = self.solves(["fig3", "--steps", "601"], capsys, monkeypatch)
        assert list(map(len, calls)) == [601] == [len(rows)]

    def test_fig4_solves_one_ceiling_per_row(self, capsys, monkeypatch):
        # the rows a camera count cannot meet are dropped before any solve
        calls, rows = self.solves(["fig4"], capsys, monkeypatch)
        assert list(map(len, calls)) == [1] * len(rows)
        assert 0 < len(rows) < 2 * 39

    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_distance_sweeps_take_one_path_gain_per_distance(
        self, capsys, monkeypatch, command
    ):
        # a curve is H + K * d ** 3.76, so the path gain and the amplifier
        # draw are evaluated per curve and per sweep, never per row
        import foglink.chain
        import foglink.link

        calls = []
        for module, name in [(foglink.link, "path_gain_db"), (cli, "path_gain_db"),
                             (foglink.chain, "pa_consumed_power")]:
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        counts = []
        for steps in (50, 1961):
            calls.clear()
            assert run_cli([command, "--steps", str(steps)], capsys)[0] == 0
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert counts[0].count("pa_consumed_power") == len(cli.FIGURE_COMBOS)


@pytest.mark.parametrize("argv, sites", [
    (["fig3", "--steps", "3"], ["sweep_fig3", "render_csv"]),
    (["fig4", "--steps", "3"], ["load_params", "sweep_fig4", "render_csv"]),
    (["fig5", "--steps", "2"], ["load_params", "sweep_fig5", "render_csv"]),
    (["fig6", "--steps", "2"], ["load_params", "sweep_fig6", "render_csv"]),
    (["breakeven"], ["load_params", "breakeven_rows", "render_csv"]),
    (["link-power"], ["load_params", "link_power_row", "render_csv"]),
    (["mc-verify", "--samples", "2000", "--seed", "9"], ["mc_verify", "render_csv"]),
    (["print-defaults"], ["dump_defaults"]),
])
def test_main_calls_what_is_set_on_the_module_after_import(capsys, monkeypatch, argv, sites):
    # perfbench/tracer.py wraps these names in foglink.cli once it is
    # imported; a command table that held the functions themselves would
    # bypass the wrappers and leave the per-layer timings at zero
    sites = [*sites, "_emit"]
    calls = []
    for name in sites:
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    assert run_cli(argv, capsys)[0] == 0
    assert sorted(calls) == sorted(sites)


@pytest.mark.parametrize("spaced, joined", [
    (["mc-verify", "--snr-max-db", "-1.5e1"], ["mc-verify", "--snr-max-db=-1.5e1"]),
    (["fig3", "--db-from", "-1e1"], ["fig3", "--db-from=-1e1"]),
    (["fig3", "--db-f", "-1e1", "--db-to", "-5e0"], ["fig3", "--db-from=-10", "--db-to=-5"]),
    (["fig5", "--d-to-km", "2e0"], ["fig5", "--d-to-km=2"]),
])
def test_space_separated_negative_exponent(capsys, spaced, joined):
    # argparse's negative-number pattern has no exponent, so alone it
    # reads "-1e1" as an unknown option and exits 2
    samples = ["--samples", "1000"] if spaced[0] == "mc-verify" else []
    spaced = run_cli([*spaced, *samples], capsys)
    assert spaced == run_cli([*joined, *samples], capsys)
    assert spaced[1].count("\n") > 1


@pytest.mark.parametrize("steps", [40, 400, 781, 1561])
def test_dense_fig4_grids_complete(capsys, steps):
    # the 10-camera ceiling near 3.44 MHz once reached the band where the
    # back-off solve fails; such ceilings are now beyond MAX_SNR_CEILING
    code, out, err = run_cli(["fig4", "--steps", str(steps)], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert rows and all(math.isfinite(v) for row in rows for v in row.values())


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# the numbers a table may hold: finite floats (random bit patterns among
# them), ints and numpy float64s
NUMBERS = st.one_of(
    st.sampled_from([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_float_of_bits).filter(math.isfinite),
    st.integers(-10**308, 10**308),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


class TestCsvRendering:
    def test_nine_significant_digits(self):
        text = cli.render_csv(["x"], [(math.pi,)])
        assert text == "x\n3.14159265\n"

    def test_non_finite_rejected(self):
        from foglink import NumericError

        with pytest.raises(NumericError):
            cli.render_csv(["x"], [(float("nan"),)])

    def test_every_number_type_renders_as_its_float(self):
        # an all-number table takes one %-format per row, a table with a str
        # cell goes cell by cell; the bytes must not depend on the path
        values = [-0.0, 5e-324, 1.7976931348623157e308, 10, np.float64(math.pi)]
        text = cli.render_csv(["x", "y"], [(v, "label") for v in values])
        assert text == "x,y\n" + "".join(f"{float(v):.9g},label\n" for v in values)
        text = cli.render_csv(["x"], [(v,) for v in values])
        assert text == "x\n" + "".join(f"{float(v):.9g}\n" for v in values)

    @pytest.mark.parametrize("value, message", [
        (True, "boolean cell True has no CSV rendering"),
        (math.inf, "non-finite value inf in CSV output"),
        (-math.inf, "non-finite value -inf in CSV output"),
        (math.nan, "non-finite value nan in CSV output"),
    ])
    def test_unrenderable_cells_keep_their_messages(self, value, message):
        from foglink import NumericError

        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            cli.render_csv(["x"], [(value,)])

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), max_size=20))
    def test_rows_render_as_their_cells(self, rows):
        lines = ["a,b,c", *(",".join(map(cli._format_cell, row)) for row in rows)]
        assert cli.render_csv(["a", "b", "c"], rows) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("value, message", [
        (math.nan, "non-finite value nan in CSV output"),
        (False, "boolean cell False has no CSV rendering"),
    ])
    def test_a_bad_cell_deep_in_a_table_keeps_its_message(self, value, message):
        from foglink import NumericError

        rows = [(k / 7, float(k)) for k in range(1000)]
        rows[500] = (0.5, value)
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            cli.render_csv(["x", "y"], rows)

    def test_the_first_bad_cell_in_row_order_is_named(self):
        from foglink import NumericError

        rows = [(1.0, 2.0)] * 10
        rows[3], rows[6] = (1.0, True), (math.inf, 2.0)
        with pytest.raises(NumericError, match="^boolean cell True"):
            cli.render_csv(["x", "y"], rows)

    def test_a_table_of_numbers_takes_no_per_cell_call(self, monkeypatch):
        # the 'n' of a header or trailer does not send a table cell by cell
        def refused(value):
            raise AssertionError(f"per-cell rendering of {value!r}")

        monkeypatch.setattr(cli, "_format_cell", refused)
        text = cli.render_csv(["n", "snr"], [(1.5, 10), (-0.0, 2e-9)], ["note: nan"])
        assert text == "n,snr\n1.5,10\n-0,2e-09\nnote: nan\n"

    def test_str_cells_render_as_text(self):
        text = cli.render_csv(["x", "label"], [(1.0, "nan"), (2.5, "inf"), (3.0, "pass")])
        assert text == "x,label\n1,nan\n2.5,inf\n3,pass\n"

    def test_sweep_spec_validation(self):
        with pytest.raises(DomainError, match="increasing"):
            cli._grid("distance_km", 2.0, 1.0, 10)
        with pytest.raises(DomainError, match="steps"):
            cli._grid("distance_km", 1.0, 2.0, 0)
        with pytest.raises(DomainError, match="start == stop"):
            cli._grid("snr_max_db", 0.0, 1.0, 1)
        with pytest.raises(DomainError, match="start > 0"):
            cli._grid("distance_km", 0.0, 2.0, 10, log_spaced=True)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="theta sweep bounds must be finite"):
                cli._grid("theta", 1.0, bad, 10)
        single = cli._grid("snr_max_db", 0.0, 0.0, 1)
        assert list(single) == [0.0]
        values = cli._grid("distance_km", 0.01, 2.0, 50, log_spaced=True)
        assert len(values) == 50
        assert values[0] == pytest.approx(0.01) and values[-1] == pytest.approx(2.0)


class TestGridPrecision:
    """``_grid`` gives numpy's sweep points without importing numpy."""

    @pytest.mark.parametrize("variable, start, stop, steps", [
        ("snr_max_db", -10.0, 50.0, 601),  # fig3 default
        ("snr_max_db", -10.0, 50.0, 24001),  # fig3 at 40x density
        ("bandwidth_hz", 1e6, 20e6, 39),  # fig4 default
        ("theta", 100.0, 600.0, 11),
        ("theta", 37.25, 812.5, 50),
    ])
    def test_linear_grid_equals_linspace(self, variable, start, stop, steps):
        np = pytest.importorskip("numpy")
        grid = cli._grid(variable, start, stop, steps)
        expected = np.linspace(start, stop, steps)
        assert all(type(x) is float for x in grid)
        assert len(grid) == steps
        assert all(x == y for x, y in zip(grid, expected))

    @pytest.mark.parametrize("steps", [50, 1961])
    def test_log_grid_within_one_ulp_of_geomspace(self, steps):
        np = pytest.importorskip("numpy")
        grid = cli._grid("distance_km", 0.01, 2.0, steps, log_spaced=True)
        expected = np.geomspace(0.01, 2.0, steps)
        assert len(grid) == steps
        assert grid[0] == 0.01 and grid[-1] == 2.0
        assert all(abs(x - y) <= math.ulp(y) for x, y in zip(grid, expected))

    @pytest.mark.parametrize("start, stop", [(-1e308, 1.7e308), (-1.7e308, 1e308)])
    def test_overflowing_spacing_names_the_variable(self, start, stop):
        with pytest.raises(DomainError, match="snr_max_db sweep from .* overflows a float"):
            cli._grid("snr_max_db", start, stop, 3)
