"""Correctness checks for foglink CLI output, used by the benchmark.

Three kinds of check, all read from the CSV a command printed:

* Reference comparison.  ``reference/`` holds the output of every
  subcommand at its defaults.  Output is compared with it column by column,
  for the columns the reference has, so columns a later version adds are not
  a mismatch.  Numbers agree when they are within ``REL_TOL`` of each other
  (or within ``ABS_TOL`` of zero): 9 significant digits are printed, so a
  roundoff change moves a cell by about 1e-9 relative.
* Identities that hold between columns of one row (components sum to the
  total, theta* = Gamma * P_offload / R, ...), for seeded scenarios that
  have no stored reference.
* Every cell is present and finite.

A check returns a list of problems; an empty list means the output is correct.
"""

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-7
ABS_TOL = 1e-15
# Identities that go through a dBm cell: 9 digits of a dBm value fix the
# watts only to a few parts in 1e8.
DBM_REL_TOL = 1e-6
TEXT_COLUMNS = {"status"}

# Baseline parameters the identities need; a scenario config may override them.
DEFAULT_RATE_BPS = 6e6
DEFAULT_GAMMA_FLOPS_PER_W = 5e9
DEFAULT_BETA = 0.4
SINR_APPROX_SLOPE = 0.84
SINR_APPROX_OFFSET_DB = -2.23

POWER_COMPONENTS_W = ("video_w", "cod_w", "ofdm_w", "dac_w", "lo_w", "mix_w", "pa_w")
POWER_COMPONENTS_DBM = tuple(c[:-2] + "_dbm" for c in POWER_COMPONENTS_W)


class Table:
    """A parsed CSV: header, data rows (lists of cells) and '#' trailer lines."""

    def __init__(self, columns, rows, trailer):
        self.columns = columns
        self.rows = rows
        self.trailer = trailer
        self._index = {name: i for i, name in enumerate(columns)}

    def column(self, name):
        i = self._index[name]
        return [row[i] for row in self.rows]

    def record(self, k):
        return dict(zip(self.columns, self.rows[k]))

    def records(self):
        return [dict(zip(self.columns, row)) for row in self.rows]


def parse_csv(text):
    """Parse CLI CSV output.  Raises ValueError on a malformed table."""
    lines = text.splitlines()
    if not lines or not lines[0]:
        raise ValueError("no CSV header")
    columns = lines[0].split(",")
    rows, trailer = [], []
    for number, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            trailer.append(line)
            continue
        if trailer:
            raise ValueError(f"line {number}: data row after trailer")
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(
                f"line {number}: {len(cells)} cells for {len(columns)} columns"
            )
        rows.append([
            cell if name in TEXT_COLUMNS else float(cell)
            for name, cell in zip(columns, cells)
        ])
    return Table(columns, rows, trailer)


def close(a, b, rel_tol=REL_TOL):
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=ABS_TOL)


def finite_problems(table):
    for k, row in enumerate(table.rows):
        for name, cell in zip(table.columns, row):
            if not isinstance(cell, str) and not math.isfinite(cell):
                return [f"row {k}: {name} = {cell!r} is not finite"]
    return []


def compare_tables(output, reference, row_map=None, limit=5):
    """Compare ``output`` with ``reference`` on the reference's columns.

    ``row_map(k)`` gives the output row that must match reference row ``k``
    (identity by default, and then the row counts must agree too).
    """
    missing = [c for c in reference.columns if c not in output.columns]
    if missing:
        return [f"columns {missing} missing from output"]
    if row_map is None:
        if len(output.rows) != len(reference.rows):
            return [f"{len(output.rows)} rows, reference has {len(reference.rows)}"]
        row_map = int
    problems = []
    for k, ref_row in enumerate(reference.rows):
        j = row_map(k)
        if not 0 <= j < len(output.rows):
            return [f"reference row {k} maps to output row {j}, which does not exist"]
        out = output.record(j)
        for name, want in zip(reference.columns, ref_row):
            got = out[name]
            ok = got == want if isinstance(want, str) else close(got, want)
            if not ok:
                problems.append(f"row {j}: {name} = {got!r}, reference {want!r}")
                if len(problems) >= limit:
                    return problems
    return problems


def trailer_values(table):
    values = {}
    for line in table.trailer:
        key, _, value = line.lstrip("# ").partition(",")
        values[key] = float(value)
    return values


def compare_trailers(output, reference):
    got, want = trailer_values(output), trailer_values(reference)
    return [
        f"trailer {key} = {got.get(key)!r}, reference {value!r}"
        for key, value in want.items()
        if key not in got or not close(got[key], value)
    ]


def load_reference(name):
    path = REFERENCE_DIR / f"{name}.csv"
    return parse_csv(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# identities read from one output


def fig3_identity_problems(table):
    problems = []
    gap = 0.0
    for k, r in enumerate(table.records()):
        approx = SINR_APPROX_SLOPE * r["snr_max_db"] + SINR_APPROX_OFFSET_DB
        if not math.isclose(r["sinr_db_approx"], approx, rel_tol=1e-7, abs_tol=1e-7):
            problems.append(f"row {k}: sinr_db_approx {r['sinr_db_approx']!r} != {approx!r}")
            break
        if not r["sinr_db_exact"] <= r["snr_max_db"]:
            problems.append(f"row {k}: SINR {r['sinr_db_exact']!r} above its ceiling")
            break
        gap = max(gap, abs(r["sinr_db_exact"] - r["sinr_db_approx"]))
    reported = trailer_values(table).get("max_abs_approx_error_db")
    if reported is None:
        problems.append("trailer max_abs_approx_error_db missing")
    elif not math.isclose(reported, gap, rel_tol=1e-6, abs_tol=1e-8):
        problems.append(f"trailer max gap {reported!r}, rows give {gap!r}")
    return problems


def fig4_identity_problems(table, rate_bps=DEFAULT_RATE_BPS, beta=DEFAULT_BETA):
    for k, r in enumerate(table.records()):
        exponent = r["cameras"] * rate_bps / (beta * r["bandwidth_hz"])
        want = 10.0 * math.log10(2.0 ** exponent - 1.0)
        if not math.isclose(r["sinr_db"], want, rel_tol=1e-7, abs_tol=1e-7):
            return [f"row {k}: sinr_db {r['sinr_db']!r}, required SINR is {want!r} dB"]
    return []


def _dbm_to_w(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def fig5_identity_problems(table):
    for k, r in enumerate(table.records()):
        total = sum(_dbm_to_w(r[c]) for c in POWER_COMPONENTS_DBM)
        if not close(_dbm_to_w(r["total_dbm"]), total, rel_tol=DBM_REL_TOL):
            return [f"row {k}: total_dbm {r['total_dbm']!r} is not the sum of its components"]
    return []


def fig6_identity_problems(table, fig5, gamma=DEFAULT_GAMMA_FLOPS_PER_W, rate_bps=DEFAULT_RATE_BPS):
    """theta* = Gamma * P_offload / R, with P_offload from fig5 on the same grid."""
    if fig5 is None or len(fig5.rows) != len(table.rows):
        return ["no fig5 output on the same grid to check theta_star against"]
    for k, (r, p) in enumerate(zip(table.records(), fig5.records())):
        key = ("distance_km", "bandwidth_hz", "cameras")
        if any(r[c] != p[c] for c in key):
            return [f"row {k}: fig6 and fig5 grids differ"]
        want = gamma * _dbm_to_w(p["total_dbm"]) / rate_bps
        if not close(r["theta_star"], want, rel_tol=DBM_REL_TOL):
            return [f"row {k}: theta_star {r['theta_star']!r}, Gamma*P/R gives {want!r}"]
    return []


def scenario_echo_problems(record, scenario):
    """The row reports the distance, cameras and bandwidth the scenario set."""
    return [
        f"{key} = {record[key]!r}, scenario set {want!r}"
        for key, want in scenario.items()
        if key in record and not close(record[key], want)
    ]


def link_power_identity_problems(record):
    problems = []
    total = sum(record[c] for c in POWER_COMPONENTS_W)
    if not close(total, record["total_w"]):
        problems.append(f"components sum to {total!r}, total_w is {record['total_w']!r}")
    if not close(10.0 * math.log10(record["total_w"] * 1e3), record["total_dbm"]):
        problems.append(f"total_dbm {record['total_dbm']!r} != total_w {record['total_w']!r}")
    snr_max_db = record["path_gain_db"] + 10.0 * math.log10(record["p_max_w"] * 1e3) - record["noise_dbm"]
    if not math.isclose(snr_max_db, record["snr_max_db"], rel_tol=1e-6, abs_tol=1e-6):
        problems.append(f"snr_max_db {record['snr_max_db']!r}, link budget gives {snr_max_db!r}")
    p_max = 10.0 ** (record["ibo_db"] / 10.0) * record["sigma2_w"]
    if not close(p_max, record["p_max_w"], rel_tol=1e-6):
        problems.append(f"p_max_w {record['p_max_w']!r} != IBO * sigma2 = {p_max!r}")
    return problems


def breakeven_identity_problems(table, gamma=DEFAULT_GAMMA_FLOPS_PER_W, rate_bps=DEFAULT_RATE_BPS):
    problems = []
    for k, r in enumerate(table.records()):
        if "theta_star" in r:
            want = gamma * r["offload_total_w"] / rate_bps
            if not close(r["theta_star"], want):
                problems.append(f"row {k}: theta_star {r['theta_star']!r}, Gamma*P/R gives {want!r}")
            if not close(10.0 * math.log10(r["offload_total_w"] * 1e3), r["offload_total_dbm"]):
                problems.append(f"row {k}: offload_total_dbm disagrees with offload_total_w")
        else:
            local = r["theta"] * rate_bps / gamma
            if not close(r["local_w"], local):
                problems.append(f"row {k}: local_w {r['local_w']!r}, theta*R/Gamma gives {local!r}")
            diff = r["local_w"] - r["offload_total_w"]
            # each operand carries 9 digits, so the difference is known to
            # 5e-9 of their sizes, whatever its own size
            slack = 1e-8 * (abs(r["local_w"]) + abs(r["offload_total_w"]))
            if not math.isclose(r["local_minus_offload_w"], diff, rel_tol=1e-7, abs_tol=slack):
                problems.append(f"row {k}: local_minus_offload_w {r['local_minus_offload_w']!r} != {diff!r}")
        if problems:
            break
    if "offload_total_w" in table.columns and len(set(table.column("offload_total_w"))) > 1:
        problems.append("offload_total_w varies along a theta sweep")
    return problems


# ---------------------------------------------------------------------------
# mc-verify


def mc_verdict_problems(table, snr_max_db=20.0):
    """Recompute each row's pass/fail from its own cells.

    The verifier passes a row when alpha, distortion power, amplifier power
    and SINR each lie within max(3 standard errors, 1 %) of the analytic
    value.  Cells carry 9 digits, so rows within 1e-6 of a tolerance edge
    are accepted either way.
    """
    noise_scale = 10.0 ** (-snr_max_db / 10.0)
    problems = []
    for k, r in enumerate(table.records()):
        ibo = 10.0 ** (r["ibo_db"] / 10.0)
        sinr_spread = r["sinr_analytic"] * math.hypot(
            2.0 * r["stderr_alpha"] / r["alpha_analytic"],
            r["stderr_distortion"] / (r["distortion_w_analytic"] + ibo * noise_scale),
        )
        margins = []
        for name, spread in (
            ("alpha", r["stderr_alpha"]),
            ("distortion_w", r["stderr_distortion"]),
            ("pa_w", r["stderr_pa"]),
            ("sinr", sinr_spread),
        ):
            analytic, measured = r[f"{name}_analytic"], r[f"{name}_hat"]
            tolerance = max(3.0 * spread, 0.01 * abs(analytic))
            margins.append(abs(measured - analytic) / tolerance)
        worst = max(margins)
        if worst < 1.0 - 1e-6 and r["status"] != "pass":
            problems.append(f"row {k}: status {r['status']!r}, but every estimate is within tolerance")
        elif worst > 1.0 + 1e-6 and r["status"] != "fail":
            problems.append(f"row {k}: status {r['status']!r}, but an estimate is out of tolerance")
    return problems


def mc_analytic_reference():
    """Analytic mc-verify columns by back-off, from the stored references."""
    by_ibo = {}
    for name in ("mc-verify", "mc-verify-ibo12"):
        table = load_reference(name)
        for record in table.records():
            by_ibo[record["ibo_db"]] = {
                key: value for key, value in record.items() if key.endswith("_analytic")
            }
    return by_ibo


def mc_analytic_problems(table, analytic_by_ibo):
    problems = []
    for k, r in enumerate(table.records()):
        want = analytic_by_ibo.get(r["ibo_db"])
        if want is None:
            problems.append(f"row {k}: no reference for ibo_db {r['ibo_db']!r}")
            continue
        for key, value in want.items():
            if key not in r:
                problems.append(f"column {key} missing")
            elif not close(r[key], value):
                problems.append(f"row {k}: {key} = {r[key]!r}, reference {value!r}")
    return problems


def json_problems(text, reference_path):
    """Compare JSON output key by key with a stored reference object."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(got, dict):
        return ["output is not a JSON object"]
    want = json.loads(Path(reference_path).read_text(encoding="utf-8"))
    return [
        f"{key} = {got.get(key)!r}, reference {value!r}"
        for key, value in want.items()
        if not (isinstance(got.get(key), (int, float)) and close(got[key], value))
    ]
