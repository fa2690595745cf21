"""Every printed cell of the default ``fig3``, ``link-power`` and
``breakeven`` against a 40-digit oracle.

``oracle/fig3.csv`` is written by ``oracle/make_fig3.py``, which re-derives
the solve in mpmath at 40 digits, and ``oracle/link-power.csv`` and
``oracle/breakeven.csv`` by ``oracle/make_scalar.py``, which re-derives the
whole chain from the baseline parameters; these tests read only the CSVs,
so the suite does not need mpmath.  The golden test compares the program
with its own earlier bytes, so it cannot see a cell that was wrong from the
start; this one compares it with an independent computation.  Each cell
is printed to 9 significant digits and must lie within one unit in its 9th
digit of the oracle's value.
"""

import csv
import math
from pathlib import Path

import pytest

import foglink.cli as cli

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"
PRINTED_COLUMNS = ("snr_max_db", "ibo_db_optimal", "sinr_db_exact", "sinr_db_approx")


def units_off(printed, exact):
    """|printed - exact| in units of the 9th significant digit of exact."""
    if exact == 0.0:
        return 0.0 if printed == 0.0 else math.inf
    return abs(printed - exact) / 10.0 ** (math.floor(math.log10(abs(exact))) - 8)


def default_fig3(tmp_path):
    """The rows and the trailer of ``fig3`` at its defaults, as printed."""
    out = tmp_path / "fig3.csv"
    assert cli.main(["fig3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    trailer = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return rows, trailer


def oracle_rows(name="fig3"):
    with (ORACLE_DIR / f"{name}.csv").open(encoding="utf-8", newline="") as handle:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(handle)]


def test_every_default_fig3_cell_is_within_one_unit_in_the_9th_digit(tmp_path):
    printed, _ = default_fig3(tmp_path)
    oracle = oracle_rows()
    assert len(printed) == len(oracle) == 601
    off = {
        (row["snr_max_db"], column): units_off(float(row[column]), exact[column])
        for row, exact in zip(printed, oracle)
        for column in PRINTED_COLUMNS
    }
    assert {cell: units for cell, units in off.items() if not units <= 1.0} == {}


def test_trailer_gap_is_within_one_unit_in_the_9th_digit(tmp_path):
    _, [trailer] = default_fig3(tmp_path)
    name, value = trailer.removeprefix("# ").split(",")
    assert name == "max_abs_approx_error_db"
    exact = max(abs(row["sinr_db_exact"] - row["sinr_db_approx"]) for row in oracle_rows())
    assert units_off(float(value), exact) <= 1.0


@pytest.mark.parametrize("command", ["link-power", "breakeven"])
def test_every_default_scalar_cell_is_within_one_unit_in_the_9th_digit(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as handle:
        [printed] = csv.DictReader(handle)
    [exact] = oracle_rows(command)
    assert list(printed) == list(exact)
    off = {column: units_off(float(cell), exact[column]) for column, cell in printed.items()}
    assert {column: units for column, units in off.items() if not units <= 1.0} == {}
