"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, and that the correctness checks catch a wrong output.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])


def test_fig4_probe_is_run_and_reported_apart():
    proc = bench("--workload", "sweep_dense")
    result = result_of(proc)
    report = json.loads(proc.stdout.splitlines()[-2])
    probe = report["known_defect_probes"][f"fig4 --steps {run.FIG4_DEFECT_STEPS}"]
    # the probe's verdict follows its exit code, whether or not the defect is fixed
    assert probe["failed"] == int(probe["exit_code"] != 0)
    # it is not one of the workload's operations
    assert result["failed"] == 0
    assert result["correct"] is True


def test_mc_row_verdicts_are_reported_not_failed():
    proc = bench("--workload", "mc_verify")
    result = result_of(proc)
    report = json.loads(proc.stdout.splitlines()[-2])
    verdicts = report["mc_seed_verdicts"]
    assert verdicts and all(len(v.split(",")) == 5 for v in verdicts.values())
    assert report["mc_rows_not_pass"] == sum(v.split(",").count("fail") for v in verdicts.values())
    assert result["failed"] == 0
    assert result["correct"] is True


def test_perturbed_reference_makes_the_run_incorrect(tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference"
    shutil.copytree(checks.REFERENCE_DIR, reference)
    path = reference / "fig5.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[10].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-5))
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(checks, "REFERENCE_DIR", reference)
    assert run.main(["--workload", "scenario_cli", "--seed", "1", "--seconds", "0",
                     "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_only_the_clis_own_refusal_is_a_plain_failure():
    def validate(table):
        return []

    refused = run.csv_outcome(1, "", "error: alpha must lie in (0, 1), got 1.0\n", validate)
    assert (refused.failed, refused.problems) == (1, [])
    crashed = run.csv_outcome(1, "", "Traceback (most recent call last):\n"
                                     "TypeError: unsupported operand\n", validate)
    assert crashed.failed == 1 and crashed.problems
    usage = run.csv_outcome(2, "", "usage: foglink\nfoglink: error: expected one argument\n",
                            validate)
    assert usage.failed == 1 and usage.problems


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = bench("--workload", "scenario_cli", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _reference(name):
    return checks.load_reference(name)


def test_identity_checks_catch_a_wrong_cell():
    record = _reference("link-power").record(0)
    assert checks.link_power_identity_problems(record) == []
    assert checks.link_power_identity_problems({**record, "pa_w": record["pa_w"] * 2.0})

    table = _reference("breakeven")
    assert checks.breakeven_identity_problems(table) == []
    table.rows[0][table.columns.index("theta_star")] *= 1.001
    assert checks.breakeven_identity_problems(table)

    # a theta sweep row whose powers exceed 1 W: 9 digits leave 5e-9 W of slack
    sweep = checks.parse_csv(
        "theta,local_w,offload_total_w,local_minus_offload_w\n"
        "835.608946,1.00273073,0.975669317,0.0270614177\n")
    assert checks.breakeven_identity_problems(sweep) == []
    sweep.rows[0][3] += 1e-7
    assert checks.breakeven_identity_problems(sweep)

    fig3 = _reference("fig3")
    assert checks.fig3_identity_problems(fig3) == []
    fig3.rows[5][fig3.columns.index("sinr_db_approx")] += 0.01
    assert checks.fig3_identity_problems(fig3)

    fig5 = _reference("fig5")
    assert checks.fig5_identity_problems(fig5) == []
    assert checks.fig6_identity_problems(_reference("fig6"), fig5) == []
    fig5.rows[7][fig5.columns.index("pa_dbm")] += 3.0
    assert checks.fig5_identity_problems(fig5)

    fig4 = _reference("fig4")
    assert checks.fig4_identity_problems(fig4) == []
    fig4.rows[3][fig4.columns.index("sinr_db")] += 0.1
    assert checks.fig4_identity_problems(fig4)


def test_mc_checks_catch_a_wrong_verdict_or_analytic_value():
    table = _reference("mc-verify")
    analytic = checks.mc_analytic_reference()
    assert checks.mc_verdict_problems(table) == []
    assert checks.mc_analytic_problems(table, analytic) == []
    table.rows[1][table.columns.index("status")] = "fail"
    table.rows[2][table.columns.index("alpha_analytic")] *= 1.0001
    assert checks.mc_verdict_problems(table)
    assert checks.mc_analytic_problems(table, analytic)
    assert checks.mc_verdict_problems(_reference("mc-verify-ibo12")) == []


def test_reference_comparison_ignores_added_columns():
    reference = _reference("fig6")
    widened = checks.Table(reference.columns + ["extra"],
                           [row + [1.0] for row in reference.rows], reference.trailer)
    assert checks.compare_tables(widened, reference) == []
    reference.rows[3][reference.columns.index("theta_star")] *= 1.0 + 1e-6
    assert checks.compare_tables(widened, reference)
