"""The benchmark's copies of program constants still match the program.

``perfbench/run.py`` and ``perfbench/checks.py`` check the program's output
against constants they copy from it: the bandwidth profiles, the fig5 row
count per distance, the config defaults, the published fit and the power
components.  A program change that moved one of them would make the
benchmark refuse correct output, so it fails here first.  The two files are
parsed, not imported: the suite imports only declared dependencies
(``test_dependencies.py``), and a benchmark script is not one.
"""

import ast
from pathlib import Path

import foglink.cli as cli
from foglink import config, pa
from foglink.chain import PowerBreakdown

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def constants(name):
    """Every top-level ``NAME = literal`` of ``perfbench/<name>``."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), name)
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            [target] = node.targets
            if isinstance(target, ast.Name):
                try:
                    found[target.id] = ast.literal_eval(node.value)
                except ValueError:  # not a literal: not a copied constant
                    pass
    return found


def test_run_copies_the_profiles_and_the_fig5_combinations():
    run = constants("run.py")
    assert run["PROFILES"] == config.BANDWIDTH_PROFILES
    assert run["FIG5_COMBOS"] == len(cli.FIGURE_COMBOS)


def test_checks_copy_the_defaults_the_fit_and_the_power_components():
    checks = constants("checks.py")
    assert checks["DEFAULT_RATE_BPS"] == config.DEPLOY_DEFAULTS["rate_bps"]
    assert checks["DEFAULT_GAMMA_FLOPS_PER_W"] == config.DEPLOY_DEFAULTS["gamma_flops_per_w"]
    assert checks["DEFAULT_BETA"] == config.RADIO_DEFAULTS["beta"]
    assert checks["SINR_APPROX_SLOPE"] == pa.SINR_APPROX_SLOPE
    assert checks["SINR_APPROX_OFFSET_DB"] == pa.SINR_APPROX_OFFSET_DB
    assert checks["POWER_COMPONENTS_W"] == tuple(
        field for field in PowerBreakdown._fields if field != "total_w"
    )
