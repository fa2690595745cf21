"""numpy is loaded only on the Monte-Carlo path.

The scalar pipeline (link budget, back-off solve, component powers,
breakeven) needs no arrays, so every command but ``mc-verify`` runs
without importing numpy.  No command loads ``concurrent.futures``: the
Monte-Carlo workers are plain ``threading`` threads, which numpy loads
anyway.  Each check runs in a fresh interpreter, because this test
process has numpy loaded already.  Likewise ``json`` loads only when a
command reads a config file or prints the defaults, and no command loads
``dataclasses`` or ``inspect``: the records are plain ``foglink.record``
classes, which cost no code generation at import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCALAR_COMMANDS = ("fig3", "fig4", "fig5", "fig6", "link-power", "breakeven", "print-defaults")

# the package's exports, the lazily loaded Monte-Carlo names among them
EXPORTS = [
    "__version__",
    "bussgang_alpha", "sinr_of_ibo", "sinr_approx_db", "snr_max_for_sinr_db",
    "pa_consumed_power",
    "MIN_DISTANCE_KM", "path_gain_db", "noise_dbm",
    "required_sinr", "clip_power",
    "RadioParams", "DeploymentParams", "PowerBreakdown", "local_power",
    "offload_power", "breakeven_at",
    "McConfig", "McEstimate", "CHUNK_SAMPLES", "run_mc",
    "load_params", "dump_defaults",
    "replace",
    "db_to_linear", "linear_to_db", "dbm_to_watts", "watts_to_dbm",
    "FoglinkError", "DomainError", "ConvergenceError",
    "InfeasibleLinkError", "ConfigError", "NumericError",
]


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports foglink from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_scalar_commands_never_load_numpy(tmp_path):
    out = run_fresh(
        "import sys\n"
        "import foglink.cli as cli\n"
        "print('import', 'numpy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        f"for command in {SCALAR_COMMANDS!r}:\n"
        f"    assert cli.main([command, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "    print(command, 'numpy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    assert out.splitlines() == [
        f"{step} False False" for step in ("import", *SCALAR_COMMANDS)
    ]


@pytest.mark.parametrize("last", [["link-power", "--config"], ["print-defaults"]])
def test_only_a_config_file_or_print_defaults_loads_json(tmp_path, last):
    config = tmp_path / "config.json"
    config.write_text('{"cameras": 2}')
    if last[-1] == "--config":
        last = [*last, str(config)]
    out_path = str(tmp_path / "out")
    out = run_fresh(
        "import sys\n"
        "import foglink.cli as cli\n"
        f"for argv in {[[command] for command in SCALAR_COMMANDS[:-1]] + [last]!r}:\n"
        f"    assert cli.main([*argv, '--out', {out_path!r}]) == 0\n"
        "    print(argv[0], 'json' in sys.modules)\n"
    )
    assert out.splitlines() == [
        *(f"{command} False" for command in SCALAR_COMMANDS[:-1]), f"{last[0]} True",
    ]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    out = run_fresh(
        "import sys\n"
        "import foglink.cli as cli\n"
        "print('import', 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        f"for command in {SCALAR_COMMANDS!r}:\n"
        f"    assert cli.main([command, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "    print(command, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "import foglink.mc\n"  # numpy itself loads inspect
        "print('mc', 'dataclasses' in sys.modules)\n"
    )
    assert out.splitlines() == [
        *(f"{step} False False" for step in ("import", *SCALAR_COMMANDS)), "mc False",
    ]


def test_mc_verify_loads_numpy(tmp_path):
    # three chunks, so the run starts worker threads
    out = run_fresh(
        "import sys\n"
        "import foglink.cli as cli\n"
        "cli.main(['mc-verify', '--samples', '2100000', "
        f"'--out', {str(tmp_path / 'mc.csv')!r}])\n"
        "print('numpy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    assert out == "True False\n"


def test_monte_carlo_exports_load_on_first_use():
    out = run_fresh(
        "import sys\n"
        "import foglink\n"
        "print('numpy' in sys.modules)\n"
        "from foglink import run_mc, McConfig\n"
        "import foglink.mc\n"
        "assert run_mc is foglink.mc.run_mc and McConfig is foglink.mc.McConfig\n"
        "print('numpy' in sys.modules)\n"
        "print(foglink.__all__)\n"
        "namespace = {}\n"
        "exec('from foglink import *', namespace)\n"
        "assert set(foglink.__all__) <= set(namespace)\n"
        "try:\n"
        "    foglink.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "False",
        "True",
        repr(EXPORTS),
        "module 'foglink' has no attribute 'no_such_name'",
    ]
