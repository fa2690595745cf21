"""Every subcommand at its defaults, and mc-verify at a 12 dB back-off,
writes exactly the reference bytes.

The references under ``perfbench/reference/`` are the outputs the
benchmark checks its runs against.  It compares them only to a relative
1e-7, so this test holds the stronger contract that refactors keep: the
same bytes.
"""

from pathlib import Path

import pytest

import foglink.cli as cli

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# (command line, reference file, exit code)
GOLDEN = [
    ("fig3", "fig3.csv", 0),
    ("fig4", "fig4.csv", 0),
    ("fig5", "fig5.csv", 0),
    ("fig6", "fig6.csv", 0),
    ("breakeven", "breakeven.csv", 0),
    ("link-power", "link-power.csv", 0),
    ("print-defaults", "print-defaults.json", 0),
    ("mc-verify", "mc-verify.csv", 0),
    # rare clipping: the row fails its distortion check (6.57e-4 estimated
    # against 3.79e-9 analytic), so the run exits 1 after writing its CSV
    ("mc-verify --ibo-db=12 --samples 1000 --seed 1", "mc-verify-ibo12.csv", 1),
]


@pytest.mark.parametrize(
    "command, reference, code", GOLDEN,
    ids=[f"{command.split()[0]}-{reference}" for command, reference, _ in GOLDEN],
)
def test_defaults_match_reference_bytes(command, reference, code, tmp_path):
    out = tmp_path / reference
    assert cli.main([*command.split(), "--out", str(out)]) == code
    assert out.read_bytes() == (REFERENCE_DIR / reference).read_bytes()
