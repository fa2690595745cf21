"""Every subcommand at its defaults writes exactly the reference bytes.

The references under ``perfbench/reference/`` are the outputs the
benchmark checks its runs against.  It compares them only to a relative
1e-7, so this test holds the stronger contract that refactors keep: the
same bytes.
"""

from pathlib import Path

import pytest

import foglink.cli as cli

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

GOLDEN = [
    ("fig3", "fig3.csv"),
    ("fig4", "fig4.csv"),
    ("fig5", "fig5.csv"),
    ("fig6", "fig6.csv"),
    ("breakeven", "breakeven.csv"),
    ("link-power", "link-power.csv"),
    ("print-defaults", "print-defaults.json"),
    ("mc-verify", "mc-verify.csv"),
]


@pytest.mark.parametrize("command, reference", GOLDEN)
def test_defaults_match_reference_bytes(command, reference, tmp_path):
    out = tmp_path / reference
    assert cli.main([command, "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE_DIR / reference).read_bytes()
