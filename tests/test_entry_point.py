"""The ``foglink`` program as a process: ``cli.run`` and the console script.

``run`` wraps ``main`` for a process of its own: it gives numpy's OpenBLAS
one thread unless the environment names a count, and freezes the heap
after the run so the exit-time collection has nothing to scan.  The
process tests run ``python -m foglink.cli`` the way the benchmark does and
hold its stdout to the reference bytes.
"""

import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import foglink.cli as cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "perfbench" / "reference"


def run_process(args):
    """``python -m foglink.cli ARGS`` from src/, with OpenBLAS at its default."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "foglink.cli", *args], env=env, stdin=subprocess.DEVNULL,
        capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("command, reference, code", [
    ("fig4", "fig4.csv", 0),
    ("link-power", "link-power.csv", 0),
    ("print-defaults", "print-defaults.json", 0),
    ("mc-verify --ibo-db=12 --samples 1000 --seed 1", "mc-verify-ibo12.csv", 1),
], ids=["fig4", "link-power", "print-defaults", "mc-verify-ibo12"])
def test_process_prints_the_reference_bytes(command, reference, code):
    result = run_process(command.split())
    assert result.stdout == (REFERENCE_DIR / reference).read_bytes()
    assert result.returncode == code
    if code:  # the 12 dB row fails its checks, and the verdict names it
        assert re.search(rb"^mc-verify: ibo_db=12: ", result.stderr, re.MULTILINE)
    else:
        assert result.stderr == b""


def test_process_refusal_is_one_error_line():
    result = run_process(["fig3", "--steps", "0"])
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.splitlines() == [
        b"error: snr_max_db sweep steps must be >= 1, got 0"
    ]


@pytest.fixture
def calls(monkeypatch):
    """The order of main, gc.freeze and sys.exit in one ``run``, each with
    what it saw: OPENBLAS_NUM_THREADS, nothing, the exit code."""
    log = []
    monkeypatch.setattr(gc, "freeze", lambda: log.append(("freeze",)))
    monkeypatch.setattr(sys, "exit", lambda code: log.append(("exit", code)))
    # set, then delete, so the undo removes what run sets
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    return log


def fake_main(calls, code):
    def main():
        calls.append(("main", os.environ.get("OPENBLAS_NUM_THREADS")))
        return code
    return main


@pytest.mark.parametrize("code", [0, 1])
def test_run_exits_with_mains_code_after_freezing(monkeypatch, calls, code):
    monkeypatch.setattr(cli, "main", fake_main(calls, code))
    cli.run()
    assert calls == [("main", "1"), ("freeze",), ("exit", code)]


def test_run_keeps_the_users_openblas_threads(monkeypatch, calls):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(cli, "main", fake_main(calls, 0))
    cli.run()
    assert calls == [("main", "2"), ("freeze",), ("exit", 0)]


def test_console_script_is_run():
    # a plain text match: tomllib is not in Python 3.10's standard library
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text, re.MULTILINE)
    assert scripts
    [target] = re.findall(r'^foglink = "(.+)"$', scripts.group(1), re.MULTILINE)
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is cli.run
