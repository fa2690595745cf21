"""Input contract of the CLI, fuzzed over every flag and config key.

Any value of any flag or config key gives either exit 0 with a CSV whose
every numeric cell is finite, or exit 1 with a single stderr line that
starts with ``error:``.  mc-verify has one more outcome, its verdict: exit
1 with finite CSV in which some row has status ``fail``, and one
``mc-verify:`` line per disagreeing estimate.

Float flags and config keys draw from all floats (NaN, +-inf, subnormals
and +-1e+-300 included), a flag given as ``--flag=value`` or as two
arguments; config keys also draw integers and JSON number literals beyond
the float range.  Integer flags draw integers, since a float there is an
argparse usage error.  ``--steps`` stays <= 64 and
``--samples`` <= 1000 so the module runs in seconds; the examples are
derandomized, so the suite is deterministic.
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

import foglink.cli as cli
from foglink.config import DEPLOY_DEFAULTS, RADIO_DEFAULTS

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=250)

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, -0.0]),
    st.floats(-100.0, 100.0),
)

# float-valued flags of each subcommand
FLOAT_FLAGS = {
    "fig3": ("--db-from", "--db-to"),
    "fig4": ("--b-from-hz", "--b-to-hz"),
    "fig5": ("--d-from-km", "--d-to-km"),
    "fig6": ("--d-from-km", "--d-to-km"),
    "breakeven": ("--distance-km", "--theta-from", "--theta-to"),
    "link-power": ("--distance-km",),
    "mc-verify": ("--snr-max-db",),
}
STEPS = st.integers(-2, 64)
CAMERAS = st.one_of(st.integers(-2, 100), st.sampled_from([10**30, 10**400]))
INT_FLAGS = {
    "fig3": {"--steps": STEPS},
    "fig4": {"--steps": STEPS},
    "fig5": {"--steps": STEPS},
    "fig6": {"--steps": STEPS},
    "breakeven": {"--steps": STEPS, "--cameras": CAMERAS},
    "link-power": {"--cameras": CAMERAS},
    "mc-verify": {"--seed": st.integers(-2, 2**64 + 1)},
}
CONFIG_COMMANDS = ("fig4", "fig5", "fig6", "breakeven", "link-power")
CONFIG_KEYS = sorted({**RADIO_DEFAULTS, **DEPLOY_DEFAULTS})
JSON_NUMBERS = st.one_of(
    FLOATS.map(json.dumps),  # NaN and Infinity are what json writes for them
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["1e400", "-1e400", "1e-400", "1" + "0" * 400]),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning would be one more stderr line in a real run
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            raise AssertionError(f"{argv}: usage exit {exc.code}: {err.getvalue()}")
    return code, out.getvalue(), err.getvalue().splitlines()


def test_every_numeric_flag_is_fuzzed():
    # a float or int option added to the parser cannot escape the fuzz
    commands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {float: set(), int: set()}
    for command, parser in commands.items():
        for action in parser._actions:
            if action.type in defined:
                defined[action.type].update((command, flag) for flag in action.option_strings)
    assert defined[float] == {(c, f) for c, flags in FLOAT_FLAGS.items() for f in flags}
    assert defined[int] == {
        ("mc-verify", "--samples"), *((c, f) for c, flags in INT_FLAGS.items() for f in flags)
    }


def statuses_of_finite_csv(argv, text):
    """The status cells of a CSV, after checking every other cell is finite."""
    lines = text.splitlines()
    assert lines, f"{argv}: no CSV on stdout"
    header = lines[0].split(",")
    statuses = []
    for line in lines[1:]:
        cells = line.lstrip("# ").split(",")
        if line.startswith("#"):
            cells = cells[1:]  # trailer: label, value
        else:
            assert len(cells) == len(header), f"{argv}: ragged row {line!r}"
        for name, cell in zip(header, cells):
            if name == "status" and not line.startswith("#"):
                statuses.append(cell)
            else:
                assert math.isfinite(float(cell)), f"{argv}: non-finite cell {line!r}"
    return statuses


def check_contract(argv):
    code, out, err = run(argv)
    if code == 0:
        statuses_of_finite_csv(argv, out)
        return
    assert code == 1, f"{argv}: exit {code}"
    if argv[0] == "mc-verify" and err and err[0].startswith("mc-verify:"):
        assert "fail" in statuses_of_finite_csv(argv, out)
        assert all(line.startswith("mc-verify:") for line in err), f"{argv}: {err}"
        return
    assert len(err) == 1 and err[0].startswith("error:"), f"{argv}: stderr {err}"


@st.composite
def flag_argvs(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    argv = [command]
    for flag in FLOAT_FLAGS[command]:
        if draw(st.booleans()):
            value = repr(draw(FLOATS))
            # as one token or two: "-1e+300" alone looks like an option
            argv.extend([flag, value] if draw(st.booleans()) else [f"{flag}={value}"])
    for flag, values in INT_FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if command == "breakeven" and draw(st.booleans()):
        argv.append(f"--bandwidth-profile={draw(st.sampled_from(['9mhz', '18mhz']))}")
    if command == "mc-verify":
        argv.append(f"--samples={draw(st.integers(-2, 1000))}")
        if draw(st.booleans()):
            backoffs = draw(st.lists(FLOATS, min_size=1, max_size=3))
            argv.append("--ibo-db=" + ",".join(repr(x) for x in backoffs))
    return argv


@FUZZ
@given(flag_argvs())
def test_any_flag_value_meets_the_contract(argv):
    check_contract(argv)


@FUZZ
@given(
    st.sampled_from(CONFIG_COMMANDS),
    st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_NUMBERS, min_size=1, max_size=3),
)
def test_any_config_value_meets_the_contract(command, values):
    text = "{" + ", ".join(f'"{key}": {number}' for key, number in values.items()) + "}"
    handle, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as config:
            config.write(text)
        check_contract([command, "--config", path])
    finally:
        os.remove(path)
