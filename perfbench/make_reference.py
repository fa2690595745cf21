#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every subcommand at its defaults from the current tree and stores its
output under perfbench/reference/.  mc-verify-ibo12.csv adds the 12 dB
back-off the mc_verify workload uses; only its analytic columns are
compared, so it is made with few samples.  Regenerate only when a change
to the program's output is intended, and say so where the change is made.
"""

import sys

from run import CLI, DEFAULT_COMMANDS, ROOT, WORK_DIR, run_child

REFERENCE_DIR = ROOT / "perfbench" / "reference"

COMMANDS = {
    **{name: [name] for name in DEFAULT_COMMANDS},
    "mc-verify": ["mc-verify"],
    "mc-verify-ibo12": ["mc-verify", "--ibo-db=12", "--samples", "1000", "--seed", "1"],
}


def main():
    WORK_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, args in COMMANDS.items():
        child = run_child(CLI + args)
        if not child.stdout:
            sys.exit(f"{name}: no output (exit {child.exit_code}): {child.stderr}")
        suffix = ".json" if name == "print-defaults" else ".csv"
        (REFERENCE_DIR / f"{name}{suffix}").write_text(child.stdout, encoding="utf-8")
        print(f"{name}: exit {child.exit_code}, {child.wall_s:.2f} s")


if __name__ == "__main__":
    main()
