#!/usr/bin/env python3
"""foglink benchmark: the CLI run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The package is used from ``src/``
(``PYTHONPATH=src``), not installed.  Every command is a fresh
``python -m foglink.cli ...`` process; the loop is closed with one client,
so the next command starts when the previous one has exited.  Commands run
in whole cycles until ``--seconds`` have passed.  Every output is checked
(see ``checks.py``).

Workloads:
  scenario_cli  each subcommand but mc-verify at its defaults, then seeded
                link-power and breakeven scenarios, half given as flags and
                half as a --config file.  Start-up dominates.
  sweep_dense   fig3, fig5 and fig6 at 40x the default grid density, written
                with --out.  Solver, chain and CSV rendering dominate.
  mc_verify     mc-verify --ibo-db=-3,0,3,6,12 at the default 10M samples,
                seeded from --seed.  The Philox draw and moment kernel dominate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
command both plainly and under ``tracer.py`` and prints the per-layer
metrics.  The last line of stdout is the result; the line before it and
``perfbench/results/`` hold the full report.  Exit code 2, with no result,
means the package could not be imported.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
PYTHON = sys.executable
CLI = ["-m", "foglink.cli"]
TRACER = [str(BENCH_DIR.relative_to(ROOT) / "tracer.py")]

WORKLOADS = ("scenario_cli", "sweep_dense", "mc_verify")
DEFAULT_COMMANDS = ("fig3", "fig4", "fig5", "fig6", "link-power", "breakeven", "print-defaults")
# Copy of foglink.config.BANDWIDTH_PROFILES: scenario configs are written
# without importing the package.
PROFILES = {
    "9mhz": {"sample_rate_hz": 15.36e6, "bandwidth_hz": 9e6, "n_ofdm": 1024},
    "18mhz": {"sample_rate_hz": 30.72e6, "bandwidth_hz": 18e6, "n_ofdm": 2048},
}
# 40x the default grid density: the default grid is every 40th dense row.
DENSE_STRIDE = 40
DENSE_STEPS = {"fig3": 40 * 600 + 1, "fig5": 40 * 49 + 1, "fig6": 40 * 49 + 1}
FIG5_COMBOS = 4  # rows per distance: two profiles times one and ten cameras
# Known defect: fig4 at this density aborts with "alpha must lie in (0, 1)".
FIG4_DEFECT_STEPS = 1561
MC_BACKOFFS = "-3,0,3,6,12"

SIZES = {
    # setup_reps imports before the run, setup_per_cycle more after each
    # timed cycle, so set-up is sampled across the whole run.  mc_samples
    # None keeps the CLI default of 10M samples per back-off.
    "full": dict(setup_reps=5, setup_per_cycle=2, probe_reps=5, dense=DENSE_STEPS,
                 stride=DENSE_STRIDE, mc_samples=None),
    # for the smoke test: default grids and a fraction of one MC chunk
    "tiny": dict(setup_reps=3, setup_per_cycle=1, probe_reps=2,
                 dense={"fig3": 601, "fig5": 50, "fig6": 50}, stride=1, mc_samples=50_000),
}

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("import", "config", "cli", "pa", "numerics", "link", "chain", "mc", "kernels", "trace")
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.e2e_s": "s",
    "trace.unattributed_s": "s",
    "trace.startup_s": "s",
    "trace.overhead_frac": "ratio",
    "import.numpy_s": "s",
    "import.foglink_s": "s",
    "config.load.calls": "count/inv",
    "config.load.us_per_call": "us",
    "cli.sweep.self_s": "s",
    "cli.render_csv.s": "s",
    "cli.render_csv.bytes": "B/inv",
    "pa.optimal_ibo.calls": "count/inv",
    "pa.optimal_ibo.us_per_call": "us",
    "pa.solves_per_row": "ratio",
    "numerics.solve_newton.iters_per_call": "count",
    "link.operating_point.self_us": "us",
    "link.build_channel.us_per_call": "us",
    "chain.offload_power.calls": "count/inv",
    "chain.offload_power.self_us": "us",
    "mc.run_mc.calls": "count/inv",
    "mc.run_mc.msamples_per_s": "Msample/s",
    "mc.chunks": "count/inv",
    "mc.reduce_ms": "ms",
    "mc.chunk_sums.self_ms": "ms",
    "mc.draw.ms_per_chunk": "ms",
    "kernels.moment_sums.ms_per_chunk": "ms",
    "kernels.moment_sums.ns_per_sample": "ns",
    "kernels.bytes_per_sample": "B",
}


class SetupError(Exception):
    """The package cannot be run from this checkout."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    args: list
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str


def _child_env():
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


ENV = _child_env()


def run_child(args):
    """Run ``python ARGS`` from the checkout root and wait for it to exit.

    Output goes to files, so a large output cannot block the child on a
    pipe; wall time covers start to exit, and ``ru_maxrss`` is the child's.
    """
    out_path, err_path = WORK_DIR / "stdout", WORK_DIR / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PYTHON, *args], cwd=ROOT, env=ENV,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        args=list(args),
        wall_s=wall,
        exit_code=proc.returncode,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Outcome:
    """Verdict on one command: operations attempted and failed, CSV rows
    delivered, and problems (wrong output, which makes the run incorrect)."""

    attempted: int
    failed: int
    rows: int
    problems: list = field(default_factory=list)


@dataclass
class Op:
    args: list  # after "python -m foglink.cli"
    check: object  # (exit_code, text, stderr) -> Outcome
    out_file: Path = None  # where the CSV goes when --out is given
    kind: str = "csv"


class Checker:
    """Checks outputs; an output seen before gets its earlier verdict."""

    def __init__(self):
        self.references = {}
        self.verdicts = {}
        self.fig5_dense = None
        self.mc_analytic = None

    def reference(self, name):
        if name not in self.references:
            self.references[name] = checks.load_reference(name)
        return self.references[name]

    def judge(self, op, child):
        text = op.out_file.read_text(encoding="utf-8") if (
            op.out_file is not None and op.out_file.exists()) else child.stdout
        digest = hashlib.sha256((text + "\0" + child.stderr).encode()).hexdigest()
        key = (tuple(op.args), child.exit_code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = op.check(child.exit_code, text, child.stderr)
        return self.verdicts[key]


def abort_outcome(exit_code, stderr, operations):
    """A command that exited nonzero without usable output.

    The CLI refuses bad input with exit code 1 and one ``error:`` line; that
    is a failed operation.  Any other exit (a traceback, a usage error) is
    wrong output as well, and makes the run incorrect.
    """
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if exit_code == 1 and last.startswith("error:"):
        return Outcome(operations, operations, 0)
    return Outcome(operations, operations, 0,
                   [f"exit code {exit_code} without an error: line: {last[:200]!r}"])


def csv_outcome(exit_code, text, stderr, validate):
    """One invocation, one operation: it fails on a nonzero exit, a missing
    or non-finite cell, or a problem ``validate(table)`` reports."""
    if exit_code != 0:
        return abort_outcome(exit_code, stderr, 1)
    try:
        table = checks.parse_csv(text)
    except ValueError as exc:
        return Outcome(1, 1, 0, [f"malformed CSV: {exc}"])
    try:
        problems = checks.finite_problems(table) or validate(table)
    except KeyError as exc:
        problems = [f"column {exc} missing"]
    return Outcome(1, int(bool(problems)), 0 if problems else len(table.rows), problems)


def default_op(checker, name):
    """A subcommand at its defaults, compared with its stored reference."""
    if name == "print-defaults":
        def check(exit_code, text, stderr):
            if exit_code != 0:
                return abort_outcome(exit_code, stderr, 1)
            problems = checks.json_problems(text, checks.REFERENCE_DIR / "print-defaults.json")
            return Outcome(1, int(bool(problems)), 0, problems)

        return Op([name], check, kind="json")

    identity = {
        "fig3": checks.fig3_identity_problems,
        "fig4": checks.fig4_identity_problems,
        "fig5": checks.fig5_identity_problems,
    }.get(name, lambda table: [])

    def validate(table):
        ref = checker.reference(name)
        return (checks.compare_tables(table, ref) + checks.compare_trailers(table, ref)
                + identity(table))

    return Op([name], lambda code, text, err: csv_outcome(code, text, err, validate))


def dense_op(checker, name, steps, stride):
    """A figure sweep on a grid ``stride`` times denser than the default.

    Every ``stride``-th grid point is a default grid point, so those rows
    must match the reference; every row must satisfy the identities.
    """
    out_file = WORK_DIR / f"{name}-dense.csv"
    per_point = FIG5_COMBOS if name in ("fig5", "fig6") else 1

    def row_map(k):
        point, combo = divmod(k, per_point)
        return point * stride * per_point + combo

    def validate(table):
        expected = steps * per_point
        if len(table.rows) != expected:
            return [f"{len(table.rows)} rows, expected {expected}"]
        problems = checks.compare_tables(table, checker.reference(name), row_map)
        if name == "fig3":
            problems += checks.fig3_identity_problems(table)
        elif name == "fig5":
            problems += checks.fig5_identity_problems(table)
            checker.fig5_dense = table
        else:
            problems += checks.fig6_identity_problems(table, checker.fig5_dense)
        return problems

    args = [name, "--steps", str(steps), "--out", str(out_file.relative_to(ROOT))]
    return Op(args, lambda code, text, err: csv_outcome(code, text, err, validate), out_file)


def fig4_defect_op(checker):
    def validate(table):
        missing = [c for c in checker.reference("fig4").columns if c not in table.columns]
        return ([f"columns {missing} missing"] if missing else []) + \
            checks.fig4_identity_problems(table)

    return Op(["fig4", "--steps", str(FIG4_DEFECT_STEPS)],
              lambda code, text, err: csv_outcome(code, text, err, validate))


def scenario_op(rng, kind, via_config, theta, tag):
    """A seeded link-power or breakeven scenario, as flags or as a config file."""
    profile = rng.choice(sorted(PROFILES))
    cameras = rng.randint(1, 10)
    distance = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    distance = min(max(distance, 0.01), 2.0)
    args = [kind]
    if via_config:
        path = WORK_DIR / f"scenario-{tag}.json"
        config = {**PROFILES[profile], "cameras": cameras, "distance_km": distance}
        path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(path.relative_to(ROOT))]
    else:
        args += ["--bandwidth-profile", profile, "--cameras", str(cameras),
                 "--distance-km", repr(distance)]
    theta_range = None
    if theta:
        low = rng.uniform(0.0, 400.0)
        theta_range = (low, low + rng.uniform(50.0, 800.0))
        args += ["--theta-from", repr(theta_range[0]), "--theta-to", repr(theta_range[1])]
    echo = {"distance_km": distance, "cameras": cameras,
            "bandwidth_hz": PROFILES[profile]["bandwidth_hz"]}

    def validate(table):
        if kind == "link-power":
            if len(table.rows) != 1:
                return [f"{len(table.rows)} rows, expected 1"]
            record = table.record(0)
            return (checks.scenario_echo_problems(record, echo)
                    + checks.link_power_identity_problems(record))
        problems = checks.breakeven_identity_problems(table)
        if theta_range is None:
            if len(table.rows) != 1:
                return [f"{len(table.rows)} rows, expected 1"]
            problems += checks.scenario_echo_problems(table.record(0), echo)
        else:
            thetas = table.column("theta")
            if not (checks.close(thetas[0], theta_range[0])
                    and checks.close(thetas[-1], theta_range[1])):
                problems.append(f"theta runs {thetas[0]!r}..{thetas[-1]!r}, "
                                f"asked for {theta_range!r}")
        return problems

    return Op(args, lambda code, text, err: csv_outcome(code, text, err, validate))


def mc_op(checker, seed, samples, verdicts):
    """One mc-verify invocation; each back-off row is one operation.

    The rows fail when the invocation aborts or its output is wrong.  A row's
    pass/fail status is the verifier's own verdict, not a failed operation: the
    benchmark checks that the verdict follows from the row's cells and that
    the exit code follows from the verdicts, and records the verdicts per
    seed (the 12 dB row fails on most seeds, a known defect).
    """
    args = ["mc-verify", f"--ibo-db={MC_BACKOFFS}", "--seed", str(seed)]
    if samples is not None:
        args += ["--samples", str(samples)]
    backoffs = [float(b) for b in MC_BACKOFFS.split(",")]

    def check(exit_code, text, stderr):
        try:
            table = checks.parse_csv(text)
            ibo_db, statuses = table.column("ibo_db"), table.column("status")
        except (ValueError, KeyError) as exc:
            verdicts[seed] = f"exit {exit_code}, no CSV"
            if exit_code != 0:
                return abort_outcome(exit_code, stderr, len(backoffs))
            return Outcome(len(backoffs), len(backoffs), 0, [f"malformed CSV: {exc!r}"])
        if ibo_db != backoffs:
            return Outcome(len(backoffs), len(backoffs), 0,
                           [f"back-offs {ibo_db}, asked for {backoffs}"])
        verdicts[seed] = ",".join(statuses)
        not_pass = sum(status != "pass" for status in statuses)
        try:
            problems = (checks.finite_problems(table)
                        + checks.mc_analytic_problems(table, checker.mc_analytic)
                        + checks.mc_verdict_problems(table))
        except KeyError as exc:
            problems = [f"column {exc} missing"]
        if exit_code != (1 if not_pass else 0):
            problems.append(f"exit code {exit_code} with {not_pass} failing rows")
        failed = len(backoffs) if problems else 0
        return Outcome(len(backoffs), failed, 0 if problems else len(table.rows), problems)

    return Op(args, check, kind="mc")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Commands of one workload: warm-up, untimed probes and timed cycles."""

    def __init__(self, name, seed, size, checker):
        self.name = name
        self.size = SIZES[size]
        self.checker = checker
        self.rng = random.Random(f"{name}:{seed}")
        self.mc_verdicts = {}
        if name == "mc_verify":
            checker.mc_analytic = checks.mc_analytic_reference()

    def warmup(self):
        """One untimed call per command, so bytecode caches exist."""
        if self.name == "scenario_cli":
            return [[name] for name in DEFAULT_COMMANDS]
        if self.name == "sweep_dense":
            return [[name] for name in DENSE_STEPS]
        return [["mc-verify", "--ibo-db=0", "--samples", "1000", "--seed", "1"]]

    def probes(self):
        """Untimed runs of known defects, reported apart from the operations."""
        if self.name == "sweep_dense":
            return [fig4_defect_op(self.checker)]
        return []

    def cycle(self, index):
        if self.name == "scenario_cli":
            ops = [default_op(self.checker, name) for name in DEFAULT_COMMANDS]
            for kind in ("link-power", "breakeven"):
                for j in range(4):
                    ops.append(scenario_op(
                        self.rng, kind, via_config=j % 2 == 1,
                        theta=kind == "breakeven" and j >= 2, tag=f"{index}-{kind}-{j}",
                    ))
            return ops
        if self.name == "sweep_dense":
            return [dense_op(self.checker, name, steps, self.size["stride"])
                    for name, steps in self.size["dense"].items()]
        seed = self.rng.randrange(2 ** 32)
        return [mc_op(self.checker, seed, self.size["mc_samples"], self.mc_verdicts)]


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, outcome, label):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]


def run_op(op, checker, tally, traced_summary=None):
    if op.out_file is not None and op.out_file.exists():
        op.out_file.unlink()
    if traced_summary is None:
        child = run_child(CLI + op.args)
    else:
        child = run_child(TRACER + [str(traced_summary.relative_to(ROOT))] + op.args)
    outcome = checker.judge(op, child)
    tally.add(outcome, " ".join(op.args))
    return child, outcome


def measure_setup(reps):
    """Fresh-process ``import foglink.cli`` wall times."""
    if not (ROOT / "src" / "foglink" / "cli.py").is_file():
        raise SetupError("src/foglink/cli.py is missing")
    walls = []
    for _ in range(reps):
        child = run_child(["-c", "import foglink.cli"])
        if child.exit_code != 0:
            lines = child.stderr.strip().splitlines()
            raise SetupError(lines[-1] if lines else f"exit code {child.exit_code}")
        walls.append(child.wall_s)
    return walls


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_times(reps):
    """Medians of numpy's and foglink's cumulative ``-X importtime`` cost."""
    numpy_s, foglink_s = [], []
    for _ in range(reps):
        child = run_child(["-X", "importtime", "-c", "import foglink.cli"])
        numpy_us = foglink_us = 0
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, package = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if package.strip() == "numpy":
                numpy_us = max(numpy_us, int(cumulative))
            elif package.startswith(" foglink"):  # top level: one space
                foglink_us += int(cumulative)
        numpy_s.append(numpy_us / 1e6)
        foglink_s.append(max(foglink_us - numpy_us, 0) / 1e6)
    return statistics.median(numpy_s), statistics.median(foglink_s)


def draw_ms_per_chunk(reps):
    """The MC draw for one chunk, built as the verifier builds it:
    ``Generator(Philox(key=seed).jumped(i))`` and two 2^20 uniform arrays."""
    import numpy as np

    times = []
    for i in range(reps):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=12345).jumped(i))
        rng.random(1 << 20)
        rng.random(1 << 20)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def speed_probe_ms(reps=5):
    """Median time of a fixed pure-Python loop in this process.

    It is not a metric: it is recorded before and after the timed phase, so
    a reader can tell a slower machine from slower code.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                f"{(index / 'size').read_text().strip()} "
                f"shared by cpus {(index / 'shared_cpu_list').read_text().strip()}")
        except OSError:
            pass
    facts["caches"] = caches
    probe = run_child(["-c", (
        "import importlib.util, json, numpy\n"
        "from foglink import _kernels\n"
        "backend = getattr(_kernels, 'active_backend', lambda: 'numpy')()\n"
        "print(json.dumps({'numpy': numpy.__version__, 'kernel_backend': backend,\n"
        "  'numba_present': importlib.util.find_spec('numba') is not None}))")])
    try:
        facts.update(json.loads(probe.stdout))
    except json.JSONDecodeError:
        facts["probe_error"] = probe.stderr.strip()[-200:]
    facts["chunk_array"] = ("one 2^20-sample float64 array is 8 MiB, so a chunk's working "
                            "set fits in L3: kernel times are cache-resident, not DRAM-bound")
    return facts


def timed_cycles(workload, seconds, run_cycle):
    """Run whole cycles until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    index = 0
    while True:
        run_cycle(workload.cycle(index))
        index += 1
        if time.perf_counter() - start >= seconds:
            return index


def end_to_end(workload, seconds, setup_walls, checker, tally):
    walls, rss, cycle_rows = [], [], []

    def run_cycle(ops):
        rows = 0
        for op in ops:
            child, outcome = run_op(op, checker, tally)
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            rows += outcome.rows
        cycle_rows.append((rows, sum(walls[-len(ops):])))
        setup_walls.extend(measure_setup(workload.size["setup_per_cycle"]))

    cycles = timed_cycles(workload, seconds, run_cycle)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": percentile(walls, 90),
        # the median cycle, so one slow stretch of the machine weighs little
        "points_per_s": statistics.median(rows / busy for rows, busy in cycle_rows),
        "peak_rss_mb": max(rss),
    }
    report = {"cycles": cycles, "invocations": len(walls),
              "rows": sum(rows for rows, _ in cycle_rows), "busy_s": sum(walls)}
    if workload.name == "mc_verify":
        report["verify_s"] = metrics["latency_p50_s"]
    return metrics, report


def merge_spans(summaries):
    merged = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}})
            into["calls"] += entry["calls"]
            into["total_s"] += entry["total_s"]
            into["self_s"] += entry["self_s"]
            for key, value in entry["attrs"].items():
                into["attrs"][key] = into["attrs"].get(key, 0) + value
    return merged


def per_layer(workload, seconds, checker, tally):
    """Run each command plainly and traced, alternating which goes first."""
    plain_walls, traced_walls, summaries = [], [], []
    solve_rows = turn = 0
    summary_path = WORK_DIR / "spans.json"

    def run_cycle(ops):
        nonlocal solve_rows, turn
        for op in ops:
            turn += 1
            for traced in ((False, True) if turn % 2 else (True, False)):
                if traced:
                    if summary_path.exists():
                        summary_path.unlink()
                    child, outcome = run_op(op, checker, tally, summary_path)
                    traced_walls.append(child.wall_s)
                    spans = json.loads(summary_path.read_text(encoding="utf-8"))["spans"]
                    summaries.append(spans)
                    if op.kind == "csv":
                        solve_rows += outcome.rows
                else:
                    child, _ = run_op(op, checker, tally)
                    plain_walls.append(child.wall_s)

    probe_reps = workload.size["probe_reps"]
    numpy_s, foglink_s = import_times(probe_reps)
    startup_s = statistics.median(run_child(["-c", "pass"]).wall_s for _ in range(probe_reps))
    draw_ms = draw_ms_per_chunk(probe_reps) if workload.name == "mc_verify" else 0.0
    cycles = timed_cycles(workload, seconds, run_cycle)

    n = len(traced_walls)
    spans = merge_spans(summaries)

    def total(prefix, key):
        return sum(e[key] for name, e in spans.items() if name.startswith(prefix))

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def attr(name, key):
        return spans.get(name, {}).get("attrs", {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    metrics = {f"{layer}.self_s": total(f"{layer}.", "self_s") / n for layer in LAYERS}
    e2e_s = sum(traced_walls) / n
    config_calls = sum(calls(f"config.{f}") for f in ("load_config", "default_params", "load_params"))
    config_s = sum(spans.get(f"config.{f}", {}).get("total_s", 0.0)
                   for f in ("load_config", "default_params", "load_params"))
    newton = "numerics.solve_newton"
    samples = attr("kernels.moment_sums", "samples")
    metrics.update({
        "trace.e2e_s": e2e_s,
        "trace.unattributed_s": e2e_s - sum(metrics[f"{layer}.self_s"] for layer in LAYERS),
        "trace.startup_s": startup_s,
        "trace.overhead_frac": (sum(traced_walls) - sum(plain_walls)) / sum(plain_walls),
        "import.numpy_s": numpy_s,
        "import.foglink_s": foglink_s,
        "config.load.calls": config_calls / n,
        "config.load.us_per_call": ratio(config_s, config_calls, 1e6),
        "cli.sweep.self_s": total("cli.sweep.", "self_s") / n,
        "cli.render_csv.s": total("cli.render_csv", "total_s") / n,
        "cli.render_csv.bytes": attr("cli.render_csv", "bytes") / n,
        "pa.optimal_ibo.calls": calls("pa.optimal_ibo") / n,
        "pa.optimal_ibo.us_per_call": ratio(total("pa.optimal_ibo", "total_s"),
                                            calls("pa.optimal_ibo"), 1e6),
        "pa.solves_per_row": ratio(calls("pa.optimal_ibo"), solve_rows),
        "numerics.solve_newton.iters_per_call": ratio(attr(newton, "iterations"), calls(newton)),
        "link.operating_point.self_us": ratio(total("link.operating_point", "self_s"),
                                              calls("link.operating_point"), 1e6),
        "link.build_channel.us_per_call": ratio(total("link.build_channel", "total_s"),
                                                calls("link.build_channel"), 1e6),
        "chain.offload_power.calls": calls("chain.offload_power") / n,
        "chain.offload_power.self_us": ratio(total("chain.offload_power", "self_s"),
                                             calls("chain.offload_power"), 1e6),
        "mc.run_mc.calls": calls("mc.run_mc") / n,
        "mc.run_mc.msamples_per_s": ratio(attr("mc.run_mc", "samples"),
                                          total("mc.run_mc", "total_s"), 1e-6),
        "mc.chunks": calls("mc.chunk_sums") / n,
        "mc.reduce_ms": ratio(total("mc.run_mc", "self_s"), calls("mc.run_mc"), 1e3),
        "mc.chunk_sums.self_ms": ratio(total("mc.chunk_sums", "self_s"),
                                       calls("mc.chunk_sums"), 1e3),
        "mc.draw.ms_per_chunk": draw_ms,
        "kernels.moment_sums.ms_per_chunk": ratio(total("kernels.moment_sums", "total_s"),
                                                  calls("kernels.moment_sums"), 1e3),
        "kernels.moment_sums.ns_per_sample": ratio(total("kernels.moment_sums", "total_s"),
                                                   samples, 1e9),
        "kernels.bytes_per_sample": ratio(attr("kernels.moment_sums", "input_bytes"), samples),
    })
    report = {
        "cycles": cycles, "traced_invocations": n, "plain_invocations": len(plain_walls),
        "untraced_mean_s": sum(plain_walls) / len(plain_walls),
        "spans": spans,
        "notes": {
            "kernels.bytes_per_sample": "input arrays passed to the kernel, from their nbytes",
            "mc.draw.ms_per_chunk": "timed by the benchmark, not the program",
            "per-invocation metrics": "means over traced invocations; 0 where the "
                                      "workload makes no call into the layer",
        },
    }
    return metrics, report


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every input, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    checker = Checker()
    workload = Workload(args.workload, args.seed, args.size, checker)
    tally = Tally()
    speed_before = speed_probe_ms()
    try:
        setup_walls = measure_setup(workload.size["setup_reps"])
    except SetupError as exc:
        print(f"error: cannot import foglink.cli from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    for cli_args in workload.warmup():
        run_child(CLI + cli_args)
    probes = {}
    for op in workload.probes():
        # a known defect's abort is reported here, not counted as a failed
        # operation; wrong output from it still makes the run incorrect
        probe_tally = Tally()
        child, outcome = run_op(op, checker, probe_tally)
        tally.problems += probe_tally.problems
        probes[" ".join(op.args)] = {
            "exit_code": child.exit_code, "failed": outcome.failed,
            "stderr": child.stderr.strip()[-300:],
        }

    if args.trace:
        metrics, report = per_layer(workload, args.seconds, checker, tally)
        units = LAYER_UNITS
    else:
        metrics, report = end_to_end(workload, args.seconds, setup_walls, checker, tally)
        units = E2E_UNITS

    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "setup_walls_s": setup_walls,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems[:20],
        "known_defect_probes": probes,
        "mc_seed_verdicts": workload.mc_verdicts,
        "mc_rows_not_pass": sum(v.split(",").count("fail") for v in workload.mc_verdicts.values()),
        "machine": machine_facts(),
        "speed_probe_ms": {"before": speed_before, "after": speed_probe_ms()},
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({key: report[key] for key in report if key != "spans"}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
