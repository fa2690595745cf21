"""Command-line interface: scenario sweeps, verification, CSV emission.

Every subcommand is deterministic given its flags (and seed, where one
applies): repeated invocations emit byte-identical CSV.  Numeric cells are
rendered with 9 significant digits; results go to stdout unless ``--out``
names a file.
"""

import argparse
import gc
import itertools
import math
import operator
import os
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence

from . import pa
from .chain import (
    _PART_KEYS,
    DeploymentParams,
    PowerBreakdown,
    RadioParams,
    breakdown_at,
    breakeven_at,
    local_power,
    offload_power,
    size_link,
)
from .config import BANDWIDTH_PROFILES, dump_defaults, load_params
from .errors import DomainError, FoglinkError, InfeasibleLinkError, NumericError
from .link import PATH_LOSS_EXPONENT, noise_dbm, path_gain_db, snr_ceiling
from .record import replace
from .units import db_to_linear, linear_to_db, watts_to_dbm

# Four curves shown in the distance sweeps: both channelizations at one
# and at ten cameras.
FIGURE_PROFILES = tuple(BANDWIDTH_PROFILES)
FIGURE_CAMERA_COUNTS = (1, 10)
FIGURE_COMBOS = tuple(
    (profile, cameras) for profile in FIGURE_PROFILES for cameras in FIGURE_CAMERA_COUNTS
)


# The most points a sweep takes: a 2**18-step fig5 holds about 0.5 GB at its
# peak, and the memory grows linearly with the step count.
_MAX_STEPS = 2 ** 18


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """``np.linspace(start, stop, steps)`` bit for bit, in Python floats."""
    div, delta = max(steps - 1, 1), stop - start
    step = delta / div
    if step == 0.0:  # subnormal spacing: scale before multiplying, as numpy does
        points = [i / div * delta + start for i in range(steps)]
    else:
        points = [i * step + start for i in range(steps)]
    if steps > 1:
        points[-1] = stop
    return points


def _grid(
    variable: str, start: float, stop: float, steps: int, log_spaced: bool = False
) -> list[float]:
    """The points of a one-dimensional sweep of ``variable``.

    ``steps == 1`` with ``start == stop`` is the degenerate single-point
    sweep; otherwise two to ``_MAX_STEPS`` points and an increasing range
    are required.  Both bounds must be finite; ``variable`` only names the
    sweep in error messages.  Linear points equal ``np.linspace``; log-spaced
    ones are 10**e over that grid of log10 bounds, with the bounds at both
    ends, as ``np.geomspace`` computes them but with libm's rounding.
    """
    start, stop = float(start), float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(
            f"{variable} sweep bounds must be finite, got [{start!r}, {stop!r}]"
        )
    if steps == 1:
        if start != stop:
            raise DomainError(
                f"{variable} single-step sweep needs start == stop, got "
                f"[{start!r}, {stop!r}]"
            )
    elif steps > _MAX_STEPS:
        raise DomainError(f"{variable} sweep steps must be <= {_MAX_STEPS}, got {steps!r}")
    elif steps >= 2:
        if not start < stop:
            raise DomainError(
                f"{variable} sweep range must be increasing, got [{start!r}, {stop!r}]"
            )
    else:
        raise DomainError(f"{variable} sweep steps must be >= 1, got {steps!r}")
    if log_spaced and not start > 0.0:
        raise DomainError(f"{variable} log-spaced sweep needs start > 0, got {start!r}")
    try:
        if log_spaced:
            exponents = _linspace(math.log10(start), math.log10(stop), steps)
            inner = (math.pow(10.0, e) for e in exponents[1:-1])
            points = [start, *inner, stop][:steps]  # [start] when steps == 1
        else:
            points = _linspace(start, stop, steps)
        finite = all(map(math.isfinite, points))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"{variable} sweep from {start!r} to {stop!r} overflows a float"
        )
    return points


# ---------------------------------------------------------------------------
# sweep evaluation


def _scenario_context(exc: FoglinkError, **scenario) -> FoglinkError:
    detail = ", ".join(f"{k}={v!r}" for k, v in scenario.items())
    return type(exc)(f"{exc} [scenario: {detail}]")


def sweep_fig3(
    start_db: float, stop_db: float, steps: int
) -> tuple[list[str], list[tuple], float]:
    """Optimal back-off and SINR versus the SNR ceiling, exact and approximate.

    Returns the columns, the rows and the maximum absolute gap between the
    exact and the affine-approximated SINR over the sweep.
    """
    points = _grid("snr_max_db", start_db, stop_db, steps)
    solves = pa.optimal_ibos(map(db_to_linear, points))
    log10 = math.log10
    rows = []
    max_gap = 0.0
    try:
        for x, (ibo, _, sinr) in zip(points, solves):
            # linear_to_db on ratios the solve has checked positive
            exact_db = 10.0 * log10(sinr)
            approx_db = pa.sinr_approx_db(x)
            gap = abs(exact_db - approx_db)
            if gap > max_gap:
                max_gap = gap
            rows.append((x, 10.0 * log10(ibo), exact_db, approx_db))
    except FoglinkError as exc:
        # raised while rows holds every point before the failing one
        raise _scenario_context(exc, snr_max_db=points[len(rows)]) from exc
    columns = ["snr_max_db", "ibo_db_optimal", "sinr_db_exact", "sinr_db_approx"]
    return columns, rows, max_gap


def sweep_fig4(
    radio: RadioParams, deploy: DeploymentParams, start_hz: float, stop_hz: float, steps: int
) -> tuple[list[str], list[tuple]]:
    """Required SINR and the resulting optimal back-off versus bandwidth.

    Grid points where a camera count cannot meet the rate at all (rate
    exponent overflow, or an SNR ceiling beyond the resolvable range) are
    omitted rather than aborting the sweep, so narrow bandwidths still
    show the feasible curve.
    """
    bandwidths = _grid("bandwidth_hz", start_hz, stop_hz, steps)
    if not bandwidths[0] > 0.0:  # the grid increases: this checks every point
        raise DomainError(f"bandwidth_hz must be positive, got {bandwidths[0]!r}")
    rows = []
    for b in bandwidths:
        for cameras in FIGURE_CAMERA_COUNTS:
            try:
                sinr, snr_max = snr_ceiling(b, cameras, deploy.rate_bps, radio.beta)
                [(ibo, _, _)] = pa.optimal_ibos([snr_max])
            except InfeasibleLinkError:
                continue
            except FoglinkError as exc:
                raise _scenario_context(exc, bandwidth_hz=b, cameras=cameras) from exc
            rows.append((b, cameras, linear_to_db(sinr), linear_to_db(ibo)))
    return ["bandwidth_hz", "cameras", "sinr_db", "ibo_db"], rows


def _distance_sweep(
    radio: RadioParams,
    deploy: DeploymentParams,
    start_km: float,
    stop_km: float,
    steps: int,
    columns: Sequence[str],
    curve_columns: Callable[[dict[str, float]], Callable[[list[float], list[float]], tuple]],
) -> tuple[list[str], list[tuple], list[dict[int, float]]]:
    """Rows over log-spaced distances and the FIGURE_COMBOS, each curve solved
    once at the first distance d0 as H + pa_w * (d / d0) ** PATH_LOSS_EXPONENT:
    ``size_link``, where the sizing chain is put together, gives the curve's
    record with its H, band and camera count, and ``breakdown_at(sized, d0)``
    its amplifier draw pa_w at d0.

    ``curve_columns(parts)``, given a curve's ``clip_independent_parts``,
    returns the columns named by ``columns`` as a function of its total and
    amplifier powers over the distances: a column that varies is a list,
    built before any row, and a column fixed along the curve is its one
    cell.  Rows are distance-major, the curves of a distance in
    FIGURE_COMBOS order.  Returns the columns, the rows and, for
    ``render_csv``, each curve's fixed cells by column index.  An error
    names its curve, and its distance if it depends on one: that of the
    first bad row.
    """
    distances = _grid("distance_km", start_km, stop_km, steps, log_spaced=True)
    d0 = distances[0]
    curves = []
    for profile, cameras in FIGURE_COMBOS:
        scenario = {"bandwidth_profile": profile, "cameras": cameras}
        try:
            sized = size_link(replace(radio, **BANDWIDTH_PROFILES[profile]),
                              replace(deploy, cameras=cameras))
            columns_of = curve_columns(sized.parts)
        except FoglinkError as exc:
            raise _scenario_context(exc, **scenario) from exc
        try:  # the path gain falls with distance: d0 checks the grid
            _, at_d0 = breakdown_at(sized, d0)
        except FoglinkError as exc:
            raise _scenario_context(exc, distance_km=d0, **scenario) from exc
        curves.append((scenario, sized, at_d0.pa_w, columns_of))
    scales = []
    for d in distances:
        try:
            scales.append((d / d0) ** PATH_LOSS_EXPONENT)
        except OverflowError:
            scales.append(math.inf)

    def curve_cells(curve, scales):
        _, sized, pa_d0_w, columns_of = curve
        head_w = sized.head_w
        pa_w = [pa_d0_w * scale for scale in scales]
        total_w = [head_w + p for p in pa_w]
        if not all(map(math.inf.__gt__, total_w)):
            raise InfeasibleLinkError(
                f"offload power {head_w!r} W + {pa_d0_w!r} W * (distance_km / "
                f"{d0!r}) ** {PATH_LOSS_EXPONENT:g} is not finite"
            )
        return distances, sized.bandwidth_hz, sized.cameras, *columns_of(total_w, pa_w)

    try:
        cells_by_curve = [curve_cells(curve, scales) for curve in curves]
    except FoglinkError:
        # a curve failed: the rows one by one, in order, name the first bad one
        for d, scale in zip(distances, scales):
            for curve in curves:
                try:
                    curve_cells(curve, [scale])
                except FoglinkError as exc:
                    raise _scenario_context(exc, distance_km=d, **curve[0]) from exc
        raise  # not reached: a row repeats its curve's float operations
    fixed = [{i: cell for i, cell in enumerate(cells) if not isinstance(cell, list)}
             for cells in cells_by_curve]
    rows = [*itertools.chain.from_iterable(zip(*(
        zip(*(cell if isinstance(cell, list) else itertools.repeat(cell) for cell in cells))
        for cells in cells_by_curve
    )))]
    return ["distance_km", "bandwidth_hz", "cameras", *columns], rows, fixed


# PowerBreakdown's fields: link-power prints them in this order, fig5 total first
_POWER_FIELDS = list(PowerBreakdown._fields)
_FIG5_FIELDS = ["total_w", *(name for name in _POWER_FIELDS if name != "total_w")]


def sweep_fig5(
    radio: RadioParams, deploy: DeploymentParams, start_km: float, stop_km: float, steps: int
) -> tuple[list[str], list[tuple], list[dict[int, float]]]:
    """Offload power and its per-component shares versus distance; see ``_distance_sweep``."""
    def curve_columns(parts):  # the parts but the amplifier's do not vary along a curve
        fixed = []
        for name, part_w in parts.items():
            if not part_w > 0.0:
                raise DomainError(f"{name} = {part_w!r} W has no dBm value; it is computed "
                                  f"from {_PART_KEYS[name]}")
            fixed.append(watts_to_dbm(part_w))
        return lambda total_w, pa_w: (
            [*map(watts_to_dbm, total_w)], *fixed, [*map(watts_to_dbm, pa_w)],
        )

    return _distance_sweep(
        radio, deploy, start_km, stop_km, steps,
        [f"{name[:-2]}_dbm" for name in _FIG5_FIELDS], curve_columns,
    )


def sweep_fig6(
    radio: RadioParams, deploy: DeploymentParams, start_km: float, stop_km: float, steps: int
) -> tuple[list[str], list[tuple], list[dict[int, float]]]:
    """Breakeven workload complexity versus distance; see ``_distance_sweep``."""
    return _distance_sweep(
        radio, deploy, start_km, stop_km, steps, ["theta_star"],
        lambda parts: lambda total_w, pa_w: ([breakeven_at(t, deploy) for t in total_w],),
    )


def link_power_row(radio: RadioParams, deploy: DeploymentParams) -> tuple[list[str], tuple]:
    """Full diagnostic row for one scenario: channel, operating point, powers."""
    sized = size_link(radio, deploy)
    p_max, down = breakdown_at(sized, deploy.distance_km)
    columns = [
        "distance_km", "carrier_hz", "bandwidth_hz", "cameras", "rate_bps",
        "path_gain_db", "noise_dbm", "p_max_w", "snr_max_db", "ibo_db", "sinr_db",
        "alpha", "sigma2_w", *_POWER_FIELDS, "total_dbm",
    ]
    row = (
        deploy.distance_km, deploy.carrier_hz, radio.bandwidth_hz, deploy.cameras,
        deploy.rate_bps, path_gain_db(deploy.distance_km, deploy.carrier_hz),
        noise_dbm(radio.bandwidth_hz), p_max, linear_to_db(sized.snr_max),
        linear_to_db(sized.ibo), linear_to_db(sized.sinr), sized.alpha, p_max / sized.ibo,
        *down._values(), watts_to_dbm(down.total_w),
    )
    return columns, row


def breakeven_rows(
    radio: RadioParams,
    deploy: DeploymentParams,
    theta_sweep: tuple[float, float, int] | None,
) -> tuple[list[str], list[tuple]]:
    """Breakeven summary, or a workload sweep when a theta range is given."""
    down = offload_power(radio, deploy)
    if theta_sweep is None:
        columns = [
            "distance_km", "bandwidth_hz", "cameras",
            "offload_total_w", "offload_total_dbm", "theta_star",
        ]
        row = (
            deploy.distance_km, radio.bandwidth_hz, deploy.cameras, down.total_w,
            watts_to_dbm(down.total_w), breakeven_at(down.total_w, deploy),
        )
        return columns, [row]
    rows = []
    for theta in _grid("theta", *theta_sweep):
        local = local_power(theta, deploy.rate_bps, deploy.gamma_flops_per_w)
        rows.append((theta, local, down.total_w, local - down.total_w))
    return ["theta", "local_w", "offload_total_w", "local_minus_offload_w"], rows


def mc_verify(
    ibo_db_values: Sequence[float], n_samples: int, seed: int, snr_max_db: float
) -> tuple[list[str], list[tuple], list[str]]:
    """Compare Monte-Carlo estimates against the closed forms per back-off.

    Runs at unit mean input power (sigma2 = 1 W, p_max = IBO), every
    back-off on the same samples in one Monte-Carlo run.  Each input is
    checked here only, before any sampling, and refused by its own name: a
    non-empty back-off list, 2 to 2**32 samples, the SNR ceiling, each
    back-off's closed forms, then the seed.  The ceiling enters only the
    two SINR columns, formed here side by side.  A row passes when alpha,
    distortion power, amplifier power and SINR each land within max(3
    standard errors, 1 percent) of the analytic value.  Returns the
    columns, the rows and the human-readable failure descriptions.
    """
    if not ibo_db_values:
        raise DomainError("--ibo-db produced an empty back-off list")
    if n_samples < 2:  # one sample has no standard error
        raise DomainError(f"--samples must be at least 2, got {n_samples}")
    if n_samples > 2 ** 32:  # 4096 chunks: about a minute of sampling on 2 cores
        raise DomainError(f"--samples must be at most {2 ** 32}, got {n_samples}")
    try:
        snr_max = db_to_linear(snr_max_db)
        if snr_max == 0.0:
            raise DomainError(f"{snr_max_db!r} dB has no positive power ratio")
    except FoglinkError as exc:
        raise _scenario_context(exc, snr_max_db=snr_max_db) from exc
    analytic = []
    clip_powers = []
    for ibo_db in ibo_db_values:
        try:
            ibo = db_to_linear(ibo_db)
            alpha, distortion = pa.clipping(ibo)
            pa_w = pa.pa_consumed_power(ibo, ibo)
            sinr = pa.checked_sinr(alpha, distortion, ibo, snr_max)
        except FoglinkError as exc:
            raise _scenario_context(exc, ibo_db=ibo_db, snr_max_db=snr_max_db) from exc
        analytic.append((ibo_db, ibo, alpha, distortion, pa_w, sinr))
        clip_powers.append(ibo)

    scenario = {"ibo_db": list(ibo_db_values), "snr_max_db": snr_max_db}
    if not (isinstance(seed, int) and 0 <= seed < 2 ** 64):
        message = f"seed must be a 64-bit unsigned integer, got {seed!r}"
        raise _scenario_context(DomainError(message), **scenario)

    from .mc import run_mc  # numpy loads here, on the Monte-Carlo path only

    try:
        estimates = run_mc(clip_powers, n_samples, seed)
    except FoglinkError as exc:
        raise _scenario_context(exc, **scenario) from exc

    rows = []
    failures = []
    for (ibo_db, ibo, alpha, distortion, pa_w, sinr), estimate in zip(analytic, estimates):
        a_hat, stderr_alpha, d_hat, stderr_distortion, pa_hat, stderr_pa = estimate
        noise_w = ibo / snr_max
        sinr_hat = a_hat * a_hat / (d_hat + noise_w)
        # first-order spread of the SINR estimate from its ingredients
        sinr_spread = sinr * math.hypot(
            2.0 * stderr_alpha / alpha, stderr_distortion / (distortion + noise_w)
        )
        checks = (
            ("alpha", alpha, a_hat, stderr_alpha),
            ("distortion_w", distortion, d_hat, stderr_distortion),
            ("pa_w", pa_w, pa_hat, stderr_pa),
            ("sinr", sinr, sinr_hat, sinr_spread),
        )
        row_ok = True
        for name, analytic_value, measured, stderr in checks:
            tolerance = max(3.0 * stderr, 0.01 * abs(analytic_value))
            agrees = (
                math.isfinite(measured)
                and math.isfinite(tolerance)
                and abs(measured - analytic_value) <= tolerance
            )
            if not agrees:
                row_ok = False
                failures.append(
                    f"ibo_db={ibo_db:g}: {name} estimate {measured!r} deviates "
                    f"from analytic {analytic_value!r} by more than {tolerance!r}"
                )
        rows.append((
            ibo_db, alpha, a_hat, stderr_alpha, distortion, d_hat, stderr_distortion,
            pa_w, pa_hat, stderr_pa, sinr, sinr_hat, "pass" if row_ok else "fail",
        ))
    columns = [
        "ibo_db", "alpha_analytic", "alpha_hat", "stderr_alpha",
        "distortion_w_analytic", "distortion_w_hat", "stderr_distortion",
        "pa_w_analytic", "pa_w_hat", "stderr_pa",
        "sinr_analytic", "sinr_hat", "status",
    ]
    return columns, rows, failures


# ---------------------------------------------------------------------------
# CSV rendering


def _row_lines(rows: list[Sequence], curves: Sequence[Mapping[int, object]]) -> list[str]:
    """Each row by its curve's template: row k by that of curve k % len(curves).

    A template takes the cell formats of the first row, ``%s`` for a str
    and ``%.9g`` for a number, with the cells its curve fixes formatted in
    once; a row fills in its other cells.  Every curve fixes the same
    columns, and not all of them.
    """
    if not rows:
        return []
    formats = ["%s" if isinstance(cell, str) else "%.9g" for cell in rows[0]]
    templates = []
    for fixed in curves:
        cells = formats.copy()
        for column, cell in fixed.items():
            cells[column] = formats[column] % (cell,)
        templates.append(",".join(cells))
    if curves[0]:
        rows = map(operator.itemgetter(*(i for i in range(len(formats)) if i not in curves[0])),
                   rows)
    return [*map(operator.mod, itertools.cycle(templates), rows)]


def render_csv(
    columns: Sequence[str], rows: Iterable, curves: Sequence[Mapping[int, object]] = ({},)
) -> str:
    """The header, then one line per row (cells in column order).

    The rows cycle through ``curves``, each the cells that stay fixed along
    a curve, keyed by column index; the default is one curve that fixes
    none.  Rows are formatted by ``_row_lines``.  A finite number prints no
    'n', so when the body holds one, the rows are searched in order for the
    first number that is not finite, which raises NumericError; a str cell
    such as "nan" prints as text.
    """
    rows = list(rows)
    header = ",".join(columns)
    text = "\n".join([header, *_row_lines(rows, curves), ""])
    if text.find("n", len(header) + 1) >= 0:
        for cell in itertools.chain.from_iterable(rows):
            if not (isinstance(cell, str) or math.isfinite(cell)):
                raise NumericError(f"non-finite value {cell!r} in CSV output")
    return text


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise FoglinkError(f"cannot write --out {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the command table


def _run_fig3(args):
    columns, rows, max_gap = sweep_fig3(args.db_from, args.db_to, args.steps)
    text = render_csv(columns, rows)
    text += f"# max_abs_approx_error_db,{max_gap:.9g}\n"  # in place, not copied
    return text, ()


def _run_breakeven(args, radio, deploy):
    theta_sweep = None
    if args.theta_from is not None or args.theta_to is not None:
        if args.theta_from is None or args.theta_to is None:
            raise DomainError("--theta-from and --theta-to must be given together")
        theta_sweep = (args.theta_from, args.theta_to, args.steps)
    return render_csv(*breakeven_rows(radio, deploy, theta_sweep)), ()


def _run_link_power(args, radio, deploy):
    columns, row = link_power_row(radio, deploy)
    return render_csv(columns, [row]), ()


def _run_mc_verify(args):
    try:
        ibo_list = [float(part) for part in args.ibo_db.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"--ibo-db must be a comma-separated float list, "
                          f"got {args.ibo_db!r}") from None
    columns, rows, failures = mc_verify(ibo_list, args.samples, args.seed, args.snr_max_db)
    return render_csv(columns, rows), failures


def _sweep_flags(from_flag, to_flag, start, stop, steps):
    return (
        (from_flag, {"type": float, "default": start}),
        (to_flag, {"type": float, "default": stop}),
        ("--steps", {"type": int, "default": steps}),
    )


_OUT = ("--out", {"metavar": "PATH", "help": "write CSV here instead of stdout"})
_CONFIG = ("--config", {"metavar": "PATH",
                        "help": "flat JSON parameter file (defaults otherwise)"})
_SCENARIO = (
    _CONFIG, _OUT,
    ("--bandwidth-profile", {"choices": sorted(BANDWIDTH_PROFILES),
                             "help": "switch the sample-rate/bandwidth/transform triple"}),
    ("--cameras", {"type": int, "help": "number of cameras sharing the band"}),
    ("--distance-km", {"type": float, "help": "link distance in km"}),
)
_DISTANCES = _sweep_flags("--d-from-km", "--d-to-km", 0.01, 2.0, 50)

# (name, help, flags, run) of each subcommand, in --help order.  A flag is
# (option string, add_argument keywords); a command with --config
# evaluates a scenario.  run(args, *scenario) returns the text to emit and
# the verdicts that fail the run.  The runs call this module's functions
# through its globals, so a wrapper put there after import
# (perfbench/tracer.py) is the one called.
_COMMANDS = (
    ("fig3", "optimal back-off and SINR vs SNR ceiling",
     (_OUT, *_sweep_flags("--db-from", "--db-to", -10.0, 50.0, 601)), _run_fig3),
    ("fig4", "required SINR and back-off vs bandwidth",
     (_CONFIG, _OUT, *_sweep_flags("--b-from-hz", "--b-to-hz", 1e6, 20e6, 39)),
     lambda args, radio, deploy: (render_csv(*sweep_fig4(
         radio, deploy, args.b_from_hz, args.b_to_hz, args.steps)), ())),
    ("fig5", "offload power and components vs distance", (_CONFIG, _OUT, *_DISTANCES),
     lambda args, radio, deploy: (render_csv(*sweep_fig5(
         radio, deploy, args.d_from_km, args.d_to_km, args.steps)), ())),
    ("fig6", "breakeven workload complexity vs distance", (_CONFIG, _OUT, *_DISTANCES),
     lambda args, radio, deploy: (render_csv(*sweep_fig6(
         radio, deploy, args.d_from_km, args.d_to_km, args.steps)), ())),
    ("breakeven", "breakeven complexity for one scenario", (
        *_SCENARIO,
        ("--theta-from", {"type": float, "help": "sweep workload complexity from here"}),
        ("--theta-to", {"type": float, "help": "sweep workload complexity to here"}),
        ("--steps", {"type": int, "default": 50}),
    ), _run_breakeven),
    ("link-power", "channel, operating point and power budget", _SCENARIO,
     _run_link_power),
    ("mc-verify", "Monte-Carlo check of the amplifier model", (
        _OUT,
        ("--ibo-db", {"default": "-3,0,3,6", "help": "comma-separated back-off list in dB"}),
        ("--samples", {"type": int, "default": 10_000_000}),
        ("--seed", {"type": int, "default": 42}),
        ("--snr-max-db", {"type": float, "default": 20.0,
                          "help": "SNR ceiling used for the empirical SINR"}),
    ), _run_mc_verify),
    ("print-defaults", "emit the baseline parameters as JSON",
     (("--out", {"metavar": "PATH"}),), lambda args: (dump_defaults() + "\n", ())),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foglink",
        description="Energy model for offloading camera analytics over an OFDM uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, run in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    return parser


def _attach_numbers(argv: Sequence[str]) -> list[str]:
    """Join ``--db-from -1e1`` (or an abbreviation such as ``--db-f -1e1``)
    into ``--db-from=-1e1`` for any long option, when the value is a number
    or a comma-separated list led by one.

    argparse reads a separate value that starts with '-' as an option unless
    it matches its negative-number pattern, which has no exponent and no
    list, so ``-1e1`` or ``-3,0`` would exit 2 with "expected one argument".
    """
    options = [flag for _, _, flags, _ in _COMMANDS for flag, _ in flags]  # all take values
    joined: list[str] = []
    for arg in argv:
        option = joined[-1] if joined else ""
        if len(option) > 2 and any(flag.startswith(option) for flag in options):
            try:
                float(arg.split(",")[0])
            except ValueError:
                pass
            else:
                joined[-1] = f"{option}={arg}"
                continue
        joined.append(arg)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_numbers(argv))
    try:
        scenario = ()
        if hasattr(args, "config"):
            overrides = {
                key: getattr(args, key)
                for key in ("cameras", "distance_km")
                if getattr(args, key, None) is not None
            }
            scenario = load_params(
                args.config, overrides, getattr(args, "bandwidth_profile", None)
            )
        text, verdicts = args.run(args, *scenario)
        _emit(text, args.out)
    except FoglinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(f"{args.command}: {verdict}", file=sys.stderr)
    return 1 if verdicts else 0


def run() -> None:
    """The ``foglink`` program: ``main()`` in a process of its own, then exit.

    numpy's OpenBLAS gets one thread unless the environment names a count,
    since nothing here calls BLAS.  After the run the heap is frozen, so
    the interpreter's exit-time collection has nothing to scan.  Library
    callers use ``main``, which does neither.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
