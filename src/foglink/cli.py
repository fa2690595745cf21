"""Command-line interface: scenario sweeps, verification, CSV emission.

Every subcommand is deterministic given its flags (and seed, where one
applies): repeated invocations emit byte-identical CSV.  Numeric cells are
rendered with 9 significant digits; results go to stdout unless ``--out``
names a file.
"""

import argparse
import itertools
import math
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import pa
from .chain import (
    DeploymentParams,
    PowerBreakdown,
    RadioParams,
    breakdown_at,
    breakeven_at,
    clip_independent_parts,
    local_power,
    offload_power,
)
from .config import BANDWIDTH_PROFILES, dump_defaults, load_params
from .errors import DomainError, FoglinkError, InfeasibleLinkError, NumericError
from .link import PATH_LOSS_EXPONENT, clip_power, noise_dbm, path_gain_db, snr_ceiling
from .record import replace
from .units import db_to_linear, linear_to_db, watts_to_dbm

# Four curves shown in the distance sweeps: both channelizations at one
# and at ten cameras.
FIGURE_PROFILES = ("9mhz", "18mhz")
FIGURE_CAMERA_COUNTS = (1, 10)
FIGURE_COMBOS = tuple(
    (profile, cameras) for profile in FIGURE_PROFILES for cameras in FIGURE_CAMERA_COUNTS
)


def _linspace(start: float, stop: float, steps: int) -> List[float]:
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
) -> List[float]:
    """The points of a one-dimensional sweep of ``variable``.

    ``steps == 1`` with ``start == stop`` is the degenerate single-point
    sweep; otherwise at least two points and an increasing range are
    required.  Both bounds must be finite; ``variable`` only names the
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
) -> Tuple[List[str], List[tuple], float]:
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
) -> Tuple[List[str], List[tuple]]:
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
    curve_cells: Callable[[PowerBreakdown], Callable[[float, float], tuple]],
) -> Tuple[List[str], List[tuple]]:
    """Rows over log-spaced distances and the FIGURE_COMBOS, each curve solved
    once at the first distance d0 as H + pa_w * (d / d0) ** PATH_LOSS_EXPONENT.

    ``curve_cells(at_d0)`` returns the cells named by ``columns`` as a
    function of a row's total and amplifier powers.  An error names its
    curve, and its distance if it depends on one.
    """
    distances = _grid("distance_km", start_km, stop_km, steps, log_spaced=True)
    d0 = distances[0]
    curves = []
    for profile, cameras in FIGURE_COMBOS:
        scenario = {"bandwidth_profile": profile, "cameras": cameras}
        try:
            curve_radio = replace(radio, **BANDWIDTH_PROFILES[profile])
            curve_deploy = replace(deploy, cameras=cameras, distance_km=d0)
            _, snr_max = snr_ceiling(curve_radio.bandwidth_hz, cameras, deploy.rate_bps,
                                     curve_radio.beta)
            [(ibo, _, _)] = pa.optimal_ibos([snr_max])
            head_w = clip_independent_parts(curve_radio, curve_deploy)[1]
        except FoglinkError as exc:
            raise _scenario_context(exc, **scenario) from exc
        try:  # the path gain falls with distance: d0 checks the grid
            p_max = clip_power(d0, deploy.carrier_hz, curve_radio.bandwidth_hz, snr_max)
            at_d0 = breakdown_at(curve_radio, curve_deploy, ibo, p_max)
        except FoglinkError as exc:
            raise _scenario_context(exc, distance_km=d0, **scenario) from exc
        curves.append((scenario, curve_radio.bandwidth_hz, cameras, head_w, at_d0.pa_w,
                       curve_cells(at_d0)))
    rows = []
    try:
        for d in distances:
            try:
                scale = (d / d0) ** PATH_LOSS_EXPONENT
            except OverflowError:
                scale = math.inf
            for scenario, bandwidth_hz, cameras, head_w, pa_d0_w, cells in curves:
                pa_w = pa_d0_w * scale
                total_w = head_w + pa_w
                if not total_w < math.inf:
                    raise InfeasibleLinkError(
                        f"offload power {head_w!r} W + {pa_d0_w!r} W * (distance_km / "
                        f"{d0!r}) ** {PATH_LOSS_EXPONENT:g} is not finite"
                    )
                rows.append((d, bandwidth_hz, cameras, *cells(total_w, pa_w)))
    except FoglinkError as exc:
        raise _scenario_context(exc, distance_km=d, **scenario) from exc
    return ["distance_km", "bandwidth_hz", "cameras", *columns], rows


# PowerBreakdown's fields: link-power prints them in this order, fig5 total first
_POWER_FIELDS = list(PowerBreakdown._fields)
_FIG5_FIELDS = ["total_w", *(name for name in _POWER_FIELDS if name != "total_w")]


def sweep_fig5(
    radio: RadioParams, deploy: DeploymentParams, start_km: float, stop_km: float, steps: int
) -> Tuple[List[str], List[tuple]]:
    """Offload power and its per-component shares versus distance."""
    def curve_cells(at_d0):  # the parts but the amplifier's do not vary along a curve
        fixed = [watts_to_dbm(getattr(at_d0, f)) for f in _FIG5_FIELDS[1:-1]]
        return lambda total_w, pa_w: (watts_to_dbm(total_w), *fixed, watts_to_dbm(pa_w))

    return _distance_sweep(
        radio, deploy, start_km, stop_km, steps,
        [f"{name[:-2]}_dbm" for name in _FIG5_FIELDS], curve_cells,
    )


def sweep_fig6(
    radio: RadioParams, deploy: DeploymentParams, start_km: float, stop_km: float, steps: int
) -> Tuple[List[str], List[tuple]]:
    """Breakeven workload complexity versus distance."""
    return _distance_sweep(
        radio, deploy, start_km, stop_km, steps, ["theta_star"],
        lambda at_d0: lambda total_w, pa_w: (breakeven_at(total_w, deploy),),
    )


def link_power_row(radio: RadioParams, deploy: DeploymentParams) -> Tuple[List[str], tuple]:
    """Full diagnostic row for one scenario: channel, operating point, powers."""
    _, snr_max = snr_ceiling(radio.bandwidth_hz, deploy.cameras, deploy.rate_bps, radio.beta)
    [(ibo, alpha, sinr)] = pa.optimal_ibos([snr_max])
    p_max = clip_power(deploy.distance_km, deploy.carrier_hz, radio.bandwidth_hz, snr_max)
    down = breakdown_at(radio, deploy, ibo, p_max)
    columns = [
        "distance_km", "carrier_hz", "bandwidth_hz", "cameras", "rate_bps",
        "path_gain_db", "noise_dbm", "p_max_w", "snr_max_db", "ibo_db", "sinr_db",
        "alpha", "sigma2_w", *_POWER_FIELDS, "total_dbm",
    ]
    row = (
        deploy.distance_km, deploy.carrier_hz, radio.bandwidth_hz, deploy.cameras,
        deploy.rate_bps, path_gain_db(deploy.distance_km, deploy.carrier_hz),
        noise_dbm(radio.bandwidth_hz), p_max, linear_to_db(snr_max), linear_to_db(ibo),
        linear_to_db(sinr), alpha, p_max / ibo, *down._values(), watts_to_dbm(down.total_w),
    )
    return columns, row


def breakeven_rows(
    radio: RadioParams,
    deploy: DeploymentParams,
    theta_sweep: Optional[Tuple[float, float, int]],
) -> Tuple[List[str], List[tuple]]:
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
) -> Tuple[List[str], List[tuple], List[str]]:
    """Compare Monte-Carlo estimates against the closed forms per back-off.

    Runs at unit mean input power (sigma2 = 1 W, p_max = IBO), every
    back-off on the same samples in one Monte-Carlo run.  The SNR ceiling,
    each back-off's closed forms, then the run's configuration (which
    refuses an empty back-off list) are checked before any sampling, so a
    bad entry or flag is refused at once, by its own name.  A row passes
    when alpha, distortion power, amplifier power and SINR each land within
    max(3 standard errors, 1 percent) of the analytic value.  Returns the
    columns, the rows and the human-readable failure descriptions.
    """
    from .mc import McConfig, run_mc  # numpy loads here, on the Monte-Carlo path only

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
            denominator = distortion + ibo / snr_max  # as sinr_of_ibo forms the SINR
            sinr = alpha * alpha / denominator if denominator else math.nan
            if not 0.0 < sinr < math.inf:
                raise DomainError(f"SINR degenerated to {sinr!r} at ibo = {ibo!r}, "
                                  f"snr_max = {snr_max!r}")
        except FoglinkError as exc:
            raise _scenario_context(exc, ibo_db=ibo_db, snr_max_db=snr_max_db) from exc
        analytic.append((ibo_db, ibo, alpha, distortion, pa_w, sinr))
        clip_powers.append(ibo)
    try:
        estimates = run_mc(McConfig(
            clip_powers_w=clip_powers, n_samples=n_samples, seed=seed, snr_max_linear=snr_max
        ))
    except FoglinkError as exc:
        raise _scenario_context(
            exc, ibo_db=list(ibo_db_values), snr_max_db=snr_max_db
        ) from exc

    rows = []
    failures = []
    for (ibo_db, ibo, alpha, distortion, pa_w, sinr), estimate in zip(analytic, estimates):
        noise_w = ibo / snr_max
        # first-order spread of the SINR estimate from its ingredients
        sinr_spread = sinr * math.hypot(
            2.0 * estimate.stderr_alpha / alpha,
            estimate.stderr_distortion / (distortion + noise_w),
        )
        checks = (
            ("alpha", alpha, estimate.alpha_hat, estimate.stderr_alpha),
            ("distortion_w", distortion, estimate.distortion_power_hat,
             estimate.stderr_distortion),
            ("pa_w", pa_w, estimate.pa_power_hat, estimate.stderr_pa),
            ("sinr", sinr, estimate.sinr_hat, sinr_spread),
        )
        row_ok = True
        for name, analytic, measured, stderr in checks:
            tolerance = max(3.0 * stderr, 0.01 * abs(analytic))
            agrees = (
                math.isfinite(measured)
                and math.isfinite(tolerance)
                and abs(measured - analytic) <= tolerance
            )
            if not agrees:
                row_ok = False
                failures.append(
                    f"ibo_db={ibo_db:g}: {name} estimate {measured!r} deviates "
                    f"from analytic {analytic!r} by more than {tolerance!r}"
                )
        rows.append((
            ibo_db, alpha, estimate.alpha_hat, estimate.stderr_alpha,
            distortion, estimate.distortion_power_hat, estimate.stderr_distortion,
            pa_w, estimate.pa_power_hat, estimate.stderr_pa,
            sinr, estimate.sinr_hat, "pass" if row_ok else "fail",
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


def _format_cell(value) -> str:
    """A str as is, a number at 9 significant digits; bool and inf/nan raise."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise NumericError(f"boolean cell {value!r} has no CSV rendering")
    number = float(value)
    if not math.isfinite(number):
        raise NumericError(f"non-finite value {value!r} in CSV output")
    return f"{number:.9g}"


def render_csv(columns: Sequence[str], rows: Iterable, trailer: Sequence[str] = ()) -> str:
    """The header, one line per row (cells in column order), then the trailer.

    A row of numbers is one ``%.9g`` template format, the bytes of
    ``_format_cell``.  A finite number prints no 'n', so an 'n' in the body
    means an inf or a nan: such a table, or one with a boolean or a cell
    ``%`` refuses (a str), goes cell by cell, which names the first bad cell.
    """
    rows = list(rows)
    header = ",".join(columns)
    template = ",".join(["%.9g"] * len(columns))
    try:
        lines = [*map(template.__mod__, rows)]
    except (TypeError, OverflowError):  # a str, a huge int or a row of another length
        pass
    else:
        text = "\n".join([header, *lines, *trailer, ""])
        body_end = len(text) - len(trailer) - sum(map(len, trailer))
        cell_types = map(type, itertools.chain.from_iterable(rows))
        if text.find("n", len(header) + 1, body_end) < 0 and bool not in cell_types:
            return text
    lines = [",".join(map(_format_cell, row)) for row in rows]
    return "\n".join([header, *lines, *trailer, ""])


def _emit(text: str, out_path: Optional[str]) -> None:
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
    return columns, rows, [f"# max_abs_approx_error_db,{max_gap:.9g}"], ()


def _run_breakeven(args, radio, deploy):
    theta_sweep = None
    if args.theta_from is not None or args.theta_to is not None:
        if args.theta_from is None or args.theta_to is None:
            raise DomainError("--theta-from and --theta-to must be given together")
        theta_sweep = (args.theta_from, args.theta_to, args.steps)
    return (*breakeven_rows(radio, deploy, theta_sweep), (), ())


def _run_link_power(args, radio, deploy):
    columns, row = link_power_row(radio, deploy)
    return columns, [row], (), ()


def _run_mc_verify(args):
    try:
        ibo_list = [float(part) for part in args.ibo_db.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"--ibo-db must be a comma-separated float list, "
                          f"got {args.ibo_db!r}") from None
    if not ibo_list:
        raise DomainError("--ibo-db produced an empty back-off list")
    if args.samples < 2:  # one sample has no standard error
        raise DomainError(f"--samples must be at least 2, got {args.samples}")
    columns, rows, failures = mc_verify(ibo_list, args.samples, args.seed, args.snr_max_db)
    return columns, rows, (), failures


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

# (name, help, flags, run) of each CSV subcommand, in --help order.  A flag
# is (option string, add_argument keywords); a command with --config
# evaluates a scenario.  run(args, *scenario) returns the CSV columns, the
# rows in column order, the trailer lines and the verdicts that fail the
# run.  The runs call this module's functions through its globals, so a
# wrapper put there after import (perfbench/tracer.py) is the one called.
_COMMANDS = (
    ("fig3", "optimal back-off and SINR vs SNR ceiling",
     (_OUT, *_sweep_flags("--db-from", "--db-to", -10.0, 50.0, 601)), _run_fig3),
    ("fig4", "required SINR and back-off vs bandwidth",
     (_CONFIG, _OUT, *_sweep_flags("--b-from-hz", "--b-to-hz", 1e6, 20e6, 39)),
     lambda args, radio, deploy: (*sweep_fig4(
         radio, deploy, args.b_from_hz, args.b_to_hz, args.steps), (), ())),
    ("fig5", "offload power and components vs distance", (_CONFIG, _OUT, *_DISTANCES),
     lambda args, radio, deploy: (*sweep_fig5(
         radio, deploy, args.d_from_km, args.d_to_km, args.steps), (), ())),
    ("fig6", "breakeven workload complexity vs distance", (_CONFIG, _OUT, *_DISTANCES),
     lambda args, radio, deploy: (*sweep_fig6(
         radio, deploy, args.d_from_km, args.d_to_km, args.steps), (), ())),
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
    p = sub.add_parser("print-defaults", help="emit the baseline parameters as JSON")
    p.add_argument("--out", metavar="PATH")
    return parser


def _attach_numbers(argv: Sequence[str]) -> List[str]:
    """Join ``--db-from -1e1`` (or an abbreviation such as ``--db-f -1e1``)
    into ``--db-from=-1e1`` for any long option, when the value is a number
    or a comma-separated list led by one.

    argparse reads a separate value that starts with '-' as an option unless
    it matches its negative-number pattern, which has no exponent and no
    list, so ``-1e1`` or ``-3,0`` would exit 2 with "expected one argument".
    """
    options = [flag for _, _, flags, _ in _COMMANDS for flag, _ in flags]  # all take values
    joined: List[str] = []
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_numbers(argv))
    try:
        if args.command == "print-defaults":
            _emit(dump_defaults() + "\n", args.out)
            return 0
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
        columns, rows, trailer, verdicts = args.run(args, *scenario)
        _emit(render_csv(columns, rows, trailer), args.out)
    except FoglinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(f"{args.command}: {verdict}", file=sys.stderr)
    return 1 if verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
