"""Command-line interface: scenario sweeps, verification, CSV emission.

Every subcommand is deterministic given its flags (and seed, where one
applies): repeated invocations emit byte-identical CSV.  Numeric cells are
rendered with 9 significant digits; results go to stdout unless ``--out``
names a file.
"""

import argparse
import math
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import pa
from .chain import (
    DeploymentParams,
    PowerBreakdown,
    RadioParams,
    breakdown_at,
    breakeven_at,
    link_geometry,
    local_power,
    offload_power,
)
from .config import BANDWIDTH_PROFILES, dump_defaults, load_params
from .errors import DomainError, FoglinkError, InfeasibleLinkError, NumericError
from .link import clip_power, noise_dbm, operating_point, path_gain_db, required_sinr
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
    start_db: float = -10.0, stop_db: float = 50.0, steps: int = 601
) -> Tuple[List[Dict], float]:
    """Optimal back-off and SINR versus the SNR ceiling, exact and approximate.

    Returns the rows plus the maximum absolute gap between the exact and
    the affine-approximated SINR over the sweep.
    """
    rows = []
    max_gap = 0.0
    for x in _grid("snr_max_db", start_db, stop_db, steps):
        try:
            point = pa.optimal_ibo(db_to_linear(x))
        except FoglinkError as exc:
            raise _scenario_context(exc, snr_max_db=x) from exc
        exact_db = linear_to_db(point.sinr_linear)
        approx_db = pa.sinr_approx_db(x)
        max_gap = max(max_gap, abs(exact_db - approx_db))
        rows.append(
            {
                "snr_max_db": x,
                "ibo_db_optimal": linear_to_db(point.ibo_linear),
                "sinr_db_exact": exact_db,
                "sinr_db_approx": approx_db,
            }
        )
    return rows, max_gap


def sweep_fig4(
    radio: RadioParams,
    deploy: DeploymentParams,
    start_hz: float = 1e6,
    stop_hz: float = 20e6,
    steps: int = 39,
) -> List[Dict]:
    """Required SINR and the resulting optimal back-off versus bandwidth.

    Grid points where a camera count cannot meet the rate at all (rate
    exponent overflow, or an SNR ceiling beyond the resolvable range) are
    omitted rather than aborting the sweep, so narrow bandwidths still
    show the feasible curve.
    """
    base = link_geometry(radio, deploy)
    rows = []
    for b in _grid("bandwidth_hz", start_hz, stop_hz, steps):
        for cameras in FIGURE_CAMERA_COUNTS:
            try:
                geometry = replace(base, bandwidth_hz=b, cameras=cameras)
                sinr_db = linear_to_db(required_sinr(geometry))
                point = operating_point(geometry)
            except InfeasibleLinkError:
                continue
            except FoglinkError as exc:
                raise _scenario_context(exc, bandwidth_hz=b, cameras=cameras) from exc
            rows.append(
                {
                    "bandwidth_hz": b,
                    "cameras": cameras,
                    "sinr_db": sinr_db,
                    "ibo_db": linear_to_db(point.ibo_linear),
                }
            )
    return rows


def _distance_sweep(
    radio: RadioParams,
    deploy: DeploymentParams,
    start_km: float,
    stop_km: float,
    steps: int,
    cells: Callable[[PowerBreakdown], Dict],
) -> List[Dict]:
    """Rows of ``cells`` over log-spaced distances and the FIGURE_COMBOS.

    A curve's radio, fleet, link and amplifier point are built once, since
    the point depends on the rate demand alone; a row sizes only the clip
    power at its distance.
    """
    distances = _grid("distance_km", start_km, stop_km, steps, log_spaced=True)
    profile_radios = {}
    for profile in FIGURE_PROFILES:
        try:
            profile_radios[profile] = replace(radio, **BANDWIDTH_PROFILES[profile])
        except FoglinkError as exc:
            raise _scenario_context(exc, bandwidth_profile=profile) from exc
    curves = []
    for profile, cameras in FIGURE_COMBOS:
        curve_radio = profile_radios[profile]
        try:
            curve_deploy = replace(deploy, cameras=cameras)
            geometry = link_geometry(curve_radio, curve_deploy)
            point = operating_point(geometry)
        except FoglinkError as exc:
            raise _scenario_context(exc, bandwidth_profile=profile, cameras=cameras) from exc
        curves.append((profile, cameras, curve_radio, curve_deploy, geometry, point))
    rows = []
    for d in distances:
        for profile, cameras, curve_radio, curve_deploy, geometry, point in curves:
            try:
                p_max = clip_power(replace(geometry, distance_km=d), point.snr_max_linear)
                row = cells(breakdown_at(curve_radio, curve_deploy, point, p_max))
            except FoglinkError as exc:
                raise _scenario_context(
                    exc, distance_km=d, bandwidth_profile=profile, cameras=cameras
                ) from exc
            rows.append(
                {
                    "distance_km": d,
                    "bandwidth_hz": curve_radio.bandwidth_hz,
                    "cameras": cameras,
                    **row,
                }
            )
    return rows


# (CSV column, PowerBreakdown field) of the fig5 power cells
_FIG5_CELLS = tuple(
    (f"{part}_dbm", f"{part}_w")
    for part in ("total", "video", "cod", "ofdm", "dac", "lo", "mix", "pa")
)


def _fig5_cells(down: PowerBreakdown) -> Dict:
    return {column: watts_to_dbm(getattr(down, field)) for column, field in _FIG5_CELLS}


def sweep_fig5(
    radio: RadioParams,
    deploy: DeploymentParams,
    start_km: float = 0.01,
    stop_km: float = 2.0,
    steps: int = 50,
) -> List[Dict]:
    """Offload power and its per-component shares versus distance."""
    return _distance_sweep(radio, deploy, start_km, stop_km, steps, _fig5_cells)


def sweep_fig6(
    radio: RadioParams,
    deploy: DeploymentParams,
    start_km: float = 0.01,
    stop_km: float = 2.0,
    steps: int = 50,
) -> List[Dict]:
    """Breakeven workload complexity versus distance."""
    return _distance_sweep(
        radio, deploy, start_km, stop_km, steps,
        lambda down: {"theta_star": breakeven_at(down.total_w, deploy)},
    )


def link_power_row(radio: RadioParams, deploy: DeploymentParams) -> Dict:
    """Full diagnostic row for one scenario: channel, operating point, powers."""
    geometry = link_geometry(radio, deploy)
    point = operating_point(geometry)
    p_max = clip_power(geometry, point.snr_max_linear)
    down = breakdown_at(radio, deploy, point, p_max)
    return {
        "distance_km": deploy.distance_km,
        "carrier_hz": deploy.carrier_hz,
        "bandwidth_hz": radio.bandwidth_hz,
        "cameras": deploy.cameras,
        "rate_bps": deploy.rate_bps,
        "path_gain_db": path_gain_db(geometry.distance_km, geometry.carrier_hz),
        "noise_dbm": noise_dbm(geometry.bandwidth_hz),
        "p_max_w": p_max,
        "snr_max_db": linear_to_db(point.snr_max_linear),
        "ibo_db": linear_to_db(point.ibo_linear),
        "sinr_db": linear_to_db(point.sinr_linear),
        "alpha": point.alpha,
        "sigma2_w": p_max / point.ibo_linear,
        "video_w": down.video_w,
        "cod_w": down.cod_w,
        "ofdm_w": down.ofdm_w,
        "dac_w": down.dac_w,
        "lo_w": down.lo_w,
        "mix_w": down.mix_w,
        "pa_w": down.pa_w,
        "total_w": down.total_w,
        "total_dbm": watts_to_dbm(down.total_w),
    }


def breakeven_rows(
    radio: RadioParams,
    deploy: DeploymentParams,
    theta_sweep: Optional[Tuple[float, float, int]] = None,
) -> Tuple[List[str], List[Dict]]:
    """Breakeven summary, or a workload sweep when a theta range is given."""
    down = offload_power(radio, deploy)
    if theta_sweep is None:
        columns = [
            "distance_km", "bandwidth_hz", "cameras",
            "offload_total_w", "offload_total_dbm", "theta_star",
        ]
        row = {
            "distance_km": deploy.distance_km,
            "bandwidth_hz": radio.bandwidth_hz,
            "cameras": deploy.cameras,
            "offload_total_w": down.total_w,
            "offload_total_dbm": watts_to_dbm(down.total_w),
            "theta_star": breakeven_at(down.total_w, deploy),
        }
        return columns, [row]
    start, stop, steps = theta_sweep
    columns = ["theta", "local_w", "offload_total_w", "local_minus_offload_w"]
    rows = []
    for theta in _grid("theta", start, stop, steps):
        local = local_power(theta, deploy.rate_bps, deploy.gamma_flops_per_w)
        rows.append(
            {
                "theta": theta,
                "local_w": local,
                "offload_total_w": down.total_w,
                "local_minus_offload_w": local - down.total_w,
            }
        )
    return columns, rows


def mc_verify(
    ibo_db_values: Sequence[float],
    n_samples: int,
    seed: int,
    snr_max_db: float = 20.0,
) -> Tuple[List[Dict], List[str]]:
    """Compare Monte-Carlo estimates against the closed forms per back-off.

    Runs at unit mean input power (sigma2 = 1 W, p_max = IBO), every
    back-off on the same samples in one Monte-Carlo run.  The back-off list
    and the SNR ceiling, each back-off's closed forms, then the run's
    configuration are checked before any sampling, so a bad entry or flag
    is refused at once.  A row passes when alpha, distortion power,
    amplifier power and SINR each land within max(3 standard errors,
    1 percent) of the analytic value.  Returns the rows and a list of
    human-readable failure descriptions.
    """
    from .mc import McConfig, run_mc  # numpy loads here, on the Monte-Carlo path only

    sigma2 = 1.0
    if not ibo_db_values:
        raise DomainError("the back-off list ibo_db_values is empty")
    try:
        snr_max = db_to_linear(snr_max_db)
    except FoglinkError as exc:
        raise _scenario_context(
            exc, ibo_db=list(ibo_db_values), snr_max_db=snr_max_db
        ) from exc
    analytic = []
    clip_powers = []
    for ibo_db in ibo_db_values:
        try:
            ibo = db_to_linear(ibo_db)
            alpha = pa.bussgang_alpha(ibo)
            pa_w = pa.pa_consumed_power(ibo * sigma2, ibo)
            sinr = pa.sinr_of_ibo(ibo, snr_max)
        except FoglinkError as exc:
            raise _scenario_context(exc, ibo_db=ibo_db, snr_max_db=snr_max_db) from exc
        analytic.append((ibo_db, ibo, alpha, pa_w, sinr))
        clip_powers.append(ibo * sigma2)
    try:
        config = McConfig(
            sigma2_w=sigma2,
            clip_powers_w=clip_powers,
            n_samples=n_samples,
            seed=seed,
            snr_max_linear=snr_max,
        )
        estimates = run_mc(config)
    except FoglinkError as exc:
        raise _scenario_context(
            exc, ibo_db=list(ibo_db_values), snr_max_db=snr_max_db
        ) from exc

    rows = []
    failures = []
    for (ibo_db, ibo, alpha, pa_w, sinr), estimate in zip(analytic, estimates):
        distortion = sigma2 * pa.distortion_power(ibo)
        noise_w = ibo * sigma2 / snr_max
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
        rows.append(
            {
                "ibo_db": ibo_db,
                "alpha_analytic": alpha,
                "alpha_hat": estimate.alpha_hat,
                "stderr_alpha": estimate.stderr_alpha,
                "distortion_w_analytic": distortion,
                "distortion_w_hat": estimate.distortion_power_hat,
                "stderr_distortion": estimate.stderr_distortion,
                "pa_w_analytic": pa_w,
                "pa_w_hat": estimate.pa_power_hat,
                "stderr_pa": estimate.stderr_pa,
                "sinr_analytic": sinr,
                "sinr_hat": estimate.sinr_hat,
                "status": "pass" if row_ok else "fail",
            }
        )
    return rows, failures


# ---------------------------------------------------------------------------
# CSV rendering


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise NumericError(f"boolean cell {value!r} has no CSV rendering")
    number = float(value)
    if not math.isfinite(number):
        raise NumericError(f"non-finite value {value!r} in CSV output")
    return f"{number:.9g}"


def render_csv(columns: Sequence[str], rows: Sequence[Mapping], trailer: Sequence[str] = ()) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    lines.extend(trailer)
    return "\n".join(lines) + "\n"


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
# argument parsing


def _add_common(parser, config=True):
    if config:
        parser.add_argument("--config", metavar="PATH",
                            help="flat JSON parameter file (defaults otherwise)")
    parser.add_argument("--out", metavar="PATH",
                        help="write CSV here instead of stdout")


def _add_scenario(parser):
    parser.add_argument("--bandwidth-profile", choices=sorted(BANDWIDTH_PROFILES),
                        help="switch the sample-rate/bandwidth/transform triple")
    parser.add_argument("--cameras", type=int, help="number of cameras sharing the band")
    parser.add_argument("--distance-km", type=float, help="link distance in km")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foglink",
        description="Energy model for offloading camera analytics over an OFDM uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # (name, help, takes --config, sweep range flags and defaults, steps)
    for name, help_text, config, (lo_flag, hi_flag), (lo, hi), steps in (
        ("fig3", "optimal back-off and SINR vs SNR ceiling", False,
         ("--db-from", "--db-to"), (-10.0, 50.0), 601),
        ("fig4", "required SINR and back-off vs bandwidth", True,
         ("--b-from-hz", "--b-to-hz"), (1e6, 20e6), 39),
        ("fig5", "offload power and components vs distance", True,
         ("--d-from-km", "--d-to-km"), (0.01, 2.0), 50),
        ("fig6", "breakeven workload complexity vs distance", True,
         ("--d-from-km", "--d-to-km"), (0.01, 2.0), 50),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, config=config)
        p.add_argument(lo_flag, type=float, default=lo)
        p.add_argument(hi_flag, type=float, default=hi)
        p.add_argument("--steps", type=int, default=steps)

    p = sub.add_parser("breakeven", help="breakeven complexity for one scenario")
    _add_common(p)
    _add_scenario(p)
    p.add_argument("--theta-from", type=float, help="sweep workload complexity from here")
    p.add_argument("--theta-to", type=float, help="sweep workload complexity to here")
    p.add_argument("--steps", type=int, default=50)

    p = sub.add_parser("link-power", help="channel, operating point and power budget")
    _add_common(p)
    _add_scenario(p)

    p = sub.add_parser("mc-verify", help="Monte-Carlo check of the amplifier model")
    _add_common(p, config=False)
    p.add_argument("--ibo-db", default="-3,0,3,6",
                   help="comma-separated back-off list in dB")
    p.add_argument("--samples", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--snr-max-db", type=float, default=20.0,
                   help="SNR ceiling used for the empirical SINR")

    p = sub.add_parser("print-defaults", help="emit the baseline parameters as JSON")
    p.add_argument("--out", metavar="PATH")

    return parser


def _attach_backoff_list(argv: Sequence[str]) -> List[str]:
    """Join ``--ibo-db -3,0`` (or an abbreviation such as ``--ibo -3,0``)
    into ``--ibo-db=-3,0``.

    argparse reads a separate value that starts with '-' as an option unless
    it is a single number, so a back-off list led by a negative entry would
    exit 2 with "expected one argument".
    """
    joined: List[str] = []
    for arg in argv:
        if joined and len(joined[-1]) > 2 and "--ibo-db".startswith(joined[-1]):
            try:
                float(arg.split(",")[0])
            except ValueError:
                pass
            else:
                joined[-1] = f"--ibo-db={arg}"
                continue
        joined.append(arg)
    return joined


FIG3_COLUMNS = ["snr_max_db", "ibo_db_optimal", "sinr_db_exact", "sinr_db_approx"]
FIG4_COLUMNS = ["bandwidth_hz", "cameras", "sinr_db", "ibo_db"]
FIG5_COLUMNS = ["distance_km", "bandwidth_hz", "cameras", *(c for c, _ in _FIG5_CELLS)]
FIG6_COLUMNS = ["distance_km", "bandwidth_hz", "cameras", "theta_star"]
LINK_POWER_COLUMNS = [
    "distance_km", "carrier_hz", "bandwidth_hz", "cameras", "rate_bps",
    "path_gain_db", "noise_dbm", "p_max_w", "snr_max_db", "ibo_db", "sinr_db",
    "alpha", "sigma2_w", "video_w", "cod_w", "ofdm_w", "dac_w", "lo_w",
    "mix_w", "pa_w", "total_w", "total_dbm",
]
MC_VERIFY_COLUMNS = [
    "ibo_db", "alpha_analytic", "alpha_hat", "stderr_alpha",
    "distortion_w_analytic", "distortion_w_hat", "stderr_distortion",
    "pa_w_analytic", "pa_w_hat", "stderr_pa",
    "sinr_analytic", "sinr_hat", "status",
]


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_backoff_list(argv))
    try:
        if hasattr(args, "config"):  # the commands that evaluate a scenario
            overrides = {
                key: getattr(args, key)
                for key in ("cameras", "distance_km")
                if getattr(args, key, None) is not None
            }
            radio, deploy = load_params(
                args.config, overrides, getattr(args, "bandwidth_profile", None)
            )
        if args.command == "fig3":
            rows, max_gap = sweep_fig3(args.db_from, args.db_to, args.steps)
            trailer = [f"# max_abs_approx_error_db,{max_gap:.9g}"]
            _emit(render_csv(FIG3_COLUMNS, rows, trailer), args.out)
        elif args.command == "fig4":
            rows = sweep_fig4(radio, deploy, args.b_from_hz, args.b_to_hz, args.steps)
            _emit(render_csv(FIG4_COLUMNS, rows), args.out)
        elif args.command in ("fig5", "fig6"):
            sweep, columns = {
                "fig5": (sweep_fig5, FIG5_COLUMNS), "fig6": (sweep_fig6, FIG6_COLUMNS),
            }[args.command]
            rows = sweep(radio, deploy, args.d_from_km, args.d_to_km, args.steps)
            _emit(render_csv(columns, rows), args.out)
        elif args.command == "breakeven":
            theta_sweep = None
            if args.theta_from is not None or args.theta_to is not None:
                if args.theta_from is None or args.theta_to is None:
                    raise DomainError("--theta-from and --theta-to must be given together")
                theta_sweep = (args.theta_from, args.theta_to, args.steps)
            columns, rows = breakeven_rows(radio, deploy, theta_sweep)
            _emit(render_csv(columns, rows), args.out)
        elif args.command == "link-power":
            _emit(render_csv(LINK_POWER_COLUMNS, [link_power_row(radio, deploy)]), args.out)
        elif args.command == "mc-verify":
            try:
                ibo_list = [float(part) for part in args.ibo_db.split(",") if part.strip()]
            except ValueError:
                raise DomainError(f"--ibo-db must be a comma-separated float list, "
                                  f"got {args.ibo_db!r}") from None
            if not ibo_list:
                raise DomainError("--ibo-db produced an empty back-off list")
            if args.samples < 2:  # one sample has no standard error
                raise DomainError(f"--samples must be at least 2, got {args.samples}")
            rows, failures = mc_verify(ibo_list, args.samples, args.seed, args.snr_max_db)
            _emit(render_csv(MC_VERIFY_COLUMNS, rows), args.out)
            if failures:
                for failure in failures:
                    print(f"mc-verify: {failure}", file=sys.stderr)
                return 1
        elif args.command == "print-defaults":
            _emit(dump_defaults() + "\n", args.out)
    except FoglinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
