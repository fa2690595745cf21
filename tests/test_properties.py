"""Model invariants as hypothesis properties over valid inputs.

Each property states a shape the model promises of valid output and needs
no oracle:

* the optimal back-off of fig3 rises strictly with the SNR ceiling, also
  at every 0.01 dB of the solvable range;
* the offload total of fig5 rises strictly with distance along each curve;
* each fig6 breakeven theta* is Gamma * P / R of the matching fig5 total,
  to the 9 significant digits the CSV prints;
* the SINR a rate demand requires rises strictly with one more camera and
  with a rate at least 0.1 % higher, and falls strictly with a bandwidth at
  least 0.1 % wider;
* an mc-verify row does not depend on which other back-offs share the run,
  or on their order (the determinism contract).

The examples are derandomized, as in ``tests/test_cli_fuzz.py``, so the
suite is deterministic.
"""

import math

from hypothesis import example, given, settings, strategies as st

import foglink.cli as cli
from foglink import dbm_to_watts, load_params, replace, required_sinr
from foglink.pa import MAX_SNR_CEILING, MIN_SNR_CEILING

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)

LOWEST_DB = math.ceil(100.0 * 10.0 * math.log10(MIN_SNR_CEILING)) / 100.0  # -39.47
HIGHEST_DB = 10.0 * math.log10(MAX_SNR_CEILING)  # 156.5
MIN_SPACING_DB = 0.01


@st.composite
def ceiling_grids(draw):
    """fig3 (start, stop, steps) inside the solvable range, with points at
    least MIN_SPACING_DB apart."""
    start = draw(st.floats(LOWEST_DB, HIGHEST_DB - MIN_SPACING_DB))
    most = int((HIGHEST_DB - start) / MIN_SPACING_DB) + 1
    steps = draw(st.integers(2, max(2, min(64, most))))
    spacing = draw(st.floats(MIN_SPACING_DB, (HIGHEST_DB - start) / (steps - 1)))
    return start, min(start + spacing * (steps - 1), HIGHEST_DB), steps


# deployment values whose four fig5/fig6 curves are all solvable
SCENARIOS = st.fixed_dictionaries({
    "rate_bps": st.floats(1e5, 8e6),
    "beta": st.floats(0.3, 1.0),
    "p_video_w": st.floats(0.01, 1.0),
    "gamma_flops_per_w": st.floats(1e8, 1e11),
})


@st.composite
def distance_sweeps(draw):
    """A valid scenario and a log-spaced distance grid of 2..64 points."""
    values = draw(SCENARIOS)
    radio, deploy = load_params()
    radio = replace(radio, beta=values.pop("beta"))
    deploy = replace(deploy, **values)
    start = draw(st.floats(0.01, 1.0))
    stop = start * draw(st.floats(1.5, 200.0))
    return radio, deploy, start, stop, draw(st.integers(2, 64))


@PROPERTY
@given(ceiling_grids())
@example((LOWEST_DB, HIGHEST_DB, 19_598))  # every 0.01 dB of the solvable range
def test_fig3_optimal_backoff_rises_with_the_ceiling(grid):
    _, rows, _ = cli.sweep_fig3(*grid)
    flat = [(a, b) for a, b in zip(rows, rows[1:]) if not b[1] > a[1]]
    assert not flat, flat[:5]


@PROPERTY
@given(distance_sweeps())
def test_fig5_total_rises_with_distance_along_each_curve(sweep):
    columns, rows, _ = cli.sweep_fig5(*sweep)
    total = columns.index("total_dbm")
    for curve in range(len(cli.FIGURE_COMBOS)):  # rows cycle through the curves
        totals = [row[total] for row in rows[curve::len(cli.FIGURE_COMBOS)]]
        assert all(b > a for a, b in zip(totals, totals[1:])), (curve, totals)


@PROPERTY
@given(distance_sweeps())
def test_fig6_theta_is_the_breakeven_of_the_fig5_total(sweep):
    deploy = sweep[1]
    columns, fig5, _ = cli.sweep_fig5(*sweep)
    _, fig6, _ = cli.sweep_fig6(*sweep)
    total = columns.index("total_dbm")
    assert [row[:3] for row in fig6] == [row[:3] for row in fig5]
    for row5, row6 in zip(fig5, fig6):
        theta = deploy.gamma_flops_per_w * dbm_to_watts(row5[total]) / deploy.rate_bps
        assert f"{row6[3]:.9g}" == f"{theta:.9g}", (row5, row6)


@st.composite
def rate_demands(draw):
    """(bandwidth_hz, cameras, rate_bps, beta, step) of a demand that stays
    feasible with one more camera and its rate raised by ``step``: the rate
    is drawn as a share of the largest such rate, at an exponent of 59."""
    bandwidth = draw(st.floats(1e5, 1e8))
    cameras = draw(st.integers(1, 100))
    beta = draw(st.floats(0.1, 1.0))
    step = draw(st.floats(1.001, 2.0))
    largest = 59.0 * beta * bandwidth / ((cameras + 1) * step)
    return bandwidth, cameras, largest * draw(st.floats(1e-6, 1.0)), beta, step


@PROPERTY
@given(rate_demands())
def test_required_sinr_rises_with_the_demand_and_falls_with_the_bandwidth(demand):
    bandwidth, cameras, rate, beta, step = demand
    sinr = required_sinr(bandwidth, cameras, rate, beta)
    assert required_sinr(bandwidth, cameras + 1, rate, beta) > sinr
    assert required_sinr(bandwidth, cameras, rate * step, beta) > sinr
    assert required_sinr(bandwidth * step, cameras, rate, beta) < sinr


# duplicates are likely: the benchmark's back-offs are drawn often
BACKOFFS_DB = st.lists(
    st.one_of(st.sampled_from([-3.0, 0.0, 3.0, 6.0, 12.0]), st.floats(-10.0, 20.0)),
    min_size=1, max_size=4,
)


@PROPERTY
@given(
    BACKOFFS_DB,
    st.integers(0, 2 ** 64 - 1),
    st.integers(2, 5000),
    st.floats(-10.0, 50.0),
    st.data(),
)
def test_mc_verify_row_depends_only_on_its_own_backoff(backoffs, seed, n, snr_max_db, data):
    _, rows, _ = cli.mc_verify(backoffs, n, seed, snr_max_db)
    for ibo_db, row in zip(backoffs, rows):
        assert cli.mc_verify([ibo_db], n, seed, snr_max_db)[1] == [row]
    order = data.draw(st.permutations(range(len(backoffs))))
    _, permuted, _ = cli.mc_verify([backoffs[i] for i in order], n, seed, snr_max_db)
    assert permuted == [rows[i] for i in order]
