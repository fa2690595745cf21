"""Link budget: path gain, noise, rate inversion, clip-power sizing."""

import math

import numpy as np
import pytest

from foglink import (
    DomainError,
    InfeasibleLinkError,
    MIN_DISTANCE_KM,
    clip_power,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    load_params,
    noise_dbm,
    path_gain_db,
    replace,
    required_sinr,
    snr_max_for_sinr_db,
    watts_to_dbm,
)
from foglink.chain import breakdown_at, offload_power
from foglink.cli import FIGURE_COMBOS
from foglink.link import snr_ceiling
from foglink.pa import MAX_SNR_CEILING, MIN_SNR_CEILING, optimal_ibos

RADIO, DEPLOY = load_params()


def demand(bandwidth_hz=18e6, cameras=1, rate_bps=6e6, beta=0.4):
    """The rate demand that ``required_sinr`` and ``snr_ceiling`` take;
    the defaults are the default scenario's."""
    return bandwidth_hz, cameras, rate_bps, beta


def ceiling(*args, **kwargs):
    """The SNR ceiling of ``demand(*args, **kwargs)``."""
    return snr_ceiling(*demand(*args, **kwargs))[1]


def sized_point(*args, **kwargs):
    """``(ibo_linear, alpha, sinr_linear, snr_max_linear)`` of the amplifier
    sized for ``demand(*args, **kwargs)``."""
    snr_max = ceiling(*args, **kwargs)
    return (*next(optimal_ibos([snr_max])), snr_max)


def p_max_of(distance_km=0.02, carrier_hz=3.5e9, bandwidth_hz=18e6, **rate):
    """The clipping power of a link at the ceiling its rate demand fixes."""
    return clip_power(distance_km, carrier_hz, bandwidth_hz, ceiling(bandwidth_hz, **rate))


class TestPathGain:
    def test_reference_distance_and_carrier(self):
        # both log terms vanish at 1 km / 2 GHz
        assert path_gain_db(1.0, 2e9) == 15.0 - 128.1

    def test_carrier_term(self):
        oracle = 15.0 - (128.1 + 21.0 * math.log10(3.5 / 2.0))
        assert abs(path_gain_db(1.0, 3.5e9) - oracle) <= 1e-12

    def test_short_distance(self):
        oracle = 15.0 - (128.1 + 37.6 * math.log10(0.02) + 21.0 * math.log10(1.75))
        assert abs(path_gain_db(0.02, 3.5e9) - oracle) <= 1e-12

    def test_always_lossy_in_validity_region(self):
        for d in np.geomspace(MIN_DISTANCE_KM, 100.0, 300):
            assert path_gain_db(float(d), 3.5e9) < 0.0

    def test_floor_named_in_error(self):
        with pytest.raises(DomainError, match="0.01"):
            path_gain_db(0.005, 3.5e9)

    def test_bad_carrier(self):
        # the not-a-loss check refuses a carrier with no logarithm
        for carrier_hz in (0.0, -3.5e9, math.nan):
            with pytest.raises(DomainError, match="is not a loss"):
                path_gain_db(1.0, carrier_hz)

    @pytest.mark.parametrize("carrier_hz", [1e-300, 5e-324])
    def test_carrier_that_turns_loss_into_gain_rejected(self, carrier_hz):
        with pytest.raises(DomainError, match="carrier_hz"):
            path_gain_db(0.02, carrier_hz)


class TestNoise:
    def test_unit_bandwidth(self):
        assert noise_dbm(1.0) == -169.0

    @pytest.mark.parametrize("bandwidth", [9e6, 18e6])
    def test_table_bandwidths(self, bandwidth):
        oracle = -174.0 + 10.0 * math.log10(bandwidth) + 5.0
        assert abs(noise_dbm(bandwidth) - oracle) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            noise_dbm(0.0)


class TestRequiredSinr:
    def test_zero_rate(self):
        assert required_sinr(*demand(rate_bps=0.0)) == 0.0

    def test_single_camera_wideband(self):
        oracle = 2.0 ** (6e6 / (0.4 * 18e6)) - 1.0
        value = required_sinr(*demand())
        assert abs(value - oracle) <= 1e-12 * oracle
        assert abs(linear_to_db(value) - (-1.0690575806721505)) <= 1e-9

    def test_ten_cameras_narrowband(self):
        oracle = 2.0 ** (10.0 * 6e6 / (0.4 * 9e6)) - 1.0
        value = required_sinr(*demand(bandwidth_hz=9e6, cameras=10))
        assert abs(value - oracle) <= 1e-12 * oracle
        assert linear_to_db(value) > 50.0

    def test_monotone_in_cameras_rate_bandwidth(self):
        base = required_sinr(*demand())
        assert required_sinr(*demand(cameras=2)) > base
        assert required_sinr(*demand(rate_bps=7e6)) > base
        assert required_sinr(*demand(bandwidth_hz=20e6)) < base
        previous = 0.0
        for m in range(1, 11):
            value = required_sinr(*demand(cameras=m))
            assert value > previous
            previous = value

    def test_infeasibility_guard_names_parameters(self):
        with pytest.raises(InfeasibleLinkError, match="cameras = 10"):
            required_sinr(*demand(bandwidth_hz=1e6, cameras=10))

    def test_vanishing_band_is_infeasible(self):
        with pytest.raises(InfeasibleLinkError):
            required_sinr(*demand(bandwidth_hz=5e-324))

    def test_unresolvable_demand_names_parameters(self):
        with pytest.raises(DomainError) as refused:
            required_sinr(*demand(rate_bps=1e-300))
        assert str(refused.value) == (
            "required SINR rounds to 0 for bandwidth_hz=18000000.0, cameras=1, "
            "rate_bps=1e-300, beta=0.4"
        )


class TestRequiredPMax:
    """The clipping power at the ceiling the rate demand fixes."""

    def test_hand_chain(self):
        # spreadsheet-style chain, recomputed inline from scratch
        d, f, b, m, r, beta = 1.0, 3.5e9, 18e6, 1, 6e6, 0.4
        gain = 15.0 - (128.1 + 37.6 * math.log10(d) + 21.0 * math.log10(f / 2e9))
        noise = -174.0 + 10.0 * math.log10(b) + 5.0
        sinr = 2.0 ** (m * r / (beta * b)) - 1.0
        oracle = (
            10.0 ** ((noise - 30.0) / 10.0)
            / 10.0 ** (gain / 10.0)
            * 10.0 ** (math.log10(sinr) / 0.84 + 2.23 / 8.4)
        )
        value = p_max_of(distance_km=d)
        assert abs(value - oracle) <= 1e-12 * oracle
        # frozen output of the same chain
        assert abs(value - 0.20599649843480475) <= 1e-12

    @pytest.mark.parametrize("distance_km, carrier_hz", [(1e300, 3.5e9), (0.02, 1e300)])
    def test_unrepresentable_power_names_geometry(self, distance_km, carrier_hz):
        with pytest.raises(InfeasibleLinkError) as refused:
            p_max_of(distance_km=distance_km, carrier_hz=carrier_hz)
        assert str(refused.value).endswith(
            f"at distance_km={distance_km!r}, carrier_hz={carrier_hz!r}, "
            f"bandwidth_hz=18000000.0"
        )

    def test_zero_rate_has_no_operating_point(self):
        # a zero rate needs no SINR, so there is no ceiling to solve at
        with pytest.raises(DomainError) as refused:
            snr_ceiling(*demand(rate_bps=0.0))
        assert str(refused.value) == (
            "rate_bps = 0.0 with cameras = 1, beta = 0.4 and bandwidth_hz = 18000000.0 "
            "needs no SINR, so there is no SNR ceiling to size the clipping power at"
        )

    def test_ceiling_below_the_solvable_range_names_the_demand(self):
        # 1 bit/s over 1 MHz needs a -65.93 dB ceiling, below MIN_SNR_CEILING;
        # a DomainError, so fig4 reports it instead of dropping the point
        with pytest.raises(DomainError) as refused:
            snr_ceiling(*demand(bandwidth_hz=1e6, rate_bps=1.0))
        assert not isinstance(refused.value, InfeasibleLinkError)
        assert str(refused.value) == (
            "rate_bps = 1.0 with cameras = 1, beta = 0.4 and bandwidth_hz = 1000000.0 "
            "needs an SNR ceiling of -65.9314 dB, below the -39.475 dB the back-off "
            "solve accepts"
        )
        assert snr_ceiling(*demand(rate_bps=1e5))[1] >= MIN_SNR_CEILING

    def test_linear_in_inverse_gain(self):
        # 0.1 km -> 1 km lowers the path gain by exactly 37.6 dB
        near = p_max_of(distance_km=0.1)
        far = p_max_of(distance_km=1.0)
        assert abs(far - near * 10.0 ** 3.76) <= 1e-12 * far

    def test_monotonicities(self):
        def p_max(**kwargs):
            return p_max_of(distance_km=0.1, **kwargs)

        base = p_max()
        assert p_max_of(distance_km=0.2) > base  # farther
        assert p_max(cameras=2) > base
        assert p_max(rate_bps=8e6) > base
        assert p_max(bandwidth_hz=9e6) > base  # narrower band


class TestOperatingPoint:
    def test_short_wideband_scenario(self):
        ibo, _, _, snr_max = sized_point()
        # frozen from the sizing chain at d = 0.02 km, B = 18 MHz, M = 1
        assert abs(p_max_of() - 8.428157094110426e-08) <= 1e-20
        assert abs(ibo - 0.2927818127313304) <= 1e-10
        assert abs(snr_max - 1.3746984116346934) <= 1e-12
        assert ibo < 1.0  # below 0 dB in this regime

    def test_narrowband_below_unity_backoff(self):
        assert sized_point(bandwidth_hz=9e6)[0] < 1.0

    def test_megahertz_band_above_unity_backoff(self):
        assert sized_point(bandwidth_hz=1e6)[0] > 1.0

    def test_snr_ceiling_definition_is_exact(self):
        # P_MAX = N / |h|^2 * SNR_max, the ceiling the fit gives the rate
        sinr, snr_max = snr_ceiling(*demand())
        assert sinr == required_sinr(*demand())
        assert snr_max == db_to_linear(snr_max_for_sinr_db(linear_to_db(sinr)))
        assert clip_power(0.02, 3.5e9, 18e6, snr_max) == (
            dbm_to_watts(noise_dbm(18e6))
            / db_to_linear(path_gain_db(0.02, 3.5e9))
            * snr_max
        )

    @pytest.mark.parametrize("profile, cameras", FIGURE_COMBOS)
    def test_ceiling_does_not_depend_on_distance(self, profile, cameras):
        # the rate demand alone fixes the ceiling and the back-off solved at
        # it: a scenario at any distance is sized at the one point
        radio, deploy = load_params(profile=profile)
        ibo, _, _, snr_max = sized_point(radio.bandwidth_hz, cameras, deploy.rate_bps)
        for d in np.geomspace(0.01, 2.0, 10):
            scenario = replace(deploy, cameras=cameras, distance_km=float(d))
            p_max = clip_power(float(d), deploy.carrier_hz, radio.bandwidth_hz, snr_max)
            assert offload_power(radio, scenario) == breakdown_at(radio, scenario, ibo, p_max)

    @pytest.mark.parametrize("cameras, rate_bps", [(1, 3.6e8), (10, 3.6e7)])
    def test_ceiling_above_the_solvable_range_names_the_rate(self, cameras, rate_bps):
        # rate exponent 50 (and 50 again for ten cameras): the SINR is
        # representable, but the 181.8 dB ceiling is above MAX_SNR_CEILING
        with pytest.raises(InfeasibleLinkError) as refused:
            snr_ceiling(*demand(cameras=cameras, rate_bps=rate_bps))
        message = str(refused.value)
        assert f"rate_bps = {rate_bps!r} with cameras = {cameras}," in message
        assert "181.839 dB, above the 156.5 dB" in message
        assert "distance_km" not in message

    def test_ceiling_at_the_cap_is_solved(self):
        # a link sized just below the cap solves; just above it is refused
        _, alpha, _, snr_max = sized_point(bandwidth_hz=3.5e6, cameras=10)
        assert snr_max <= MAX_SNR_CEILING and 0.0 < alpha < 1.0
        with pytest.raises(InfeasibleLinkError):
            snr_ceiling(*demand(bandwidth_hz=3.4e6, cameras=10))

    def test_clip_power_does_not_depend_on_the_rate(self):
        # path gain and noise only: clip_power takes the ceiling, not the
        # rate demand that fixed it, and is linear in it
        snr_max = ceiling()
        p_max = clip_power(0.3, 3.5e9, 18e6, snr_max)
        assert clip_power(0.3, 3.5e9, 18e6, 2.0 * snr_max) == 2.0 * p_max

    @pytest.mark.parametrize("bandwidth,cameras", [(9e6, 1), (9e6, 10), (18e6, 1), (18e6, 10)])
    @pytest.mark.parametrize("distance", [0.02, 1.0])
    def test_rate_round_trip_within_approximation_slack(self, bandwidth, cameras, distance):
        # the distance moves the clipping power, not the SINR it delivers
        assert p_max_of(distance_km=distance, bandwidth_hz=bandwidth, cameras=cameras) > 0.0
        _, _, sinr, snr_max = sized_point(bandwidth_hz=bandwidth, cameras=cameras)
        # within the fitted [-10, 50] dB ceiling range the achieved SINR sits
        # within the affine fit's error of the requirement (just over 0.5 dB);
        # the 10-camera 9 MHz combo extrapolates to a 62 dB ceiling where the
        # fit over-delivers by a measured +1.37 dB
        req_db = linear_to_db(required_sinr(*demand(bandwidth_hz=bandwidth, cameras=cameras)))
        slack = 0.52 if linear_to_db(snr_max) <= 50.0 else 1.5

        def rate_at(sinr_db):
            return 0.4 * bandwidth / cameras * math.log2(1.0 + db_to_linear(sinr_db))

        recovered = 0.4 * bandwidth / cameras * math.log2(1.0 + sinr)
        assert rate_at(req_db - slack) <= recovered <= rate_at(req_db + slack)


class TestGeometryValidation:
    """A link's distance, fleet, rate and Shannon gap are checked once, where
    they enter: in the scenario records the link functions read them from."""

    def test_rejects_zero_distance(self):
        with pytest.raises(DomainError, match="distance_km must be positive"):
            replace(DEPLOY, distance_km=0.0)

    def test_rejects_fractional_cameras(self):
        with pytest.raises(DomainError, match="cameras must be an integer"):
            replace(DEPLOY, cameras=1.5)

    def test_rejects_zero_cameras(self):
        with pytest.raises(DomainError, match="cameras must be an integer"):
            replace(DEPLOY, cameras=0)

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.2):
            with pytest.raises(DomainError, match=r"beta must lie in \(0, 1\]"):
                replace(RADIO, beta=beta)

    def test_allows_zero_rate(self):
        # a scenario refuses a zero rate; the link layer takes one, and
        # snr_ceiling refuses it by name (test_zero_rate_has_no_operating_point)
        with pytest.raises(DomainError, match="rate_bps must be positive"):
            replace(DEPLOY, rate_bps=0.0)
        assert required_sinr(*demand(rate_bps=0.0)) == 0.0


def test_conversions_reject_unrepresentable_levels():
    for level in (1e5, math.inf, math.nan):
        with pytest.raises(DomainError):
            db_to_linear(level)
        with pytest.raises(DomainError):
            dbm_to_watts(level)
    for power in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            linear_to_db(power)
        with pytest.raises(DomainError):
            watts_to_dbm(power)


def test_watts_to_dbm_near_the_float_limit():
    # p * 1e3 overflows above ~1.8e305 W, though p's dBm level is finite;
    # below that the level is the log of the product, bit for bit
    for power in (1.7e308, 1.7976931348623157e308, 1.8e305):
        assert watts_to_dbm(power) == linear_to_db(power) + 30.0
    for power in (1.7e305, 0.242, 5e-324):
        assert watts_to_dbm(power) == linear_to_db(power * 1e3)
    assert watts_to_dbm(math.inf) == math.inf


def test_db_conversions_round_trip():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-150.0, 150.0, 200):
        x = float(x)
        assert abs(linear_to_db(db_to_linear(x)) - x) <= 1e-12 * max(1.0, abs(x))
    for p in 10.0 ** rng.uniform(-15.0, 3.0, 200):
        p = float(p)
        assert abs(dbm_to_watts(watts_to_dbm(p)) - p) <= 1e-12 * p
