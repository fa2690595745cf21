"""Component power models, the offload aggregate, breakeven complexity."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from foglink import (
    DomainError,
    InfeasibleLinkError,
    RadioParams,
    load_params,
    local_power,
    offload_power,
    replace,
    watts_to_dbm,
)
from foglink.chain import (
    MAX_DAC_BITS,
    breakdown_at,
    breakeven_at,
    clip_independent_parts,
)
from foglink.config import BANDWIDTH_PROFILES
from foglink.link import PATH_LOSS_EXPONENT, clip_power, snr_ceiling
from foglink.pa import optimal_ibos

RADIO, DEPLOY = load_params()


def scenario(profile="18mhz", cameras=1, distance_km=0.02):
    radio = replace(RADIO, **BANDWIDTH_PROFILES[profile])
    deploy = replace(DEPLOY, cameras=cameras, distance_km=distance_km)
    return radio, deploy


def theta_star(radio, deploy):
    return breakeven_at(offload_power(radio, deploy).total_w, deploy)


# an amplifier point of the baseline link; the draws other than the
# amplifier's do not depend on it
_, SNR_MAX = snr_ceiling(RADIO.bandwidth_hz, DEPLOY.cameras, DEPLOY.rate_bps, RADIO.beta)
[(IBO, _, _)] = optimal_ibos([SNR_MAX])
P_MAX = clip_power(DEPLOY.distance_km, DEPLOY.carrier_hz, RADIO.bandwidth_hz, SNR_MAX)


def one_camera(radio=RADIO, **deploy_fields):
    """The breakdown of a single camera, whose draws are not duty cycled."""
    return breakdown_at(radio, replace(DEPLOY, cameras=1, **deploy_fields), IBO, P_MAX)


class TestLocalPower:
    def test_zero_workload(self):
        assert local_power(0.0, 6e6, 5e9) == 0.0

    def test_breakeven_scale_workload(self):
        assert abs(local_power(320.0, 6e6, 5e9) - 0.384) <= 1e-15
        assert abs(watts_to_dbm(local_power(320.0, 6e6, 5e9)) - 25.84) < 0.01

    def test_heavier_workload(self):
        assert abs(local_power(1000.0, 6e6, 5e9) - 1.2) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            local_power(-1.0, 6e6, 5e9)
        with pytest.raises(DomainError):
            local_power(320.0, 0.0, 5e9)
        with pytest.raises(DomainError):
            local_power(320.0, 6e6, 0.0)


class TestCodingPower:
    def test_zero_rate(self):
        # DeploymentParams refuses a zero rate; breakdown_at still evaluates R * psi
        deploy = SimpleNamespace(cameras=1, rate_bps=0.0, p_video_w=0.242)
        assert breakdown_at(RADIO, deploy, IBO, P_MAX).cod_w == 0.0

    def test_video_rate(self):
        assert abs(one_camera(rate_bps=6e6).cod_w - 6e-4) <= 1e-18

    def test_gigabit(self):
        # 0.1 W per Gbps by unit definition
        assert abs(one_camera(rate_bps=1e9).cod_w - 0.1) <= 1e-15


class TestOfdmPower:
    def test_1024_transform(self):
        oracle = (4 * 1024 * 10 - 6 * 1024 + 8) * 15e3 / 120e9
        radio, _ = scenario("9mhz")
        assert one_camera(radio).ofdm_w == oracle
        assert abs(oracle - 4.353e-3) < 1e-6

    def test_2048_transform(self):
        oracle = (4 * 2048 * 11 - 6 * 2048 + 8) * 15e3 / 120e9
        radio, _ = scenario("18mhz")
        assert one_camera(radio).ofdm_w == oracle
        assert abs(oracle - 9.729e-3) < 1e-6

    def test_smallest_transform(self):
        # 4N log2 N - 6N + 8 collapses to 4 at N = 2
        radio = replace(RADIO, sample_rate_hz=2 * 15e3, bandwidth_hz=20e3, n_ofdm=2)
        assert one_camera(radio).ofdm_w == 4.0 * 15e3 / 120e9

    @pytest.mark.parametrize("bad", [1000, 3, 0, 1, -2048])
    def test_rejects_non_power_of_two(self, bad):
        # the operation count applies to power-of-two transforms only
        with pytest.raises(DomainError, match="power of two"):
            replace(RADIO, n_ofdm=bad)


class TestDacPower:
    def test_wideband_sampling(self):
        oracle = 3.0 * 5e-6 * 1023 + 0.5 * 10 * 1e-12 * 30.72e6 * 9.0
        value = one_camera(scenario("18mhz")[0]).dac_w
        assert value == 2 * oracle
        assert abs(oracle - 16.7274e-3) < 1e-7

    def test_narrowband_sampling(self):
        value = one_camera(scenario("9mhz")[0]).dac_w / 2  # one of the two DACs
        assert abs(value - 16.0362e-3) < 1e-7

    def test_single_bit_static_only(self):
        radio = replace(RADIO, dac_bits=1, c_p_f=0.0)
        assert math.isclose(one_camera(radio).dac_w, 2 * 15e-6, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError, match="dac_bits"):
            replace(RADIO, dac_bits=0)
        with pytest.raises(DomainError, match="c_p_f"):
            replace(RADIO, c_p_f=-1e-12)


class TestOffloadPower:
    @pytest.mark.parametrize("profile,cameras", [("9mhz", 1), ("9mhz", 10),
                                                 ("18mhz", 1), ("18mhz", 10)])
    def test_short_link_totals_near_26_dbm(self, profile, cameras):
        down = offload_power(*scenario(profile, cameras))
        assert abs(watts_to_dbm(down.total_w) - 26.0) < 1.0

    def test_video_share_not_duty_cycled(self):
        down = offload_power(*scenario("18mhz", 10))
        assert down.video_w == 0.242
        assert abs(watts_to_dbm(down.video_w) - 23.84) < 0.01

    def test_lo_and_coding_not_duty_cycled(self):
        one = offload_power(*scenario("18mhz", 1))
        ten = offload_power(*scenario("18mhz", 10))
        assert one.lo_w == ten.lo_w == 0.0675
        assert one.cod_w == ten.cod_w

    def test_duty_cycled_components_scale(self):
        one = offload_power(*scenario("18mhz", 1))
        ten = offload_power(*scenario("18mhz", 10))
        assert abs(ten.ofdm_w - one.ofdm_w / 10.0) <= 1e-15
        assert abs(ten.dac_w - one.dac_w / 10.0) <= 1e-15
        assert abs(ten.mix_w - one.mix_w / 10.0) <= 1e-15

    def test_total_non_decreasing_in_distance(self):
        radio, deploy = scenario()
        previous = 0.0
        for d in np.geomspace(0.01, 2.0, 40):
            total = offload_power(radio, replace(deploy, distance_km=float(d))).total_w
            assert total >= previous
            previous = total

    def test_additivity(self):
        for profile in ("9mhz", "18mhz"):
            for cameras in (1, 3, 10):
                down = offload_power(*scenario(profile, cameras))
                parts = (down.video_w + down.cod_w + down.ofdm_w + down.dac_w
                         + down.lo_w + down.mix_w + down.pa_w)
                assert abs(parts - down.total_w) <= 1e-12 * down.total_w

    @pytest.mark.parametrize("profile, cameras", [("9mhz", 10), ("18mhz", 1)])
    def test_is_a_power_law_in_distance(self, profile, cameras):
        # P(d) = H + pa_w(d0) * (d / d0) ** 3.76, H the clip-independent parts
        radio, deploy = scenario(profile, cameras, 0.3)
        parts, head_w = clip_independent_parts(radio, deploy)
        at_d0 = offload_power(radio, deploy)
        assert parts == {name: getattr(at_d0, name) for name in parts}
        assert head_w + at_d0.pa_w == at_d0.total_w
        for d in np.geomspace(0.01, 2.0, 25):
            total = offload_power(radio, replace(deploy, distance_km=float(d))).total_w
            law = head_w + at_d0.pa_w * (float(d) / 0.3) ** PATH_LOSS_EXPONENT
            assert abs(law - total) <= 1e-13 * total

    def test_is_the_breakdown_at_the_solved_link(self):
        radio, deploy = scenario("9mhz", 10, 0.5)
        _, snr_max = snr_ceiling(9e6, 10, 6e6, 0.4)
        [(ibo, _, _)] = optimal_ibos([snr_max])
        p_max = clip_power(0.5, 3.5e9, 9e6, snr_max)
        assert offload_power(radio, deploy) == breakdown_at(radio, deploy, ibo, p_max)

    def test_huge_fleet_is_infeasible(self):
        # a million cameras sharing 18 MHz would need SINR 2^833333; the
        # rate guard fires long before the duty-cycle savings matter
        radio, deploy = scenario("18mhz", 10 ** 6)
        with pytest.raises(InfeasibleLinkError):
            offload_power(radio, deploy)

    def test_duty_cycle_limit_keeps_constant_terms(self):
        # with the amplifier point fixed, an enormous fleet leaves only the
        # always-on components: video coder, redundancy coding, oscillator
        down = breakdown_at(RADIO, replace(DEPLOY, cameras=10 ** 6), IBO, P_MAX)
        constant = 0.242 + 6e-4 + 0.0675
        assert abs(down.total_w - constant) <= 1e-5 * constant


class TestBreakevenTheta:
    @pytest.mark.parametrize(
        "profile,cameras,distance,reported",
        [
            ("18mhz", 1, 0.02, 320.0),
            ("18mhz", 10, 0.02, 267.0),
            ("9mhz", 1, 1.0, 620.0),
            ("18mhz", 1, 1.0, 530.0),
        ],
    )
    def test_reported_operating_points(self, profile, cameras, distance, reported):
        value = theta_star(*scenario(profile, cameras, distance))
        assert abs(value - reported) / reported <= 0.05

    def test_round_trip_with_local_power(self):
        for profile in ("9mhz", "18mhz"):
            for cameras in (1, 4, 10):
                radio, deploy = scenario(profile, cameras, 0.3)
                theta = theta_star(radio, deploy)
                local = local_power(theta, deploy.rate_bps, deploy.gamma_flops_per_w)
                total = offload_power(radio, deploy).total_w
                assert abs(local - total) <= 1e-9 * total

    def test_is_breakeven_at_the_offload_power(self):
        radio, deploy = scenario("18mhz", 10, 0.3)
        total = offload_power(radio, deploy).total_w
        # theta* = Gamma * P_offload / R, evaluated in that order
        expected = deploy.gamma_flops_per_w * total / deploy.rate_bps
        assert breakeven_at(total, deploy) == expected

    def test_fleet_sharing_helps_only_near_the_node(self):
        for d in (0.02, 0.05, 0.1):
            one = theta_star(*scenario("18mhz", 1, d))
            ten = theta_star(*scenario("18mhz", 10, d))
            assert ten < one
        far_one = theta_star(*scenario("18mhz", 1, 1.0))
        far_ten = theta_star(*scenario("18mhz", 10, 1.0))
        assert far_ten > far_one


class TestParamValidation:
    def test_radio_transform_size_tied_to_sampling(self):
        with pytest.raises(DomainError, match="n_ofdm"):
            replace(RADIO, n_ofdm=1024)

    def test_radio_rejects_slow_sampling(self):
        with pytest.raises(DomainError, match="sample_rate_hz"):
            RadioParams(
                sample_rate_hz=15.36e6, bandwidth_hz=18e6, n_ofdm=1024,
                delta_f_hz=15e3, gamma_mod_flops_per_w=120e9, dac_bits=10,
                v_dd=3.0, i_0_a=5e-6, c_p_f=1e-12, p_lo_w=0.0675,
                p_mix_w=0.021, psi_w_per_bps=1e-10, beta=0.4,
            )

    def test_radio_rejects_non_power_of_two_transform(self):
        with pytest.raises(DomainError, match="power of two"):
            RadioParams(
                sample_rate_hz=9e6, bandwidth_hz=6e6, n_ofdm=600, delta_f_hz=15e3,
                gamma_mod_flops_per_w=120e9, dac_bits=10, v_dd=3.0, i_0_a=5e-6,
                c_p_f=1e-12, p_lo_w=0.0675, p_mix_w=0.021, psi_w_per_bps=1e-10,
                beta=0.4,
            )

    def test_radio_rejects_dac_bits_beyond_float_range(self):
        assert replace(RADIO, dac_bits=MAX_DAC_BITS).dac_bits == MAX_DAC_BITS
        with pytest.raises(DomainError, match="dac_bits"):
            replace(RADIO, dac_bits=2000)
        with pytest.raises(DomainError, match="dac_bits"):
            replace(RADIO, dac_bits=MAX_DAC_BITS + 1)

    def test_deploy_rejects_zero_rate(self):
        with pytest.raises(DomainError):
            replace(DEPLOY, rate_bps=0.0)

    # A PowerBreakdown holds what breakdown_at computed from checked records,
    # so the records refuse what could make a part negative or not finite,
    # and breakdown_at refuses a draw that overflows.

    def test_breakdown_rejects_negative_component(self):
        with pytest.raises(DomainError, match="p_video_w must be positive"):
            replace(DEPLOY, p_video_w=-0.1)
        with pytest.raises(DomainError, match="c_p_f must be non-negative"):
            replace(RADIO, c_p_f=-1e-12)
        assert min(breakdown_at(RADIO, DEPLOY, IBO, P_MAX)._values()) > 0.0

    def test_breakdown_rejects_wrong_total(self):
        # the total is the left-to-right sum of the parts, so it cannot be wrong
        for radio, deploy in (scenario(), scenario("9mhz", 10, 1.0)):
            down = offload_power(radio, deploy)
            assert down.total_w == sum(down._values()[:-1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_breakdown_rejects_a_non_finite_component(self, bad):
        # NaN compares False with 0.0, so the record refuses it as not
        # positive; an infinite DAC supply is refused by the part it makes
        with pytest.raises(DomainError, match="v_dd must be positive|dac_w = inf W"):
            breakdown_at(replace(RADIO, v_dd=bad), DEPLOY, IBO, P_MAX)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_breakdown_rejects_a_non_finite_total(self, bad):
        with pytest.raises(DomainError, match="p_max_w must be non-negative"):
            breakdown_at(RADIO, DEPLOY, IBO, bad)
        # a finite clipping power whose amplifier draw overflows
        with pytest.raises(DomainError) as refused:
            breakdown_at(RADIO, DEPLOY, IBO, 1.7e308)
        assert str(refused.value) == (
            "amplifier draw pa_w = inf W at clipping power 1.7e+308 W makes the "
            "offload power inf W, which is not finite"
        )
        # a finite amplifier draw whose sum with the other parts overflows
        with pytest.raises(DomainError, match="makes the offload power inf W"):
            breakdown_at(RADIO, replace(DEPLOY, p_video_w=1.7e308), IBO, 1e308)
