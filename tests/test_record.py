"""The frozen records: repr, equality, immutability, validated copies."""

import pytest

from foglink import (
    DeploymentParams,
    DomainError,
    McConfig,
    McEstimate,
    PowerBreakdown,
    RadioParams,
    load_params,
    offload_power,
    replace,
)
from foglink.record import Record

RADIO, DEPLOY = load_params()


def records(radio=RADIO, deploy=DEPLOY, seed=7, stderr_pa=3e-3):
    """One record of each type, built afresh; the defaults give the
    records of the default scenario."""
    return [
        radio,
        deploy,
        offload_power(radio, deploy),
        McConfig(clip_powers_w=[0.5, 1.0, 2.0], n_samples=1000, seed=seed,
                 snr_max_linear=100.0),
        McEstimate(0.5, 0.25, 0.125, 10.0, 1e-3, 2e-3, stderr_pa),
    ]


def default_records():
    return records(replace(RADIO), replace(DEPLOY))


def other_records():
    return records(replace(RADIO, beta=0.5), replace(DEPLOY, cameras=2, distance_km=0.5),
                   seed=8, stderr_pa=4e-3)


# as printed by the frozen dataclasses these records were before; error
# messages embed them, so the bytes are part of the CLI's output
DEFAULT_REPRS = [
    "RadioParams(sample_rate_hz=30720000.0, bandwidth_hz=18000000.0, n_ofdm=2048, "
    "delta_f_hz=15000.0, gamma_mod_flops_per_w=120000000000.0, dac_bits=10, v_dd=3.0, "
    "i_0_a=5e-06, c_p_f=1e-12, p_lo_w=0.0675, p_mix_w=0.021, psi_w_per_bps=1e-10, "
    "beta=0.4)",
    "DeploymentParams(cameras=1, distance_km=0.02, carrier_hz=3500000000.0, "
    "rate_bps=6000000.0, p_video_w=0.242, gamma_flops_per_w=5000000000.0, "
    "theta_flop_per_bit=320.0)",
    "PowerBreakdown(video_w=0.242, cod_w=0.0006000000000000001, ofdm_w=0.009729, "
    "dac_w=0.03345480000000001, lo_w=0.0675, mix_w=0.042, pa_w=9.769699958572122e-08, "
    "total_w=0.39528389769699956)",
    "McConfig(clip_powers_w=(0.5, 1.0, 2.0), n_samples=1000, seed=7, snr_max_linear=100.0)",
    "McEstimate(alpha_hat=0.5, distortion_power_hat=0.25, pa_power_hat=0.125, "
    "sinr_hat=10.0, stderr_alpha=0.001, stderr_distortion=0.002, stderr_pa=0.003)",
]

RECORD_TYPES = [
    RadioParams, DeploymentParams, PowerBreakdown, McConfig, McEstimate,
]


@pytest.mark.parametrize("index", range(len(RECORD_TYPES)),
                         ids=[record_type.__name__ for record_type in RECORD_TYPES])
class TestEachRecord:
    def test_repr_keeps_its_bytes(self, index):
        record = default_records()[index]
        assert type(record) is RECORD_TYPES[index]
        assert repr(record) == DEFAULT_REPRS[index]

    def test_equal_values_are_equal_and_hash_alike(self, index):
        record, twin = default_records()[index], default_records()[index]
        assert record is not twin
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert replace(record) == record
        assert len({record, twin}) == 1

    def test_other_values_are_unequal(self, index):
        record, other = default_records()[index], other_records()[index]
        assert type(other) is type(record)
        assert other != record and not other == record

    def test_fields_cannot_be_assigned_or_deleted(self, index):
        record = default_records()[index]
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.no_such_field = 1.0

    def test_positional_and_keyword_construction_agree(self, index):
        record = default_records()[index]
        values = [getattr(record, name) for name in record._fields]
        assert record == type(record)(**dict(zip(reversed(record._fields), reversed(values))))
        assert type(record)(*values) == record
        assert type(record)(*values[:1], **dict(zip(record._fields[1:], values[1:]))) == record

    def test_missing_unknown_or_repeated_fields_raise_type_error(self, index):
        record = default_records()[index]
        record_type, values = type(record), dict(record.__dict__)
        first = record._fields[0]
        with pytest.raises(TypeError, match=first):
            record_type(**{k: v for k, v in values.items() if k != first})
        with pytest.raises(TypeError, match="no_such_field"):
            record_type(**values, no_such_field=1.0)
        with pytest.raises(TypeError, match="no_such_field"):
            replace(record, no_such_field=1.0)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            record_type(values[first], **values)
        with pytest.raises(TypeError, match="arguments"):
            record_type(*values.values(), 1.0)


def test_different_record_types_are_never_equal():
    # same field names and values in the same order, different types
    class Point(Record):
        ibo_linear: float
        alpha: float

    class Twin(Record):
        ibo_linear: float
        alpha: float

    point = Point(ibo_linear=2.0, alpha=0.9)
    twin = Twin(**point.__dict__)
    assert repr(twin) == Twin.__qualname__ + repr(point)[len(Point.__qualname__):]
    assert point != twin and twin != point
    assert point != tuple(point.__dict__.values())
    assert RADIO != DEPLOY


def test_replace_revalidates():
    with pytest.raises(DomainError, match="n_ofdm"):
        replace(RADIO, n_ofdm=1000)
    with pytest.raises(DomainError, match="cameras"):
        replace(DEPLOY, cameras=0)
    assert replace(DEPLOY, cameras=3).cameras == 3
    assert DEPLOY.cameras == 1


def test_positional_construction():
    values = (10, 0.02, 3.5e9, 2e7, 0.242, 5e9, 320.0)
    deploy = DeploymentParams(*values)
    assert deploy == DeploymentParams(
        cameras=10, distance_km=0.02, carrier_hz=3.5e9, rate_bps=2e7, p_video_w=0.242,
        gamma_flops_per_w=5e9, theta_flop_per_bit=320.0,
    )
    with pytest.raises(DomainError, match="cameras"):
        DeploymentParams(1.5, *values[1:])


def test_mc_config_normalises_clip_powers_to_a_tuple():
    config = McConfig(clip_powers_w=[1.0, 2.0], n_samples=10, seed=0, snr_max_linear=100.0)
    assert config.clip_powers_w == (1.0, 2.0)
    assert config == replace(config, clip_powers_w=(1.0, 2.0))
    assert hash(config) == hash(replace(config, clip_powers_w=[1.0, 2.0]))
