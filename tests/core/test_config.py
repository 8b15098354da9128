"""Tests for StopWatchConfig validation and derived values."""

import pytest

from repro.core import ConfigError, DEFAULT, PASSTHROUGH, StopWatchConfig
from repro.mitigation import default_policy


def test_default_is_three_replica_mediated():
    assert DEFAULT.replicas == 3
    policy = default_policy(DEFAULT)
    assert policy.name == "stopwatch"
    assert policy.coordinated and policy.egress


def test_passthrough_models_unmodified_xen():
    assert PASSTHROUGH.replicas == 1
    policy = default_policy(PASSTHROUGH)
    assert policy.name == "none"
    assert not policy.coordinated and not policy.egress


def test_even_replica_count_rejected_when_mediating():
    with pytest.raises(ConfigError):
        StopWatchConfig(replicas=2)


def test_five_replicas_allowed():
    cfg = StopWatchConfig(replicas=5)
    assert cfg.replicas == 5


def test_zero_replicas_rejected():
    with pytest.raises(ConfigError):
        StopWatchConfig(replicas=0)


def test_negative_delta_rejected():
    with pytest.raises(ConfigError):
        StopWatchConfig(delta_net=-0.001)


def test_bad_slope_range_rejected():
    with pytest.raises(ConfigError):
        StopWatchConfig(slope_range=(2e-8, 1e-8))
    with pytest.raises(ConfigError):
        StopWatchConfig(slope_range=(0.0, 1e-8))


def test_bad_epoch_rejected():
    with pytest.raises(ConfigError):
        StopWatchConfig(epoch_instructions=0)


def test_derived_exit_interval_virtual():
    cfg = StopWatchConfig(exit_interval_branches=100_000, initial_slope=1e-8)
    assert cfg.exit_interval_virtual == pytest.approx(0.001)


def test_derived_pit_period():
    assert StopWatchConfig(pit_hz=250.0).pit_period_virtual == pytest.approx(0.004)


def test_with_overrides_returns_new_config():
    cfg = DEFAULT.with_overrides(delta_net=0.02)
    assert cfg.delta_net == 0.02
    assert DEFAULT.delta_net == 0.010
    assert cfg is not DEFAULT


def test_with_overrides_validates():
    with pytest.raises(ConfigError):
        DEFAULT.with_overrides(replicas=4)


@pytest.mark.parametrize("name", ["mediate", "egress_enabled",
                                  "timer_interrupts"])
def test_mitigation_switches_are_not_fields(name):
    """How a VM is mediated is its policy's business (repro.mitigation):
    the config has no switch for it, so naming one fails loudly."""
    with pytest.raises(TypeError, match=name):
        DEFAULT.with_overrides(**{name: False})
