import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sonicbh import default_config, derive
from sonicbh.environment import EnvironmentSpec, effective_coupling
from sonicbh.errors import ConfigError


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnvironmentSpec(coupling_eff=-1.0, cutoff=1.0)
    with pytest.raises(ConfigError):
        EnvironmentSpec(coupling_eff=0.1, cutoff=0.0)
    for shape in ("gauss", "exponential"):
        with pytest.raises(ConfigError, match="cutoff_shape"):
            EnvironmentSpec(coupling_eff=0.1, cutoff=1.0, cutoff_shape=shape)


def test_effective_coupling_linear():
    cfg = default_config()
    d = derive(cfg)
    assert effective_coupling(0.0, cfg, d) == 0.0
    assert effective_coupling(2e-6, cfg, d) == pytest.approx(
        2.0 * effective_coupling(1e-6, cfg, d), rel=1e-15)


def test_effective_coupling_regression_baseline():
    # gamma = 5e-6 (the original force-noise bound) on the bench defaults
    cfg = default_config()
    d = derive(cfg)
    value = effective_coupling(5e-6, cfg, d)
    expected = 5e-6 * math.sqrt(2.0 * d.rho) * d.delta_v
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(0.011976, rel=1e-3)  # frozen baseline


@given(st.floats(min_value=0.0, max_value=1.0))
def test_effective_coupling_proportional(gamma):
    cfg = default_config()
    d = derive(cfg)
    assert effective_coupling(gamma, cfg, d) == pytest.approx(
        gamma * effective_coupling(1.0, cfg, d), rel=1e-12, abs=1e-300)
