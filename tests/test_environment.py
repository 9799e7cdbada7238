import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sonicbh import default_config, derive
from sonicbh.environment import (EnvironmentSpec, dissipation_kernel,
                                 effective_coupling, noise_kernel,
                                 spectral_density)
from sonicbh.errors import ConfigError, QuadratureError

mp.mp.dps = 50


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnvironmentSpec(coupling_eff=-1.0, cutoff=1.0)
    with pytest.raises(ConfigError):
        EnvironmentSpec(coupling_eff=0.1, cutoff=0.0)
    with pytest.raises(ConfigError):
        EnvironmentSpec(coupling_eff=0.1, cutoff=1.0, cutoff_shape="gauss")


def test_spectral_density_vanishes_at_zero(env_lorentzian, env_exponential):
    assert spectral_density(0.0, env_lorentzian) == 0.0
    assert spectral_density(0.0, env_exponential) == 0.0


def test_spectral_density_at_cutoff(env_exponential):
    g2, lam = env_exponential.coupling_eff ** 2, env_exponential.cutoff
    assert spectral_density(lam, env_exponential) == pytest.approx(g2 * lam / math.e, rel=1e-15)


def test_spectral_density_total_weight(env_exponential):
    # int_0^inf J = g^2 Lam^2  (Gamma integral), by adaptive quadrature
    from sonicbh.specfun import integrate_adaptive
    g2, lam = env_exponential.coupling_eff ** 2, env_exponential.cutoff
    total = integrate_adaptive(lambda nu: spectral_density(nu, env_exponential),
                               0.0, np.inf, tol=1e-10, rel_tol=1e-10).value
    assert total == pytest.approx(g2 * lam ** 2, rel=1e-9)


def test_noise_kernel_zero_lag_exponential(env_exponential):
    g2, lam = env_exponential.coupling_eff ** 2, env_exponential.cutoff
    assert noise_kernel(0.0, env_exponential) == pytest.approx(0.5 * g2 * lam ** 2, rel=1e-8)


def test_noise_kernel_even(env_exponential):
    assert noise_kernel(0.9, env_exponential) == noise_kernel(-0.9, env_exponential)


def test_noise_kernel_lorentzian_against_extended_precision():
    env = EnvironmentSpec(coupling_eff=1.0, cutoff=10.0, cutoff_shape="lorentzian")
    oracle = mp.mpf("0.5") * mp.quadosc(
        lambda nu: nu * mp.cos(nu) / (1 + (nu / 10) ** 2), [0, mp.inf], period=2 * mp.pi)
    assert noise_kernel(1.0, env) == pytest.approx(float(oracle), rel=1e-10)


def test_noise_kernel_lorentzian_zero_lag_refused():
    env = EnvironmentSpec(coupling_eff=1.0, cutoff=10.0, cutoff_shape="lorentzian")
    with pytest.raises(QuadratureError, match="diverges"):
        noise_kernel(0.0, env)


def test_noise_kernel_thermal_monotone_at_zero_lag(env_exponential):
    vals = [noise_kernel(0.0, replace(env_exponential, bath_temperature=t0))
            for t0 in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_noise_kernel_finite_temperature_against_oracle():
    env = EnvironmentSpec(coupling_eff=0.7, cutoff=4.0, cutoff_shape="exponential",
                          bath_temperature=2.0)
    beta = 0.5
    oracle = mp.mpf("0.5") * mp.quad(
        lambda nu: 0.7 ** 2 * nu * mp.exp(-nu / 4) * mp.coth(beta * nu / 2) * mp.cos(nu * mp.mpf("0.6")),
        [0, 4, 40, mp.inf])
    assert noise_kernel(0.6, env) == pytest.approx(float(oracle), rel=1e-8)


def test_dissipation_kernel_causal(env_exponential):
    assert dissipation_kernel(-1.0, env_exponential) == 0.0
    assert dissipation_kernel(0.0, env_exponential) == 0.0
    assert abs(dissipation_kernel(1e-6, env_exponential)) < 1e-3


def test_dissipation_kernel_exponential_closed_form(env_exponential):
    g2, lam, lag = env_exponential.coupling_eff ** 2, env_exponential.cutoff, 0.5
    a = 1.0 / lam
    expected = g2 * 2 * a * lag / (a * a + lag * lag) ** 2
    assert dissipation_kernel(lag, env_exponential) == pytest.approx(expected, rel=1e-10)


def test_dissipation_kernel_lorentzian_against_extended_precision():
    env = EnvironmentSpec(coupling_eff=1.0, cutoff=5.0, cutoff_shape="lorentzian")
    # g2 Lam^2 (pi/2) e^{-Lam lag}
    expected = 25.0 * (math.pi / 2) * math.exp(-5.0 * 0.5)
    assert dissipation_kernel(0.5, env) == pytest.approx(expected, rel=1e-9)


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
