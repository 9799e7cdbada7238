import math

import numpy as np
import pytest
from scipy.special import dawsn

from sonicbh.correlations import detect_peak
from sonicbh.langevin import Ensemble, estimate_correlation, expected_correlation_curve

from conftest import LINE_T_HAWKING
from flow_oracle import rk45_dx0_dx, rk45_trace


REDUCED_T = 30.0
REDUCED_X1 = -1.2
REDUCED_X2 = np.linspace(1.1, 6.0, 64)


def test_estimator_matches_scheme_expectation(line):
    eps = 0.12
    mc = estimate_correlation(8000, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line,
                              seed=21, uv_epsilon=eps)
    expect = expected_correlation_curve(REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, eps)
    resid = (mc.values - expect) / np.maximum(mc.stderr, 1e-300)
    # pointwise z-scores: no systematic bias beyond sampling noise
    assert abs(resid.mean()) < 1.0
    assert np.percentile(np.abs(resid), 90) < 3.5


def test_estimator_seed_reproducible(line):
    a = estimate_correlation(500, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=3)
    b = estimate_correlation(500, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=3)
    assert np.array_equal(a.values, b.values)


def test_estimator_variance_halves(line):
    m1 = estimate_correlation(1500, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=7)
    m2 = estimate_correlation(3000, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=7)
    ratio = (m1.stderr ** 2 / m2.stderr ** 2)
    assert np.median(ratio) == pytest.approx(2.0, rel=0.2)


def test_estimator_thermal_dilution(line):
    cold = estimate_correlation(8000, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0,
                                line, seed=42, uv_epsilon=0.15)
    hot = estimate_correlation(8000, REDUCED_X1, REDUCED_X2, REDUCED_T,
                               60.0 * LINE_T_HAWKING, line, seed=42, uv_epsilon=0.15)
    assert detect_peak(cold).contrast > detect_peak(hot).contrast


def test_exact_transport_self_consistent(line):
    # the exact-dynamics transport validates against its own deterministic
    # expectation (the matched scheme differs from it by O(a); see notes)
    x2 = np.linspace(1.05, 3.5, 40)
    eps = 0.12
    mc = estimate_correlation(6000, REDUCED_X1, x2, REDUCED_T, 0.0, line,
                              seed=9, uv_epsilon=eps, transport="exact")
    expect = expected_correlation_curve(REDUCED_X1, x2, REDUCED_T, 0.0, line, eps,
                                        transport="exact")
    resid = (mc.values - expect) / np.maximum(mc.stderr, 1e-300)
    assert abs(resid.mean()) < 1.0


def independent_expectation(x1, x2_values, t, profile, uv_epsilon):
    """The estimator's T0 = 0 expectation, sharing no code with it: the RK45
    map, central-difference Jacobians and the regulated k integral
    int_0^inf k e^{-eps^2 k^2} cos(k s) dk = [1 - (s/eps) F(s/2eps)] / (2 eps^2),
    F the Dawson function."""
    pts = [x1, *x2_values]
    x0 = np.array([rk45_trace(x, t, "left", profile)[0] for x in pts])
    w = np.array([rk45_dx0_dx(x, t, "left", profile) for x in pts])
    s = np.abs(x0[1:] - x0[0])
    k_integral = (1.0 - (s / uv_epsilon) * dawsn(s / (2.0 * uv_epsilon))) / (2.0 * uv_epsilon ** 2)
    return np.abs(w[0] * w[1:] * k_integral) / (2.0 * math.pi)


def test_exact_transport_against_independent_expectation(line):
    # the check above shares left_sector_map with what it checks; this one
    # catches a wrong Jacobian of the exact map
    x2 = np.linspace(1.05, 3.5, 40)
    eps = 0.12
    mc = estimate_correlation(6000, REDUCED_X1, x2, REDUCED_T, 0.0, line,
                              seed=9, uv_epsilon=eps, transport="exact")
    expect = independent_expectation(REDUCED_X1, x2, REDUCED_T, line, eps)
    resid = (mc.values - expect) / np.maximum(mc.stderr, 1e-300)
    assert abs(resid.mean()) < 1.0
    assert np.percentile(np.abs(resid), 90) < 3.5


def test_ensemble_stderr_definition():
    ens = Ensemble(realizations=4, mean=np.array([1.0]),
                   second_moment=np.array([2.0]))
    assert ens.stderr[0] == pytest.approx(0.5)
