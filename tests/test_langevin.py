import math
import tracemalloc

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


# Seed 11, 6000 realizations on REDUCED_X2: three batches of
# 4e7 // (255 modes * 65 points) = 2413.  Values and stderr at x2 indices
# 0, 9, ..., 63, keyed by (temperature / LINE_T_HAWKING, transport).
PINNED_STREAM = {
    (0.0, "matched"): (
        [0.05581903095735795, 0.053220983154670665, 0.04136904013150153,
         0.05204714430453102, 0.011905198006861805, 0.0421548707015999,
         0.012867076455272896, 0.012685574071709315],
        [0.003623378434723452, 0.007042265337131875, 0.014669051755020581,
         0.02902784562318926, 0.06082046834601374, 0.030408702987811564,
         0.030552674406536116, 0.03145951010595581]),
    (60.0, "matched"): (
        [0.046560734015463644, 0.037210337716473106, 0.017061562904798728,
         0.037832555155062515, 0.013177139087722575, 0.04424663761848794,
         0.021370881215086332, 0.022295125262397988],
        [0.003747404747143269, 0.00732812837033392, 0.015318329299883795,
         0.0301323006851321, 0.06302870985485766, 0.031826889888773593,
         0.03191024870216828, 0.03275216398950038]),
    (0.0, "exact"): (
        [0.07256583270199335, 0.05568084329391748, 0.024974738467567443,
         0.0025944097797672492, 0.18201161239309108, 0.03242171833262838,
         0.03356819982622694, 0.11307261147360606],
        [0.003965363168639296, 0.007998431556548894, 0.01597033296153312,
         0.032644455737683965, 0.06781229317795566, 0.06652897171275592,
         0.06630956238538349, 0.06774533575662019]),
}


@pytest.mark.parametrize("t_over_th, transport", list(PINNED_STREAM),
                         ids=["matched-cold", "matched-hot", "exact-cold"])
def test_estimator_seeded_stream_pinned(line, t_over_th, transport):
    """The batch rule and the draw order within a batch (all real parts, then
    all imaginary parts) decide which normal feeds which realization; a seed
    keeps its output to 1e-12 of each column's largest value."""
    mc = estimate_correlation(6000, REDUCED_X1, REDUCED_X2, REDUCED_T,
                              t_over_th * LINE_T_HAWKING, line, seed=11,
                              transport=transport)
    values, stderr = PINNED_STREAM[t_over_th, transport]
    for got, pinned in ((mc.values, values), (mc.stderr, stderr)):
        scale = np.abs(got).max()
        assert np.abs(got[::9] - pinned).max() <= 1e-12 * scale


def test_estimator_peak_memory_near_its_draw_buffer(line):
    """The sampler holds one real buffer of 2 * batch * modes normals and
    batch-by-points temporaries: its traced peak stays under twice the buffer."""
    x2 = np.linspace(1.1, 6.0, 48)
    n_modes = 255
    batch = int(4e7 // (n_modes * (len(x2) + 1)))
    draw_buffer = 2 * batch * n_modes * 8
    tracemalloc.start()
    try:
        estimate_correlation(10_000, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * draw_buffer


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
