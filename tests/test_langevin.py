import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import dawsn

from sonicbh import langevin
from sonicbh.langevin import (N_MODES, estimate_correlation, expected_correlation_curve,
                              left_sector_map)

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


# Seed 11, 6000 realizations on REDUCED_X2: 65 probes, so each realization
# takes 65 normals of the seed's stream.  Values and stderr at x2 indices
# 0, 9, ..., 63, keyed by (temperature / LINE_T_HAWKING, transport).
PINNED_STREAM = {
    (0.0, "matched"): (
        [0.05963579096326103, 0.054045894100202135, 0.036190144516209714,
         0.04743237945832916, 0.06243622046263971, 0.010368341580054351,
         0.0776322250166116, 0.0354703277014629],
        [0.003709617685297065, 0.007467997602389933, 0.015003769809640093,
         0.02954167555918963, 0.06001479291812304, 0.030676362059776502,
         0.03131238850117668, 0.032029407195466354]),
    (60.0, "matched"): (
        [0.0493057091722528, 0.03610464637057533, 0.015283451808056592,
         0.0160442687840469, 0.06282517325813602, 0.037142706879633794,
         0.010113319389954177, 0.031431326822118286],
        [0.0038482848308825143, 0.007778653626732393, 0.01567263651586542,
         0.0307699812318879, 0.062388827821018275, 0.031834861909380494,
         0.03221322295869527, 0.03367861974858157]),
    (0.0, "exact"): (
        [0.06716270053983524, 0.05208430664642424, 0.03966896409099986,
         0.059835386594939144, 0.07759456318018253, 0.15529045646463602,
         0.0453647153715866, 0.13699388774891966],
        [0.004007373252055797, 0.008063746369420652, 0.016074366600817513,
         0.0329936630191333, 0.06685006426127307, 0.06616812116963693,
         0.06799527871081136, 0.06517774245994533]),
}


@pytest.mark.parametrize("t_over_th, transport", list(PINNED_STREAM),
                         ids=["matched-cold", "matched-hot", "exact-cold"])
def test_estimator_seeded_stream_pinned(line, t_over_th, transport):
    """Realization i reads normals i d, ..., (i + 1) d - 1 of the seed's
    stream, d = min(2 N_MODES, probes), through the QR factor of the field's
    covariance at the probes; a seed keeps its output to 1e-12 of each
    column's largest value."""
    mc = estimate_correlation(6000, REDUCED_X1, REDUCED_X2, REDUCED_T,
                              t_over_th * LINE_T_HAWKING, line, seed=11,
                              transport=transport)
    values, stderr = PINNED_STREAM[t_over_th, transport]
    for got, pinned in ((mc.values, values), (mc.stderr, stderr)):
        scale = np.abs(got).max()
        assert np.abs(got[::9] - pinned).max() <= 1e-12 * scale


def test_estimator_peak_memory_near_its_draw_buffer(line):
    """The sampler fills three buffers in place, the (block, d) normals, the
    field at the probes and the products, d = min(2 modes, points + 1), each
    of at most _DRAW_BLOCK doubles.  Before them it builds the
    (2 modes, points + 1) matrix A, whose sines, cosines, phases and scales
    hold at most four A-sized arrays at once.  The traced peak stays under
    both together at every number of points up to the default 48-point scan."""
    buffers = 3 * 8 * langevin._DRAW_BLOCK
    for points in (48, 1, 2):
        x2 = np.linspace(1.1, 6.0, points)
        a_matrix = 8 * 2 * N_MODES * (points + 1)
        tracemalloc.start()
        try:
            estimate_correlation(10_000, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffers + 4 * a_matrix, points


def test_estimator_block_does_not_change_the_draws(line, monkeypatch):
    """One realization per block and one block holding every realization draw
    the default's normals in the default's order, and regroup only its moment
    sums: values and stderr agree to 1e-12 of each column's largest value."""
    n, x2 = 1001, np.linspace(1.1, 6.0, 48)
    generator = np.random.Generator

    def run(block):
        drawn = []

        class Recording:
            def __init__(self, bit_generator):
                self.rng = generator(bit_generator)

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                drawn.append(out.ravel().copy())

        monkeypatch.setattr(np.random, "Generator", Recording)
        monkeypatch.setattr(langevin, "_DRAW_BLOCK", block)
        mc = estimate_correlation(n, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=9)
        return mc, np.concatenate(drawn), len(drawn)

    default, normals, blocks = run(langevin._DRAW_BLOCK)
    assert blocks == 2
    for block, expect_blocks in ((1, n), (n * len(x2) + n, 1)):
        mc, drawn, count = run(block)
        assert count == expect_blocks
        assert np.array_equal(drawn, normals)
        for got, ref in ((mc.values, default.values), (mc.stderr, default.stderr)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_estimator_draws_one_normal_per_probe(line, monkeypatch):
    """Each realization draws min(2 N_MODES, points + 1) normals: the field at
    the probes, not the 2 N_MODES mode amplitudes behind it."""
    drawn = []

    class Counting:
        def __init__(self, bit_generator):
            self.rng = np.random.default_rng(3)

        def standard_normal(self, out):
            drawn.append(out.size)
            out[...] = self.rng.standard_normal(out.shape)

    monkeypatch.setattr(np.random, "Generator", Counting)
    for points in (1, 48, 600):
        drawn.clear()
        estimate_correlation(3, REDUCED_X1, np.linspace(1.1, 6.0, points), REDUCED_T,
                             0.0, line)
        assert sum(drawn) == 3 * min(2 * N_MODES, points + 1), points


@pytest.mark.parametrize("t_over_th", [0.0, 60.0], ids=["cold", "hot"])
def test_estimator_exact_in_law(line, monkeypatch, t_over_th):
    """Dealt the d unit vectors as its d realizations, the sampler's mean
    product is the field's covariance at the probes over d: the finite-mode
    sum sum_k (2 k sd_k)^2 w1 w2 cos(k (x0_2 - x0_1)), formed here from the
    per-mode variance coth(beta k/2) / (2 k L) e^{-(eps k)^2} on the padded
    domain L.  A draw of all 2 N_MODES mode amplitudes has the same covariance."""
    pts = np.concatenate([[REDUCED_X1], REDUCED_X2])
    d = min(2 * N_MODES, len(pts))

    class UnitVectors:
        def __init__(self, bit_generator):
            pass

        def standard_normal(self, out):
            assert out.shape == (d, d)
            out[...] = np.eye(d)

    monkeypatch.setattr(np.random, "Generator", UnitVectors)
    eps, temperature = 0.12, t_over_th * LINE_T_HAWKING
    mc = estimate_correlation(d, REDUCED_X1, REDUCED_X2, REDUCED_T, temperature, line,
                              uv_epsilon=eps)
    x0, w = left_sector_map(pts, REDUCED_T, line)
    span = x0.max() - x0.min()
    length = span + 8.0 * max(span, line.a)
    k = 2.0 * math.pi * np.arange(1, N_MODES + 1) / length
    weight = k if temperature == 0.0 else k / np.tanh(k / (2.0 * temperature))
    per_mode = weight / length * np.exp(-(eps * k) ** 2)      # (2 k sd_k)^2
    covariance = w[0] * w[1:] * (per_mode @ np.cos(np.outer(k, x0[1:] - x0[0])))
    assert d * mc.values == pytest.approx(np.abs(covariance), rel=1e-12)


def test_estimator_variance_halves(line):
    m1 = estimate_correlation(1500, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=7)
    m2 = estimate_correlation(3000, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, seed=7)
    ratio = (m1.stderr ** 2 / m2.stderr ** 2)
    assert np.median(ratio) == pytest.approx(2.0, rel=0.2)


def test_estimator_thermal_dilution(line):
    """Heating lowers the pair peak: at 60 T_H its expected height falls from
    0.064 to 0.041 (the contrast rises instead, as the hot background
    collapses).  The peak is read where the lower confidence envelope
    value - 2 stderr is highest."""
    eps, hot_t0 = 0.15, 60.0 * LINE_T_HAWKING
    cold = estimate_correlation(8000, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0,
                                line, seed=42, uv_epsilon=eps)
    hot = estimate_correlation(8000, REDUCED_X1, REDUCED_X2, REDUCED_T, hot_t0,
                               line, seed=42, uv_epsilon=eps)
    i, j = (int(np.argmax(mc.values - 2.0 * mc.stderr)) for mc in (cold, hot))
    drop = cold.values[i] - hot.values[j]
    assert drop > 3.0 * math.hypot(cold.stderr[i], hot.stderr[j])
    expect_cold, expect_hot = (
        expected_correlation_curve(REDUCED_X1, REDUCED_X2, REDUCED_T, t0, line, eps)
        for t0 in (0.0, hot_t0))
    assert expect_hot.max() < expect_cold.max()


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


def test_ensemble_stderr_definition(line, monkeypatch):
    """stderr is sqrt((<p^2> - <p>^2) / N) over the N products p: with two
    realizations, the first drawn all zero, it is the value over sqrt(2)
    (a 1/(N - 1) variance would give the value itself)."""
    class FirstRealizationZero:
        def __init__(self, bit_generator):
            self.rng = np.random.default_rng(3)

        def standard_normal(self, out):          # out: (realizations, probes)
            out[...] = self.rng.standard_normal(out.shape)
            out[0] = 0.0

    monkeypatch.setattr(np.random, "Generator", FirstRealizationZero)
    mc = estimate_correlation(2, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line)
    assert np.all(mc.values > 0)
    assert mc.stderr == pytest.approx(mc.values / math.sqrt(2.0), rel=1e-12)
