import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import dawsn, ndtr

from sonicbh import langevin
from sonicbh.errors import QuadratureError
from sonicbh.langevin import (N_MODES, _dawson_slope, estimate_correlation,
                              expected_correlation_curve, left_sector_map)
from sonicbh.specfun import fourier_integral, thermal_weight

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
        [0.058398384978701055, 0.05849983846654652, 0.0277128483149605,
         0.03497892494942301, 0.02549663835723294, 0.030852268791564247,
         0.017939904555699313, 0.01569601272225153],
        [0.0037544773151428064, 0.007383575096905819, 0.014304119806062514,
         0.029963511743017493, 0.05948942711021591, 0.03066646746655472,
         0.03048967163083387, 0.03048457134115857]),
    (60.0, "matched"): (
        [0.04842188629476034, 0.041486762230885876, 0.009003366085069124,
         0.048919883283282395, 0.025338952970353303, 0.024198188687037925,
         0.002159912084246411, 0.00934563439685709],
        [0.0038949085137686733, 0.007686756525983862, 0.014923879001914405,
         0.031335407680096905, 0.06221160953553015, 0.032313178710639136,
         0.031812067402140175, 0.031739301538356336]),
    (0.0, "exact"): (
        [0.0657383888065432, 0.0550147372005626, 0.05781969341816816,
         0.01802782367019514, 0.033055789237166296, 0.06487472767631074,
         0.09131818227118843, 0.04723718164984528],
        [0.004055551699051178, 0.007835476308438418, 0.015604832161303348,
         0.0314582308963552, 0.06696599352389154, 0.06756711097625026,
         0.06548663282436051, 0.06605506266183005]),
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


# Random123's known-answer vectors for Philox4x32-10: counter, key -> output
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
    ((0xffffffff,) * 4, (0xffffffff,) * 2, (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
    ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344), (0xa4093822, 0x299f31d0),
     (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
]


@pytest.mark.parametrize("counter, key, expect", PHILOX_KAT, ids=["zeros", "ones", "pi"])
def test_philox_known_answers(counter, key, expect):
    words = langevin._philox4x32([np.array([c], dtype=np.uint64) for c in counter], key)
    assert tuple(int(w[0]) for w in words) == expect


def _box_muller(words):
    """Normals 2j and 2j + 1 from block j's four output words, one at a time:
    m and m' the top 53 bits of words 0-1 and 2-3 read as 64-bit integers,
    u = 1 - m 2^-53, v = m' 2^-53."""
    m_u, m_v = ((words[0] | words[1] << 32) >> 11, (words[2] | words[3] << 32) >> 11)
    r = math.sqrt(-2.0 * math.log(1.0 - m_u * 2.0 ** -53))
    angle = 2.0 * math.pi * 2.0 ** -53 * m_v
    return [r * math.cos(angle), r * math.sin(angle)]


@pytest.mark.parametrize("seed, block", [(0, 0), (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 32 + 5),
                                         (0x299f31d0a4093822, 3)])
def test_seed_is_the_philox_key(seed, block):
    """Seed s keys the stream with (s & 0xffffffff, s >> 32), so seeds 0 and
    2^64 - 1 are the all-zero and all-one keys, and block j's counter is
    (j & 0xffffffff, j >> 32, 0, 0).  Seed 0's block 0 is the all-zero known
    answer."""
    if (seed, block) == (0, 0):
        words = PHILOX_KAT[0][2]
    else:
        counter = (block & 0xffffffff, block >> 32, 0, 0)
        words = [int(w[0]) for w in langevin._philox4x32(
            [np.array([c], dtype=np.uint64) for c in counter],
            (seed & 0xffffffff, seed >> 32))]
    got = np.empty(2)
    langevin._standard_normals(seed, 2 * block, got)
    assert got == pytest.approx(_box_muller(words), rel=1e-14, abs=1e-15)


def test_normals_do_not_depend_on_the_split():
    """Any split of a range of normals gives one call's normals: odd starts,
    single normals, and parts across a pass of 2^12 Philox blocks."""
    first, n = 5, 3 * 2 ** 13 + 7
    whole = np.empty(n)
    langevin._standard_normals(17, first, whole)
    for cuts in ([1, 2, 3, 8192, 8193, 16000], list(range(1, 40)), [4095, 4096, 4097, 12289]):
        parts = np.empty(n)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            langevin._standard_normals(17, first + lo, parts[lo:hi])
        assert np.array_equal(parts, whole), cuts


def test_normals_follow_the_standard_normal_law():
    """2^20 normals of seed 1: the mean, variance and fourth moment within 4
    standard errors of 0, 1 and 3 (sqrt(1 / N), sqrt(2 / N), sqrt(96 / N)),
    and the Kolmogorov-Smirnov distance to Phi below 1.95 / sqrt(N), its
    0.1% point."""
    n = 2 ** 20
    z = np.empty(n)
    langevin._standard_normals(1, 0, z)
    assert abs(z.mean()) < 4.0 * math.sqrt(1.0 / n)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(np.mean(z ** 4) - 3.0) < 4.0 * math.sqrt(96.0 / n)
    cdf = ndtr(np.sort(z))
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.95 / math.sqrt(n)


def test_estimator_peak_memory_near_its_draw_buffer(line):
    """The sampler builds the (2 modes, points + 1) matrix A in place and lets
    it go once factored: at most A and one A-sized copy are alive.  Then it
    draws through two buffers of block x (points + 1) doubles, block =
    max(128, 2^13 // (points + 1)) realizations at most: the normals, which
    then take the products, and the field at the probes.  numpy's iterator
    copies the products' two strided inputs through buffers of at most
    getbufsize() doubles each.  The generator's scratch is five uint64 arrays
    of at most 2^12 Philox blocks.  The traced peak stays under all of that."""
    n, iterator, scratch = 10_000, 2 * 8 * np.getbufsize(), 5 * 8 * 2 ** 12
    for points in (1, 2, 48, 512, 1024):
        x2 = np.linspace(1.1, 6.0, points)
        a_matrix = 8 * 2 * N_MODES * (points + 1)
        buffers = 2 * 8 * min(n, max(128, 2 ** 13 // (points + 1))) * (points + 1)
        tracemalloc.start()
        try:
            estimate_correlation(n, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffers + 2 * a_matrix + iterator + scratch, points


class _Recording:
    """The package's normals, keeping a copy of every block it draws."""

    normals = staticmethod(langevin._standard_normals)

    def __init__(self, drawn):
        self.drawn = drawn

    def __call__(self, seed, first, out):
        self.normals(seed, first, out)
        self.drawn.append(out.copy())


def test_estimator_block_does_not_change_the_draws(line, monkeypatch):
    """One realization per block and one block holding every realization draw
    the default's normals in the default's order, and regroup only its moment
    sums: values and stderr agree to 1e-12 of each column's largest value."""
    n, x2 = 1001, np.linspace(1.1, 6.0, 48)

    def run(rows):
        drawn = []
        monkeypatch.setattr(langevin, "_standard_normals", _Recording(drawn))
        if rows is not None:
            monkeypatch.setattr(langevin, "_block_rows", lambda n_realizations, probes: rows)
        mc = estimate_correlation(n, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=9)
        return mc, np.concatenate([g.ravel() for g in drawn]), len(drawn)

    default, normals, blocks = run(None)
    assert blocks == 6                                        # 167 rows a block
    for rows, expect_blocks in ((1, n), (n, 1)):
        mc, drawn, count = run(rows)
        assert count == expect_blocks
        assert np.array_equal(drawn, normals)
        for got, ref in ((mc.values, default.values), (mc.stderr, default.stderr)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_estimator_gemm_blocks_hold_at_least_64_rows(line, monkeypatch):
    """Every block's GEMM, one row per realization, has at least 64 rows
    unless fewer realizations remain, at every number of points; the blocks
    draw every realization once."""
    for points in (1, 48, 128, 512, 1024):
        x2 = np.linspace(1.1, 6.0, points)
        for n in (2, 127, 129, 1001):
            drawn = []
            monkeypatch.setattr(langevin, "_standard_normals", _Recording(drawn))
            estimate_correlation(n, REDUCED_X1, x2, REDUCED_T, 0.0, line, seed=3)
            rows = [len(g) for g in drawn]
            assert sum(rows) == n, (points, n)
            remaining = n - np.cumsum([0] + rows[:-1])
            assert all(r >= min(64, left) for r, left in zip(rows, remaining)), (points, n)


def test_estimator_draws_one_normal_per_probe(line, monkeypatch):
    """Each realization draws min(2 N_MODES, points + 1) normals: the field at
    the probes, not the 2 N_MODES mode amplitudes behind it."""
    drawn, rng = [], np.random.default_rng(3)

    def counting(seed, first, out):
        drawn.append(out.size)
        out[...] = rng.standard_normal(out.shape)

    monkeypatch.setattr(langevin, "_standard_normals", counting)
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

    def unit_vectors(seed, first, out):
        assert out.shape == (d, d)
        out[...] = np.eye(d)

    monkeypatch.setattr(langevin, "_standard_normals", unit_vectors)
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
    rng = np.random.default_rng(3)

    def first_realization_zero(seed, first, out):   # out: (realizations, probes)
        out[...] = rng.standard_normal(out.shape)
        out[0] = 0.0

    monkeypatch.setattr(langevin, "_standard_normals", first_realization_zero)
    mc = estimate_correlation(2, REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line)
    assert np.all(mc.values > 0)
    assert mc.stderr == pytest.approx(mc.values / math.sqrt(2.0), rel=1e-12)


def qawf_expectation(x1, x2_values, t, temperature, profile, uv_epsilon,
                     transport="matched"):
    """The estimator's expectation by one QUADPACK QAWF per probe over the
    whole spectrum, k coth(beta k/2) e^{-(eps k)^2} cos(k s), to 1e-11
    absolute: the reference for the closed vacuum part plus the Bose
    quadrature."""
    pts = np.concatenate([[x1], np.asarray(x2_values, dtype=float)])
    x0, w = left_sector_map(pts, t, profile, transport)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    spectral = lambda k: thermal_weight(k, beta) * math.exp(-(uv_epsilon * k) ** 2)
    return np.array([abs(w[0] * w2 * fourier_integral(spectral, 0.0, abs(x0_2 - x0[0]),
                                                      kind="cos").value) / (2.0 * math.pi)
                     for x0_2, w2 in zip(x0[1:], w[1:])])


def mpmath_vacuum_expectation(x1, x2_values, t, profile, uv_epsilon, transport="matched"):
    """The T0 = 0 expectation on the package's map, its k integral
    [1 - 2x F(x)] / (2 eps^2), x = s / (2 eps), at 40 digits."""
    pts = np.concatenate([[x1], np.asarray(x2_values, dtype=float)])
    x0, w = left_sector_map(pts, t, profile, transport)
    with mp.workdps(40):
        eps = mp.mpf(uv_epsilon)
        out = []
        for x0_2, w2 in zip(x0[1:], w[1:]):
            x = abs(mp.mpf(float(x0_2)) - mp.mpf(float(x0[0]))) / (2 * eps)
            slope = 1 - x * mp.sqrt(mp.pi) * mp.exp(-x * x) * mp.erfi(x)
            out.append(float(abs(mp.mpf(float(w[0])) * mp.mpf(float(w2)) * slope)
                             / (4 * mp.pi * eps ** 2)))
    return np.array(out)


@pytest.mark.parametrize("transport", ["matched", "exact"])
@pytest.mark.parametrize("t_over_th", [0.0, 5.0, 20.0, 60.0])
def test_expectation_matches_full_spectrum_quadrature(line, t_over_th, transport):
    """The closed vacuum part plus the Bose quadrature agree with the
    whole-spectrum QAWF to 1e-10 of the curve's maximum, over regulators
    from 0.005 to 0.5 and times from 25 to 40, on 12 probes: the two routes
    differ by the QAWF's own error (worst 1.2e-11, at 60 T_H, eps = 0.005,
    t = 25)."""
    x2 = np.linspace(1.1, 6.0, 12)
    temperature = t_over_th * LINE_T_HAWKING
    for eps in (0.005, 0.02, 0.12, 0.5):
        for t in (25.0, 32.0, 40.0):
            got = expected_correlation_curve(REDUCED_X1, x2, t, temperature, line, eps,
                                             transport)
            ref = qawf_expectation(REDUCED_X1, x2, t, temperature, line, eps, transport)
            assert np.abs(got - ref).max() <= 1e-10 * ref.max(), (eps, t)


def test_zero_temperature_expectation_against_mpmath(line):
    """At the check script's inputs the T0 = 0 expectation is within 1e-13 of
    the 40-digit value at every probe (the whole-spectrum QAWF: 1.35e-12)."""
    eps = 0.12
    got = expected_correlation_curve(REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, eps)
    ref = mpmath_vacuum_expectation(REDUCED_X1, REDUCED_X2, REDUCED_T, line, eps)
    assert np.abs(got / ref - 1.0).max() <= 1e-13


def test_expectation_answers_where_the_full_spectrum_quadrature_fails(line):
    """At eps = 0.05, t = 40 the nearest exact-transport probe sits at
    s = 0.91 eps: the whole Gaussian envelope lies inside QAWF's first cycle
    2 pi / s, and the 1e-11 absolute tolerance on an integral of size
    ~1/(2 eps^2) = 200 is out of reach, so QAWF stops with its overflow
    constant.  The closed form answers there, within 1e-13 of the 40-digit
    value at every probe."""
    x2 = np.linspace(1.1, 6.0, 12)
    with pytest.raises(QuadratureError):
        qawf_expectation(REDUCED_X1, x2, 40.0, 0.0, line, 0.05, "exact")
    got = expected_correlation_curve(REDUCED_X1, x2, 40.0, 0.0, line, 0.05, "exact")
    ref = mpmath_vacuum_expectation(REDUCED_X1, x2, 40.0, line, 0.05, "exact")
    assert np.abs(got / ref - 1.0).max() <= 1e-13


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-8, 0.1, 0.5, 0.92413887, 0.9241389,
                               1.0, 2.5, 5.0, 7.9999999, 8.0, 8.0000001, 12.0, 100.0,
                               1e3, 1e6])
def test_dawson_slope_against_mpmath(x):
    """F'(x) = 1 - 2x F(x) within 1e-15 absolute of its 40-digit value, and
    within 1e-13 relative wherever |F'| > 1e-3: through its zero near
    x = 0.924 and on both sides of the switch to the asymptotic series at 8."""
    with mp.workdps(40):
        xm = mp.mpf(x)
        exact = float(1 - xm * mp.sqrt(mp.pi) * mp.exp(-xm * xm) * mp.erfi(xm))
    got = _dawson_slope(x)
    assert abs(got - exact) <= 1e-15
    if abs(exact) > 1e-3:
        assert abs(got - exact) <= 1e-13 * abs(exact)


def test_dawson_slope_limits():
    assert _dawson_slope(0.0) == 1.0
    assert _dawson_slope(math.inf) == 0.0


def test_zero_temperature_expectation_takes_no_quadrature(line, quadpack_calls):
    """At T0 = 0 the Bose part is exactly 0, so the expectation makes no
    QUADPACK call; a finite T0 makes one per probe."""
    expected_correlation_curve(REDUCED_X1, REDUCED_X2, REDUCED_T, 0.0, line, 0.12)
    assert quadpack_calls == []
    expected_correlation_curve(REDUCED_X1, REDUCED_X2[:4], REDUCED_T, 5.0 * LINE_T_HAWKING,
                               line, 0.12)
    assert len(quadpack_calls) == 4

