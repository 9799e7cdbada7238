import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sonicbh
from sonicbh.characteristics import entanglement_boundary, matched_exponent
from sonicbh.correlations import (CorrelationGrid, build_correlation_grid,
                                  corr_closed_form, corr_homogeneous,
                                  corr_homogeneous_closed_form,
                                  corr_mode_sum_oracle, detect_peak,
                                  open_correction_er, thermal_momentum_integral)
from sonicbh import correlations
from sonicbh.errors import ExtrapolationError, RegimeError, RegionError
from sonicbh.specfun import thermal_weight

from conftest import LINE_T_HAWKING, er_mpmath, mode_function, mode_function_pde_residual
from flow_oracle import line_velocity
from regulator_ladder import exponential_ladder, gauss_ladder, neville_to_zero

mp.mp.dps = 30

T_LONG = 100.0


# --------------------------------------------------------------------------
# momentum
# --------------------------------------------------------------------------

@pytest.mark.parametrize("k", [-1.7, 1.7])
def test_momentum_of_mode_against_analytic(line, k):
    # Pi u = (d_t + v d_x) u; for these modes the transport identities give
    # (d_t + v d_x) x0 = +- e^{-kappa F} (left/right phase), so
    # Pi u = sign(k)-resolved i k e^{-kappa F} u.  Richardson-refined finite
    # differences must land on that to 1e-8.
    x, t = 0.3, 2.0
    v = line_velocity(x, t, line)

    def pi_fd(h):
        du_dt = (mode_function(k, x, t + h, line) - mode_function(k, x, t - h, line)) / (2 * h)
        du_dx = (mode_function(k, x + h, t, line) - mode_function(k, x - h, t, line)) / (2 * h)
        return du_dt + v * du_dx

    rich = (4.0 * pi_fd(5e-4) - pi_fd(1e-3)) / 3.0
    w = math.exp(-line.kappa * line.sigma_accumulated(t))
    u = mode_function(k, x, t, line)
    analytic = 1j * k * w * u if k < 0 else -1j * k * w * u
    assert rich == pytest.approx(analytic, rel=1e-8)


# --------------------------------------------------------------------------
# regulated thermal integrals
# --------------------------------------------------------------------------

def test_neville_extrapolation_quadratic():
    xs = [0.4, 0.2, 0.1, 0.05]
    ys = [7.0 + 3 * x - 2 * x * x for x in xs]
    assert neville_to_zero(xs, ys) == pytest.approx(7.0, rel=1e-12)


@pytest.mark.parametrize("beta", [5.0, math.inf])
def test_one_quadrature_per_component(monkeypatch, beta):
    # vacuum part in closed form, Bose part in one quadrature: no regulator ladder
    calls, original = [], correlations.fourier_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(correlations, "fourier_integral", counted)
    corr_homogeneous(-16.0, T_LONG, beta)
    assert len(calls) == 2
    calls.clear()
    thermal_momentum_integral(0.3, beta)
    assert len(calls) == 1


@pytest.mark.parametrize("sep,beta", [(0.0072, math.pi / 2), (0.11, math.pi / 2),
                                      (1.3, 2.0), (0.4, math.inf)])
def test_thermal_momentum_integral_against_csch(sep, beta):
    val = thermal_momentum_integral(sep, beta)
    if math.isinf(beta):
        expected = -1.0 / sep ** 2
    else:
        expected = -(math.pi / beta) ** 2 / math.sinh(math.pi * sep / beta) ** 2
    assert val == pytest.approx(expected, rel=1e-6)


def test_thermal_momentum_integral_exponential_regulator_agrees():
    a = thermal_momentum_integral(0.3, 2.5)
    b = exponential_ladder(lambda k: thermal_weight(k, 2.5), 0.3, 2.5, "cos")
    assert a == pytest.approx(b, rel=1e-6)


def test_thermal_momentum_integral_gauss_regulator_agrees():
    a = thermal_momentum_integral(0.3, 2.5)
    b = gauss_ladder(lambda k: thermal_weight(k, 2.5), 0.3, 2.5, "cos")
    assert a == pytest.approx(b, rel=1e-6)


def test_thermal_momentum_integral_refuses_cancellation():
    # at 6 beta the result is 4e-14 of the vacuum part -1/s^2: below the
    # quadrature's accuracy
    with pytest.raises(ExtrapolationError, match="cancels the vacuum part"):
        thermal_momentum_integral(6.0, 1.0)


# --------------------------------------------------------------------------
# homogeneous-region correlation
# --------------------------------------------------------------------------

def test_homogeneous_translation_invariance(line):
    # value depends on the pair only through x1 - x2 by construction;
    # the API takes dx directly, so invariance is the statement that equal
    # differences yield equal values
    v1 = corr_homogeneous(12.0 - 26.0, T_LONG, 5.0)
    v2 = corr_homogeneous((12.0 + 3.3) - (26.0 + 3.3), T_LONG, 5.0)
    assert v1 == v2


def test_homogeneous_conjugation(line):
    v = corr_homogeneous(3.0, T_LONG, 5.0)
    assert corr_homogeneous(-3.0, T_LONG, 5.0) == pytest.approx(v.conjugate(), rel=1e-12)


def test_homogeneous_two_regulator_families_agree():
    v = corr_homogeneous(-16.0, T_LONG, 5.0)
    f = lambda k: math.sqrt(k) * thermal_weight(k, 5.0) / math.sqrt(2.0)
    # dx < 0: e^{-i k dx} has imaginary part +sin(k |dx|)
    for ladder in (exponential_ladder, gauss_ladder):
        v_reg = complex(ladder(f, -16.0, 5.0, "cos"), ladder(f, -16.0, 5.0, "sin"))
        assert v == pytest.approx(v_reg, rel=1e-6)


def _image_sum_exact(dx, beta):
    """The uniform-region correlation in 40 digits through the thermal image sum,
    coth = 1 + 2 sum e^{-n beta k}:
    Gamma(5/2)/sqrt(2) [(i d)^{-5/2} + 2 beta^{-5/2} zeta(5/2, 1 + i d/beta)]."""
    with mp.workdps(40):
        d = mp.mpf(abs(dx))
        s = (1j * d) ** mp.mpf("-2.5")
        if not math.isinf(beta):
            b = mp.mpf(beta)
            s += 2 * b ** mp.mpf("-2.5") * mp.zeta(mp.mpf("2.5"), 1 + 1j * d / b)
        val = mp.gamma(mp.mpf("2.5")) * s / mp.sqrt(2)
        return val if dx > 0 else mp.conj(val)


def _rel_to_exact(value: complex, exact) -> float:
    with mp.workdps(40):
        return float(abs(mp.mpc(value) - exact) / abs(exact))


def test_homogeneous_against_image_sum_oracle():
    # (-500, 1000): a Bose bump much narrower than the first quadrature cycle
    for dx, beta in [(-16.0, 5.0), (6.0, 2.0), (-30.0, 0.2), (-1.0, 1.05), (-25.0, 62.8),
                     (9.0, math.inf), (-500.0, 1000.0)]:
        exact = complex(_image_sum_exact(dx, beta))
        assert corr_homogeneous(dx, T_LONG, beta) == pytest.approx(exact, rel=1e-10)
        assert corr_homogeneous_closed_form(dx, beta) == pytest.approx(exact, rel=2e-15)


def test_homogeneous_quadrature_refuses_below_its_beta_floor():
    # at the floor it holds 1e-11 of the image series over |dx| from 1e-6 to
    # 1e6; below it the quadrature is refused by name, not answered off
    floor = correlations._HOMOGENEOUS_ORACLE_MIN_BETA
    for dx in (-1e-6, -16.6, 1e6):
        exact = complex(_image_sum_exact(dx, floor))
        assert corr_homogeneous(dx, T_LONG, floor) == pytest.approx(exact, rel=1e-11)
    for beta in (0.99 * floor, 1e-300, 1e-308):
        with pytest.raises(RegimeError, match=f"beta = {beta:.6g}:"):
            corr_homogeneous(-16.6, T_LONG, beta)


@given(log_beta=st.floats(min_value=-300.0, max_value=300.0),
       log_dx=st.floats(min_value=-3.0, max_value=4.0), sign=st.sampled_from([-1.0, 1.0]))
def test_homogeneous_closed_form_against_image_sum(log_beta, log_dx, sign):
    # beta from 1e-300, where beta^{-5/2} alone overflows, to 1e300
    dx, beta = sign * 10.0 ** log_dx, 10.0 ** log_beta
    value = corr_homogeneous_closed_form(dx, beta)
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert _rel_to_exact(value, _image_sum_exact(dx, beta)) <= 2e-15


def test_homogeneous_closed_form_zero_temperature_is_the_vacuum_part():
    # at beta = inf the Bose part is exactly 0: the quadrature route's bits
    for dx in (-30.0, -4.0, 9.0):
        assert corr_homogeneous_closed_form(dx, math.inf) == corr_homogeneous(dx, T_LONG,
                                                                               math.inf)


@pytest.mark.parametrize("beta, x1, x2", [
    *(pytest.param(beta, -12.0, np.linspace(1.5, 30.0, 24), id=str(beta))
      for beta in [0.05, 1.05, 3.14, 62.8, 1e3, math.inf]),
    *(pytest.param(beta, 1.5, 1.5 + beta * np.geomspace(1e-5, 1e-2, 24), id=f"narrow-{beta:g}")
      for beta in [5.0, 1e3]),
])
def test_uniform_rows_of_both_methods_agree(line, beta, x1, x2):
    # x1 = -12 lies beyond x_minus(60) = -6.93: every row is uniform, |dx| from
    # 13.5 to 42, so beta < 1000 |dx|.  The quadrature is asked for 1e-11 of
    # the result's scale and mostly does better (~1e-13), but at beta = 0.05,
    # x2 = 6.4565 it misses the 40-digit image sum by 2.1e-12, where the series
    # holds to 1e-16.  x1 = 1.5 > a pairs with x2 at |dx| from 1e-5 to 1e-2 of
    # beta, where the Bose bump is far narrower than QAWF's first cycle
    closed = build_correlation_grid(x1, x2, 60.0, beta, line)
    oracle = build_correlation_grid(x1, x2, 60.0, beta, line, method="mode_sum_oracle")
    assert set(closed.regions) == set(oracle.regions) == {"uniform"}
    for x, c, o in zip(x2, closed.values, oracle.values):
        assert abs(c - o) <= 1e-11 * c
        if beta == 0.05 and x == x2[4]:
            exact = abs(_image_sum_exact(-12.0 - x, beta))
            assert abs(c - exact) <= 2e-15 * exact < abs(o - exact)


@pytest.mark.parametrize("beta", [5e-324, 1e-310, math.nan, 0.0, -1.0])
def test_homogeneous_closed_form_refuses_beta_out_of_range(beta):
    # the value leaves the float range below beta ~ 1e-308 at |dx| = 1
    if beta > 0:
        with pytest.raises(RegimeError, match="beta = "):
            corr_homogeneous_closed_form(-1.0, beta)
    else:
        with pytest.raises(ValueError, match="beta must be positive"):
            corr_homogeneous_closed_form(-1.0, beta)


def test_homogeneous_zero_temperature_power_law():
    v = corr_homogeneous(9.0, T_LONG, math.inf)
    expected_mod = math.gamma(2.5) / math.sqrt(2.0) / 9.0 ** 2.5
    assert abs(v) == pytest.approx(expected_mod, rel=1e-6)
    # (i dx)^{-5/2} has phase -5 pi/4: equal real and imaginary parts
    assert abs(abs(v.real) - abs(v.imag)) <= 1e-15 * abs(v)


# --------------------------------------------------------------------------
# matched closed form vs mode-sum oracle
# --------------------------------------------------------------------------

PAIR_GRID = ([(-4.0, x2) for x2 in (2.5, 4.0, 4.61, 6.0, 8.0)]
             + [(-6.0, x2) for x2 in (2.0, 3.0, 5.0, 7.0, 9.5)])


def test_closed_form_zero_temperature_limit_mode(line):
    # cosech small-argument expansion: (pi/b)^2 csch^2(pi A/b) -> 1/A^2
    c_inf = corr_closed_form(-4.0, 6.0, T_LONG, math.inf, line)
    c_big = corr_closed_form(-4.0, 6.0, T_LONG, 1e6, line)
    assert c_inf == pytest.approx(c_big, rel=1e-6)


def test_closed_form_region_errors(line):
    with pytest.raises(RegionError, match="corr_homogeneous"):
        corr_closed_form(-12.0, 6.0, T_LONG, math.inf, line)   # x1 beyond x_minus
    with pytest.raises(RegionError, match="corr_homogeneous"):
        corr_closed_form(-4.0, 12.0, T_LONG, math.inf, line)   # x2 beyond x_plus
    with pytest.raises(RegionError):
        corr_closed_form(-0.5, 6.0, T_LONG, math.inf, line)    # x1 not inside


def test_closed_form_is_overflow_safe(line):
    # t = 100 tau drives exponents ~ 200; log-space assembly must survive
    val = corr_closed_form(-4.0, 6.0, T_LONG, math.inf, line)
    assert math.isfinite(val) and val < 0


CLOSED_FORM_BETAS = [0.05, 0.5, 5.0, 62.8, 1e3, 1e8, 1e12, 1e16, 1e40, 1e140, 1e200,
                     math.inf]


@pytest.mark.parametrize("t", [40.0, 100.0, 300.0, 800.0, 2000.0])
def test_closed_form_against_mpmath_csch(line, t):
    # z = pi (X1 + X2)/beta spans 0 (beta = inf), values far below 1e-17, where
    # ln(1 - e^{-2z}) rounds to ln 0, and values whose csch^2 underflows
    xm, xp = entanglement_boundary(t, line)
    a = line.a
    x1s = [-a + f * (xm + a) for f in (0.05, 0.25, 0.5, 0.75, 0.95)]
    x2s = [a + f * (xp - a) for f in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)]
    with mp.workdps(50):
        for x1 in x1s:
            for x2 in x2s:
                big_x1 = a * mp.exp(matched_exponent(x1, t, line))
                big_x2 = a * mp.exp(matched_exponent(x2, t, line))
                cold = -(big_x1 * big_x2 / a ** 2) / (big_x1 + big_x2) ** 2
                for beta in CLOSED_FORM_BETAS:
                    exact = cold
                    if not math.isinf(beta):
                        z = mp.pi * (big_x1 + big_x2) / beta
                        exact = cold * (z * mp.csch(z)) ** 2
                    val = corr_closed_form(x1, x2, t, beta, line)
                    assert val == pytest.approx(float(exact), rel=1e-12), (x1, x2, beta)


@pytest.mark.parametrize("t, beta", [(300.0, 1000.0), (800.0, 5.0)])
def test_closed_vs_mode_sum_at_long_times(line, t, beta):
    for x1, x2 in PAIR_GRID[::3]:
        c = corr_closed_form(x1, x2, t, beta, line)
        o = corr_mode_sum_oracle(x1, x2, t, beta, line)
        assert o == pytest.approx(c, rel=1e-4)


@pytest.mark.parametrize("x1,x2", PAIR_GRID)
def test_closed_vs_mode_sum_zero_temperature(line, x1, x2):
    c = corr_closed_form(x1, x2, T_LONG, math.inf, line)
    o = corr_mode_sum_oracle(x1, x2, T_LONG, math.inf, line)
    assert o == pytest.approx(c, rel=1e-4)


def test_closed_vs_mode_sum_finite_temperature(line):
    beta = 1.0 / (20.0 * LINE_T_HAWKING)
    for x1, x2 in PAIR_GRID[::3]:
        c = corr_closed_form(x1, x2, T_LONG, beta, line)
        o = corr_mode_sum_oracle(x1, x2, T_LONG, beta, line)
        assert o == pytest.approx(c, rel=1e-4)


def test_mode_sum_refuses_pairs_beyond_wedge(line):
    # matched pairs only, as the closed form: a grid routes the rest to corr_homogeneous
    xp = entanglement_boundary(T_LONG, line)[1]
    for x1, x2 in ((xp + 2.0, xp + 5.0), (-4.0, xp + 1.0), (-xp - 1.0, 4.0)):
        with pytest.raises(RegionError, match="corr_homogeneous"):
            corr_mode_sum_oracle(x1, x2, T_LONG, 5.0, line)


# --------------------------------------------------------------------------
# grids and peak detection
# --------------------------------------------------------------------------

def _grid(line, x1, beta=math.inf, lo=1.5, hi=30.0, n=96, t=T_LONG):
    return build_correlation_grid(x1, np.linspace(lo, hi, n), t, beta, line)


def test_grid_routes_regions(line):
    g = _grid(line, -4.0)
    xp = entanglement_boundary(T_LONG, line)[1]
    for x2, region in zip(g.x2, g.regions):
        assert region == ("matched" if x2 < xp else "uniform")


def test_grid_all_uniform_when_probe_outside_wedge(line):
    g = _grid(line, -12.0)
    assert set(g.regions) == {"uniform"}


def test_detect_peak_needs_samples(line):
    g = _grid(line, -4.0, n=8)
    with pytest.raises(ValueError, match="16"):
        detect_peak(g)


def test_flat_grid_has_no_peak():
    grid = CorrelationGrid(x2=np.linspace(0, 1, 32), values=np.ones(32),
                           regions=["matched"] * 32)
    assert not detect_peak(grid).present


def test_long_time_peak_present_and_mirrored(line):
    pk = detect_peak(_grid(line, -4.0))
    assert pk.present
    # the inside probe at -4 pairs with an outside peak near +4.6
    assert pk.location == pytest.approx(4.61, abs=0.3)
    pk6 = detect_peak(_grid(line, -6.0))
    assert pk6.present and pk6.location > pk.location


def test_peak_height_weakly_dependent_on_probe_depth(line):
    # the matched pair peak saturates at 1/(4 a^2) regardless of the probe
    h4 = max(_grid(line, -4.0).values)
    h6 = max(_grid(line, -6.0).values)
    assert h4 == pytest.approx(0.25, rel=1e-2)
    assert h6 == pytest.approx(h4, rel=1e-2)


def test_reversed_grid_gives_same_peak(line):
    # the off-peak window is 15% of |span|: the sample order must not matter
    x2 = np.linspace(1.5, 30.0, 64)
    ascending = detect_peak(build_correlation_grid(-4.0, x2, T_LONG, math.inf, line))
    reversed_ = detect_peak(build_correlation_grid(-4.0, x2[::-1], T_LONG, math.inf, line))
    assert reversed_ == ascending


def test_probe_beyond_wedge_has_no_peak(line):
    assert not detect_peak(_grid(line, -11.5, hi=14.0, n=64)).present


def test_peak_presence_flips_at_wedge_boundary(line):
    xp = entanglement_boundary(T_LONG, line)[1]
    x1s = np.arange(-11.4, -10.4, 0.05)
    present = [detect_peak(_grid(line, float(x1), hi=14.0, n=64)).present for x1 in x1s]
    flips = [i for i in range(len(present) - 1) if present[i] != present[i + 1]]
    assert len(flips) == 1
    lo, hi = x1s[flips[0]], x1s[flips[0] + 1]
    assert lo < -xp < hi + 1e-12


def test_thermal_peak_dilution_ordering(line):
    contrasts = []
    for mult in (0.0, 20.0, 60.0):
        beta = math.inf if mult == 0.0 else 1.0 / (mult * LINE_T_HAWKING)
        contrasts.append(detect_peak(_grid(line, -4.0, beta=beta)).contrast)
    assert contrasts[0] > contrasts[1] > contrasts[2]


# --------------------------------------------------------------------------
# open-system correction
# --------------------------------------------------------------------------

T_HOT = 100.0 * LINE_T_HAWKING


def test_er_vanishes_at_zero_coupling(line):
    assert open_correction_er(0.05, 60.0, 0.0, T_HOT, line) == 0.0


def test_er_monotone_growth_after_transient(line):
    with pytest.raises(RegimeError, match=r"^e_r at T0 = 0\.00795775: T0 < 10 T_H = 0\.159155, "):
        open_correction_er(0.05, 60.0, 1e-7, 0.5 * LINE_T_HAWKING, line)
    ts = np.linspace(35.0, 100.0, 27)
    ers = np.array([open_correction_er(0.05, float(t), 1e-7, T_HOT, line, x1=-4.0)
                    for t in ts])
    # growth with flat spots at 2kt = 2 pi n; allow only sub-1e-3 dips there
    rel_drops = np.diff(ers) / ers[:-1]
    assert rel_drops.min() > -1e-3
    assert ers[-1] > 2.0 * ers[0]


def test_er_nonincreasing_in_k(line):
    ers = [open_correction_er(k, 80.0, 1e-7, T_HOT, line, x1=-4.0)
           for k in (0.02, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(ers, ers[1:]))


def test_er_quadratic_in_coupling(line):
    e1 = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0)
    e2 = open_correction_er(0.05, 80.0, 2e-7, T_HOT, line, x1=-4.0)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_er_regression_baseline(line):
    # no external numbers exist for this curve; freeze the artifact's own values
    e = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0)
    assert e == pytest.approx(6.93009e-11, rel=1e-3)


@pytest.mark.parametrize("k, t, lam, why", [
    (1.5172892373928883, 40.0, 1e-4, r": k a > 1, "),
    (0.5581795167475397, 20.0, 1e-7, r": \|cos\(2 k X1\)\| = 1\.61e-16 is below 0\.1, "),
])
def test_er_refused_outside_its_derivation(line, k, t, lam, why):
    # both sit at a pole of 1/cos(2 k X1), once read as e_r (4.2e12 at
    # lam = 0.01, and 919), and only the first lies past the small-k window
    with pytest.raises(RegimeError, match=rf"^e_r at k = {k:.6g}, t = {t:g}, a = 1, X1 = .*{why}"):
        open_correction_er(k, t, lam, 0.5, line)


def test_er_probe_outside_wedge_rejected(line):
    with pytest.raises(RegionError):
        open_correction_er(0.05, 10.0, 1e-7, T_HOT, line, x1=-8.0)


@pytest.mark.parametrize("temperature", [T_HOT, 2.0])
@pytest.mark.parametrize("x1", [None, -1.0000001])
@pytest.mark.parametrize("k", [0.05, 0.2, 1e-6, 1e-8, 1e-10])
def test_er_against_mpmath(line, k, x1, temperature):
    # the mode weights w1 w2 = (X1/a)^2 underflow to 0 past t ~ 3740 (inner-
    # interface probe) and t ~ 7480 (default mid-wedge probe), X1 itself past
    # t ~ 7460 and 14930; e_r, in which they cancel, holds to 1e-12 throughout.
    # At small 2kt both terms of t/(2k^2) - sin(2kt)/(4k^3) are ~t/(2k^2) and
    # their difference ~t^3/3: at k = 1e-10 the difference form kept no digit
    for t in (100.0, 1000.0, 5000.0, 7100.0, 7400.0, 8000.0, 20000.0):
        probe = x1 if x1 is not None else -0.5 * (line.a + entanglement_boundary(t, line)[1])
        got = open_correction_er(k, t, 1e-7, temperature, line, x1=x1)
        assert got == pytest.approx(er_mpmath(k, t, 1e-7, temperature, line, probe),
                                    rel=1e-12), t


# --------------------------------------------------------------------------
# mode-function wave-operator residual
# --------------------------------------------------------------------------

def test_mode_pde_residual_second_order(line):
    residuals = [mode_function_pde_residual(1.7, 0.3, 2.0, line, h)
                 for h in (0.02, 0.01, 0.005)]
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.3)
    assert residuals[-1] < 1e-3


def test_nan_beta_refused_before_quadpack():
    # A NaN integrand can crash QUADPACK's Fourier routine outright, so the
    # grids run in a child process whose death fails the test, not the suite.
    # The oracle's quadratures refuse it; the closed forms, which integrate
    # nothing, refuse it as a beta that is not positive.
    script = (
        "import math\n"
        "from sonicbh.correlations import build_correlation_grid\n"
        "from sonicbh.errors import QuadratureError\n"
        "from sonicbh.profiles import LineProfile\n"
        "line = LineProfile(a=1.0, kappa=0.1, tau=1.0)\n"
        "for method, refusal in (('mode_sum_oracle', QuadratureError),\n"
        "                        ('closed_form', ValueError)):\n"
        "    try:\n"
        "        build_correlation_grid(-4.0, [1.5, 30.0], 100.0, math.nan, line, method)\n"
        "    except refusal:\n"
        "        print('refused')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sonicbh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]
