import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import sonicbh
from sonicbh.characteristics import entanglement_boundary
from sonicbh.correlations import (CorrelationGrid, build_correlation_grid,
                                  corr_closed_form, corr_homogeneous,
                                  corr_mode_sum_oracle, detect_peak,
                                  mode_function_pde_residual, momentum_of_field,
                                  open_correction_er, retarded_green,
                                  thermal_momentum_integral)
from sonicbh.errors import RegimeWarning, RegionError
from sonicbh.profiles import LineProfile

from conftest import LINE_T_HAWKING

mp.mp.dps = 30

T_LONG = 100.0


# --------------------------------------------------------------------------
# momentum
# --------------------------------------------------------------------------

def test_momentum_static_medium():
    assert momentum_of_field(0.7, 123.0, 0.0) == 0.7


def test_momentum_chain_rule():
    # phi = f(x - t), v = 0: Pi = -f'
    f = lambda u: math.sin(3 * u)
    fp = lambda u: 3 * math.cos(3 * u)
    x, t, h = 0.4, 0.9, 1e-6
    dphi_dt = (f(x - (t + h)) - f(x - (t - h))) / (2 * h)
    dphi_dx = (f(x + h - t) - f(x - h - t)) / (2 * h)
    assert momentum_of_field(dphi_dt, dphi_dx, 0.0) == pytest.approx(-fp(x - t), abs=1e-8)


@pytest.mark.parametrize("k", [-1.7, 1.7])
def test_momentum_of_mode_against_analytic(line, k):
    # Pi u = (d_t + v d_x) u; for these modes the transport identities give
    # (d_t + v d_x) x0 = +- e^{-kappa F} (left/right phase), so
    # Pi u = sign(k)-resolved i k e^{-kappa F} u.  Richardson-refined finite
    # differences must land on that to 1e-8.
    from sonicbh.characteristics import mode_function
    x, t = 0.3, 2.0
    v = line.sigma(t) * (1.0 + line.kappa * x)

    def pi_fd(h):
        du_dt = (mode_function(k, x, t + h, line) - mode_function(k, x, t - h, line)) / (2 * h)
        du_dx = (mode_function(k, x + h, t, line) - mode_function(k, x - h, t, line)) / (2 * h)
        return momentum_of_field(du_dt, du_dx, v)

    rich = (4.0 * pi_fd(5e-4) - pi_fd(1e-3)) / 3.0
    w = math.exp(-line.kappa * line.sigma_accumulated(t))
    u = mode_function(k, x, t, line)
    analytic = 1j * k * w * u if k < 0 else -1j * k * w * u
    assert rich == pytest.approx(analytic, rel=1e-8)


# --------------------------------------------------------------------------
# regulated thermal integral
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sep,beta", [(0.0072, math.pi / 2), (0.11, math.pi / 2),
                                      (1.3, 2.0), (0.4, math.inf)])
def test_thermal_momentum_integral_against_csch(sep, beta):
    val = thermal_momentum_integral(sep, beta)
    if math.isinf(beta):
        expected = -1.0 / sep ** 2
    else:
        expected = -(math.pi / beta) ** 2 / math.sinh(math.pi * sep / beta) ** 2
    assert val == pytest.approx(expected, rel=1e-6)


def test_thermal_momentum_integral_gauss_regulator_agrees():
    a = thermal_momentum_integral(0.3, 2.5, regulator="exp")
    b = thermal_momentum_integral(0.3, 2.5, regulator="gauss")
    assert a == pytest.approx(b, rel=1e-6)


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
    v_exp = corr_homogeneous(-16.0, T_LONG, 5.0, regulator="exp")
    v_gau = corr_homogeneous(-16.0, T_LONG, 5.0, regulator="gauss")
    assert v_exp == pytest.approx(v_gau, rel=1e-6)


def test_homogeneous_against_image_sum_oracle():
    # independent extended-precision evaluation via the thermal image sum
    def exact(dx, beta):
        d, b = mp.mpf(abs(dx)), mp.mpf(beta)
        s = mp.gamma(mp.mpf("2.5")) * (
            (1j * d) ** mp.mpf("-2.5")
            + 2 * mp.nsum(lambda n: (n * b + 1j * d) ** mp.mpf("-2.5"), [1, mp.inf])
        ) / mp.sqrt(2)
        val = complex(s)
        return val if dx > 0 else val.conjugate()

    for dx, beta in [(-16.0, 5.0), (6.0, 2.0)]:
        assert corr_homogeneous(dx, T_LONG, beta) == pytest.approx(exact(dx, beta), rel=2e-5)


def test_homogeneous_zero_temperature_power_law():
    v = corr_homogeneous(9.0, T_LONG, math.inf)
    expected_mod = math.gamma(2.5) / math.sqrt(2.0) / 9.0 ** 2.5
    assert abs(v) == pytest.approx(expected_mod, rel=1e-6)


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


def test_mode_sum_reduces_to_homogeneous_beyond_wedge(line):
    xp = entanglement_boundary(T_LONG, line)[1]
    x1, x2 = xp + 2.0, xp + 5.0
    o = corr_mode_sum_oracle(x1, x2, T_LONG, 5.0, line)
    h = abs(corr_homogeneous(x1 - x2, T_LONG, 5.0, line))
    assert o == pytest.approx(h, rel=1e-10)


def test_mode_sum_thermal_tail_is_negligible(line):
    # coth(beta k/2) e^{-eps k} tail beyond the quadrature window: the
    # integrand at the cutoff is under 1e-8 of the accumulated value
    beta, sep = 2.0, 0.5
    val = thermal_momentum_integral(sep, beta)
    k_big = 60.0 / (0.005 * min(sep, beta))
    tail = k_big / math.tanh(0.5 * beta * k_big) * math.exp(-0.005 * min(sep, beta) * k_big)
    assert abs(tail) < 1e-8 * abs(val) * k_big  # crude envelope x window


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
    grid = CorrelationGrid(t=1.0, x1=0.0, x2=np.linspace(0, 1, 32),
                           values=np.ones(32), method="closed_form", temperature=0.0)
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
    h4 = detect_peak(_grid(line, -4.0)).height
    h6 = detect_peak(_grid(line, -6.0)).height
    assert h4 == pytest.approx(0.25, rel=1e-2)
    assert h6 == pytest.approx(h4, rel=1e-2)


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
# retarded Green function
# --------------------------------------------------------------------------

FLAT = LineProfile(a=1.0, kappa=1e-7, tau=1e7)  # sigma ~ 0 over test times


def test_green_vanishes_for_reversed_times(line):
    assert retarded_green(0.0, 1.0, 0.0, 2.0, line) == 0.0


def test_green_equal_time_commutator_vanishes(line):
    assert retarded_green(0.5, 1.0, 0.5, 1.0, line) == 0.0
    assert abs(retarded_green(0.5, 1.0, 0.9, 1.0, line)) < 1e-6


def test_green_flat_support_and_amplitude():
    inside = [(0.3, 2.0, 0.0, 0.0), (-1.0, 3.0, 0.2, 0.5), (0.0, 1.0, 0.5, 0.2)]
    outside = [(2.5, 2.0, 0.0, 0.0), (-4.0, 2.0, 0.0, 0.0)]
    for args in inside:
        assert retarded_green(*args, FLAT) == pytest.approx(0.5, abs=2e-5)
    for args in outside:
        assert retarded_green(*args, FLAT) == pytest.approx(0.0, abs=2e-5)


# --------------------------------------------------------------------------
# open-system correction
# --------------------------------------------------------------------------

T_HOT = 100.0 * LINE_T_HAWKING


def test_er_vanishes_at_zero_coupling(line):
    assert open_correction_er(0.05, 60.0, 0.0, T_HOT, line).e_r == 0.0


def test_er_monotone_growth_after_transient(line):
    with pytest.warns(RegimeWarning):
        open_correction_er(0.05, 60.0, 1e-7, 0.5 * LINE_T_HAWKING, line)
    ts = np.linspace(35.0, 100.0, 27)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        ers = np.array([open_correction_er(0.05, float(t), 1e-7, T_HOT, line, x1=-4.0).e_r
                        for t in ts])
    # growth with flat spots at 2kt = 2 pi n; allow only sub-1e-3 dips there
    rel_drops = np.diff(ers) / ers[:-1]
    assert rel_drops.min() > -1e-3
    assert ers[-1] > 2.0 * ers[0]


def test_er_nonincreasing_in_k(line):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        ers = [open_correction_er(k, 80.0, 1e-7, T_HOT, line, x1=-4.0).e_r
               for k in (0.02, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(ers, ers[1:]))


def test_er_quadratic_in_coupling(line):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        e1 = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0).e_r
        e2 = open_correction_er(0.05, 80.0, 2e-7, T_HOT, line, x1=-4.0).e_r
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_er_readings_coincide_and_recorded(line):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        a = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0, reading="symmetric")
        b = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0, reading="doubled_leg2")
    assert a.e_r == b.e_r
    assert a.reading == "symmetric" and b.reading == "doubled_leg2"


def test_er_regression_baseline(line):
    # no external numbers exist for this curve; freeze the artifact's own values
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        e = open_correction_er(0.05, 80.0, 1e-7, T_HOT, line, x1=-4.0).e_r
    assert e == pytest.approx(6.93009e-11, rel=1e-3)


def test_er_probe_outside_wedge_rejected(line):
    with pytest.raises(RegionError):
        open_correction_er(0.05, 10.0, 1e-7, T_HOT, line, x1=-8.0)


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
    # grid runs in a child process whose death fails the test, not the suite.
    script = (
        "import math\n"
        "from sonicbh.correlations import build_correlation_grid\n"
        "from sonicbh.errors import QuadratureError\n"
        "from sonicbh.profiles import LineProfile\n"
        "try:\n"
        "    build_correlation_grid(-4.0, [1.5, 30.0], 100.0, math.nan,\n"
        "                           LineProfile(a=1.0, kappa=0.1, tau=1.0))\n"
        "except QuadratureError:\n"
        "    print('refused')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sonicbh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"
