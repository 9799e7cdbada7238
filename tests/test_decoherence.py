import math
import warnings

import numpy as np
import pytest

from scipy.integrate import quad

from sonicbh.decoherence import (_mode_table, allowed_frequencies,
                                 anomalous_diffusion_asymptotic,
                                 anomalous_time_domain_oracle,
                                 decoherence_time, diffusion_exact,
                                 diffusion_quadrature_oracle,
                                 diffusion_thermal, diffusion_thermal_oracle,
                                 sweep_decoherence, v_coefficients)
from sonicbh.environment import EnvironmentSpec
from sonicbh.errors import RegimeError, RegimeWarning
from sonicbh.params import TWO_PI
from sonicbh.profiles import find_horizons, null_coordinate_map
from sonicbh.specfun import si


# --------------------------------------------------------------------------
# normal diffusion coefficient
# --------------------------------------------------------------------------

def test_diffusion_exact_zero_time(env_lorentzian):
    assert diffusion_exact(0.0, 2.0, env_lorentzian) == 0.0


def test_diffusion_exact_requires_lorentzian(env_exponential):
    with pytest.raises(RegimeError, match="oracle"):
        diffusion_exact(1.0, 2.0, env_exponential)


def test_diffusion_exact_matches_oracle_spotchecks(env_lorentzian):
    for (t, om) in [(3.0, 2.0), (0.005, 0.4), (500.0, 2.0)]:
        de = diffusion_exact(t, om, env_lorentzian)
        do = diffusion_quadrature_oracle(t, om, env_lorentzian)
        assert de == pytest.approx(do, rel=1e-9)


def test_diffusion_oracle_supports_exponential_cutoff(env_exponential):
    # the oracle route covers shapes the closed form refuses; check against
    # the time-domain kernel integral with the exponential-cutoff kernel in
    # its elementary closed form N(s) = g^2 L^2 (1 - (Ls)^2)/(2 (1+(Ls)^2)^2)
    from sonicbh.specfun import integrate_adaptive
    g2, lam = env_exponential.coupling_eff ** 2, env_exponential.cutoff
    kernel = lambda s: 0.5 * g2 * lam * lam * (1 - (lam * s) ** 2) / (1 + (lam * s) ** 2) ** 2
    val = diffusion_quadrature_oracle(0.7, 1.5, env_exponential)
    ref = integrate_adaptive(lambda s: kernel(s) * math.cos(1.5 * s), 0.0, 0.7,
                             tol=1e-12).value
    assert val == pytest.approx(ref, rel=1e-8)


def test_diffusion_long_time_plateau(env_lorentzian):
    g2 = env_lorentzian.coupling_eff ** 2
    om = env_lorentzian.cutoff / 200.0
    plateau = g2 * om * math.pi / 4.0
    for om_t in (250.0, 600.0, 1000.0):
        d = diffusion_exact(om_t / om, om, env_lorentzian)
        assert abs(d / plateau - 1.0) < 0.02


def test_inner_quadrature_equals_antiderivative():
    from sonicbh.decoherence import _inner_antiderivative, _inner_cos_cos
    for nu, om, t in [(0.7, 1.3, 2.0), (3.0, 3.0, 4.0), (0.01, 5.0, 1.0)]:
        assert _inner_cos_cos(nu, om, t) == pytest.approx(
            _inner_antiderivative(nu, om, t), abs=1e-11)


# --------------------------------------------------------------------------
# thermal diffusion
# --------------------------------------------------------------------------

def test_thermal_reduces_to_sine_integral_form(env_lorentzian):
    g2 = env_lorentzian.coupling_eff ** 2
    t, om = 5.0, 3.0
    val = diffusion_thermal(t, om, math.inf, env_lorentzian)
    assert val == pytest.approx(0.5 * g2 * om * si(om * t), rel=1e-12)


def test_thermal_vanishes_at_zero_time(env_lorentzian):
    for beta in (math.inf, 50.0, 20.0):
        assert diffusion_thermal(0.0, 3.0, beta, env_lorentzian) == 0.0


def test_thermal_warns_outside_regime(env_lorentzian):
    with pytest.warns(RegimeWarning):
        diffusion_thermal(1.0, 0.5, 2.0, env_lorentzian)


def test_thermal_oracle_zero_temperature_boundary_term(env_lorentzian):
    # the honest cutoff-free quadrature carries the cos(omega t)/t boundary
    # piece the two-term display drops; pin both facts
    g2 = env_lorentzian.coupling_eff ** 2
    t, om = 5.0, 3.0
    oracle = diffusion_thermal_oracle(t, om, math.inf, env_lorentzian)
    honest = 0.5 * g2 * (om * si(om * t) + math.cos(om * t) / t)
    assert oracle == pytest.approx(honest, rel=1e-10)


def test_thermal_parts_match_at_low_temperature(env_lorentzian):
    # [D(beta) - D(inf)]: the display coefficient 2 sin(wt)/(w b^2) comes from
    # the sharp coth split; the exact Bose integral carries pi^2/3 instead of
    # 2, so the measured ratio tends to pi^2/6.
    t, om = 5.0, 3.0
    base = diffusion_thermal_oracle(t, om, math.inf, env_lorentzian)
    ratios = []
    for bh in (40.0, 80.0, 160.0):
        orc = diffusion_thermal_oracle(t, om, bh, env_lorentzian) - base
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            exp = (diffusion_thermal(t, om, bh, env_lorentzian)
                   - diffusion_thermal(t, om, math.inf, env_lorentzian))
        ratios.append(orc / exp)
    assert ratios[-1] == pytest.approx(math.pi ** 2 / 6.0, rel=0.02)
    # convergence toward the exact ratio as beta grows
    assert abs(ratios[2] - math.pi ** 2 / 6) < abs(ratios[0] - math.pi ** 2 / 6)


# --------------------------------------------------------------------------
# anomalous coefficient
# --------------------------------------------------------------------------

def test_anomalous_display_values(env_lorentzian):
    g2 = env_lorentzian.coupling_eff ** 2
    lam = env_lorentzian.cutoff
    with pytest.warns(RegimeWarning):   # omega = cutoff sits on the regime edge
        assert anomalous_diffusion_asymptotic(lam, 1.0 / lam, env_lorentzian) == pytest.approx(0.0, abs=1e-12)
    om = 1.0
    val = anomalous_diffusion_asymptotic(om, 1.0 / lam, env_lorentzian)
    assert val == pytest.approx(0.5 * g2 * math.pi * om * math.log(lam / om), rel=1e-12)


def test_anomalous_frequency_ratio(env_lorentzian):
    om, lam = 0.5, env_lorentzian.cutoff
    v_full = anomalous_diffusion_asymptotic(om, 1.0 / lam, env_lorentzian)
    v_half = anomalous_diffusion_asymptotic(om / 2, 1.0 / lam, env_lorentzian)
    expected = (om / 2) * math.log(2 * lam / om) / (om * math.log(lam / om))
    assert v_half / v_full == pytest.approx(expected, rel=1e-12)


def test_anomalous_warns_at_large_frequency(env_lorentzian):
    with pytest.warns(RegimeWarning):
        anomalous_diffusion_asymptotic(2.0 * env_lorentzian.cutoff,
                                       1.0 / env_lorentzian.cutoff, env_lorentzian)


def test_anomalous_time_domain_oracle_log_scaling():
    # The honest long-time quadrature of int N sin follows
    # -(L^2/(L^2+w^2)) (g^2/2) w ln(L/w); the display's +pi prefactor does
    # not survive it.  Assert the measured law and document the mismatch.
    results = {}
    for om, lam in [(1.0, 100.0), (0.5, 20.0)]:
        env = EnvironmentSpec(coupling_eff=1.0, cutoff=lam, cutoff_shape="lorentzian")
        val = anomalous_time_domain_oracle(2000.0 / om, om, env)
        analytic = -0.5 * om * lam ** 2 / (lam ** 2 + om ** 2) * math.log(lam / om)
        assert val == pytest.approx(analytic, rel=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            display = anomalous_diffusion_asymptotic(om, 1.0 / lam, env)
        results[(om, lam)] = (val, display)
    for val, display in results.values():
        assert val * display < 0  # opposite signs: documented discrepancy


# --------------------------------------------------------------------------
# mode weights
# --------------------------------------------------------------------------

def test_v_at_zero_frequency(ring):
    vc = v_coefficients(ring, 0.0)
    assert vc.v1_u == TWO_PI and vc.v2_u == 0.0
    assert vc.v1_v == TWO_PI and vc.v2_v == 0.0


def test_v_constant_background_closed_form(ring, config):
    # pre-collapse the ring is uniform: V1 = int cos^2(w x/(c+v)) has the
    # elementary antiderivative pi + sin(2 w L)/4w * (c+v)
    from sonicbh.profiles import null_coordinate_map
    m = null_coordinate_map(ring, "u", t=0.0)
    om = 7.0
    speed = 1.0 / (m(TWO_PI) / TWO_PI)
    phase = om / speed
    expected_v1 = math.pi + math.sin(2 * phase * TWO_PI) / (4 * phase)
    th = np.linspace(0, TWO_PI, 1 << 15)
    v1 = float(np.trapezoid(np.cos(om * m(th)) ** 2, th))
    assert v1 == pytest.approx(expected_v1, rel=1e-6)


def test_v_bounds_over_allowed_range(ring):
    for branch in ("u", "v"):
        omegas = allowed_frequencies(ring, branch)[::9]
        for om in omegas:
            vc = v_coefficients(ring, float(om))
            for v1 in (vc.v1_u, vc.v1_v):
                assert 0.0 <= v1 <= TWO_PI + 1e-9
            for v2 in (vc.v2_u, vc.v2_v):
                assert abs(v2) <= math.pi + 1e-9


def test_allowed_frequencies_structure(ring, config):
    om_u = allowed_frequencies(ring, "u")
    assert om_u[0] == pytest.approx(om_u[1] - om_u[0], rel=1e-12)
    assert om_u[-1] <= config.n_ions / config.period


def test_v_epsilon_sensitivity_documented(ring, config):
    eps = TWO_PI / config.n_ions
    om = float(allowed_frequencies(ring, "v", eps)[4])
    a = v_coefficients(ring, om, eps)
    b = v_coefficients(ring, om, 2 * eps)
    # the u branch is epsilon-free; the v branch moves only gently
    assert a.v1_u == b.v1_u
    assert a.v1_v == pytest.approx(b.v1_v, rel=0.05)


def _theta_quad(ring, config, branch, f):
    """int f(x_b(theta)) dtheta by adaptive quadrature in theta over the kept
    intervals, with the ramp ends as breakpoints."""
    eps = TWO_PI / config.n_ions
    nmap = null_coordinate_map(ring, branch, eps if branch == "v" else 0.0)
    horizons = find_horizons(ring) if branch == "v" else ()
    cuts = [0.0, *(h + s * eps for h in horizons for s in (-1, 1)), TWO_PI]
    t_h, g1, g2 = config.theta_h, config.gamma1, config.gamma2
    ends = (t_h - g1, t_h + g1, TWO_PI - t_h - g2, TWO_PI - t_h + g2)
    total = 0.0
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        total += quad(lambda th: f(float(nmap(th))), lo, hi, epsabs=1e-13, epsrel=0.0,
                      limit=20000, points=[e for e in ends if lo < e < hi])[0]
    return total


@pytest.mark.parametrize("branch", ["u", "v"])
@pytest.mark.parametrize("which", ["first", "middle", "top"])
def test_v_against_theta_quadrature(ring, config, branch, which):
    # the Gauss-Legendre nodes in x against quad in theta over the closed-form map
    omegas = allowed_frequencies(ring, branch)
    om = float(omegas[{"first": 0, "middle": len(omegas) // 2, "top": -1}[which]])
    vc = v_coefficients(ring, om)
    v1, v2 = (vc.v1_u, vc.v2_u) if branch == "u" else (vc.v1_v, vc.v2_v)
    assert v1 == pytest.approx(
        _theta_quad(ring, config, branch, lambda x: math.cos(om * x) ** 2), abs=1e-9)
    assert v2 == pytest.approx(
        _theta_quad(ring, config, branch, lambda x: math.cos(om * x) * math.sin(om * x)),
        abs=1e-9)


@pytest.fixture(scope="module")
def mode_table(ring):
    return _mode_table(ring)


def test_v2_vanishes_by_mirror_symmetry(config, mode_table):
    # gamma1 = gamma2: theta -> 2 pi - theta sends x_b to X_b - x_b, and at an
    # allowed omega 2 omega X_b is a multiple of 4 pi, so sin(2 omega x_b)
    # integrates to zero
    assert config.gamma1 == config.gamma2
    for branch, _om, vc in mode_table:
        assert abs(vc.v2_u if branch == "u" else vc.v2_v) <= 1e-12


def test_v_coefficients_equal_mode_table_rows(ring, mode_table):
    for _branch, om, vc in mode_table:
        assert v_coefficients(ring, om) == vc


# --------------------------------------------------------------------------
# decoherence time
# --------------------------------------------------------------------------

def _vc(ring, om):
    return v_coefficients(ring, om)


def test_t_d_gamma_quartering(config, derived, ring):
    om = 100.0
    vc = _vc(ring, om)
    t1 = decoherence_time(config, derived, 1e-7, om, 0.0, vc).t_d
    t2 = decoherence_time(config, derived, 2e-7, om, 0.0, vc).t_d
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-12)


def test_t_d_zero_temperature_breakdown(config, derived, ring):
    est = decoherence_time(config, derived, 1e-7, 50.0, 0.0, _vc(ring, 50.0))
    assert est.thermal_term == 0.0
    assert est.t_d == est.zero_t_term


def test_t_d_thermal_term_negative(config, derived, ring):
    est = decoherence_time(config, derived, 1e-7, 50.0, 2.0, _vc(ring, 50.0))
    assert est.thermal_term < 0
    assert est.t_d < est.zero_t_term


def test_t_d_homogeneity(config, derived, ring):
    from dataclasses import replace
    om, vc = 50.0, _vc(ring, 50.0)
    base = decoherence_time(config, derived, 1e-7, om, 0.0, vc).t_d
    cfg2 = replace(config, hbar=2.0 * config.hbar)
    assert decoherence_time(cfg2, derived, 1e-7, om, 0.0, vc).t_d == pytest.approx(
        4.0 * base, rel=1e-12)
    der2 = replace(derived, rho=3.0 * derived.rho)
    assert decoherence_time(config, der2, 1e-7, om, 0.0, vc).t_d == pytest.approx(
        base / 9.0, rel=1e-12)


def test_t_d_out_of_regime_is_error(config, derived, ring):
    with pytest.raises(RegimeError, match="thermal"):
        decoherence_time(config, derived, 1e-3, 5.0, 1e4, _vc(ring, 5.0))


def test_full_vs_simple_v_form_agree(derived, ring):
    # t_D takes V = V1; the full weight V1 + 2 log(1/(omega tau)) V2 stays
    # within 5% of it, so t_D would too
    for om in allowed_frequencies(ring, "u")[::19]:
        vc = _vc(ring, float(om))
        full = vc.v1_u + 2.0 * math.log(1.0 / (om * derived.tau)) * vc.v2_u
        assert vc.v1_u == pytest.approx(full, rel=0.05)


def test_sweep_temperature_refuses_beyond_validity(config):
    with pytest.raises(RegimeError, match="100 T_H"):
        sweep_decoherence("temperature", [0.0, 200.0], config, 1e-7)


def test_sweep_collects_point_errors(config):
    rows, errors = sweep_decoherence("gamma", [1e-7, -1.0, 1e-6], config, 1e-7)
    assert len(rows) == 2 and len(errors) == 1


def test_sweep_v_min_smooth(config):
    # t_D varies smoothly with the profile depth: at most one slope reversal
    v_bar = config.mean_velocity
    values = np.linspace(0.80 * v_bar, 0.88 * v_bar, 7)
    rows, errors = sweep_decoherence("v_min", values, config, 1e-7)
    assert not errors
    t_min = np.array([r.t_d_min for r in rows])
    slopes = np.sign(np.diff(t_min))
    changes = int(np.sum(np.abs(np.diff(slopes)) > 0))
    assert changes <= 1
