import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.integrate import quad

from sonicbh.decoherence import (DECOHERENCE_CRITERION, _mode_table, _t_d,
                                 allowed_frequencies, decoherence_time, diffusion_exact,
                                 diffusion_quadrature_oracle,
                                 sweep_decoherence, v_coefficients)
from sonicbh.environment import EnvironmentSpec
from sonicbh.errors import RegimeError
from sonicbh.params import TWO_PI, derive
from sonicbh.profiles import NullCoordinateMap, RingProfile, null_coordinate_map
from sonicbh.specfun import integrate_adaptive

from ring_oracle import ring_null_coordinate


# --------------------------------------------------------------------------
# normal diffusion coefficient
# --------------------------------------------------------------------------

def test_diffusion_exact_zero_time(env_lorentzian):
    assert diffusion_exact(0.0, 2.0, env_lorentzian) == 0.0


def test_diffusion_exact_matches_oracle_spotchecks(env_lorentzian):
    for (t, om) in [(3.0, 2.0), (0.005, 0.4), (500.0, 2.0)]:
        de = diffusion_exact(t, om, env_lorentzian)
        do = diffusion_quadrature_oracle(t, om, env_lorentzian)
        assert de == pytest.approx(do, rel=1e-9)


@pytest.mark.parametrize("cutoff", [2.0, 20.0])
@pytest.mark.parametrize("omega", [0.4, 2.0])
def test_oracle_against_exact_at_short_and_long_times(cutoff, omega):
    # the split around the ridge nu = omega serves short times too, where the
    # inner factor carries few oscillations (nu_b t from 13 to 880)
    spec = EnvironmentSpec(coupling_eff=0.02, cutoff=cutoff)
    t_switch = 290.0 / (2.0 * omega + 6.0 * cutoff)        # nu_b t = 300
    for t in (0.01 * t_switch, 0.5 * t_switch, 0.99 * t_switch, 1.01 * t_switch,
              3.0 * t_switch):
        assert diffusion_quadrature_oracle(t, omega, spec) == pytest.approx(
            diffusion_exact(t, omega, spec), rel=1e-10)


def test_diffusion_long_time_plateau(env_lorentzian):
    g2 = env_lorentzian.coupling_eff ** 2
    om = env_lorentzian.cutoff / 200.0
    plateau = g2 * om * math.pi / 4.0
    for om_t in (250.0, 600.0, 1000.0):
        d = diffusion_exact(om_t / om, om, env_lorentzian)
        assert abs(d / plateau - 1.0) < 0.02


def test_inner_antiderivative_equals_quadrature():
    from sonicbh.decoherence import _inner_cos_cos
    for nu, om, t in [(0.7, 1.3, 2.0), (3.0, 3.0, 4.0), (0.01, 5.0, 1.0)]:
        quad = integrate_adaptive(lambda s: math.cos(nu * s) * math.cos(om * s),
                                  0.0, t, tol=1e-12).value
        assert _inner_cos_cos(nu, om, t) == pytest.approx(quad, abs=1e-11)


# --------------------------------------------------------------------------
# mode weights
# --------------------------------------------------------------------------

def test_v_at_zero_frequency(ring):
    # mode weights are defined at the allowed frequencies, all positive: zero,
    # negative and NaN frequencies are refused
    for omega in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="omega must be positive"):
            v_coefficients(ring, omega)


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
    om = float(allowed_frequencies(ring, "v")[4])
    a = v_coefficients(ring, om, eps)
    b = v_coefficients(ring, om, 2 * eps)
    # the u branch is epsilon-free; the v branch moves only gently
    assert a.v1_u == b.v1_u
    assert a.v1_v == pytest.approx(b.v1_v, rel=0.05)


def _theta_quad(config, branch, f):
    """int f(x_b(theta)) dtheta by adaptive quadrature in theta of the oracle's
    own null coordinate over its kept intervals, with the ramp ends as
    breakpoints."""
    eps = TWO_PI / config.n_ions
    x_b, kept, _ = ring_null_coordinate(config, branch, eps if branch == "v" else 0.0)
    t_h, g1, g2 = config.theta_h, config.gamma1, config.gamma2
    ends = (t_h - g1, t_h + g1, TWO_PI - t_h - g2, TWO_PI - t_h + g2)
    total = 0.0
    for lo, hi in kept:
        total += quad(lambda th: f(x_b(th)), lo, hi, epsabs=1e-13, epsrel=0.0,
                      limit=20000, points=[e for e in ends if lo < e < hi])[0]
    return total


@pytest.mark.parametrize("branch", ["u", "v"])
@pytest.mark.parametrize("which", ["first", "middle", "top"])
def test_v_against_theta_quadrature(ring, config, branch, which):
    # the Gauss-Legendre nodes in x against quad in theta over the oracle's map
    omegas = allowed_frequencies(ring, branch)
    om = float(omegas[{"first": 0, "middle": len(omegas) // 2, "top": -1}[which]])
    vc = v_coefficients(ring, om)
    v1, v2 = (vc.v1_u, vc.v2_u) if branch == "u" else (vc.v1_v, vc.v2_v)
    assert v1 == pytest.approx(
        _theta_quad(config, branch, lambda x: math.cos(om * x) ** 2), abs=1e-12)
    assert v2 == pytest.approx(
        _theta_quad(config, branch, lambda x: math.cos(om * x) * math.sin(om * x)),
        abs=1e-12)


def _reference_modes(profile):
    """(branch, omega) of every allowed u mode, then every allowed v mode."""
    return [(branch, om) for branch in ("u", "v")
            for om in allowed_frequencies(profile, branch)]


def test_v2_vanishes_by_mirror_symmetry(config, ring):
    # gamma1 = gamma2: theta -> 2 pi - theta sends x_b to X_b - x_b, and at an
    # allowed omega 2 omega X_b is a multiple of 4 pi, so sin(2 omega x_b)
    # integrates to zero
    assert config.gamma1 == config.gamma2
    for branch, om in _reference_modes(ring):
        vc = v_coefficients(ring, om)
        assert abs(vc.v2_u if branch == "u" else vc.v2_v) <= 1e-12


def test_v_coefficients_equal_mode_table_rows(ring):
    # the table takes V1 of each mode's own branch alone; it must be that
    # branch's V1 of v_coefficients bit for bit
    omega, omega_cubed, v1 = _mode_table(ring)
    modes = _reference_modes(ring)
    assert len(omega) == len(omega_cubed) == len(v1) == len(modes)
    for (branch, om), t_om, t_cube, t_v1 in zip(modes, omega, omega_cubed, v1):
        vc = v_coefficients(ring, om)
        assert t_om == om and t_cube == om ** 3
        assert t_v1 == (vc.v1_u if branch == "u" else vc.v1_v)


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
    # t_D(0) alone: the closed zero-temperature expression
    om, gamma, vc = 50.0, 1e-7, _vc(ring, 50.0)
    expected = 2.0 * config.hbar ** 2 / (
        gamma ** 2 * derived.delta_v * derived.delta ** 2 * om * math.pi
        * derived.rho ** 2 * vc.v1_u)
    assert decoherence_time(config, derived, gamma, om, 0.0, vc).t_d == pytest.approx(
        expected, rel=1e-14)


def test_t_d_thermal_term_negative(config, derived, ring):
    # t_D(T0) - t_D(0) = -8 k_B^2 T0^2 / (omega^3 pi hbar^2), independent of V
    om, vc = 50.0, _vc(ring, 50.0)
    cold = decoherence_time(config, derived, 1e-7, om, 0.0, vc).t_d
    for t0 in (0.5, 2.0):
        hot = decoherence_time(config, derived, 1e-7, om, t0, vc).t_d
        expected = -8.0 * (config.k_boltzmann * t0) ** 2 / (om ** 3 * math.pi * config.hbar ** 2)
        assert hot - cold == pytest.approx(expected, rel=1e-9)


def test_t_d_homogeneity(config, derived, ring):
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
    assert errors[0][0] == -1.0 and errors[0][1].startswith("ValueError(")


def test_sweep_propagates_programming_errors(config, monkeypatch):
    # only the failures the CLI maps to exit codes become point errors; a bug
    # in the band surfaces
    import sonicbh.decoherence as decoherence

    def broken(*args):
        raise TypeError("broken band")

    monkeypatch.setattr(decoherence, "_t_d", broken)
    with pytest.raises(TypeError, match="broken band"):
        sweep_decoherence("gamma", [1e-7, 1e-6], config, 1e-7)


def _ring_with(config, n_ions):
    """The config with n_ions ions and the same flow (charge scaled by
    sqrt(N0/N), so the sound speed stays)."""
    return replace(config, n_ions=n_ions,
                   ion_charge=config.ion_charge * math.sqrt(config.n_ions / n_ions))


def _scalar_t_d(config, derived, gamma, omega, temperature, v):
    """t_D of one mode in scalar arithmetic, in the program's order of operations."""
    hbar = config.hbar
    return (DECOHERENCE_CRITERION * 2.0 * hbar ** 2
            / (gamma ** 2 * derived.delta_v * derived.delta ** 2 * omega * math.pi
               * derived.rho ** 2 * v)
            - 8.0 * (config.k_boltzmann * temperature) ** 2
            / (omega ** 3 * math.pi * hbar ** 2))


def _reference_band(config, gamma, temperature):
    """The band from one decoherence_time call per allowed mode, each with
    the full v_coefficients of its frequency: (min, max, omega_min, omega_max),
    the first of equal values."""
    profile, derived = RingProfile.from_config(config), derive(config)
    t_d = [(decoherence_time(config, derived, gamma, om, temperature,
                             v_coefficients(profile, om), branch).t_d, om)
           for branch, om in _reference_modes(profile)]
    lo = min(t_d, key=lambda pair: pair[0])
    hi = max(t_d, key=lambda pair: pair[0])
    return lo[0], hi[0], lo[1], hi[1]


@pytest.mark.parametrize("n_ions", [1000, 200])
@pytest.mark.parametrize("axis, values", [
    ("gamma", [1e-8, 3e-7, 1e-5]),
    ("temperature", [0.0, 0.5, 5.0]),
    ("v_min", [4.8, 5.0, 5.3]),
])
def test_sweep_band_equals_per_mode_reference(config, n_ions, axis, values):
    cfg = _ring_with(config, n_ions)
    gamma, temperature = 1e-6, 0.3
    rows, errors = sweep_decoherence(axis, values, cfg, gamma, temperature)
    assert not errors and [r.axis for r in rows] == values
    for row in rows:
        point_cfg, g, t0 = cfg, gamma, temperature
        if axis == "gamma":
            g = row.axis
        elif axis == "temperature":
            t0 = row.axis
        else:
            point_cfg = replace(cfg, v_min=row.axis)
        assert tuple(row[1:]) == _reference_band(point_cfg, g, t0)


@pytest.mark.parametrize("temperature", [0.0, 5.5])
def test_band_t_d_equals_scalar_formula_per_mode(config, derived, ring, temperature):
    # every mode of the band, not only its edges; at T0 = 5.5 (11 T_H) and
    # gamma = 1e-5 the thermal term takes up to 98% of t_D(0), which magnifies
    # any change in the order of operations of either term
    gamma = 1e-5
    modes = _mode_table(ring)
    t_d = _t_d(config, derived, gamma, temperature, *modes)
    for (branch, om), band_t_d in zip(_reference_modes(ring), t_d):
        vc = v_coefficients(ring, om)
        scalar = _scalar_t_d(config, derived, gamma, om, temperature,
                             vc.v1_u if branch == "u" else vc.v1_v)
        assert band_t_d == scalar
        assert decoherence_time(config, derived, gamma, om, temperature, vc,
                                branch).t_d == scalar


def test_sweep_records_partial_thermal_breakdown(config, ring, derived):
    # at gamma = 1e-5 and T0 = 10 (20 T_H) the thermal term outgrows t_D(0)
    # on the lowest modes only: the point is refused, not banded over the rest
    gamma, hot = 1e-5, 10.0
    outcomes = []
    for branch, om in _reference_modes(ring):
        try:
            decoherence_time(config, derived, gamma, om, hot, v_coefficients(ring, om), branch)
            outcomes.append(True)
        except RegimeError:
            outcomes.append(False)
    assert any(outcomes) and not all(outcomes)
    rows, errors = sweep_decoherence("temperature", [1.0, hot], config, gamma)
    assert [r.axis for r in rows] == [1.0]
    assert len(errors) == 1 and errors[0][0] == hot
    assert errors[0][1].startswith("RegimeError(")
    assert "thermal correction dominates" in errors[0][1]


def test_gamma_sweep_reads_only_each_modes_own_cosine_integral(config, ring, derived,
                                                               monkeypatch):
    # the band reads V1 of each mode's own branch: one cosine integral per
    # allowed mode on that branch's map, no sine integral, nothing on the
    # other branch's map
    calls = {"cos": [], "sin": []}
    cos_integral, sin_integral = NullCoordinateMap.cos_integral, NullCoordinateMap.sin_integral

    def counted_cos(nmap, k):
        calls["cos"].append((nmap, k))
        return cos_integral(nmap, k)

    def counted_sin(nmap, k):
        calls["sin"].append((nmap, k))
        return sin_integral(nmap, k)

    monkeypatch.setattr(NullCoordinateMap, "cos_integral", counted_cos)
    monkeypatch.setattr(NullCoordinateMap, "sin_integral", counted_sin)
    rows, errors = sweep_decoherence("gamma", [1e-8, 1e-7, 1e-6, 1e-5], config, 1.0)
    assert len(rows) == 4 and not errors
    assert calls["sin"] == []
    maps = {"u": null_coordinate_map(ring, "u", 0.0),
            "v": null_coordinate_map(ring, "v", derived.delta)}
    expected = [(maps[branch], 2.0 * om) for branch, om in _reference_modes(ring)]
    assert len(calls["cos"]) == len(expected)
    for (nmap, k), (own_map, own_k) in zip(calls["cos"], expected):
        assert nmap is own_map and k == own_k


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
