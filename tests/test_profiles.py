import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sonicbh.errors import ConfigError, RegionError, SingularIntegrandError
from sonicbh.params import TWO_PI
from sonicbh.profiles import (LineProfile, RingProfile, find_horizons,
                              hawking_temperature_line, hawking_temperature_ring,
                              null_coordinate, null_coordinate_map, sigma,
                              sigma_accumulated)


# --------------------------------------------------------------------------
# collapse schedule
# --------------------------------------------------------------------------

def test_sigma_starts_at_zero():
    assert sigma(0.0, 0.7) == 0.0


def test_sigma_saturates():
    assert abs(sigma(10.0 * 0.5, 0.5) - 1.0) < 1e-8


def test_sigma_at_one_collapse_time():
    # tanh(1) cross-checked against (e^2-1)/(e^2+1)
    assert sigma(1.0, 1.0) == pytest.approx((math.e ** 2 - 1) / (math.e ** 2 + 1), rel=1e-15)


def test_sigma_accumulated_zero():
    assert sigma_accumulated(0.0, 2.0) == 0.0


def test_sigma_accumulated_long_time_value():
    # ln cosh(100) = 100 - ln 2 + log1p(e^{-200}); the correction is ~1e-87,
    # far below double resolution, so the values must coincide bit-for-bit.
    assert sigma_accumulated(100.0, 1.0) == pytest.approx(100.0 - math.log(2.0), abs=1e-13)


def test_sigma_accumulated_asymptote():
    t, tau = 30.0, 1.3
    assert sigma_accumulated(t, tau) == pytest.approx(t - tau * math.log(2.0), abs=1e-6)


def test_sigma_accumulated_matches_quadrature():
    from sonicbh.specfun import integrate_adaptive
    t, tau = 3.7, 0.8
    num = integrate_adaptive(lambda s: sigma(s, tau), 0.0, t, tol=1e-12).value
    assert sigma_accumulated(t, tau) == pytest.approx(num, rel=1e-10)


def test_sigma_accumulated_derivative_is_sigma():
    # centered differences on a 100-point grid
    tau = 0.9
    ts = np.linspace(0.05, 8.0, 100)
    h = 1e-6
    for t in ts:
        d = (sigma_accumulated(t + h, tau) - sigma_accumulated(t - h, tau)) / (2 * h)
        assert d == pytest.approx(sigma(t, tau), rel=1e-6)


# --------------------------------------------------------------------------
# ring profile
# --------------------------------------------------------------------------

def test_ring_uniform_before_collapse(ring, config):
    for th in (0.0, 1.0, 2.5, 5.0):
        assert ring.velocity(th, 0.0) == pytest.approx(config.mean_velocity, rel=1e-15)


def test_ring_plateau_after_collapse(ring, config):
    theta_plateau = 0.5 * (config.theta_h + config.gamma1 + TWO_PI - config.theta_h - config.gamma2)
    assert ring.velocity(theta_plateau, 50.0 * ring.collapse_time) == pytest.approx(config.v_max, rel=1e-12)


def test_ring_midpoint_of_ramp(ring, config):
    beta = 0.5 * (config.v_max + config.v_min)
    assert ring.velocity(config.theta_h, 50.0 * ring.collapse_time) == pytest.approx(beta, rel=1e-12)


def test_ring_continuity_and_periodicity(ring):
    th = np.linspace(0, TWO_PI, 20001)
    v = ring.velocity(th, None)
    assert np.all(np.abs(np.diff(v)) < 2e-3)  # piecewise linear, fine grid
    assert ring.velocity(0.0, None) == pytest.approx(ring.velocity(TWO_PI - 1e-12, None), rel=1e-9)
    assert ring.velocity(1.0 + TWO_PI, 0.3) == pytest.approx(ring.velocity(1.0, 0.3), rel=1e-15)


def test_ring_two_sonic_crossings(ring):
    assert len(find_horizons(ring)) == 2


# --------------------------------------------------------------------------
# line profile
# --------------------------------------------------------------------------

def test_line_continuity_at_interfaces(line):
    for t in (0.0, 0.5, 3.0, 40.0):
        s = line.sigma(t)
        assert line.velocity(line.a, t) == pytest.approx(s * line.v_max, rel=1e-14, abs=1e-300)
        assert line.velocity(-line.a, t) == pytest.approx(s * line.v_min, rel=1e-14, abs=1e-300)


def test_line_from_velocities_consistency():
    lp = LineProfile.from_velocities(0.9, 1.1, 1.0, 1.0)
    assert lp.kappa == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        LineProfile.from_velocities(0.9, 1.3, 1.0, 1.0)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=50.0))
def test_line_velocity_bounded(x, t):
    lp = LineProfile(a=1.0, kappa=0.1, tau=1.0)
    v = lp.velocity(x, t)
    assert 0.0 <= v <= lp.v_max + 1e-15


# --------------------------------------------------------------------------
# null coordinates
# --------------------------------------------------------------------------

def test_null_coordinate_constant_background():
    # constant c + v: x_u reduces to x / (c + v)
    cfg_kwargs = dict(n_ions=1000, period=1.0, radius=1.0, ion_mass=11414.0,
                      ion_charge=37.6246, gamma1=0.3, gamma2=0.3, theta_h=1.0)
    from sonicbh.params import PhysicalConfig
    cfg = PhysicalConfig(v_min=0.9 * TWO_PI, v_max=1.1 * TWO_PI, **cfg_kwargs)
    prof = RingProfile.from_config(cfg)
    # before collapse the profile is uniform
    m = null_coordinate_map(prof, "u", t=0.0)
    denom = prof.sound_speed(1.0, 0.0) + prof.velocity(1.0, 0.0)
    assert m(3.0) == pytest.approx(3.0 / denom, rel=1e-8)


def test_null_u_strictly_increasing(ring):
    m = null_coordinate_map(ring, "u")
    xs = np.linspace(0, TWO_PI, 300)
    vals = m(xs)
    assert np.all(np.diff(vals) > 0)


def test_null_u_additivity(ring):
    # x_u(b) = x_u(m) + independent quadrature of 1/(c+v) from m to b
    from sonicbh.specfun import integrate_adaptive
    m = null_coordinate_map(ring, "u")
    seg = integrate_adaptive(
        lambda x: 1.0 / (ring.sound_speed(x, None) + ring.velocity(x, None)),
        1.5, 4.0, tol=1e-12).value
    assert m(4.0) == pytest.approx(m(1.5) + seg, rel=1e-8)


def test_null_v_requires_exclusion(ring):
    with pytest.raises(SingularIntegrandError, match="horizon"):
        null_coordinate(3.0, "v", ring, epsilon=0.0)


def test_null_v_before_first_horizon_fine(ring):
    h0 = find_horizons(ring)[0]
    val = null_coordinate(0.5 * h0, "v", ring, epsilon=0.0)
    assert math.isfinite(val)


def test_null_v_finite_with_exclusion_and_sensitivity(ring, config):
    eps = TWO_PI / config.n_ions
    v1 = null_coordinate(3.0, "v", ring, epsilon=eps)
    v2 = null_coordinate(3.0, "v", ring, epsilon=2 * eps)
    assert math.isfinite(v1) and math.isfinite(v2)
    # the logarithmic horizon divergence makes the value epsilon-dependent;
    # record the sensitivity scale rather than demanding agreement
    assert abs(v1 - v2) < 5.0


def test_null_v_log_divergence_near_horizon(ring, config):
    h0 = find_horizons(ring)[0]
    eps = TWO_PI / config.n_ions
    m = null_coordinate_map(ring, "v", eps)
    inner = abs(m(h0 - 2 * eps) - m(h0 - 8 * eps))
    outer = abs(m(h0 - 32 * eps) - m(h0 - 128 * eps))
    # each factor-4 approach adds a comparable logarithmic increment
    assert inner == pytest.approx(outer, rel=0.35)


def _mp_ring(config):
    """v and c of the post-collapse ring in mpmath arithmetic, with its ramps."""
    vmin, vmax, th_h, g1, g2 = map(mp.mpf, (config.v_min, config.v_max, config.theta_h,
                                            config.gamma1, config.gamma2))
    down = 2 * mp.pi - th_h
    mid, half = (vmax + vmin) / 2, (vmax - vmin) / 2

    def v(th):
        if th <= th_h - g1 or th > down + g2:
            return vmin
        if th <= th_h + g1:
            return mid + half * (th - th_h) / g1
        if th <= down - g2:
            return vmax
        return mid - half * (th - down) / g2

    k2 = (2 * mp.mpf(config.ion_charge) ** 2 * config.n_ions
          / (mp.mpf(config.ion_mass) * mp.mpf(config.radius) ** 3 * mp.mpf(config.period)))
    return v, lambda th: mp.sqrt(k2 / v(th)), [(th_h - g1, th_h + g1), (down - g2, down + g2)]


def _mp_horizons(config):
    v, c, ramps = _mp_ring(config)
    return [mp.findroot(lambda th: v(th) - c(th), ramp, solver="anderson") for ramp in ramps]


def _mp_null_total(config, branch, epsilon):
    """x_b(2 pi): 30-digit quadrature of 1/(c +- v), slivers (h - eps, h + eps) cut out."""
    with mp.workdps(30):
        v, c, ramps = _mp_ring(config)
        sign = 1 if branch == "u" else -1
        horizons = _mp_horizons(config) if branch == "v" else []
        eps = mp.mpf(epsilon)
        cuts = [mp.mpf(0), *(h + s * eps for h in horizons for s in (-1, 1)), 2 * mp.pi]
        # breakpoints at the ramp ends and graded towards each pole
        points = {end for ramp in ramps for end in ramp}
        points |= {h + s * eps * 2 ** j for h in horizons for s in (-1, 1) for j in range(40)}
        total = mp.mpf(0)
        for lo, hi in zip(cuts[0::2], cuts[1::2]):
            knots = [lo, *sorted(p for p in points if lo < p < hi), hi]
            total += mp.quad(lambda th: 1 / (c(th) + sign * v(th)), knots)
        return float(total)


def test_horizons_against_mpmath_roots(ring, config):
    with mp.workdps(30):
        exact = _mp_horizons(config)
    assert find_horizons(ring) == pytest.approx([float(h) for h in exact], rel=1e-9)


@pytest.mark.parametrize("branch, epsilon", [("u", 0.0), ("v", None), ("v", 1e-6)])
def test_null_total_against_mpmath(ring, config, branch, epsilon):
    if epsilon is None:
        epsilon = TWO_PI / config.n_ions   # the default exclusion: one ion spacing
    total = null_coordinate_map(ring, branch, epsilon).total
    assert total == pytest.approx(_mp_null_total(config, branch, epsilon), rel=1e-9)


# --------------------------------------------------------------------------
# Hawking temperatures
# --------------------------------------------------------------------------

def _hawking_richardson(profile, theta, h):
    """hbar/(4 pi v k_B) d(v^2 - c^2)/dtheta at theta: central differences with
    one Richardson step, exact on a linear ramp up to rounding."""
    cfg = profile.config
    gap2 = lambda x: profile.velocity(x) ** 2 - profile.sound_speed(x) ** 2
    d1 = (gap2(theta + h) - gap2(theta - h)) / (2 * h)
    d2 = (gap2(theta + h / 2) - gap2(theta - h / 2)) / h
    deriv = (4 * d2 - d1) / 3.0
    return cfg.hbar * deriv / (4.0 * math.pi * profile.velocity(theta) * cfg.k_boltzmann)


def test_ring_temperature_linear_slope(ring, config):
    # on a linear ramp the Richardson-extrapolated difference is exact up to
    # rounding: the closed form 3 hbar v'/(4 pi k_B) against it at both horizons
    h = min(config.gamma1, config.gamma2) / 64.0
    for index, theta in enumerate(find_horizons(ring)):
        expected = _hawking_richardson(ring, theta, h)
        assert hawking_temperature_ring(ring, horizon_index=index) == pytest.approx(
            expected, rel=1e-8)


def test_ring_temperature_closed_form(ring):
    # 3 hbar v'/(4 pi k_B) with v' = (v_max - v_min)/(2 gamma1): 0.5 on the bench ring
    assert hawking_temperature_ring(ring) == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_ring_temperatures_equal_magnitude(ring):
    t0 = hawking_temperature_ring(ring, horizon_index=0)
    t1 = hawking_temperature_ring(ring, horizon_index=1)
    assert abs(t0) == pytest.approx(abs(t1), rel=1e-9)


def test_ring_temperature_scales_with_slope(config):
    from dataclasses import replace
    ring_a = RingProfile.from_config(config)
    # halving both ramp widths doubles the slope at the horizon
    ring_b = RingProfile.from_config(replace(config, gamma1=config.gamma1 / 2,
                                             gamma2=config.gamma2 / 2))
    assert hawking_temperature_ring(ring_b) == pytest.approx(
        2.0 * hawking_temperature_ring(ring_a), rel=1e-6)


def test_no_horizon_is_an_error(config):
    from dataclasses import replace
    # shrink the contrast so v never reaches c
    cfg = replace(config, v_min=0.995 * config.mean_velocity,
                  v_max=1.005 * config.mean_velocity, ion_charge=100.0)
    prof = RingProfile.from_config(cfg)
    assert not find_horizons(prof)
    with pytest.raises(RegionError):
        hawking_temperature_ring(prof)


def test_line_temperature_value():
    assert hawking_temperature_line(1.1, 0.9, 1.0) == pytest.approx(0.2 / (4 * math.pi), rel=1e-15)


def test_line_temperature_degenerate_and_scaling():
    assert hawking_temperature_line(1.0, 1.0, 1.0) == 0.0
    assert hawking_temperature_line(1.1, 0.9, 2.0) == pytest.approx(
        0.5 * hawking_temperature_line(1.1, 0.9, 1.0))


def test_line_equals_linearized_ring():
    # a ring-like profile with c = 1 and a linear ramp of gradient kappa
    # around the sonic point reproduces the channel formula
    class UnitSound:
        def __init__(self, kappa):
            self.kappa = kappa
            self.config = type("C", (), {"hbar": 1.0, "k_boltzmann": 1.0})()

        def velocity(self, x, t=None):
            return 1.0 + self.kappa * (np.asarray(x, dtype=float) - 3.0)

        def sound_speed(self, x, t=None):
            return np.ones_like(np.asarray(x, dtype=float))

    kappa, a = 0.1, 1.0
    t_ring = _hawking_richardson(UnitSound(kappa), 3.0, 0.5 / 64.0)
    t_line = hawking_temperature_line(1.0 + kappa * a, 1.0 - kappa * a, a)
    assert t_ring == pytest.approx(t_line, rel=1e-6)
