import math

import mpmath as mp
import numpy as np
import pytest

from sonicbh.errors import RegionError, SingularIntegrandError
from sonicbh.params import TWO_PI
from sonicbh.profiles import (RingProfile, hawking_temperature_line, hawking_temperature_ring,
                              null_coordinate_map, sigma_accumulated)

from flow_oracle import line_velocity
from ring_oracle import ring_flow, ring_null_coordinate


# --------------------------------------------------------------------------
# collapse schedule
# --------------------------------------------------------------------------

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
    num = integrate_adaptive(lambda s: math.tanh(s / tau), 0.0, t, tol=1e-12).value
    assert sigma_accumulated(t, tau) == pytest.approx(num, rel=1e-10)


def test_sigma_accumulated_derivative_is_sigma():
    # centered differences on a 100-point grid against sigma = tanh(t/tau)
    tau = 0.9
    ts = np.linspace(0.05, 8.0, 100)
    h = 1e-6
    for t in ts:
        d = (sigma_accumulated(t + h, tau) - sigma_accumulated(t - h, tau)) / (2 * h)
        assert d == pytest.approx(math.tanh(t / tau), rel=1e-6)


# --------------------------------------------------------------------------
# ring profile
# --------------------------------------------------------------------------

def _mp_ring(config):
    return ring_flow(config, mp.mpf, mp.sqrt, mp.pi)


def _x_u_rate(config, theta):
    """dx_u/dtheta = 1/(c + v) of the config's own flow at theta."""
    v, c, _ = ring_flow(config)
    return 1.0 / (c(theta) + v(theta))


def test_ring_midpoint_of_ramp(config):
    # at theta_h the ramp passes (v_min + v_max)/2: Richardson-refined central
    # differences of the oracle's log-form x_u there give that speed's rate
    x_u, _, _ = ring_null_coordinate(config, "u")
    th = config.theta_h
    diff = lambda h: (x_u(th + h) - x_u(th - h)) / (2 * h)
    rate = (4 * diff(1e-4) - diff(2e-4)) / 3
    assert rate == pytest.approx(_x_u_rate(config, th), rel=1e-9)


def test_ring_continuity_and_periodicity(ring, config):
    # the oracle's pieces of x_u join without a jump at every segment end, it
    # spans [0, 2 pi] from 0 to the package's total, and it runs at one rate on
    # either side of theta = 0 = 2 pi
    x_u, _, _ = ring_null_coordinate(config, "u")
    total = null_coordinate_map(ring, "u").total
    th_h, g1, g2 = config.theta_h, config.gamma1, config.gamma2
    for end in (th_h - g1, th_h + g1, TWO_PI - th_h - g2, TWO_PI - th_h + g2):
        assert abs(x_u(end + 1e-12) - x_u(end - 1e-12)) < 1e-11
    assert x_u(0.0) == 0.0 and x_u(TWO_PI) == pytest.approx(total, rel=1e-14)
    assert x_u(0.1) == pytest.approx(total - x_u(TWO_PI - 0.1), rel=1e-12)
    assert np.all(np.abs(np.diff([x_u(th) for th in np.linspace(0, TWO_PI, 20001)])) < 2e-3)


def test_ring_two_sonic_crossings(ring, derived):
    # the v map keeps the ring less one sliver of 2 delta around each horizon
    length = null_coordinate_map(ring, "v", derived.delta).length
    assert length == pytest.approx(TWO_PI - 4 * derived.delta, rel=1e-14)


# --------------------------------------------------------------------------
# line profile
# --------------------------------------------------------------------------

def test_line_continuity_at_interfaces(line):
    # the outer speeds v_min, v_max of the package's legs continue the core
    # law tanh(t/tau) (1 + kappa x) of the oracle flow at x = -+a
    for t in (0.0, 0.5, 3.0, 40.0):
        s = math.tanh(t / line.tau)
        assert line_velocity(line.a, t, line) == pytest.approx(s * line.v_max, rel=1e-14,
                                                                abs=1e-300)
        assert line_velocity(-line.a, t, line) == pytest.approx(s * line.v_min, rel=1e-14,
                                                                 abs=1e-300)


# --------------------------------------------------------------------------
# null coordinates
# --------------------------------------------------------------------------

def test_null_u_additivity(config):
    # the oracle's x_u(b) = x_u(m) + independent quadrature of 1/(c+v) from m to b
    from sonicbh.specfun import integrate_adaptive
    v, c, _ = ring_flow(config)
    x_u, _, _ = ring_null_coordinate(config, "u")
    seg = integrate_adaptive(lambda x: 1.0 / (c(x) + v(x)), 1.5, 4.0, tol=1e-12).value
    assert x_u(4.0) == pytest.approx(x_u(1.5) + seg, rel=1e-8)


def test_null_v_requires_exclusion(ring):
    with pytest.raises(SingularIntegrandError, match="horizon"):
        null_coordinate_map(ring, "v", 0.0)


def test_null_v_finite_with_exclusion_and_sensitivity(ring, config):
    eps = TWO_PI / config.n_ions
    v1 = null_coordinate_map(ring, "v", eps).total
    v2 = null_coordinate_map(ring, "v", 2 * eps).total
    assert math.isfinite(v1) and math.isfinite(v2)
    # the two sides of each simple pole cancel at leading order, so the total
    # moves by O(eps) with the exclusion width (6.7e-4 from eps to 2 eps)
    assert abs(v1 - v2) < 1e-3


def _mp_horizons(config):
    v, c, ramps = _mp_ring(config)
    return [mp.findroot(lambda th: v(th) - c(th), ramp, solver="anderson") for ramp in ramps]


def _mp_null_coordinate(config, branch, epsilon, theta=None):
    """x_b(theta), by default x_b(2 pi): 30-digit quadrature of 1/(c +- v) from
    0, slivers (h - eps, h + eps) around the mpmath horizons cut out."""
    with mp.workdps(30):
        v, c, ramps = _mp_ring(config)
        sign = 1 if branch == "u" else -1
        horizons = _mp_horizons(config) if branch == "v" else []
        eps = mp.mpf(epsilon)
        stop = 2 * mp.pi if theta is None else mp.mpf(theta)
        cuts = [mp.mpf(0), *(h + s * eps for h in horizons for s in (-1, 1)), 2 * mp.pi]
        # breakpoints at the ramp ends and graded towards each pole
        points = {end for ramp in ramps for end in ramp}
        points |= {h + s * eps * 2 ** j for h in horizons for s in (-1, 1) for j in range(40)}
        total = mp.mpf(0)
        for lo, hi in zip(cuts[0::2], cuts[1::2]):
            hi = min(hi, stop)
            if hi <= lo:
                break
            knots = [lo, *sorted(p for p in points if lo < p < hi), hi]
            total += mp.quad(lambda th: 1 / (c(th) + sign * v(th)), knots)
        return float(total)


def test_horizons_against_mpmath_roots(config):
    # the oracle's horizons v = K^(2/3) on the ramps against the roots of v = c
    with mp.workdps(30):
        exact = _mp_horizons(config)
    _, _, horizons = ring_null_coordinate(config, "v", TWO_PI / config.n_ions)
    assert horizons == pytest.approx([float(h) for h in exact], rel=1e-12)


@pytest.mark.parametrize("branch, offset", [("u", None), ("v", None), ("v", -1.5),
                                            ("v", -0.5), ("v", 1.5)])
def test_oracle_null_coordinate_against_mpmath(config, branch, offset):
    # the oracle's pointwise x_b against 30-digit quadrature: on a plateau, mid-ramp
    # and, on the v branch, within 2 eps of each horizon (inside a sliver at
    # offset -0.5, where the value is carried flat)
    eps = TWO_PI / config.n_ions
    x_b, _, horizons = ring_null_coordinate(config, branch, eps if branch == "v" else 0.0)
    if offset is None:
        thetas = [0.5 * (config.theta_h - config.gamma1), config.theta_h + 0.3 * config.gamma1,
                  math.pi, TWO_PI - config.theta_h + 0.7 * config.gamma2]
    else:
        thetas = [h + offset * eps for h in horizons]
    for theta in thetas:
        assert x_b(theta) == pytest.approx(
            _mp_null_coordinate(config, branch, eps, theta), rel=1e-12)


@pytest.mark.parametrize("branch, epsilon", [("u", 0.0), ("v", None), ("v", 1e-6)])
def test_null_total_against_mpmath(ring, config, branch, epsilon):
    if epsilon is None:
        epsilon = TWO_PI / config.n_ions   # the default exclusion: one ion spacing
    total = null_coordinate_map(ring, branch, epsilon).total
    assert total == pytest.approx(_mp_null_coordinate(config, branch, epsilon), rel=1e-9)


# --------------------------------------------------------------------------
# Hawking temperatures
# --------------------------------------------------------------------------

def _hawking_richardson(v, c, theta, h, hbar, k_boltzmann):
    """hbar/(4 pi v k_B) d(v^2 - c^2)/dtheta at theta: central differences with
    one Richardson step, exact on a linear ramp up to rounding."""
    gap2 = lambda x: v(x) ** 2 - c(x) ** 2
    d1 = (gap2(theta + h) - gap2(theta - h)) / (2 * h)
    d2 = (gap2(theta + h / 2) - gap2(theta - h / 2)) / h
    deriv = (4 * d2 - d1) / 3.0
    return hbar * deriv / (4.0 * math.pi * v(theta) * k_boltzmann)


def _ring_richardson(config, horizon):
    """The Richardson T_H of the config's own flow at the oracle's horizon."""
    v, c, _ = ring_flow(config)
    theta = ring_null_coordinate(config, "v")[2][horizon]
    h = min(config.gamma1, config.gamma2) / 64.0
    return _hawking_richardson(v, c, theta, h, config.hbar, config.k_boltzmann)


def test_ring_temperature_linear_slope(ring, config):
    # on a linear ramp the Richardson-extrapolated difference is exact up to
    # rounding: the closed form 3 hbar v'/(4 pi k_B) against it at the horizon
    assert hawking_temperature_ring(ring) == pytest.approx(
        _ring_richardson(config, 0), rel=1e-8)


def test_ring_temperature_closed_form(ring):
    # 3 hbar v'/(4 pi k_B) with v' = (v_max - v_min)/(2 gamma1): 0.5 on the bench ring
    assert hawking_temperature_ring(ring) == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_ring_temperatures_equal_magnitude(ring, config):
    # gamma1 = gamma2: the second horizon, which no command reports, has the
    # reported temperature with the opposite sign
    assert -_ring_richardson(config, 1) == pytest.approx(
        hawking_temperature_ring(ring), rel=1e-8)


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
    # no pole to cut out: the v map needs no exclusion and keeps the whole ring
    assert null_coordinate_map(prof, "v", 0.0).length == pytest.approx(TWO_PI, rel=1e-15)
    with pytest.raises(RegionError):
        hawking_temperature_ring(prof)


def test_line_temperature_value():
    assert hawking_temperature_line(1.1, 0.9, 1.0) == pytest.approx(0.2 / (4 * math.pi), rel=1e-15)


def test_line_temperature_degenerate_and_scaling():
    assert hawking_temperature_line(1.0, 1.0, 1.0) == 0.0
    assert hawking_temperature_line(1.1, 0.9, 2.0) == pytest.approx(
        0.5 * hawking_temperature_line(1.1, 0.9, 1.0))


def test_line_equals_linearized_ring():
    # a ring-like flow with c = 1 and a linear ramp of gradient kappa around
    # the sonic point reproduces the channel formula
    kappa, a = 0.1, 1.0
    t_ring = _hawking_richardson(lambda x: 1.0 + kappa * (x - 3.0), lambda x: 1.0,
                                 3.0, 0.5 / 64.0, 1.0, 1.0)
    t_line = hawking_temperature_line(1.0 + kappa * a, 1.0 - kappa * a, a)
    assert t_ring == pytest.approx(t_line, rel=1e-6)
