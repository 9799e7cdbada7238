import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

from sonicbh.characteristics import (_GAUSS_LEGENDRE_24, _region_of, characteristic_fan_rows,
                                     core_integrals, core_left_x0, entanglement_boundary,
                                     forward_characteristic, matched_exponent,
                                     matched_x0, pair_partner, trace_characteristic)
from sonicbh.profiles import _GAUSS_LEGENDRE_32, LineProfile

from conftest import mode_function
from flow_oracle import (RegionExit, core_g, left_characteristic, line_velocity, rk45_dx0_dx,
                         rk45_trace)

# the windows and times of C09
C09_WINDOWS = {"x<-a": (-8.0, -1.05), "|x|<=a": (-0.95, 0.95), "x>a": (1.05, 8.0)}


# --------------------------------------------------------------------------
# single-region closed forms
# --------------------------------------------------------------------------

def test_left_initial_condition(line):
    assert left_characteristic(0.3, 0.0, line) == 0.3


def test_left_flat_limit():
    # tau >> t freezes sigma near 0: dx/dt = -1 up to O(t^2 / tau)
    lp = LineProfile(a=10.0, kappa=0.05, tau=1e4)
    assert left_characteristic(2.0, 1.5, lp) == pytest.approx(0.5, abs=1e-3)


def test_left_long_time_form(line):
    # for t >> tau the curve is exactly e^{kappa F(t)} (x0 - I_inf); the
    # sigma = 1 idealization x0 e^{kappa t} describes the stretch rate once
    # the transient offsets are absorbed into the effective starting point
    ci = core_integrals(line)
    x0, t = 0.9, 10.0
    exact = left_characteristic(x0, t, line)
    f = line.sigma_accumulated(t)
    assert exact == pytest.approx(math.exp(line.kappa * f) * (x0 - ci.i(t)), rel=1e-9)
    stretch = left_characteristic(x0, t, line) / left_characteristic(x0, t - 2.0, line)
    assert stretch == pytest.approx(math.exp(line.kappa * 2.0), rel=1e-3)


def test_left_region_exit_carries_time(line):
    # the sampled confinement check and the closed-form legs agree on the exit
    with pytest.raises(RegionExit) as err:
        left_characteristic(0.99, 30.0, line)
    texit = err.value.exit_time
    assert 0.0 < texit < 30.0
    just_inside = left_characteristic(0.99, texit * (1.0 - 1e-9), line)
    assert abs(just_inside) == pytest.approx(line.a, abs=1e-6)
    at_exit = forward_characteristic(0.99, [texit], line)[-1]
    assert abs(at_exit) == pytest.approx(line.a, abs=1e-9)


# --------------------------------------------------------------------------
# exact tracing
# --------------------------------------------------------------------------

def test_trace_left_jacobian_counts_inner_time_only(line):
    # a curve that never enters |x| <= a is a rigid shift; one that stayed
    # inside since t = 0 decays by the full e^{-kappa F(t)}
    assert trace_characteristic(-9.0, 3.0, line).dx0_dx == 1.0
    tr = trace_characteristic(-0.2, 1.5, line)
    assert tr.dx0_dx == pytest.approx(math.exp(-line.kappa * line.sigma_accumulated(1.5)),
                                      rel=1e-14)


def _c09_points(n):
    rng = np.random.default_rng(11)
    for lo, hi in C09_WINDOWS.values():
        yield from zip(rng.uniform(lo, hi, n), rng.uniform(0.1, 25.0, n))


def _assert_matches_rk45_oracle(points, branch, profile):
    for x, t in points:
        x0, decay = rk45_trace(x, t, branch, profile)
        tr = trace_characteristic(x, t, profile)
        assert abs(tr.x0 - x0) <= 1e-10 * max(abs(x0), 1.0), (x, t, tr.x0 - x0)
        assert tr.dx0_dx == pytest.approx(decay, rel=1e-10)


# the oracle's branch: the package traces left movers only
@pytest.mark.parametrize("branch", ["left"])
def test_trace_matches_rk45_oracle(line, branch):
    # the closed-form legs against the adaptive integration of the ODE, on
    # C09's points and at a core point under a slow collapse (tau = 40,
    # sigma ~ 1e-2)
    _assert_matches_rk45_oracle(_c09_points(25), branch, line)
    _assert_matches_rk45_oracle([(-0.5, 0.5)], branch, LineProfile(a=1.0, kappa=0.5, tau=40.0))


@pytest.mark.parametrize("branch", ["left"])
def test_trace_keeps_digits_on_late_core_legs(branch):
    # kappa t = 57: a core leg left at s ~ 20 sits where e^{-kappa F} ~ 1e-17,
    # below the rounding of the saturated integrals themselves
    lp = LineProfile(a=0.5, kappa=1.9, tau=0.2)
    _assert_matches_rk45_oracle([(x, 30.0) for x in (-1.5, -0.6, -0.25, 0.15, 0.55, 1.5)],
                                branch, lp)


def test_left_jacobian_matches_central_differences(line):
    # dx0/dx is the derivative of the map at the point, not a secant across
    # the probes: the MC probes at t = 30 (x1 < -a, x2 in [1.1, 6]), then C09's
    t = 30.0
    points = [(x, t) for x in (-1.4, -1.2, -1.1, *np.linspace(1.1, 6.0, 8))]
    for x, t in points + list(_c09_points(6)):
        fd = rk45_dx0_dx(x, t, "left", line)
        w = trace_characteristic(x, t, line).dx0_dx
        assert abs(w - fd) <= 1e-7 * fd, (x, t, w, fd)


def _mp_i(m, tau, t):
    """I(t) as the 40-digit difference of incomplete betas, an mpf."""
    with mp.workdps(40):
        p, y = mp.mpf(m) / 2, 1 / (1 + mp.exp(2 * mp.mpf(t) / tau))
        return tau * 2 ** mp.mpf(m) * mp.beta(p + 1, p) * (
            mp.betainc(p + 1, p, 0, mp.mpf(1) / 2, regularized=True)
            - mp.betainc(p + 1, p, 0, y, regularized=True))


def _mp_i_tail(m, tau, t):
    """I(inf) - I(t) as the 40-digit incomplete beta
    tau 2^m B(m/2 + 1, m/2) I_y(m/2 + 1, m/2), y = 1/(1 + e^{2t/tau})."""
    with mp.workdps(40):
        p, y = mp.mpf(m) / 2, 1 / (1 + mp.exp(2 * mp.mpf(t) / tau))
        return float(tau * 2 ** mp.mpf(m) * mp.beta(p + 1, p)
                     * mp.betainc(p + 1, p, 0, y, regularized=True))


def test_gauss_legendre_table_is_numpys_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert [x.hex() for x in _GAUSS_LEGENDRE_24[0]] == [x.hex() for x in nodes.tolist()]
    assert [w.hex() for w in _GAUSS_LEGENDRE_24[1]] == [w.hex() for w in weights.tolist()]


def test_null_map_gauss_legendre_table_is_numpys_bit_for_bit():
    # the ring's null map reads the 32-point rule written out in profiles
    nodes, weights = np.polynomial.legendre.leggauss(32)
    assert [x.hex() for x in _GAUSS_LEGENDRE_32[0]] == [x.hex() for x in nodes.tolist()]
    assert [w.hex() for w in _GAUSS_LEGENDRE_32[1]] == [w.hex() for w in weights.tolist()]


def _numpy_rule(t, tau, m):
    """The early-time rule as it was summed over numpy arrays: cosh, tanh and
    a dot product."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    u = (t / tau) * (0.5 * (nodes + 1.0))
    return t * float((0.5 * weights) @ (np.cosh(u) ** -m * (1.0 - np.tanh(u))))


@pytest.mark.parametrize("kappa, tau", [(0.1, 1.0), (0.5, 3.0), (0.02, 0.5), (4.0, 1.0),
                                        (1.0, 0.7)])
def test_early_core_integrals_no_farther_than_numpys_rule(kappa, tau):
    # below t_gauss, I(t) is the 24-point rule summed exactly rounded, and
    # I(inf) - I(t) subtracts it from the incomplete-beta I(inf); against 40
    # digits neither misses by more than the same rule summed over numpy
    # arrays did (the tail's reference takes I(inf) as computed, whose own
    # error the two rules share)
    ci = core_integrals(LineProfile(a=1.0, kappa=kappa, tau=tau))
    m = kappa * tau
    ts = [1e-8, 1e-4, *(ci.t_gauss * k / 60 for k in range(1, 60)), ci.t_gauss * (1 - 1e-12)]
    errors = {"i": [], "numpy i": [], "tail": [], "numpy tail": []}
    for t in ts:
        with mp.workdps(40):
            exact_i = _mp_i(m, tau, t)
            tail = mp.mpf(ci.i_inf) - exact_i
            rule = _numpy_rule(t, tau, m)
            errors["i"].append(float(abs(ci.i(t) - exact_i) / exact_i))
            errors["numpy i"].append(float(abs(rule - exact_i) / exact_i))
            errors["tail"].append(float(abs(ci.i_tail(t) - tail) / tail))
            errors["numpy tail"].append(float(abs((ci.i_inf - rule) - tail) / tail))
    worst = {key: max(values) for key, values in errors.items()}
    assert worst["i"] <= worst["numpy i"] and worst["tail"] <= worst["numpy tail"], worst


@pytest.mark.parametrize("kappa, tau", [(0.1, 1.0), (0.5, 3.0), (0.02, 0.5)])
def test_core_integrals_against_quadrature(kappa, tau):
    # I(inf) - I(t), which the core legs read, against its incomplete beta
    # (mpmath quadrature of that tail is only good to ~5e-12 at t >= 300);
    # I(t) against mpmath quadrature of its integrand
    lp = LineProfile(a=1.0, kappa=kappa, tau=tau)
    ci = core_integrals(lp)
    m = kappa * tau
    decay = lambda s: mp.cosh(s / tau) ** (-m)
    for t in (1e-8, 1e-4, 0.01, 0.3, tau * 0.999, tau, 1.5, 4.0, 20.0, 100.0, 300.0, 1e3):
        cuts = [0] + [c for c in (tau, 10 * tau, 100 * tau) if c < t] + [t]
        with mp.workdps(30):
            i_ = mp.quad(lambda s: (1 - mp.tanh(s / tau)) * decay(s), cuts)
        assert ci.i_tail(t) == pytest.approx(_mp_i_tail(m, tau, t), rel=1e-12, abs=0), (
            "I tail", t)
        assert ci.i(t) == pytest.approx(float(i_), rel=1e-12, abs=0), ("I", t)


def test_core_integral_tail_past_its_beta_switch():
    # from u = 2t/tau = 700 on, the tail is y^p / (p B) in one exponent; at
    # m = 0.01 it is still a normal float there: 2.0e-307 at u = 702, 2.7e-308 at 704
    kappa, tau = 0.02, 0.5
    ci = core_integrals(LineProfile(a=1.0, kappa=kappa, tau=tau))
    for t in (351.0 * tau, 352.0 * tau):
        assert ci.i_tail(t) == pytest.approx(_mp_i_tail(kappa * tau, tau, t), rel=1e-12,
                                             abs=0), t


# the package traces left movers only
@pytest.mark.parametrize("branch", ["left"])
def test_round_trip_random_points(line, branch):
    rng = np.random.default_rng(20240808)
    for lo, hi in C09_WINDOWS.values():
        for _ in range(12):  # acceptance runs the full 100/region sweep
            x = float(rng.uniform(lo, hi))
            t = float(rng.uniform(0.1, 25.0))
            tr = trace_characteristic(x, t, line)
            back = forward_characteristic(tr.x0, [t], line)[-1]
            assert back == pytest.approx(x, rel=1e-8, abs=1e-8), (branch, x, t)


def test_characteristics_do_not_cross(line):
    # x0 -> x(t) strictly monotone on a 50-point grid of starting points
    x0s = np.linspace(-6.0, 6.0, 50)
    for t in (3.0, 17.0):
        xs = [forward_characteristic(float(x0), [t], line)[-1] for x0 in x0s]
        assert np.all(np.diff(xs) > 0)


def test_fan_rows_trace_back_to_their_rays(line):
    # the fan of scripts/run_correlation_scan.py: same profile, rays and times
    rays, t_max, n_t = [-1.5, -1.0, -0.5, 0.72, 0.9, 1.0, 1.5], 40.0, 60
    ts = np.linspace(0.0, t_max, n_t).tolist()
    rows = characteristic_fan_rows(line, rays, ts)
    assert len(rows) == len(rays) * n_t
    for i, (t, x, region) in enumerate(rows):
        x0 = rays[i // n_t]
        assert t == ts[i % n_t]
        assert region == _region_of(x, line.a)
        back = rk45_trace(x, t, "left", line)[0]
        assert abs(back - x0) <= 1e-10, (x0, t, back - x0)


# --------------------------------------------------------------------------
# matched long-time scheme
# --------------------------------------------------------------------------

def test_matched_interface_start(line):
    # x0 = a is the interface characteristic: the matched exit relation gives
    # zero crossing time, i.e. matched_x0(x_plus-, t).x0 -> a * 2^{tau/a}
    t = 100.0
    xp = entanglement_boundary(t, line)[1]
    assert matched_x0(xp * (1 - 1e-12), t, line).x0 == pytest.approx(
        line.a * 2.0 ** (line.tau / line.a), rel=1e-6)


def test_matched_solves_outer_transport(line):
    # (d_t + (sigma v_max - 1) d_x) x0 = 0 in the matched outer segment
    t, x, h = 60.0, 5.0, 1e-5
    dt_ = (matched_x0(x, t + h, line).x0 - matched_x0(x, t - h, line).x0) / (2 * h)
    dx_ = (matched_x0(x + h, t, line).x0 - matched_x0(x - h, t, line).x0) / (2 * h)
    v = line_velocity(x, t, line)
    assert dt_ + (v - 1.0) * dx_ == pytest.approx(0.0, abs=1e-6)


def test_matched_inner_display_is_exact(line):
    # inside |x| <= a the map inverts the transition-region solution exactly
    x0 = 0.85
    t = 1.7
    x = left_characteristic(x0, t, line)
    assert matched_x0(x, t, line).x0 == pytest.approx(x0, rel=1e-9)


def idealized_trace_x0(x: float, t: float, profile: LineProfile) -> float:
    """Backward trace under the saturated-collapse left-mover flow.

    The interior field is replaced by its sigma = 1 limit.  The matched
    closed forms keep the exact collapse integral at the evaluation time but
    idealize it at the interface-crossing time, so at late times they exceed
    this trace by exactly e^{v_max tau ln2 / a} (right side; v_min on the
    left) -- a documented bookkeeping offset of the analytic scheme.
    """
    def rhs(s, y):
        x_ = y[0]
        if abs(x_) <= profile.a:
            return [profile.kappa * x_]
        return [line_velocity(x_, s, profile) - 1.0]

    sol = solve_ivp(rhs, (t, 0.0), [x], method="RK45", rtol=1e-12, atol=1e-13)
    return float(sol.y[0, -1])


def test_matched_vs_saturated_trace_offset(line):
    # The matched exponentials idealize the collapse integral at the crossing
    # time; relative to the saturated-collapse flow they carry exactly the
    # factor e^{v_max tau ln2 / a} (right side), e^{-...} being absorbed by
    # the left-side orientation.  This pins the scheme's bookkeeping.
    t = 100.0
    expected = math.exp(line.v_max * line.tau * math.log(2.0) / line.a)
    for x in (5.0, 8.0, 10.0):
        ratio = matched_x0(x, t, line).x0 / idealized_trace_x0(x, t, line)
        assert ratio == pytest.approx(expected, rel=1e-4)


def test_matched_differs_from_true_trace_at_order_one(line):
    # Documented limitation: the long-time matched forms do NOT reproduce the
    # true tanh-collapse trace; the inner transient shifts the separatrix by
    # int (1 - sigma) e^{-kappa F} ~ 0.67 a.  Guard the measured gap so any
    # silent change of scheme is caught.
    t = 100.0
    true_x0 = trace_characteristic(8.0, t, line).x0
    assert true_x0 == pytest.approx(0.7301, abs=2e-3)       # frozen from the tracer
    assert matched_x0(8.0, t, line).x0 == pytest.approx(0.1067, abs=2e-3)


def test_matched_dx0_dx_consistent_with_fd(line):
    t = 40.0
    for x in (-3.0, -0.2, 0.6, 2.5, 9.0):
        h = 1e-6
        fd = (matched_x0(x + h, t, line).x0 - matched_x0(x - h, t, line).x0) / (2 * h)
        assert matched_x0(x, t, line).dx0_dx == pytest.approx(fd, rel=1e-6)


def test_matched_map_regions(line):
    # core for |x| <= a, matched exponentials for a < |x| <= x_plus, flat
    # beyond; x = +-a and x = +-x_plus belong to the region inside them
    t = 40.0
    a, xp = line.a, entanglement_boundary(t, line)[1]
    f = line.sigma_accumulated(t)
    for side, v in ((1.0, line.v_max), (-1.0, line.v_min)):
        for x in (0.0, side * 0.5 * a, side * a):
            core = matched_x0(x, t, line)
            assert core.x0 == pytest.approx(core_left_x0(x, t, line), rel=1e-14)
            assert core.dx0_dx == pytest.approx(math.exp(-line.kappa * f), rel=1e-14)
        for x in (side * math.nextafter(a, math.inf), side * 0.5 * (a + xp), side * xp):
            matched = matched_x0(x, t, line)
            x0 = side * a * math.exp(matched_exponent(x, t, line))
            assert matched.x0 == pytest.approx(x0, rel=1e-14)
            assert matched.dx0_dx == pytest.approx(abs(x0) / a, rel=1e-14)
        for x in (side * math.nextafter(xp, math.inf), side * 2.0 * xp):
            flat = matched_x0(x, t, line)
            assert flat.x0 == pytest.approx(x + t - f * v, rel=1e-14)
            assert flat.dx0_dx == 1.0


_PARTNER_LINES = pytest.mark.parametrize(
    "profile", [LineProfile(a=1.0, kappa=0.1, tau=1.0),
                LineProfile(a=2.0, kappa=0.3, tau=2.0)], ids=["default", "a2-kappa0.3-tau2"])


@_PARTNER_LINES
@pytest.mark.parametrize("x1_over_a", [-1.05, -2.0, -4.0, -16.0])
def test_pair_partner_equates_the_matched_exponents(profile, x1_over_a):
    """x2* is where the outside branch of matched_exponent reaches its inside
    value at x1 (X2 = X1), found here by bisection on x2 > a."""
    a, x1 = profile.a, x1_over_a * profile.a
    for t in (0.0, 0.1, 1.0, 5.0, 40.0, 300.0, 2000.0):
        target = matched_exponent(x1, t, profile)
        lo, hi = a, a + 100.0 * a
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if matched_exponent(mid, t, profile) > target else (mid, hi)
        assert pair_partner(x1, t, profile) == pytest.approx(lo, rel=1e-13, abs=1e-11)


@_PARTNER_LINES
def test_pair_partner_keeps_its_offset_at_late_t(profile):
    # 2a - x1 - 2t + F (v_max + v_min) would cancel to 2a - x1 here
    a, tau = profile.a, profile.tau
    late = pair_partner(-4.0 * a, 1e300, profile)
    assert late == 2.0 * a + 4.0 * a - 2.0 * tau * math.log(2.0)


# --------------------------------------------------------------------------
# wedge boundary
# --------------------------------------------------------------------------

def test_boundary_at_zero(line):
    assert entanglement_boundary(0.0, line) == (-line.a, line.a)


def test_boundary_long_time_value(line):
    xm, xp = entanglement_boundary(100.0, line)
    assert xp == pytest.approx(1.0 + 0.1 * (100.0 - math.log(2.0)), abs=1e-10)
    assert xp == pytest.approx(10.93, abs=5e-3)
    assert xm == -xp


def test_boundary_linear_late_growth(line):
    t = 1000.0
    xm, xp = entanglement_boundary(t, line)
    assert xp / t == pytest.approx(line.a * line.kappa, rel=1e-2)


# --------------------------------------------------------------------------
# mode functions
# --------------------------------------------------------------------------

def test_mode_zero_k_rejected(line):
    with pytest.raises(ValueError):
        mode_function(0.0, 0.1, 1.0, line)


def test_mode_initial_plane_wave(line):
    for k in (-2.0, 0.7, 3.5):
        u = mode_function(k, 0.4, 0.0, line)
        expected = complex(math.cos(k * 0.4), math.sin(k * 0.4)) / math.sqrt(2 * abs(k))
        assert u == pytest.approx(expected, rel=1e-12)


def test_mode_left_movers_phase_only(line):
    for k in (-0.5, -2.0):
        for (x, t) in [(0.2, 3.0), (-0.7, 11.0)]:
            assert abs(mode_function(k, x, t, line)) == pytest.approx(
                1.0 / math.sqrt(2 * abs(k)), rel=1e-12)


def direction_content_integral(k: float, t: float, profile: LineProfile) -> complex:
    """1 - 2i|k| int_0^t e^{-2ik g(s) - kappa F(s)} ds by direct quadrature, with
    g the cumulative trapezoid of the sampled e^{-kappa F}."""
    s = np.linspace(0.0, t, 20000)
    decay = np.exp(-profile.kappa * np.array([profile.sigma_accumulated(v) for v in s]))
    g_s = cumulative_trapezoid(decay, s, initial=0.0)
    integrand = np.exp(-2j * k * g_s) * decay
    val = np.trapezoid(integrand, s)
    return 1.0 - 2j * abs(k) * val


def test_mode_direction_content_telescopes(line):
    # the right-mover time integral is an exact differential of e^{-2ikg}
    for (k, t) in [(1.3, 2.0), (2.0, 4.0), (0.4, 7.0)]:
        g = core_g(t, line)
        telescoped = complex(math.cos(2 * k * g), -math.sin(2 * k * g))
        assert direction_content_integral(k, t, line) == pytest.approx(telescoped, abs=5e-6)


def test_mode_flat_limit_right_mover():
    lp = LineProfile(a=1.0, kappa=1e-9, tau=1e9)  # sigma ~ 0: flat background
    k, x, t = 2.0, 0.3, 1.2
    u = mode_function(k, x, t, lp)
    expected = complex(math.cos(k * (x - t)), math.sin(k * (x - t))) / math.sqrt(2 * k)
    assert u == pytest.approx(expected, rel=1e-6)
