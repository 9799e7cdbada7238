"""Independent oracles of the line flow for the tests.

The flow v(x, t) = tanh(t/tau) (1 + kappa clip(x, -a, a)) is evaluated here
from the profile's parameters alone, and so is g(t) = int_0^t e^{-kappa F},
by adaptive quadrature.  An adaptive Runge-Kutta integration of the
characteristic ODE, leg by leg between the interfaces x = +-a and carrying
kappa * int sigma over the time spent in |x| <= a as a second state, checks
the closed-form legs of ``sonicbh.characteristics``; central differences of
its x0 check their Jacobian.  ``left_characteristic`` is the single-region
transition-region closed form with a sampled confinement check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from sonicbh.characteristics import core_integrals
from sonicbh.profiles import LineProfile

# RK45 tolerances of the oracle traces
TRACE_RTOL, TRACE_ATOL = 1e-13, 1e-14


def line_velocity(x: float, t: float, profile: LineProfile) -> float:
    """tanh(t/tau) (1 + kappa clip(x, -a, a))."""
    return math.tanh(t / profile.tau) * (1.0 + profile.kappa * min(max(x, -profile.a), profile.a))


def core_g(t: float, profile: LineProfile) -> float:
    """g(t) = int_0^t cosh^{-kappa tau}(s/tau) ds by adaptive quadrature."""
    tau, m = profile.tau, profile.kappa * profile.tau
    # ln cosh u = u + log1p(e^{-2u}) - ln 2 keeps the integrand finite at any s
    decay = lambda s: math.exp(-m * (s / tau + math.log1p(math.exp(-2.0 * s / tau))
                                     - math.log(2.0)))
    return quad(decay, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _rhs(branch: str, profile: LineProfile, inside: bool):
    sgn = -1.0 if branch == "left" else +1.0
    rate = profile.kappa if inside else 0.0

    def rhs(t, y):
        return [line_velocity(y[0], t, profile) + sgn, rate * math.tanh(t / profile.tau)]

    return rhs


def _leaving(profile: LineProfile, inside: bool):
    """Terminal event: the curve crosses |x| = a out of the leg's region."""
    side = 1.0 if inside else -1.0

    def event(t, y):
        return side * (abs(y[0]) - profile.a)

    event.terminal, event.direction = True, 1.0
    return event


def rk45_trace(x: float, t: float, branch: str, profile: LineProfile) -> tuple[float, float]:
    """(x0, e^{-kappa int sigma inside}) of (x, t), integrated backward to t = 0.

    Leg by leg: each integration stops at an interface crossing and restarts
    on the other side, so no step straddles the jump of the core rate.
    """
    if t == 0:
        return x, 1.0
    y, inside = [x, 0.0], abs(x) <= profile.a
    for _ in range(4):  # three legs at most, plus an empty one from a start on x = +-a
        sol = solve_ivp(_rhs(branch, profile, inside), (t, 0.0), y, method="RK45",
                        rtol=TRACE_RTOL, atol=TRACE_ATOL, events=_leaving(profile, inside))
        assert sol.success, sol.message
        t, y, inside = float(sol.t[-1]), sol.y[:, -1], not inside
        if t == 0.0:                 # y[1] ran down by kappa int sigma inside
            return float(y[0]), math.exp(float(y[1]))
    raise AssertionError(f"more interface crossings than a characteristic makes at {x!r}")


def rk45_dx0_dx(x: float, t: float, branch: str, profile: LineProfile,
                h: float = 1e-4) -> float:
    """dx0/dx by central differences of the RK45 trace."""
    return (rk45_trace(x + h, t, branch, profile)[0]
            - rk45_trace(x - h, t, branch, profile)[0]) / (2.0 * h)


class RegionExit(Exception):
    """The transition-region curve left |x| <= a before the requested time."""

    def __init__(self, exit_time):
        super().__init__(f"characteristic leaves |x| <= a at t = {exit_time:.9g}")
        self.exit_time = exit_time


def left_characteristic(x0: float, t: float, profile: LineProfile) -> float:
    """Transition-region left-mover position e^{kappa F(t)} (x0 - I(t)) at time t.

    Valid while the curve stays in |x| <= a, which 256 samples on [0, t]
    check; leaving the region raises RegionExit with the exit time.
    """
    ci = core_integrals(profile)
    pos = lambda s: math.exp(profile.kappa * profile.sigma_accumulated(s)) * (x0 - ci.i(s))
    if t > 0:
        ts = np.linspace(0.0, t, 256)
        outside = np.abs([pos(s) for s in ts]) > profile.a
        if outside.any():
            j = int(np.argmax(outside))
            lo = ts[j - 1] if j > 0 else 0.0
            gap = lambda s: abs(pos(s)) - profile.a
            raise RegionExit(brentq(gap, lo, ts[j], xtol=1e-12) if gap(lo) < 0 else lo)
    return pos(t)
