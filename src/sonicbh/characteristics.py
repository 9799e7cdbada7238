"""Characteristic curves of the collapsing channel flow and mode functions.

Left movers ride dx/dt = v(x,t) - 1, right movers dx/dt = v(x,t) + 1.  In
the transition region |x| <= a the left-mover curves have the closed form

    x(t) = e^{kappa F(t)} ( x0 - I(t) ),     F(t) = int_0^t sigma,
    I(t) = int_0^t (1 - sigma(s)) e^{-kappa F(s)} ds,

and the right movers x(t) = e^{kappa F}(x0 + 2 g(t) - I(t)) with
g(t) = int_0^t e^{-kappa F(s)} ds, carrying an amplitude e^{-kappa F}.

Two evaluation modes coexist and must not be conflated:

* ``trace_characteristic`` integrates the true piecewise dynamics backward
  (adaptive Runge-Kutta) -- the honest map;
* ``matched_x0`` evaluates the long-time matched closed forms used by the
  analytic correlation formulas, whose interior segment idealizes the
  collapse as instantaneous.  At late times the two differ by O(a)
  constants; see the region notes in ``matched_x0``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegionExitError
from .profiles import LineProfile, sigma_accumulated

REGION_LEFT, REGION_CORE, REGION_RIGHT = "x<-a", "|x|<=a", "x>a"

# RK45 tolerances of the exact traces
_TRACE_RTOL, _TRACE_ATOL = 1e-12, 1e-13


def _region_of(x: float, a: float) -> str:
    if x < -a:
        return REGION_LEFT
    if x > a:
        return REGION_RIGHT
    return REGION_CORE


# --------------------------------------------------------------------------
# cached transition-region integrals
# --------------------------------------------------------------------------

class _CoreIntegrals:
    """Splines for g(t) and I(t); analytic exponential tails beyond t_cut."""

    def __init__(self, profile: LineProfile):
        from scipy.integrate import cumulative_simpson
        from scipy.interpolate import CubicSpline
        kappa, tau = profile.kappa, profile.tau
        self.kappa, self.tau = kappa, tau
        self.t_cut = max(40.0 * tau, 60.0 / kappa)
        # log-graded grid so queries resolve at any scale between 1e-14 t_cut
        # and t_cut, regardless of how tau and 1/kappa compare
        grid = np.unique(np.concatenate([
            [0.0],
            np.geomspace(self.t_cut * 1e-14, self.t_cut, 6000),
            np.linspace(0.0, min(12.0 * tau, self.t_cut), 2000),
        ]))
        f_over = np.array([sigma_accumulated(t, tau) for t in grid])
        decay = np.exp(-kappa * f_over)             # e^{-kappa F(t)}
        sig = np.tanh(grid / tau)
        g = cumulative_simpson(decay, x=grid, initial=0.0)
        i_ = cumulative_simpson((1.0 - sig) * decay, x=grid, initial=0.0)
        self._g = CubicSpline(grid, g)
        self._i = CubicSpline(grid, i_)
        self._g_cut = float(g[-1])
        self._i_inf = float(i_[-1])   # integrand ~ e^{-(2/tau+kappa)t}: dead at t_cut

    def g(self, t: float) -> float:
        if t <= self.t_cut:
            return float(self._g(t))
        # beyond t_cut: e^{-kappa F(s)} = 2^{kappa tau} e^{-kappa s} to ~1e-26;
        # composed in the exponent so extreme kappa*tau cannot overflow
        k = self.kappa
        head = math.exp(k * (self.tau * math.log(2.0) - self.t_cut))
        return self._g_cut + head * (1.0 - math.exp(-k * (t - self.t_cut))) / k

    def i(self, t: float) -> float:
        return float(self._i(t)) if t <= self.t_cut else self._i_inf


@functools.lru_cache(maxsize=16)
def core_integrals(profile: LineProfile) -> _CoreIntegrals:
    return _CoreIntegrals(profile)


# --------------------------------------------------------------------------
# single-region closed forms
# --------------------------------------------------------------------------

def left_characteristic(x0: float, t: float, profile: LineProfile) -> float:
    """Transition-region left-mover position at time t from x(0) = x0.

    Valid while the trajectory stays in |x| <= a; leaving the region raises
    RegionExitError carrying the exit time.
    """
    ci = core_integrals(profile)
    pos = lambda s: math.exp(profile.kappa * profile.sigma_accumulated(s)) * (x0 - ci.i(s))
    _check_core_confinement(pos, t, profile)
    return pos(t)


def core_left_x0(x: float, t: float, profile: LineProfile) -> float:
    """Initial position x e^{-kappa F(t)} + I(t) of the transition-region left
    mover at (x, t); the inverse of ``left_characteristic``."""
    decay = math.exp(-profile.kappa * profile.sigma_accumulated(t))
    return x * decay + core_integrals(profile).i(t)


def _check_core_confinement(pos, t: float, profile: LineProfile):
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return
    ts = np.linspace(0.0, t, 256)
    xs = np.array([pos(s) for s in ts])
    outside = np.abs(xs) > profile.a
    if not outside.any():
        return
    j = int(np.argmax(outside))
    lo = ts[j - 1] if j > 0 else 0.0
    from scipy.optimize import brentq
    gap = lambda s: abs(pos(s)) - profile.a
    exit_time = brentq(gap, lo, ts[j], xtol=1e-12) if gap(lo) < 0 else lo
    raise RegionExitError(
        f"characteristic leaves |x| <= a at t = {exit_time:.9g} < {t:.9g}",
        exit_time=exit_time)


# --------------------------------------------------------------------------
# exact backward/forward tracing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicMap:
    x0: float
    amplitude_factor: float           # right movers: e^{-kappa * inner-time int sigma}


def _rhs(branch: str, profile: LineProfile):
    sgn = -1.0 if branch == "left" else +1.0

    def rhs(t, y):
        x = y[0]
        v = profile.velocity(x, t)
        dz = profile.sigma(t) * profile.kappa if abs(x) <= profile.a else 0.0
        return [v + sgn, dz]

    return rhs


def trace_characteristic(x: float, t: float, branch: str, profile: LineProfile,
                         rtol: float = _TRACE_RTOL,
                         atol: float = _TRACE_ATOL) -> CharacteristicMap:
    """Backward-trace (x, t) to its t = 0 initial position on the true flow,
    with the right-mover amplitude e^{-kappa int sigma} accumulated over the
    time spent in the transition region (1 for left movers)."""
    if branch not in ("left", "right"):
        raise ValueError(f"branch must be 'left' or 'right', got {branch!r}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return CharacteristicMap(x, 1.0)
    from scipy.integrate import solve_ivp
    sol = solve_ivp(_rhs(branch, profile), (t, 0.0), [x, 0.0],
                    method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"backward trace failed: {sol.message}")
    x0 = float(sol.y[0, -1])
    z_total = float(sol.y[1, 0] - sol.y[1, -1])  # int sigma*kappa over inner segments
    amp = math.exp(-z_total) if branch == "right" else 1.0
    return CharacteristicMap(x0, amp)


def forward_characteristic(x0: float, times, branch: str,
                           profile: LineProfile) -> np.ndarray:
    """Positions at the ascending times of the curve launched from x(0) = x0,
    traced forward on the true flow in one integration."""
    times = np.asarray(times, dtype=float)
    if times[-1] == 0:
        return np.full(times.shape, x0)
    from scipy.integrate import solve_ivp
    sol = solve_ivp(_rhs(branch, profile), (0.0, times[-1]), [x0, 0.0],
                    method="RK45", t_eval=times, rtol=_TRACE_RTOL, atol=_TRACE_ATOL)
    if not sol.success:
        raise RuntimeError(f"forward trace failed: {sol.message}")
    return sol.y[0]


# --------------------------------------------------------------------------
# matched long-time closed forms (analytic-correlation scheme)
# --------------------------------------------------------------------------

def matched_x0(x: float, t: float, profile: LineProfile) -> float:
    """Left-mover initial position in the matched long-time scheme.

    Outside the wedge boundaries x_pm(t) the flat-region transport is exact;
    between |a| and the boundary the interface-matched exponentials apply;
    in the core the transition-region closed form is exact.  The interior
    matching idealizes sigma as saturated, so this map intentionally differs
    from ``trace_characteristic`` at O(a) for late times.
    """
    a = profile.a
    f = profile.sigma_accumulated(t)
    xp = entanglement_boundary(t, profile)[1]
    if x > xp:
        return x + t - f * profile.v_max
    if x > a:
        return a * math.exp(matched_exponent(x, t, profile))
    if x >= -a:
        return core_left_x0(x, t, profile)
    if x >= -xp:
        return -a * math.exp(matched_exponent(x, t, profile))
    return x + t - f * profile.v_min


def matched_exponent(x: float, t: float, profile: LineProfile) -> float:
    """ln(|x0|/a) of the interface-matched exponentials of ``matched_x0``:
    (x + t - F v_max - a)/a outside (x > a), -(x + t - F v_min - a)/a inside."""
    a, f = profile.a, profile.sigma_accumulated(t)
    if x > a:
        return (x + t - f * profile.v_max - a) / a
    return -(x + t - f * profile.v_min - a) / a


def matched_dx0_dx(x: float, t: float, profile: LineProfile) -> float:
    """d(matched_x0)/dx, region-wise analytic."""
    a = profile.a
    f = profile.sigma_accumulated(t)
    xp = entanglement_boundary(t, profile)[1]
    if abs(x) > xp:
        return 1.0
    if x > a or x < -a:
        return abs(matched_x0(x, t, profile)) / a
    return math.exp(-profile.kappa * f)


# --------------------------------------------------------------------------
# entanglement wedge
# --------------------------------------------------------------------------

def entanglement_boundary(t: float, profile: LineProfile) -> tuple[float, float]:
    """(x_minus, x_plus) = -+ a (1 + kappa int_0^t sigma)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    xp = profile.a * (1.0 + profile.kappa * profile.sigma_accumulated(t))
    return -xp, xp


# --------------------------------------------------------------------------
# mode functions
# --------------------------------------------------------------------------

def mode_function(k: float, x: float, t: float, profile: LineProfile) -> complex:
    """Mode u_k(x, t) of the transition-region flow, unit-modulus phase / sqrt(2|k|).

    k < 0 is a pure left mover with phase k * x0_L(x,t); k > 0 carries the
    right-moving content.  The direction-content time integral telescopes --
    its integrand is the exact differential of e^{-2ikg}/(-2ik) -- leaving
    the right-mover phase k * (x0_L - 2 g(t)).
    """
    if k == 0:
        raise ValueError("k = 0 mode has singular normalization")
    x0_l = core_left_x0(x, t, profile)
    phase = k * x0_l if k < 0 else k * (x0_l - 2.0 * core_integrals(profile).g(t))
    return complex(math.cos(phase), math.sin(phase)) / math.sqrt(2.0 * abs(k))


def characteristic_fan_rows(profile: LineProfile, branch: str, x0_values,
                            t_max: float, n_t: int = 100):
    """Rows (t, x, region, branch) tracing a fan of characteristics forward.

    Plot-ready view of the collapse geometry: the wedge interfaces are the
    members launched from x0 = +-a.
    """
    rows = []
    ts = np.linspace(0.0, t_max, n_t)
    for x0 in x0_values:
        xs = forward_characteristic(float(x0), ts, branch, profile)
        rows += [(float(t), float(x), _region_of(x, profile.a), branch)
                 for t, x in zip(ts, xs)]
    return rows
