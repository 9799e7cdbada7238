"""Velocity profiles, collapse schedule, null coordinates, Hawking temperatures.

Two geometries appear throughout:

* the circular ring flow (piecewise-linear in angle, Gaussian collapse
  schedule, position-dependent sound speed from the local ion density), and
* the straight channel ("line") flow v(x,t) = sigma(t) * {v_min, 1+kappa*x,
  v_max} with sigma(t) = tanh(t/tau) and unit sound speed.

Profiles are frozen dataclasses; every evaluation is pure.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import ConfigError, RegimeError, RegionError, SingularIntegrandError
from .params import TWO_PI, PhysicalConfig, derive
from .specfun import log_cosh


def sigma(t: float, tau: float) -> float:
    """Collapse schedule tanh(t/tau): 0 at t=0, saturating to 1."""
    if t < 0:
        raise ValueError("sigma is defined for t >= 0")
    return math.tanh(t / tau)


def sigma_accumulated(t: float, tau: float) -> float:
    """int_0^t sigma(s) ds = tau * ln cosh(t/tau), overflow-safe."""
    if t < 0:
        raise ValueError("sigma_accumulated is defined for t >= 0")
    return tau * log_cosh(t / tau)


# --------------------------------------------------------------------------
# straight channel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LineProfile:
    """v(x,t) = sigma(t) * (v_min | 1 + kappa x | v_max), continuous at x = +-a.

    Continuity pins v_min = 1 - kappa*a and v_max = 1 + kappa*a; the sound
    speed is 1 in these units.
    """

    a: float
    kappa: float
    tau: float

    def __post_init__(self):
        if not (self.a > 0 and self.tau > 0):
            raise ConfigError("LineProfile needs a > 0 and tau > 0")
        if not (0 < self.kappa * self.a < 1):
            raise ConfigError("LineProfile needs 0 < kappa*a < 1 (subsonic far side)")

    @classmethod
    def from_velocities(cls, v_min: float, v_max: float, a: float, tau: float) -> "LineProfile":
        if abs((v_min + v_max) / 2.0 - 1.0) > 1e-12:
            raise ConfigError(
                "line profile extrema must average to the sound speed 1: "
                f"got ({v_min}, {v_max})")
        return cls(a=a, kappa=(v_max - v_min) / (2.0 * a), tau=tau)

    @property
    def v_min(self) -> float:
        return 1.0 - self.kappa * self.a

    @property
    def v_max(self) -> float:
        return 1.0 + self.kappa * self.a

    def sigma(self, t: float) -> float:
        return sigma(t, self.tau)

    def sigma_accumulated(self, t: float) -> float:
        return sigma_accumulated(t, self.tau)

    def velocity(self, x, t: float):
        s = self.sigma(t)
        x = np.asarray(x, dtype=float)
        core = 1.0 + self.kappa * np.clip(x, -self.a, self.a)
        out = s * core
        return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# ring
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RingProfile:
    """Piecewise-linear ring flow with the Gaussian collapse schedule.

    The five segments (plateau at v_min, up-ramp at theta_h, plateau at
    v_max, down-ramp at 2*pi - theta_h, plateau at v_min) tile [0, 2*pi).
    The extrema relax from the uniform 2*pi/T as
    v_ext(t) = v_ext + (2*pi/T - v_ext) * exp(-t^2/tau^2).
    """

    config: PhysicalConfig

    @property
    def collapse_time(self) -> float:
        return derive(self.config).tau

    def extrema(self, t: float | None) -> tuple[float, float]:
        """(v_min(t), v_max(t)); t=None selects the post-collapse profile."""
        cfg = self.config
        if t is None:
            return cfg.v_min, cfg.v_max
        if t < 0:
            raise ValueError("profile defined for t >= 0")
        fade = math.exp(-((t / self.collapse_time) ** 2))
        v_bar = cfg.mean_velocity
        return (cfg.v_min + (v_bar - cfg.v_min) * fade,
                cfg.v_max + (v_bar - cfg.v_max) * fade)

    def velocity(self, theta, t: float | None = None):
        cfg = self.config
        vmin_t, vmax_t = self.extrema(t)
        beta = 0.5 * (vmax_t + vmin_t)
        alpha = 0.5 * (vmax_t - vmin_t)
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        t_h, g1, g2 = cfg.theta_h, cfg.gamma1, cfg.gamma2
        down_c = TWO_PI - t_h
        conds = [
            th <= t_h - g1,
            (th > t_h - g1) & (th <= t_h + g1),
            (th > t_h + g1) & (th <= down_c - g2),
            (th > down_c - g2) & (th <= down_c + g2),
            th > down_c + g2,
        ]
        vals = [
            lambda x: np.full_like(x, vmin_t),
            lambda x: beta + alpha * (x - t_h) / g1,
            lambda x: np.full_like(x, vmax_t),
            lambda x: beta - alpha * (x - down_c) / g2,
            lambda x: np.full_like(x, vmin_t),
        ]
        out = np.piecewise(th, conds, vals)
        return out if out.ndim else float(out)

    def sound_speed(self, theta, t: float | None = None):
        """c(theta) = sqrt(2 n Q^2 / (m R^3)) with local density n = N/(v T)."""
        cfg = self.config
        v = np.asarray(self.velocity(theta, t), dtype=float)
        c2 = 2.0 * cfg.ion_charge ** 2 * cfg.n_ions / (
            cfg.ion_mass * cfg.radius ** 3 * v * cfg.period)
        out = np.sqrt(c2)
        return out if out.ndim else float(out)

    @classmethod
    def from_config(cls, config: PhysicalConfig) -> "RingProfile":
        return cls(config=config)


# Horizons are bracketed on a uniform scan of the ring and bisected to
# HORIZON_XTOL; an exclusion half-width at or below it cuts no closer to the
# pole than the pole is known.
_HORIZON_SCAN = 4096
HORIZON_XTOL = 1e-12


def find_horizons(profile: RingProfile, t: float | None = None) -> tuple[float, ...]:
    """Angles where v = c, located by bisection to HORIZON_XTOL."""
    th = np.linspace(0.0, TWO_PI, _HORIZON_SCAN, endpoint=False)
    gap = profile.velocity(th, t) - profile.sound_speed(th, t)
    f = lambda x: profile.velocity(x, t) - profile.sound_speed(x, t)
    roots = []
    for i in range(_HORIZON_SCAN - 1):
        if gap[i] == 0.0:
            roots.append(th[i])
        elif gap[i] * gap[i + 1] < 0:
            roots.append(brentq(f, th[i], th[i + 1], xtol=HORIZON_XTOL))
    return tuple(roots)


# --------------------------------------------------------------------------
# null coordinates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NullCoordinateMap:
    """Cumulative x_u or x_v over [0, 2*pi], spline-backed.

    For the v branch the integrand 1/(c - v) has simple poles at the
    horizons; slivers of half-width epsilon around each are excluded and
    contribute nothing (the cumulative value is carried across flat).
    """

    branch: str
    epsilon: float
    horizons: tuple[float, ...]
    _segments: tuple  # ((lo, hi, CubicSpline), ...)
    total: float      # value at 2*pi

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        out = np.empty_like(xf)
        bounds = [seg[0] for seg in self._segments]
        for i, xi in enumerate(xf):
            xi = min(max(xi, 0.0), TWO_PI)
            j = max(bisect_right(bounds, xi) - 1, 0)
            lo, hi, spline, base = self._segments[j]
            out[i] = base if xi < lo else float(spline(min(xi, hi)))
        return float(out[0]) if scalar else out


_NULL_GRID = 8192


@functools.lru_cache(maxsize=32)
def _build_null_map(profile: RingProfile, branch: str, epsilon: float,
                    t_key: float | None) -> NullCoordinateMap:
    sign = +1.0 if branch == "u" else -1.0
    horizons = find_horizons(profile, t_key) if branch == "v" else ()
    if horizons and epsilon <= HORIZON_XTOL:
        raise SingularIntegrandError(
            "x_v integrand is singular at horizon(s) "
            f"{[round(h, 6) for h in horizons]}; the exclusion half-width "
            f"{epsilon!r} must exceed the horizon tolerance {HORIZON_XTOL!r}")
    # segment boundaries excluding (h - eps, h + eps); out of order when a
    # sliver leaves (0, 2*pi) or overlaps the next
    cuts = [0.0, *(c for h in horizons for c in (h - epsilon, h + epsilon)), TWO_PI]
    if any(hi < lo for lo, hi in zip(cuts, cuts[1:])):
        raise RegimeError(
            f"exclusion half-width {epsilon!r}: the horizon slivers around "
            f"{[round(h, 6) for h in horizons]} leave (0, 2*pi) or overlap")
    segments = []
    base = 0.0
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        if hi <= lo:
            continue
        # graded grid: cluster points near the (possibly near-singular) ends
        lin = np.linspace(lo, hi, _NULL_GRID)
        tail = np.geomspace(max((hi - lo) * 1e-7, 1e-12), (hi - lo) / 2, 400)
        grid = np.unique(np.concatenate([lin, lo + tail, hi - tail]))
        integrand = 1.0 / (profile.sound_speed(grid, t_key)
                           + sign * profile.velocity(grid, t_key))
        cum = base + np.concatenate([[0.0], cumulative_trapezoid(integrand, grid)])
        segments.append((lo, hi, CubicSpline(grid, cum), base))
        base = cum[-1]
    return NullCoordinateMap(branch=branch, epsilon=epsilon, horizons=horizons,
                             _segments=tuple(segments), total=base)


def null_coordinate_map(profile: RingProfile, branch: str, epsilon: float = 0.0,
                        t: float | None = None) -> NullCoordinateMap:
    """Build (cached) the cumulative null coordinate for a ring profile.

    On the v branch epsilon must exceed HORIZON_XTOL (else
    SingularIntegrandError) and the slivers (h - epsilon, h + epsilon) must
    fit inside (0, 2*pi) without overlap (else RegimeError).
    """
    if branch not in ("u", "v"):
        raise ValueError(f"branch must be 'u' or 'v', got {branch!r}")
    return _build_null_map(profile, branch, float(epsilon), t)


def null_coordinate(x: float, branch: str, profile: RingProfile,
                    epsilon: float = 0.0) -> float:
    """Cumulative quadrature of 1/(c +- v) from 0 to x (branch u / v).

    Paths that stop short of the first horizon need no exclusion width; the
    integrand is finite on [0, x] and an infinitesimal internal cut leaves
    the value untouched.
    """
    if branch == "v" and epsilon <= 0:
        horizons = find_horizons(profile)
        crossed = [h for h in horizons if h <= x]
        if crossed:
            raise SingularIntegrandError(
                f"path to x={x:.6g} crosses horizon at theta={crossed[0]:.6g}; "
                "supply an exclusion half-width")
        if horizons:
            epsilon = 1e-9
    return float(null_coordinate_map(profile, branch, epsilon)(x))


# --------------------------------------------------------------------------
# Hawking temperatures
# --------------------------------------------------------------------------

def hawking_temperature_ring(profile: RingProfile, horizon_index: int = 0) -> float:
    """T_H = hbar/(4 pi v k_B) * d/dtheta (v^2 - c^2) at a horizon.

    Central differences with one Richardson step; the profile is piecewise
    linear so the derivative is clean once h is small against the ramp width.
    """
    cfg = profile.config
    horizons = find_horizons(profile)
    if not horizons:
        raise RegionError("no horizon: v never crosses c on the ring")
    th_h = horizons[horizon_index]
    gap2 = lambda x: profile.velocity(x) ** 2 - profile.sound_speed(x) ** 2
    h = min(cfg.gamma1, cfg.gamma2) / 64.0
    d1 = (gap2(th_h + h) - gap2(th_h - h)) / (2 * h)
    d2 = (gap2(th_h + h / 2) - gap2(th_h - h / 2)) / h
    deriv = (4 * d2 - d1) / 3.0
    v_h = profile.velocity(th_h)
    return cfg.hbar * deriv / (4.0 * math.pi * v_h * cfg.k_boltzmann)


def hawking_temperature_line(v_max: float, v_min: float, a: float) -> float:
    """T_H = |v_max - v_min| / (4 pi a) for the channel profile (c = hbar = k_B = 1)."""
    if not a > 0:
        raise ValueError("a must be positive")
    return abs(v_max - v_min) / (4.0 * math.pi * a)
