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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
        lo, slope, ref, v_ref = map(np.array, zip(*(
            (s.lo, s.slope, s.ref, s.v_ref) for s in _ring_segments(self, t)[1])))
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        j = np.searchsorted(lo, th, side="right") - 1
        out = v_ref[j] + slope[j] * (th - ref[j])
        return out if out.ndim else float(out)

    @property
    def sound_constant(self) -> float:
        """K in c = K v^(-1/2): K^2 = 2 Q^2 N / (m R^3 T)."""
        cfg = self.config
        return math.sqrt(2.0 * cfg.ion_charge ** 2 * cfg.n_ions
                         / (cfg.ion_mass * cfg.radius ** 3 * cfg.period))

    def sound_speed(self, theta, t: float | None = None):
        """c(theta) = sqrt(2 n Q^2 / (m R^3)) = K v^(-1/2), local density n = N/(v T)."""
        out = self.sound_constant / np.sqrt(np.asarray(self.velocity(theta, t), dtype=float))
        return out if out.ndim else float(out)

    @classmethod
    def from_config(cls, config: PhysicalConfig) -> "RingProfile":
        return cls(config=config)


# --------------------------------------------------------------------------
# ring geometry in closed form
# --------------------------------------------------------------------------

# With c = K v^(-1/2) the sonic speed is v_h = K^(2/3), reached where a ramp's
# line crosses it.  An exclusion half-width at or below HORIZON_XTOL cuts
# closer to the pole 1/(c - v) than its angle is resolved in double precision.
HORIZON_XTOL = 1e-12


class _Segment(NamedTuple):
    """A linear piece of v: v = v_ref + slope * (theta - ref) on [lo, hi]."""

    lo: float
    hi: float
    slope: float
    ref: float
    v_ref: float


def _ring_segments(profile: RingProfile, t: float | None) -> tuple[float, tuple]:
    """(v_h, the five segments of v at time t), the one definition of the
    ring's shape.

    A ramp's ref is the angle where its line reaches v_h (the horizon when it
    lies inside the ramp), so v - v_h = slope * (theta - ref) is free of
    cancellation near the pole.  A ramp of zero slope (the uniform flow at
    t = 0) is a plateau.
    """
    cfg = profile.config
    v_h = profile.sound_constant ** (2.0 / 3.0)
    v_lo, v_hi = profile.extrema(t)
    if not v_lo > 0:
        raise RegimeError("the ring flow must stay positive (c = K v^(-1/2)), "
                          f"got v_min = {v_lo!r}")
    mid = 0.5 * (v_lo + v_hi)

    def plateau(lo, hi, v):
        return _Segment(lo, hi, 0.0, lo, v)

    def ramp(centre, half, slope):
        if slope == 0.0:
            return plateau(centre - half, centre + half, mid)
        return _Segment(centre - half, centre + half, slope, centre + (v_h - mid) / slope, v_h)

    up, down, rise = cfg.theta_h, TWO_PI - cfg.theta_h, v_hi - v_lo
    return v_h, (plateau(0.0, up - cfg.gamma1, v_lo),
                 ramp(up, cfg.gamma1, 0.5 * rise / cfg.gamma1),
                 plateau(up + cfg.gamma1, down - cfg.gamma2, v_hi),
                 ramp(down, cfg.gamma2, -0.5 * rise / cfg.gamma2),
                 plateau(down + cfg.gamma2, TWO_PI, v_lo))


def _horizon_segments(segments) -> list[_Segment]:
    """The ramps whose line crosses v_h inside them, in angular order."""
    return [s for s in segments if s.slope != 0.0 and s.lo < s.ref < s.hi]


def find_horizons(profile: RingProfile) -> tuple[float, ...]:
    """Angles where the post-collapse v = c, i.e. v^(3/2) = K: at most one on each ramp."""
    return tuple(s.ref for s in _horizon_segments(_ring_segments(profile, None)[1]))


# --------------------------------------------------------------------------
# null coordinates
# --------------------------------------------------------------------------

def _g(sign: float, d):
    """(K + sign v^(3/2))/K from d = (v - v_h)/v_h; no cancellation at the pole."""
    return (1.0 + sign) + sign * np.expm1(1.5 * np.log1p(d))


class _Pieces(NamedTuple):
    """The linear pieces of v that a null map covers, as arrays over pieces."""

    sign: float          # +1 for x_u, -1 for x_v
    v_h: float
    lo: np.ndarray
    hi: np.ndarray
    slope: np.ndarray
    ref: np.ndarray
    d_ref: np.ndarray    # (v - v_h)/v_h at ref
    g_lo: np.ndarray     # _g at lo
    rate: np.ndarray     # dx/dtheta on a plateau, 0 on a ramp
    scale: np.ndarray    # 2 sign/(3 slope) on a ramp, 0 on a plateau
    x_lo: np.ndarray     # x_b(lo)

    def rise(self, j, theta):
        """x_b(theta) - x_b(lo_j), theta clipped to piece j."""
        th = np.clip(theta, self.lo[j], self.hi[j])
        g = _g(self.sign, self.d_ref[j] + self.slope[j] * (th - self.ref[j]) / self.v_h)
        return self.scale[j] * np.log(g / self.g_lo[j]) + self.rate[j] * (th - self.lo[j])


# Quadrature of int f(x_b) dtheta on the ramps: 32-point Gauss-Legendre in x_b
# with the weight dtheta/dx_b = c +- v, on panels over which the phase
# 2 omega x_b of the highest allowed mode (the ceiling N/T) plus the log of the
# weight (rate 3|s|/2 in x_b) turn by at most _PANEL_PHASE.  At 32 the nodes
# agree with adaptive quadrature in theta to ~1e-14 on the bench ring.
_PANEL_PHASE = 32.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: its eigenvalue solve raises peak RSS by ~0.7 MB,
    # which commands that build no null map need not pay
    return np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True, eq=False)
class NullCoordinateMap:
    """x_u or x_v over [0, 2*pi] in closed form, one linear piece of v at a time.

    With dx_b/dtheta = 1/(c +- v) = v^(1/2)/(K +- v^(3/2)), x_b is linear in
    theta on a plateau and (+-2/(3 s)) ln|K +- v^(3/2)| + const on a ramp of
    slope s.  For the v branch the integrand has simple poles at the
    horizons; slivers of half-width epsilon around each are excluded and
    contribute nothing (the cumulative value is carried across flat).
    """

    branch: str
    epsilon: float
    horizons: tuple[float, ...]
    total: float      # value at 2*pi
    length: float     # measure of the pieces: 2*pi less the slivers
    _pieces: _Pieces
    _nodes: np.ndarray         # x_b at the ramp quadrature nodes
    _weights: np.ndarray       # quadrature weight times dtheta/dx_b there
    _ends: np.ndarray          # x_b at the plateau ends
    _end_weights: np.ndarray   # -+ dtheta/dx_b at the start / end of a plateau

    def __call__(self, theta):
        th = np.clip(np.asarray(theta, dtype=float), 0.0, TWO_PI)
        j = np.maximum(np.searchsorted(self._pieces.lo, th, side="right") - 1, 0)
        out = self._pieces.x_lo[j] + self._pieces.rise(j, th)
        return float(out) if out.ndim == 0 else out

    def fourier(self, k: float) -> tuple[float, float]:
        """(int cos(k x_b) dtheta, int sin(k x_b) dtheta) over the pieces, k != 0:
        ramps by the fixed quadrature nodes, plateaus exactly."""
        phase, ends = k * self._nodes, k * self._ends
        cos_part = (np.sum(np.cos(phase) * self._weights)
                    + np.sum(np.sin(ends) * self._end_weights) / k)
        sin_part = (np.sum(np.sin(phase) * self._weights)
                    - np.sum(np.cos(ends) * self._end_weights) / k)
        return float(cos_part), float(sin_part)


@functools.lru_cache(maxsize=32)
def _build_null_map(profile: RingProfile, branch: str, epsilon: float,
                    t_key: float | None) -> NullCoordinateMap:
    sign = +1.0 if branch == "u" else -1.0
    v_h, segments = _ring_segments(profile, t_key)
    horizons = (tuple(s.ref for s in _horizon_segments(segments))
                if branch == "v" else ())
    if horizons and epsilon <= HORIZON_XTOL:
        raise SingularIntegrandError(
            "x_v integrand is singular at horizon(s) "
            f"{[round(h, 6) for h in horizons]}; the exclusion half-width "
            f"{epsilon!r} must exceed the horizon tolerance {HORIZON_XTOL!r}")
    # kept intervals exclude (h - eps, h + eps); out of order when a sliver
    # leaves (0, 2*pi) or overlaps the next
    cuts = [0.0, *(c for h in horizons for c in (h - epsilon, h + epsilon)), TWO_PI]
    if any(hi < lo for lo, hi in zip(cuts, cuts[1:])):
        raise RegimeError(
            f"exclusion half-width {epsilon!r}: the horizon slivers around "
            f"{[round(h, 6) for h in horizons]} leave (0, 2*pi) or overlap")
    lo, hi, slope, ref, v_ref = map(np.array, zip(*(
        (max(lo, s.lo), min(hi, s.hi), s.slope, s.ref, s.v_ref)
        for lo, hi in zip(cuts[0::2], cuts[1::2]) for s in segments
        if min(hi, s.hi) > max(lo, s.lo))))
    d_ref = (v_ref - v_h) / v_h
    g_lo = _g(sign, d_ref + slope * (lo - ref) / v_h)
    flat = slope == 0.0
    pieces = _Pieces(sign, v_h, lo, hi, slope, ref, d_ref, g_lo,
                     np.where(flat, np.cbrt(sign * (g_lo - 1.0)) / (v_h * g_lo), 0.0),
                     np.where(flat, 0.0, 2.0 * sign / (3.0 * np.where(flat, 1.0, slope))),
                     np.zeros(len(lo)))
    span = pieces.rise(np.arange(len(lo)), hi)
    pieces = pieces._replace(x_lo=np.concatenate([[0.0], np.cumsum(span[:-1])]))
    # ramps: nodes in x, where g = g_lo exp(3 sign s (x - x_lo)/2) and
    # dtheta/dx = v_h g / (sign (g - 1))^(1/3)
    k_max = 2.0 * derive(profile.config).omega_max
    gl_nodes, gl_weights = _gauss_legendre()
    nodes, weights = [np.empty(0)], [np.empty(0)]
    for j in np.flatnonzero(~flat):
        n = max(1, math.ceil(abs(span[j]) * (k_max + 1.5 * abs(slope[j])) / _PANEL_PHASE))
        y = span[j] * (np.arange(n)[:, None] + 0.5 * (1.0 + gl_nodes)).ravel() / n
        g = g_lo[j] * np.exp(1.5 * sign * slope[j] * y)
        nodes.append(pieces.x_lo[j] + y)
        weights.append(0.5 * span[j] / n * np.tile(gl_weights, n)
                       * v_h * g / np.cbrt(sign * (g - 1.0)))
    # plateaus: int cos(k x) dtheta = [sin(k x)/k] / rate between the ends
    x_start = pieces.x_lo[flat]
    nmap = NullCoordinateMap(
        branch=branch, epsilon=epsilon, horizons=horizons,
        total=float(pieces.x_lo[-1] + span[-1]), length=float(np.sum(hi - lo)),
        _pieces=pieces, _nodes=np.concatenate(nodes), _weights=np.concatenate(weights),
        _ends=np.concatenate([x_start, x_start + span[flat]]),
        _end_weights=np.concatenate([-1.0 / pieces.rate[flat], 1.0 / pieces.rate[flat]]))
    # one map serves every caller through the cache (pieces[2:]: the arrays)
    for a in (*pieces[2:], nmap._nodes, nmap._weights, nmap._ends, nmap._end_weights):
        a.flags.writeable = False
    return nmap


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
    """Cumulative x_u or x_v from 0 to x (branch u / v).

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

    With c^2 = K^2/v and v^3 = K^2 at the horizon this is 3 hbar v'/(4 pi k_B),
    v' the ramp slope: positive at the first horizon, negative at the second.
    """
    cfg = profile.config
    ramps = _horizon_segments(_ring_segments(profile, None)[1])
    if not ramps:
        raise RegionError("no horizon: v never crosses c on the ring")
    return 3.0 * cfg.hbar * ramps[horizon_index].slope / (4.0 * math.pi * cfg.k_boltzmann)


def hawking_temperature_line(v_max: float, v_min: float, a: float) -> float:
    """T_H = |v_max - v_min| / (4 pi a) for the channel profile (c = hbar = k_B = 1)."""
    if not a > 0:
        raise ValueError("a must be positive")
    return abs(v_max - v_min) / (4.0 * math.pi * a)
