"""Velocity profiles, the ring's null-coordinate maps, Hawking temperatures.

Two geometries appear throughout:

* the circular ring flow after its collapse (piecewise-linear in angle,
  position-dependent sound speed from the local ion density), and
* the straight channel ("line") flow v(x,t) = sigma(t) * {v_min, 1+kappa*x,
  v_max} with sigma(t) = tanh(t/tau) and unit sound speed.

Profiles are frozen dataclasses; every evaluation is pure.  A ring's null
map holds only what the mode weights V1/V2 read of x_u or x_v: its total, the
measure of its pieces and its cosine and sine integrals.
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


def sigma_accumulated(t: float, tau: float) -> float:
    """int_0^t tanh(s/tau) ds = tau * ln cosh(t/tau), overflow-safe."""
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

    @property
    def v_min(self) -> float:
        return 1.0 - self.kappa * self.a

    @property
    def v_max(self) -> float:
        return 1.0 + self.kappa * self.a

    def sigma_accumulated(self, t: float) -> float:
        return sigma_accumulated(t, self.tau)


# --------------------------------------------------------------------------
# ring
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RingProfile:
    """The ring flow after its collapse: piecewise linear in angle.

    The five segments (plateau at v_min, up-ramp at theta_h, plateau at
    v_max, down-ramp at 2*pi - theta_h, plateau at v_min) tile [0, 2*pi).
    """

    config: PhysicalConfig

    @property
    def sound_constant(self) -> float:
        """K in c = K v^(-1/2), local density n = N/(v T): K^2 = 2 Q^2 N / (m R^3 T)."""
        cfg = self.config
        return math.sqrt(2.0 * cfg.ion_charge ** 2 * cfg.n_ions
                         / (cfg.ion_mass * cfg.radius ** 3 * cfg.period))

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


def _ring_segments(profile: RingProfile) -> tuple[float, tuple]:
    """(v_h, the five segments of v), the one definition of the ring's shape.

    A ramp's ref is the angle where its line reaches v_h (the horizon when it
    lies inside the ramp), so v - v_h = slope * (theta - ref) is free of
    cancellation near the pole.
    """
    cfg = profile.config
    v_h = profile.sound_constant ** (2.0 / 3.0)
    v_lo, v_hi = cfg.v_min, cfg.v_max
    if not v_lo > 0:
        raise RegimeError("the ring flow must stay positive (c = K v^(-1/2)), "
                          f"got v_min = {v_lo!r}")
    mid = 0.5 * (v_lo + v_hi)

    def plateau(lo, hi, v):
        return _Segment(lo, hi, 0.0, lo, v)

    def ramp(centre, half, slope):
        return _Segment(centre - half, centre + half, slope, centre + (v_h - mid) / slope, v_h)

    up, down, rise = cfg.theta_h, TWO_PI - cfg.theta_h, v_hi - v_lo
    return v_h, (plateau(0.0, up - cfg.gamma1, v_lo),
                 ramp(up, cfg.gamma1, 0.5 * rise / cfg.gamma1),
                 plateau(up + cfg.gamma1, down - cfg.gamma2, v_hi),
                 ramp(down, cfg.gamma2, -0.5 * rise / cfg.gamma2),
                 plateau(down + cfg.gamma2, TWO_PI, v_lo))


def _horizon_segments(segments) -> list[_Segment]:
    """The ramps whose line crosses v_h inside them, in angular order."""
    return [s for s in segments if s.lo < s.ref < s.hi]


# --------------------------------------------------------------------------
# null coordinates
# --------------------------------------------------------------------------

def _g(sign: float, d):
    """(K + sign v^(3/2))/K from d = (v - v_h)/v_h; no cancellation at the pole."""
    return (1.0 + sign) + sign * np.expm1(1.5 * np.log1p(d))


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
    """What the mode weights read of x_u or x_v over [0, 2*pi]: its total, the
    measure of its pieces and its cosine and sine integrals, taken apart so
    that V1, which reads only the cosine one, pays for no sine.

    With dx_b/dtheta = 1/(c +- v) = v^(1/2)/(K +- v^(3/2)), x_b is linear in
    theta on a plateau and (+-2/(3 s)) ln|K +- v^(3/2)| + const on a ramp of
    slope s.  For the v branch the integrand has simple poles at the
    horizons; slivers of half-width epsilon around each are excluded and
    contribute nothing (the cumulative value is carried across flat).
    """

    total: float      # x_b(2*pi)
    length: float     # measure of the pieces: 2*pi less the slivers
    _nodes: np.ndarray         # x_b at the ramp quadrature nodes
    _weights: np.ndarray       # quadrature weight times dtheta/dx_b there
    _ends: np.ndarray          # x_b at the plateau ends
    _end_weights: np.ndarray   # -+ dtheta/dx_b at the start / end of a plateau

    def cos_integral(self, k: float) -> float:
        """int cos(k x_b) dtheta over the pieces, k != 0: ramps by the fixed
        quadrature nodes, plateaus exactly."""
        return float(np.sum(np.cos(k * self._nodes) * self._weights)
                     + np.sum(np.sin(k * self._ends) * self._end_weights) / k)

    def sin_integral(self, k: float) -> float:
        """int sin(k x_b) dtheta over the pieces, k != 0, as cos_integral."""
        return float(np.sum(np.sin(k * self._nodes) * self._weights)
                     - np.sum(np.cos(k * self._ends) * self._end_weights) / k)


@functools.lru_cache(maxsize=32)
def _build_null_map(profile: RingProfile, branch: str, epsilon: float) -> NullCoordinateMap:
    sign = +1.0 if branch == "u" else -1.0
    v_h, segments = _ring_segments(profile)
    # v branch: the angles where v = c, i.e. v^(3/2) = K
    horizons = [s.ref for s in _horizon_segments(segments)] if branch == "v" else []
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
    # per piece: _g at its ends, rate = dx/dtheta on a plateau (0 on a ramp),
    # scale = 2 sign/(3 slope) on a ramp (0 on a plateau), x_b's rise across
    # it (span) and x_b at its start (x_lo)
    d_ref = (v_ref - v_h) / v_h
    g_lo = _g(sign, d_ref + slope * (lo - ref) / v_h)
    g_hi = _g(sign, d_ref + slope * (hi - ref) / v_h)
    flat = slope == 0.0
    rate = np.where(flat, np.cbrt(sign * (g_lo - 1.0)) / (v_h * g_lo), 0.0)
    scale = np.where(flat, 0.0, 2.0 * sign / (3.0 * np.where(flat, 1.0, slope)))
    span = scale * np.log(g_hi / g_lo) + rate * (hi - lo)
    x_lo = np.concatenate([[0.0], np.cumsum(span[:-1])])
    # ramps: nodes in x, where g = g_lo exp(3 sign s (x - x_lo)/2) and
    # dtheta/dx = v_h g / (sign (g - 1))^(1/3)
    k_max = 2.0 * derive(profile.config).omega_max
    gl_nodes, gl_weights = _gauss_legendre()
    nodes, weights = [np.empty(0)], [np.empty(0)]
    for j in np.flatnonzero(~flat):
        n = max(1, math.ceil(abs(span[j]) * (k_max + 1.5 * abs(slope[j])) / _PANEL_PHASE))
        y = span[j] * (np.arange(n)[:, None] + 0.5 * (1.0 + gl_nodes)).ravel() / n
        g = g_lo[j] * np.exp(1.5 * sign * slope[j] * y)
        nodes.append(x_lo[j] + y)
        weights.append(0.5 * span[j] / n * np.tile(gl_weights, n)
                       * v_h * g / np.cbrt(sign * (g - 1.0)))
    # plateaus: int cos(k x) dtheta = [sin(k x)/k] / rate between the ends
    x_start = x_lo[flat]
    nmap = NullCoordinateMap(
        total=float(x_lo[-1] + span[-1]), length=float(np.sum(hi - lo)),
        _nodes=np.concatenate(nodes), _weights=np.concatenate(weights),
        _ends=np.concatenate([x_start, x_start + span[flat]]),
        _end_weights=np.concatenate([-1.0 / rate[flat], 1.0 / rate[flat]]))
    # one map serves every caller through the cache
    for a in (nmap._nodes, nmap._weights, nmap._ends, nmap._end_weights):
        a.flags.writeable = False
    return nmap


def null_coordinate_map(profile: RingProfile, branch: str,
                        epsilon: float = 0.0) -> NullCoordinateMap:
    """Build (cached) the null map of x_u or x_v for a ring profile.

    On the v branch epsilon must exceed HORIZON_XTOL (else
    SingularIntegrandError) and the slivers (h - epsilon, h + epsilon) must
    fit inside (0, 2*pi) without overlap (else RegimeError).
    """
    if branch not in ("u", "v"):
        raise ValueError(f"branch must be 'u' or 'v', got {branch!r}")
    return _build_null_map(profile, branch, float(epsilon))


# --------------------------------------------------------------------------
# Hawking temperatures
# --------------------------------------------------------------------------

def hawking_temperature_ring(profile: RingProfile) -> float:
    """T_H = hbar/(4 pi v k_B) * d/dtheta (v^2 - c^2) at the first horizon.

    With c^2 = K^2/v and v^3 = K^2 at the horizon this is 3 hbar v'/(4 pi k_B),
    v' the slope of the up-ramp.
    """
    cfg = profile.config
    ramps = _horizon_segments(_ring_segments(profile)[1])
    if not ramps:
        raise RegionError("no horizon: v never crosses c on the ring")
    return 3.0 * cfg.hbar * ramps[0].slope / (4.0 * math.pi * cfg.k_boltzmann)


def hawking_temperature_line(v_max: float, v_min: float, a: float) -> float:
    """T_H = |v_max - v_min| / (4 pi a) for the channel profile (c = hbar = k_B = 1)."""
    if not a > 0:
        raise ValueError("a must be positive")
    return abs(v_max - v_min) / (4.0 * math.pi * a)
