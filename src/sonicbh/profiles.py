"""Velocity profiles, the ring's null-coordinate maps, Hawking temperatures.

Two geometries appear throughout:

* the circular ring flow after its collapse (piecewise-linear in angle,
  position-dependent sound speed from the local ion density), and
* the straight channel ("line") flow v(x,t) = sigma(t) * {v_min, 1+kappa*x,
  v_max} with sigma(t) = tanh(t/tau) and unit sound speed.

Profiles and null maps are immutable NamedTuples; every evaluation is pure.
A ring's null map holds what V1/V2 read of x_u or x_v (its total, the measure
of its pieces, its cosine and sine integrals) and the exclusion it was cut
with.  It is the one array object here, and numpy loads only where it is
built and read.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import RegimeError, RegionError
from .params import TWO_PI, PhysicalConfig, derive

if TYPE_CHECKING:
    import numpy as np


# --------------------------------------------------------------------------
# straight channel
# --------------------------------------------------------------------------

def log_cosh(u: float) -> float:
    """ln cosh(u), overflow-safe for any magnitude."""
    au = abs(u)
    return au - math.log(2.0) + math.log1p(math.exp(-2.0 * au))


class LineProfile(NamedTuple):
    """v(x,t) = sigma(t) * (v_min | 1 + kappa x | v_max), continuous at x = +-a.

    Continuity pins v_min = 1 - kappa*a and v_max = 1 + kappa*a; the sound
    speed is 1 in these units.  a, tau > 0 and 0 < kappa*a < 1 are checked
    where a config is read (``params.read_config``).
    """

    a: float
    kappa: float
    tau: float

    @property
    def v_min(self) -> float:
        return 1.0 - self.kappa * self.a

    @property
    def v_max(self) -> float:
        return 1.0 + self.kappa * self.a

    def sigma_accumulated(self, t: float) -> float:
        """int_0^t tanh(s/tau) ds = tau * ln cosh(t/tau), overflow-safe."""
        if t < 0:
            raise ValueError("sigma_accumulated is defined for t >= 0")
        return self.tau * log_cosh(t / self.tau)


# --------------------------------------------------------------------------
# ring
# --------------------------------------------------------------------------

class RingProfile(NamedTuple):
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
# line crosses it.
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
    import numpy as np
    return (1.0 + sign) + sign * np.expm1(1.5 * np.log1p(d))


# Quadrature of int f(x_b) dtheta on the ramps: 32-point Gauss-Legendre in x_b
# with the weight dtheta/dx_b = c +- v, on panels over which the phase
# 2 omega x_b of the highest allowed mode (the ceiling N/T) plus the log of the
# weight (rate 3|s|/2 in x_b) turn by at most _PANEL_PHASE.  At 32 the nodes
# agree with adaptive quadrature in theta to ~1e-14 on the bench ring.
_PANEL_PHASE = 32.0

# Ramp nodes per block of NullCoordinateMap.harmonic_cos_integrals: each of
# its temporaries holds n/B or B rows of _HARMONIC_CHUNK doubles, however many
# nodes the ring has.
_HARMONIC_CHUNK = 256


# The ramps' 32-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(32)
# written out (its positive half, in ascending order; the rule is symmetric).
_GAUSS_HALF_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816)
_GAUSS_HALF_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506)
_GAUSS_LEGENDRE_32 = ([-x for x in reversed(_GAUSS_HALF_NODES)] + list(_GAUSS_HALF_NODES),
                      list(reversed(_GAUSS_HALF_WEIGHTS)) + list(_GAUSS_HALF_WEIGHTS))


class NullCoordinateMap(NamedTuple):
    """What the mode weights read of x_u or x_v over [0, 2*pi]: its total, the
    measure of its pieces and its cosine and sine integrals.  Both integrals
    come at one k (trig_integrals, what v_coefficients reads), the cosine one
    also at every harmonic j k1, j = 1..n, in one pass
    (harmonic_cos_integrals, what a sweep's mode table reads).

    With dx_b/dtheta = 1/(c +- v) = v^(1/2)/(K +- v^(3/2)), x_b is linear in
    theta on a plateau and (+-2/(3 s)) ln|K +- v^(3/2)| + const on a ramp of
    slope s.  For the v branch the integrand has simple poles at the
    horizons; slivers of half-width ``exclusion`` around each are excluded
    and contribute nothing (the cumulative value is carried across flat).
    """

    total: float             # x_b(2*pi)
    length: float            # measure of the pieces: 2*pi less the slivers
    exclusion: float         # half-width of each sliver: 2*pi/N on v, 0 on u
    nodes: np.ndarray        # x_b at the ramp quadrature nodes
    weights: np.ndarray      # quadrature weight times dtheta/dx_b there
    ends: np.ndarray         # x_b at the plateau ends
    end_weights: np.ndarray  # -+ dtheta/dx_b at the start / end of a plateau

    def trig_integrals(self, k: float) -> tuple[float, float]:
        """(int cos(k x_b) dtheta, int sin(k x_b) dtheta) over the pieces,
        k != 0: ramps by the fixed quadrature nodes, plateaus exactly."""
        import numpy as np
        phase, end_phase = k * self.nodes, k * self.ends
        return (float(np.sum(np.cos(phase) * self.weights)
                      + np.sum(np.sin(end_phase) * self.end_weights) / k),
                float(np.sum(np.sin(phase) * self.weights)
                      - np.sum(np.cos(end_phase) * self.end_weights) / k))

    def harmonic_cos_integrals(self, k1: float, n: int) -> np.ndarray:
        """The cosine integral of trig_integrals(j k1) for j = 1..n in one
        pass, k1 != 0.

        On the ramps j = q B + m (B = isqrt(n), m = 1..B) and
        cos(j phi) = cos(q B phi) cos(m phi) - sin(q B phi) sin(m phi), so
        cos and sin are taken at n/B + B multiples per node and the rest is
        contracted, _HARMONIC_CHUNK nodes at a time and without BLAS (the
        sums do not depend on its threads).  Plateaus are exact as in
        trig_integrals.  The values agree with trig_integrals' to ~1e-14 of
        the sum of |weights|, not bit for bit.
        """
        import numpy as np
        if n == 0:
            return np.empty(0)
        b = math.isqrt(n)
        k_m = k1 * np.arange(1, b + 1)
        k_q = k1 * (b * np.arange(-(-n // b)))
        table = np.zeros((k_q.size, b))
        for i in range(0, self.nodes.size, _HARMONIC_CHUNK):
            x = self.nodes[i:i + _HARMONIC_CHUNK]
            w = self.weights[i:i + _HARMONIC_CHUNK]
            phase_q, phase_m = np.multiply.outer(k_q, x), np.multiply.outer(k_m, x)
            table += np.einsum("qi,mi->qm", np.cos(phase_q) * w, np.cos(phase_m))
            table -= np.einsum("qi,mi->qm", np.sin(phase_q) * w, np.sin(phase_m))
        k = k1 * np.arange(1, n + 1)
        plateaus = np.sin(np.multiply.outer(k, self.ends)) * self.end_weights
        return table.ravel()[:n] + np.sum(plateaus, axis=1) / k


@functools.lru_cache(maxsize=32)
def _build_null_map(profile: RingProfile, branch: str) -> NullCoordinateMap:
    import numpy as np
    sign = +1.0 if branch == "u" else -1.0
    derived = derive(profile.config)
    exclusion = derived.delta if branch == "v" else 0.0
    v_h, segments = _ring_segments(profile)
    # v branch: the angles where v = c, i.e. v^(3/2) = K
    horizons = [s.ref for s in _horizon_segments(segments)] if branch == "v" else []
    # kept intervals exclude (h - exclusion, h + exclusion); out of order when
    # a sliver leaves (0, 2*pi) or overlaps the next
    cuts = [0.0, *(c for h in horizons for c in (h - exclusion, h + exclusion)), TWO_PI]
    if any(hi < lo for lo, hi in zip(cuts, cuts[1:])):
        raise RegimeError(
            f"exclusion half-width {exclusion!r}: the horizon slivers around "
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
    k_max = 2.0 * derived.omega_max
    gl_nodes, gl_weights = map(np.array, _GAUSS_LEGENDRE_32)
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
        total=float(x_lo[-1] + span[-1]), length=float(np.sum(hi - lo)), exclusion=exclusion,
        nodes=np.concatenate(nodes), weights=np.concatenate(weights),
        ends=np.concatenate([x_start, x_start + span[flat]]),
        end_weights=np.concatenate([-1.0 / rate[flat], 1.0 / rate[flat]]))
    # one map serves every caller through the cache
    for a in (nmap.nodes, nmap.weights, nmap.ends, nmap.end_weights):
        a.flags.writeable = False
    return nmap


def null_coordinate_map(profile: RingProfile, branch: str) -> NullCoordinateMap:
    """Build (cached) the null map of x_u or x_v for a ring profile.

    Its exclusion, set where the map is built and nowhere else: one ion
    spacing 2*pi/N on either side of each horizon of the v branch (the
    slivers must fit inside (0, 2*pi) without overlap, else RegimeError),
    none on the poleless u.
    The cap on N (params.MAX_N_IONS) keeps each sliver at least 2e-4 wide,
    far above the angle double precision resolves at the pole.
    """
    if branch not in ("u", "v"):
        raise ValueError(f"branch must be 'u' or 'v', got {branch!r}")
    return _build_null_map(profile, branch)


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


def hawking_temperature_line(profile: LineProfile) -> float:
    """T_H = kappa / (2 pi) for the channel profile (c = hbar = k_B = 1),
    kappa the core's velocity gradient; |v_max - v_min| / (4 pi a), equal to
    it, cancels at small kappa a."""
    return profile.kappa / (2.0 * math.pi)
