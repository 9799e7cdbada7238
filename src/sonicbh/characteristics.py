"""Characteristic curves of the collapsing channel flow.

Left movers, the curves every observable of the package reads, ride
dx/dt = v(x,t) - 1 with v = sigma(t) v_min for x < -a, sigma(t) (1 + kappa x)
for |x| <= a and sigma(t) v_max for x > a.  Every piece is solvable in closed
form.  With F(t) = int_0^t sigma,

    outside:  x(t) = x_i + v_c (F(t) - F(t_i)) - (t - t_i),
    inside:   x(t) = e^{kappa F(t)} ( x0 - I(t) ),

    I(t) = int_0^t (1 - sigma(s)) e^{-kappa F(s)} ds,

so a curve is a chain of legs joined where it crosses x = +-a.  A crossing
time is the root of a gap that is monotone on either side of
s* = tau atanh(1/v_max), the moment sigma v_max - 1 changes sign.  The map
x -> x0 has the Jacobian dx0/dx = e^{-kappa int sigma} over the time the
curve spends inside.

Two evaluation modes coexist and must not be conflated:

* ``trace_characteristic`` and ``forward_characteristic`` follow the true
  piecewise dynamics -- the honest map;
* ``matched_x0`` evaluates the long-time matched closed forms used by the
  analytic correlation formulas, whose interior segment idealizes the
  collapse as instantaneous.  At late times the two differ by O(a)
  constants; see the region notes in ``matched_x0``.

Both return a ``CharacteristicMap``: x0 and its Jacobian dx0/dx.  Every
evaluation is scalar, on the standard library alone: the module loads no
numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

from .profiles import LineProfile
from .specfun import betainc_regularized

REGION_LEFT, REGION_CORE, REGION_RIGHT = "x<-a", "|x|<=a", "x>a"

# The 24-point Gauss-Legendre rule on [-1, 1] of the early-time core
# integrals, numpy's leggauss(24) written out (its positive half, in
# ascending order; the rule is symmetric).
_GAUSS_HALF_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213)
_GAUSS_HALF_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869)
_GAUSS_LEGENDRE_24 = ([-x for x in reversed(_GAUSS_HALF_NODES)] + list(_GAUSS_HALF_NODES),
                      list(reversed(_GAUSS_HALF_WEIGHTS)) + list(_GAUSS_HALF_WEIGHTS))


def _region_of(x: float, a: float) -> str:
    if x < -a:
        return REGION_LEFT
    if x > a:
        return REGION_RIGHT
    return REGION_CORE


# --------------------------------------------------------------------------
# transition-region integrals in closed form
# --------------------------------------------------------------------------

class _CoreIntegrals:
    """I(t) of one profile.

    With m = kappa tau and y = 1/(1 + e^{2t/tau}), e^{-kappa F} = cosh^{-m}(t/tau)
    turns it into a difference of incomplete beta functions:

        I(t) = tau 2^m B(m/2 + 1, m/2) [I_{1/2} - I_y](m/2 + 1, m/2).

    Below t = tau / max(1, sqrt(m)) the difference cancels, and a fixed
    24-point Gauss-Legendre rule in s on [0, t], summed exactly rounded
    (``math.fsum``), takes over: there the integrand is analytic and varies on
    the scale of the interval at most.
    """

    def __init__(self, profile: LineProfile):
        tau, m = profile.tau, profile.kappa * profile.tau
        self.tau, self.m = tau, m
        self.t_gauss = tau / max(1.0, math.sqrt(m))
        nodes, weights = _GAUSS_LEGENDRE_24
        self._rule = [(0.5 * (x + 1.0), 0.5 * w) for x, w in zip(nodes, weights)]
        p, q = 0.5 * m + 1.0, 0.5 * m
        self._p, self._q = p, q
        self._log_beta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
        # tau 2^m B(p, q), composed in the exponent so that a large m cannot overflow
        self._scale = tau * math.exp(m * math.log(2.0) + self._log_beta)
        self.i_inf = self._scale * betainc_regularized(p, q, 0.5)

    def _i_tail(self, t: float) -> float:
        """tau 2^m B(p, q) I_y(p, q), accurate relative to itself however far out."""
        u = 2.0 * t / self.tau
        if u < 700.0:
            e = math.exp(-u)
            return self._scale * betainc_regularized(self._p, self._q, e / (1.0 + e))
        # y nears underflow; I_y = y^p / (p B) there, composed in one exponent
        return self._scale * math.exp(-self._p * u - self._log_beta) / self._p

    def _gauss(self, t: float) -> float:
        s, m = t / self.tau, self.m
        return t * math.fsum([w * (math.cosh(s * x) ** -m * (1.0 - math.tanh(s * x)))
                              for x, w in self._rule])

    def i(self, t: float) -> float:
        return self._gauss(t) if t < self.t_gauss else self.i_inf - self._i_tail(t)

    def i_tail(self, t: float) -> float:
        """I(inf) - I(t)."""
        return self.i_inf - self._gauss(t) if t < self.t_gauss else self._i_tail(t)


@functools.lru_cache(maxsize=16)
def core_integrals(profile: LineProfile) -> _CoreIntegrals:
    return _CoreIntegrals(profile)


def core_left_x0(x: float, t: float, profile: LineProfile) -> float:
    """Initial position x e^{-kappa F(t)} + I(t) of the transition-region left
    mover at (x, t)."""
    decay = math.exp(-profile.kappa * profile.sigma_accumulated(t))
    return x * decay + core_integrals(profile).i(t)


# --------------------------------------------------------------------------
# exact backward/forward transport, leg by leg
# --------------------------------------------------------------------------

class CharacteristicMap(NamedTuple):
    """Where the left mover through (x, t) started, and dx0/dx there; what
    both ``trace_characteristic`` and ``matched_x0`` return."""

    x0: float
    dx0_dx: float


def _bracketed_root(f, lo: float, hi: float) -> float:
    """Root of f between lo and hi, where f(lo) <= 0 < f(hi), bisected down
    to neighbouring floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


class _Flow:
    """The left movers as legs (start time, region, position at start).

    On an outer leg x(s) = x_i + v_c (F(s) - F(s_i)) - (s - s_i), inside
    x(s) e^{-kappa F(s)} - K(s) is conserved, with K = I(inf) - I(s): the tail
    of I, because a late leg needs K(s) - K(s_i) to the digits of
    e^{-kappa F}, which a difference of saturated integrals would lose.
    """

    def __init__(self, profile: LineProfile):
        self.profile = profile
        self._k = core_integrals(profile).i_tail
        self.speed = {REGION_LEFT: profile.v_min, REGION_RIGHT: profile.v_max}
        self.turn = profile.tau * math.atanh(1.0 / profile.v_max)
        a = profile.a
        # (interface, region beyond it) per region
        self.exits = {REGION_LEFT: ((-a, REGION_CORE),), REGION_RIGHT: ((a, REGION_CORE),),
                      REGION_CORE: ((-a, REGION_LEFT), (a, REGION_RIGHT))}

    def position(self, leg: tuple[float, str, float], s: float) -> float:
        start, region, x = leg
        f, f_start = self.profile.sigma_accumulated(s), self.profile.sigma_accumulated(start)
        if region == REGION_CORE:
            kappa = self.profile.kappa
            return (x * math.exp(kappa * (f - f_start))
                    + math.exp(kappa * f) * (self._k(s) - self._k(start)))
        return x + self.speed[region] * (f - f_start) - (s - start)

    def _gap(self, leg: tuple[float, str, float], b: float):
        """s -> x(s) - b on the leg, times e^{-kappa F(s)} inside, with the
        sign that makes it positive beyond the interface b."""
        start, region, x = leg
        sign = math.copysign(1.0, b)
        if region == REGION_CORE:
            kappa, sigma_accumulated = self.profile.kappa, self.profile.sigma_accumulated
            conserved = x * math.exp(-kappa * sigma_accumulated(start)) - self._k(start)
            return lambda s: sign * (conserved + self._k(s)
                                     - b * math.exp(-kappa * sigma_accumulated(s)))
        return lambda s: sign * (b - self.position(leg, s))

    def legs(self, x: float, s: float, end: float) -> list[tuple[float, str, float]]:
        """Legs of the curve through (x, s), in travel order up to time end
        (forward if end > s, backward if end < s)."""
        x = float(x)
        legs = [(s, _region_of(x, self.profile.a), x)]
        for _ in range(2):               # a curve crosses the interfaces at most twice
            start, region, _ = legs[-1]
            # each gap is monotone on either side of the turning time
            ends = [self.turn] if min(start, end) < self.turn < max(start, end) else []
            pieces = list(zip([start] + ends, ends + [end]))
            crossings = []
            for b, beyond in self.exits[region]:
                gap = self._gap(legs[-1], b)
                for lo, hi in pieces:
                    if gap(hi) > 0.0:
                        crossings.append((abs(_bracketed_root(gap, lo, hi) - start), b, beyond))
                        break
            if not crossings:
                break
            lapse, b, beyond = min(crossings)
            legs.append((start + math.copysign(lapse, end - start), beyond, b))
        return legs


def trace_characteristic(x: float, t: float, profile: LineProfile) -> CharacteristicMap:
    """Backward-trace the left mover through (x, t) to its t = 0 initial
    position on the true flow, with dx0/dx = e^{-kappa int sigma} over the
    time spent in the transition region."""
    if t < 0:
        raise ValueError("t must be >= 0")
    flow = _Flow(profile)
    legs = flow.legs(x, t, 0.0)
    stops = [leg[0] for leg in legs[1:]] + [0.0]
    inside = sum(profile.sigma_accumulated(start) - profile.sigma_accumulated(stop)
                 for (start, region, _), stop in zip(legs, stops) if region == REGION_CORE)
    return CharacteristicMap(flow.position(legs[-1], 0.0), math.exp(-profile.kappa * inside))


def forward_characteristic(x0: float, times: list[float],
                           profile: LineProfile) -> list[float]:
    """Positions at the ascending times of the left mover launched from
    x(0) = x0; its interface crossings are found once, up to the last time."""
    flow = _Flow(profile)
    legs = flow.legs(x0, 0.0, times[-1])
    starts = [leg[0] for leg in legs]
    return [flow.position(legs[bisect.bisect_right(starts, t) - 1], t) for t in times]


# --------------------------------------------------------------------------
# matched long-time closed forms (analytic-correlation scheme)
# --------------------------------------------------------------------------

def matched_x0(x: float, t: float, profile: LineProfile) -> CharacteristicMap:
    """Left-mover initial position and dx0/dx in the matched long-time scheme.

    Beyond the wedge boundaries |x| > x_plus(t) the flat-region transport is
    exact, with dx0/dx = 1; for a < |x| <= x_plus the interface-matched
    exponentials x0 = +-a e^{matched_exponent} apply, with dx0/dx = |x0|/a; in
    the core |x| <= a the transition-region closed form is exact, with
    dx0/dx = e^{-kappa F(t)}.  The interior matching idealizes sigma as
    saturated, so this map intentionally differs from
    ``trace_characteristic`` at O(a) for late times.
    """
    a = profile.a
    f = profile.sigma_accumulated(t)
    xp = entanglement_boundary(t, profile)[1]
    if abs(x) > xp:
        return CharacteristicMap(x + t - f * (profile.v_max if x > 0 else profile.v_min), 1.0)
    if abs(x) > a:
        x0 = math.copysign(a, x) * math.exp(matched_exponent(x, t, profile))
        return CharacteristicMap(x0, abs(x0) / a)
    return CharacteristicMap(core_left_x0(x, t, profile), math.exp(-profile.kappa * f))


def matched_exponent(x: float, t: float, profile: LineProfile) -> float:
    """ln(|x0|/a) of the interface-matched exponentials of ``matched_x0``:
    (x + t - F v_max - a)/a outside (x > a), -(x + t - F v_min - a)/a inside."""
    a, f = profile.a, profile.sigma_accumulated(t)
    if x > a:
        return (x + t - f * profile.v_max - a) / a
    return -(x + t - f * profile.v_min - a) / a


# --------------------------------------------------------------------------
# entanglement wedge
# --------------------------------------------------------------------------

def entanglement_boundary(t: float, profile: LineProfile) -> tuple[float, float]:
    """(x_minus, x_plus) = -+ a (1 + kappa int_0^t sigma)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    xp = profile.a * (1.0 + profile.kappa * profile.sigma_accumulated(t))
    return -xp, xp


def matched_pair(x1: float, x2: float, t: float, profile: LineProfile) -> bool:
    """Whether (x1, x2) is a matched inside/outside pair at t, the pairs the
    matched closed forms take: x_minus < x1 < -a and a < x2 < x_plus."""
    xm, xp = entanglement_boundary(t, profile)
    return xm < x1 < -profile.a and profile.a < x2 < xp


def pair_partner(x1: float, t: float, profile: LineProfile) -> float:
    """x2* where the two branches of ``matched_exponent`` are equal, so that
    X2 = X1: the partner of x1, where the matched correlation peaks.

    Equating them gives 2a - x1 - 2t + F(t)(v_max + v_min); with
    v_max + v_min = 2 and F = tau ln cosh(t/tau) that is

        x2* = 2a - x1 - 2 tau (ln 2 - log1p(e^{-2t/tau})),

    free of the cancellation of 2t against 2F, which loses every digit of
    the t-dependence at late t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    tau = profile.tau
    return 2.0 * profile.a - x1 - 2.0 * tau * (math.log(2.0)
                                               - math.log1p(math.exp(-2.0 * t / tau)))


def characteristic_fan_rows(profile: LineProfile, x0_values, times: list[float]):
    """Rows (t, x, region) tracing a fan of left movers forward over the
    ascending times.

    Plot-ready view of the collapse geometry: the wedge interfaces are the
    members launched from x0 = +-a.
    """
    rows = []
    for x0 in x0_values:
        xs = forward_characteristic(float(x0), times, profile)
        rows += [(t, x, _region_of(x, profile.a)) for t, x in zip(times, xs)]
    return rows
