"""Horizon-pair momentum correlations on the collapsing channel flow.

The left-moving momentum two-point function carries the pair signature: a
peak in |<Pi_L(x1) Pi_L(x2)>| with x1 inside (x1 < -a) and x2 outside
(x2 > a), present only while both probes sit inside the wedge |x| < x_plus(t)
swept out by the interface characteristics.

Closed form (matched long-time scheme, initial temperature 1/beta):

    <Pi_L Pi_L> = -(pi/beta)^2 * (X1 X2 / a^2) * csch^2( pi (X1 + X2) / beta )

with X1 = |matched x0(x1)|, X2 = matched x0(x2).  It is evaluated as one
expression for every beta: the beta -> inf value -(X1 X2 / a^2) / (X1 + X2)^2
times the thermal factor (z csch z)^2, z = pi (X1 + X2) / beta, which is 1 at
beta = inf.  Every exponential is assembled in log space.
The mode-sum oracle rebuilds the same object from matched mode functions:
thermal weight coth(beta k / 2), momentum factors by finite differences of
the traced-back initial position.  Both thermal k integrals split
coth(beta k / 2) = 1 + 2/(e^{beta k} - 1): the divergent vacuum part at its
regulated limit in closed form, the Bose part by one Fourier quadrature.

A pair that is not matched shares one uniform region, where the correlation
depends on dx = x1 - x2 alone: in closed form through the thermal image
series (``corr_homogeneous_closed_form``), and by quadrature in the oracle
(``corr_homogeneous``).  The grid's ``method`` picks one route for every row.

Only the standard library loads with this module: its grids are lists.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .characteristics import entanglement_boundary, matched_exponent, matched_pair, matched_x0
from .errors import ExtrapolationError, RegimeError, RegionError
from .profiles import LineProfile, hawking_temperature_line
from .specfun import fourier_integral, image_sum, thermal_excess, thermal_weight


# --------------------------------------------------------------------------
# thermal k integrals: vacuum part in closed form, Bose part by quadrature
# --------------------------------------------------------------------------

_MAX_SEPARATION = 4.0     # in units of beta

# Smallest beta the uniform-region quadrature (corr_homogeneous) takes: its
# u-space integral grows as |dx|^{-1/2}/beta toward the float range, and its
# error with it.  Scanned over |dx| from 1e-6 to 1e6, it holds 1e-11 against
# the image series down to beta = 4e-293 (3.7e-12 at this floor, worst at
# |dx| = 1e-6), misses by 8e-8 at 1e-300 and by 130% at 1e-307, and fails
# at 1e-308.
_HOMOGENEOUS_ORACLE_MIN_BETA = 1e-292

# The Bose bump of the thermal k-integrands, k^p / (e^{beta k} - 1) with p = 1
# or 3/2, lies on [0, _BOSE_STRETCH / beta]: past it e^{-beta k} is below
# 5e-18, and where the stretch is shorter than QAWF's first cycle, what lies
# past it is below 1e-17 of _bose_integral's scale.
_BOSE_STRETCH = 40.0


def _bose_integral(f, separation: float, beta: float, kind: str, scale: float) -> float:
    """int_0^inf f(k) trig(k |separation|) dk for f a Bose bump (0 at beta =
    inf), trig = ``kind``, to the absolute tolerance 1e-11 * scale
    (``scale``: the result's size).

    In u = 2 k |separation| QUADPACK's Fourier routine QAWF integrates cycle
    by cycle, the first on [0, 2 pi], and it misses a bump far narrower than
    that cycle: below |separation| = 7e-4 beta, all of the cosine part.  So
    where the bump's stretch [0, u_b], u_b = 2 _BOSE_STRETCH |separation| /
    beta, is shorter than the first cycle, the one quadrature is QAWO on
    [0, u_b] instead.  At beta = inf u_b = 0: QAWF, on an f that is 0.
    """
    h = 0.5 / abs(separation)          # k = h u
    tol = max(1e-11 * scale / h, sys.float_info.min)
    u_b = 2.0 * _BOSE_STRETCH * abs(separation) / beta
    end = u_b if 0.0 < u_b < 2.0 * math.pi else math.inf
    return h * fourier_integral(lambda u: f(h * u), 0.0, 0.5, kind=kind, tol=tol, b=end).value


def thermal_momentum_integral(separation: float, beta: float) -> float:
    """Regulated int_0^inf k coth(beta k/2) cos(k * separation) dk.

    Distributional value -(pi/beta)^2 csch^2(pi*separation/beta), and
    -1/separation^2 at beta = inf; used by the mode-sum oracle.  Vacuum part
    -1/separation^2 plus the Bose part (``thermal_excess``), which the
    quadrature resolves to 1.3e-13 of the vacuum part over |separation| from
    1e-6 to 4 beta.  Past |separation| = 4 beta they cancel to under 1e-8 of
    it: ExtrapolationError.
    """
    if separation == 0.0:
        raise ValueError("separation must be nonzero")
    if abs(separation) > _MAX_SEPARATION * beta:
        raise ExtrapolationError(
            f"|separation| = {abs(separation):.6g} is beyond {_MAX_SEPARATION:g} beta: "
            "the Bose part cancels the vacuum part -1/separation^2 below the "
            "quadrature's accuracy", partial=None)
    vacuum = -separation ** -2
    return vacuum + _bose_integral(lambda k: thermal_excess(k, beta), separation, beta,
                                   "cos", -vacuum)


def _uniform_correlation(dx: float, beta: float, bose) -> complex:
    """The uniform-region correlation from its Bose part bose(|dx|) =
    int_0^inf f(k) e^{-i k |dx|} dk, f = sqrt(k) thermal_excess / sqrt(2),
    plus the regulated vacuum part Gamma(5/2) (i|dx|)^{-5/2} / sqrt(2), whose
    cos and sin parts are both -Gamma(5/2)/(2|dx|^{5/2}); conjugated for
    dx < 0.  A value beyond the float range is refused with a RegimeError
    naming |dx| and beta."""
    if dx == 0.0:
        raise ValueError("coincident points are UV-singular; need dx != 0")
    a = abs(dx)
    try:
        vacuum = -0.375 * math.sqrt(math.pi) * a ** -2.5     # Gamma(5/2) = 3 sqrt(pi)/4
        part = bose(a)
        re, im = vacuum + part.real, vacuum - part.imag
    except OverflowError:
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise RegimeError(f"the uniform-region correlation at |x1 - x2| = {a:.6g}, "
                          f"beta = {beta:.6g} leaves the float range")
    # e^{-i k dx} with dx of either sign; conjugate under dx -> -dx
    return complex(re, -im if dx > 0 else im)


def corr_homogeneous_closed_form(dx: float, beta: float) -> complex:
    """Two-point momentum correlation when both probes share one uniform region.

    Spectral form int_0^inf dk/sqrt(2k) k^2 e^{-i k dx} coth(beta k/2): in a
    uniform region (kappa = 0) the value depends on positions only through
    dx and not on t.  No pair peak: the result is translation invariant.
    Expanding 2/(e^{beta k} - 1) = 2 sum_n e^{-n beta k} turns the Bose part
    into the image series sqrt(2) Gamma(5/2) sum_{n>=1} (n beta + i|dx|)^{-5/2}
    (``specfun.image_sum``, 0 at beta = inf), so no quadrature is needed.
    ``corr_homogeneous`` computes the same value by quadrature, as its check.
    """
    if not beta > 0:
        raise ValueError("beta must be positive (inf for zero temperature)")
    sqrt2_gamma = 0.75 * math.sqrt(2.0 * math.pi)            # sqrt(2) Gamma(5/2)
    return _uniform_correlation(dx, beta, lambda a: sqrt2_gamma * image_sum(beta, a))


def corr_homogeneous(dx: float, t: float, beta: float) -> complex:
    """``corr_homogeneous_closed_form`` by quadrature, the independent check
    of its image series and the uniform rows of the mode-sum oracle's grids.

    The Bose part, sqrt(k) thermal_excess / sqrt(2), is one Fourier
    quadrature per component on the result's scale |dx|^{-3/2} / min(|dx|,
    beta).  ``t`` is not read: the uniform-region value does not depend on it.
    A beta below _HOMOGENEOUS_ORACLE_MIN_BETA is refused with a RegimeError.
    """
    if not beta >= _HOMOGENEOUS_ORACLE_MIN_BETA:
        raise RegimeError(
            f"the uniform-region quadrature is refused at beta = {beta:.6g}: it holds "
            f"the image series only down to beta = {_HOMOGENEOUS_ORACLE_MIN_BETA:g} "
            "(the closed-form method answers)")
    f = lambda k: math.sqrt(k) * thermal_excess(k, beta) / math.sqrt(2.0)

    def bose(a):
        scale = a ** -1.5 / min(a, beta)
        return complex(_bose_integral(f, a, beta, "cos", scale),
                       -_bose_integral(f, a, beta, "sin", scale))

    return _uniform_correlation(dx, beta, bose)


# --------------------------------------------------------------------------
# matched closed form
# --------------------------------------------------------------------------

def _log_z_csch(ln_z: float) -> float:
    """ln(z csch z) of z = e^{ln_z} >= 0: -z^2/6 below z = 1e-8, else
    ln 2z - z - ln(1 - e^{-2z}).  z is capped at e^700, where the value is
    already far below the float range, so a huge z stays finite."""
    z = math.exp(min(ln_z, 700.0))
    if z < 1e-8:
        return -z * z / 6.0
    return math.log(2.0 * z) - z - math.log(-math.expm1(-2.0 * z))


def _log_add_exp(x: float, y: float) -> float:
    """ln(e^x + e^y) without overflow, evaluated as numpy's logaddexp is."""
    if x == y:
        return x + math.log(2.0)
    big, small = (x, y) if x > y else (y, x)
    return big + math.log1p(math.exp(small - big))


def _require_matched_pair(x1: float, x2: float, t: float, profile: LineProfile):
    if not matched_pair(x1, x2, t, profile):
        raise RegionError(f"({x1:.6g}, {x2:.6g}) is not a matched inside/outside pair "
                          f"within the wedge at t = {t:.6g}; use corr_homogeneous")


def corr_closed_form(x1: float, x2: float, t: float, beta: float,
                     profile: LineProfile) -> float:
    """Matched-scheme <Pi_L(x1,t) Pi_L(x2,t)>, x1 inside, x2 outside.

    Requires a matched pair (``matched_pair``); outside the wedge the
    matched exponentials do not apply (use corr_homogeneous).  One expression
    for every beta > 0: the zero-temperature value -(X1 X2/a^2)/(X1+X2)^2
    times the thermal factor (z csch z)^2, z = pi (X1+X2)/beta, with ln z
    taken in log space so that z = 0, a factor of 1, at beta = inf.
    """
    _require_matched_pair(x1, x2, t, profile)
    if not beta > 0:
        raise ValueError("beta must be positive (inf for zero temperature)")
    a = profile.a
    ln_x1 = matched_exponent(x1, t, profile) + math.log(a)
    ln_x2 = matched_exponent(x2, t, profile) + math.log(a)
    ln_pref = ln_x1 + ln_x2 - 2.0 * math.log(a)          # ln(X1 X2 / a^2)
    ln_sum = _log_add_exp(ln_x1, ln_x2)                  # ln(X1 + X2)
    ln_z = math.log(math.pi) + ln_sum - math.log(beta)
    return -math.exp(ln_pref - 2.0 * ln_sum + 2.0 * _log_z_csch(ln_z))


def corr_mode_sum_oracle(x1: float, x2: float, t: float, beta: float,
                         profile: LineProfile) -> float:
    """Independent rebuild of the matched correlation from mode functions.

    Momentum factors: (d/dt + v d/dx) of the mode phase equals d(x0)/dx along
    left movers, evaluated here by central finite differences (step 1e-6) of
    the matched map's x0, not read from its Jacobian; thermal weight
    coth(beta k/2); k integral by ``thermal_momentum_integral``.  Like
    ``corr_closed_form`` it takes matched pairs only.
    """
    _require_matched_pair(x1, x2, t, profile)
    h = 1e-6
    x0 = lambda x: matched_x0(x, t, profile).x0
    w = lambda x: (x0(x + h) - x0(x - h)) / (2.0 * h)
    sep = x0(x2) - x0(x1)
    return w(x1) * w(x2) * thermal_momentum_integral(sep, beta)


# --------------------------------------------------------------------------
# grids and peak detection
# --------------------------------------------------------------------------

class CorrelationGrid(NamedTuple):
    x2: list[float]
    values: list[float]           # |correlation| per sample
    regions: list[str]            # "matched" or "uniform" per sample


class PeakReport(NamedTuple):
    location: float
    contrast: float
    present: bool


def build_correlation_grid(x1: float, x2_values, t: float, beta: float,
                           profile: LineProfile, method: str = "closed_form") -> CorrelationGrid:
    """Sample |<Pi_L(x1) Pi_L(x2)>| over outside probes x2 > a.

    Region routing: a matched pair (``matched_pair``) takes the matched form,
    any other pair (including every x2 when the inside probe itself lies
    beyond x_minus) the uniform-region form.  ``method`` picks both:
    "closed_form" evaluates ``corr_closed_form`` and
    ``corr_homogeneous_closed_form``, no quadrature; "mode_sum_oracle"
    ``corr_mode_sum_oracle`` and ``corr_homogeneous``, quadrature for every row.
    """
    x2_values = [float(x2) for x2 in x2_values]
    if any(x2 <= profile.a for x2 in x2_values):
        raise ValueError("outside probes must satisfy x2 > a")
    closed = method == "closed_form"
    vals, regions = [], []
    for x2 in x2_values:
        if matched_pair(x1, x2, t, profile):
            matched = corr_closed_form if closed else corr_mode_sum_oracle
            vals.append(abs(matched(x1, x2, t, beta, profile)))
            regions.append("matched")
        else:
            uniform = (corr_homogeneous_closed_form(x1 - x2, beta) if closed
                       else corr_homogeneous(x1 - x2, t, beta))
            vals.append(abs(uniform))
            regions.append("uniform")
    return CorrelationGrid(x2=x2_values, values=vals, regions=regions)


def _median(values) -> float:
    """The median as numpy takes it: the middle value, or the mean of the two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def detect_peak(grid: CorrelationGrid) -> PeakReport:
    """Locate and qualify the pair peak on a correlation grid.

    location = argmax |value|; contrast = its height over the background,
    the median of samples farther than 15% of the x2 span from it, or over a
    zero background inf for a positive height and 0 for an all-zero scan.
    A pair peak is ``present`` when the maximum is a strict interior maximum
    at a matched row (both probes inside the wedge) and the contrast exceeds
    3: monotone tails have edge maxima, and the jump to the uniform rows
    past x_plus is no pair peak, however steep.
    """
    n = len(grid.x2)
    if n < 16:
        raise ValueError(f"need at least 16 samples, got {n}")
    vals = grid.values
    idx = max(range(n), key=vals.__getitem__)          # the first of equal maxima
    location, height = float(grid.x2[idx]), float(vals[idx])
    span = abs(float(grid.x2[-1] - grid.x2[0]))
    window = 0.15 * span
    off = [v for x2, v in zip(grid.x2, vals) if abs(x2 - location) > window]
    background = _median(off if len(off) >= 4 else vals)
    if background != 0.0:
        contrast = height / background
    else:
        contrast = math.inf if height > 0.0 else 0.0
    interior = 0 < idx < n - 1 and vals[idx] > vals[idx - 1] and vals[idx] > vals[idx + 1]
    matched = grid.regions[idx] == "matched"
    return PeakReport(location=location, contrast=contrast,
                      present=bool(interior and matched and contrast > 3.0))


# --------------------------------------------------------------------------
# open-system correction
# --------------------------------------------------------------------------

# Smallest |cos(2 k X1)| e_r answers at: it divides by the closed-system
# integrand, which vanishes with that cosine, so nearer its zeros the ratio
# reads the pole (e_r = 4.2e12 where |cos| = 6e-17), not the environment.
_ER_MIN_ABS_COS = 0.1

# The kernels' limits: weak coupling (|lam| at most this) and a hot bath (T0
# at least this many line Hawking temperatures, the local ohmic noise).
_ER_MAX_ABS_LAM = 1e-3
_ER_MIN_T_OVER_TH = 10.0


def open_correction_er(k: float, t: float, lam: float, temperature: float,
                       profile: LineProfile, x1: float | None = None) -> float:
    """Per-mode relative environment correction e_r at the pair-peak position.

    With the local ohmic kernels (dissipation -lam^2 d/ds delta, noise
    lam^2 T0 delta) the delta collapses the memory integrals; the remaining
    pieces are kept at their coincidence-limit dominant contribution:

      dissipation: each leg damped, total -lam^2 t * P_C(k);
      noise:  lam^2 T0 w1 w2 [ t/(2k^2) - sin(2kt)/(4k^3) ]  via G.N.G
              with the flat per-mode response sin(k s)/k.

    P_C(k) = k coth(beta k/2) cos(k A) w1 w2 is the closed-system per-mode
    integrand at separation A = X1 + X2 = 2 X1, X1 = |matched x0(x1)|: the
    pair peak is the partner x2* of ``characteristics.pair_partner``, where
    X2 = X1 by definition.  Both cross-term readings (doubled second-leg vs
    symmetrized) coincide at this approximation order.  In e_r = |(noise +
    dissipation) / P_C| the mode weights w1 w2 = (X1/a)^2 cancel, and since
    they underflow at late t, e_r is evaluated without them:

      e_r = lam^2 |T0 [t/(2k^2) - sin(2kt)/(4k^3)] / (k coth(beta k/2) cos(2k X1)) - t|,

    0 exactly at lam = 0.  Where x = 2kt < 1 the two terms of the noise
    bracket cancel, so it is taken as 2t^3 (x - sin x)/x^3 through that
    ratio's series, whose k -> 0 limit is t^3/3.  A term beyond the float
    range (a power of k, or noise / P_C) is refused with an OverflowError
    naming k, lam, t and the term.  A RegimeError refuses |lam| above
    _ER_MAX_ABS_LAM or T0 below _ER_MIN_T_OVER_TH T_H (the kernels' limits),
    naming lam or T0 and the threshold, and k a > 1 or |cos(2k X1)| below
    _ER_MIN_ABS_COS (past the small-k window, or at a zero of P_C), naming
    k, t, a and X1.
    """
    if k <= 0:
        raise ValueError("k must be positive (left-sector modes, small k)")
    xm, xp = entanglement_boundary(t, profile)
    if x1 is None:
        x1 = -0.5 * (profile.a + xp)   # mid-wedge inside probe
    if not (xm < x1 < -profile.a):
        raise RegionError(f"x1 = {x1:.6g} outside the wedge at t = {t:.6g}")
    if lam == 0.0:
        return 0.0
    if abs(lam) > _ER_MAX_ABS_LAM:
        raise RegimeError(f"e_r at lam = {lam:.6g}: |lam| > {_ER_MAX_ABS_LAM:g}, "
                          "outside the weak-coupling limit")
    min_temperature = _ER_MIN_T_OVER_TH * hawking_temperature_line(profile)
    if temperature < min_temperature:
        raise RegimeError(f"e_r at T0 = {temperature:.6g}: T0 < {_ER_MIN_T_OVER_TH:g} T_H = "
                          f"{min_temperature:.6g}, outside the high-temperature limit")
    x1_peak = abs(matched_x0(x1, t, profile).x0)
    where = f"e_r at k = {k:.6g}, t = {t:.6g}, a = {profile.a:.6g}, X1 = {x1_peak:.6g}"
    if k * profile.a > 1.0:
        raise RegimeError(f"{where}: k a > 1, outside the small-k window")
    cos_peak = math.cos(2.0 * k * x1_peak)
    if abs(cos_peak) < _ER_MIN_ABS_COS:
        raise RegimeError(f"{where}: |cos(2 k X1)| = {abs(cos_peak):.3g} is below "
                          f"{_ER_MIN_ABS_COS:g}, near a zero of the integrand e_r divides by")

    def in_float_range(term: str, compute) -> float:
        try:
            value = compute()
        except (OverflowError, ZeroDivisionError):   # a power of k left the range
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"e_r at k = {k:.6g}, lam = {lam:.6g}, t = {t:.6g}: "
                                f"{term} leaves the float range")
        return value

    beta = 1.0 / temperature
    x = 2.0 * k * t
    if x < 1.0:
        # T0 2t^3 (x - sin x) / x^3 by its series: no power of k, no cancellation
        shape = math.fsum((-x * x) ** n / math.factorial(2 * n + 3) for n in range(9))
        noise_term = lambda: temperature * 2.0 * t ** 3 * shape
    else:
        noise_term = lambda: temperature * (t / (2.0 * k ** 2) - math.sin(x) / (4.0 * k ** 3))
    noise = in_float_range("the noise term T0 (t/(2k^2) - sin(2kt)/(4k^3))", noise_term)
    ratio = abs(noise / (thermal_weight(k, beta) * cos_peak) - t)
    return in_float_range("lam^2 |noise / P_C - t|", lambda: lam ** 2 * ratio)
