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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .characteristics import entanglement_boundary, matched_exponent, matched_x0
from .errors import ExtrapolationError, RegimeError, RegimeWarning, RegionError
from .profiles import LineProfile, hawking_temperature_line
from .specfun import fourier_integral, thermal_excess, thermal_weight


# --------------------------------------------------------------------------
# thermal k integrals: vacuum part in closed form, Bose part by quadrature
# --------------------------------------------------------------------------

_MAX_SEPARATION = 4.0     # in units of beta


def _bose_integral(f, separation: float, kind: str, scale: float) -> float:
    """int_0^inf f(k) trig(k |separation|) dk for a decaying f, trig = ``kind``,
    to the absolute tolerance 1e-11 * scale (``scale``: the result's size).

    QUADPACK's Fourier routine cycles are (2 floor(w) + 1) pi / w long, and a
    feature under ~1% of the first is missed (the Bose bump, width ~1/beta,
    once beta > ~100 at w >= 1).  In u = 2 k |separation| the first cycle is
    one half period; what it misses is below 3e-7 of the result.
    """
    h = 0.5 / abs(separation)          # k = h u
    tol = max(1e-11 * scale / h, np.finfo(float).tiny)
    return h * fourier_integral(lambda u: f(h * u), 0.0, 0.5, kind=kind, tol=tol).value


def thermal_momentum_integral(separation: float, beta: float) -> float:
    """Regulated int_0^inf k coth(beta k/2) cos(k * separation) dk.

    Distributional value -(pi/beta)^2 csch^2(pi*separation/beta), and
    -1/separation^2 at beta = inf; used by the mode-sum oracle.  Vacuum part
    -1/separation^2 plus the Bose part (``thermal_excess``), which the
    quadrature resolves to ~4e-15 of the vacuum part.  Past |separation| =
    4 beta they cancel to under 1e-8 of it: ExtrapolationError.
    """
    if separation == 0.0:
        raise ValueError("separation must be nonzero")
    if abs(separation) > _MAX_SEPARATION * beta:
        raise ExtrapolationError(
            f"|separation| = {abs(separation):.6g} is beyond {_MAX_SEPARATION:g} beta: "
            "the Bose part cancels the vacuum part -1/separation^2 below the "
            "quadrature's accuracy", partial=None)
    vacuum = -separation ** -2
    return vacuum + _bose_integral(lambda k: thermal_excess(k, beta), separation,
                                   "cos", -vacuum)


def corr_homogeneous(dx: float, t: float, beta: float) -> complex:
    """Two-point momentum correlation when both probes share one uniform region.

    Spectral form int_0^inf dk/sqrt(2k) k^2 e^{-i k dx} coth(beta k/2): in a
    uniform region (kappa = 0) the value depends on positions only through
    dx and not on t.  No pair peak: the result is translation invariant.
    The UV-divergent vacuum part has the regulated limit
    Gamma(5/2) (i dx)^{-5/2} / sqrt(2): cos and sin parts -Gamma(5/2)/(2|dx|^{5/2}).
    The Bose part, sqrt(k) thermal_excess / sqrt(2), is one quadrature per
    component on the result's scale |dx|^{-3/2} / min(|dx|, beta).
    """
    if dx == 0.0:
        raise ValueError("coincident points are UV-singular; need dx != 0")
    a = abs(dx)
    vacuum = -0.375 * math.sqrt(math.pi) * a ** -2.5        # Gamma(5/2) = 3 sqrt(pi)/4
    f = lambda k: math.sqrt(k) * thermal_excess(k, beta) / math.sqrt(2.0)
    scale = a ** -1.5 / min(a, beta)
    re = vacuum + _bose_integral(f, a, "cos", scale)
    im = vacuum + _bose_integral(f, a, "sin", scale)
    # e^{-i k dx} with dx of either sign; conjugate under dx -> -dx
    return complex(re, -im if dx > 0 else im)


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


def corr_closed_form(x1: float, x2: float, t: float, beta: float,
                     profile: LineProfile) -> float:
    """Matched-scheme <Pi_L(x1,t) Pi_L(x2,t)>, x1 inside, x2 outside.

    Requires x1 in (x_minus, -a) and x2 in (a, x_plus); outside the wedge the
    matched exponentials do not apply (use corr_homogeneous).  One expression
    for every beta > 0: the zero-temperature value -(X1 X2/a^2)/(X1+X2)^2
    times the thermal factor (z csch z)^2, z = pi (X1+X2)/beta, with ln z
    taken in log space so that z = 0, a factor of 1, at beta = inf.
    """
    xm, xp = entanglement_boundary(t, profile)
    a = profile.a
    if not (xm < x1 < -a):
        raise RegionError(
            f"x1 = {x1:.6g} outside the inside-probe window ({xm:.6g}, {-a:.6g}); "
            "use corr_homogeneous")
    if not (a < x2 < xp):
        raise RegionError(
            f"x2 = {x2:.6g} outside the outside-probe window ({a:.6g}, {xp:.6g}); "
            "use corr_homogeneous")
    if beta <= 0:
        raise ValueError("beta must be positive (inf for zero temperature)")
    ln_x1 = matched_exponent(x1, t, profile) + math.log(a)
    ln_x2 = matched_exponent(x2, t, profile) + math.log(a)
    ln_pref = ln_x1 + ln_x2 - 2.0 * math.log(a)          # ln(X1 X2 / a^2)
    ln_sum = np.logaddexp(ln_x1, ln_x2)                  # ln(X1 + X2)
    ln_z = math.log(math.pi) + ln_sum - math.log(beta)
    return -math.exp(ln_pref - 2.0 * ln_sum + 2.0 * _log_z_csch(ln_z))


def corr_mode_sum_oracle(x1: float, x2: float, t: float, beta: float,
                         profile: LineProfile) -> float:
    """Independent rebuild of the matched correlation from mode functions.

    Momentum factors: (d/dt + v d/dx) of the mode phase equals d(x0)/dx along
    left movers, evaluated here by central finite differences (step 1e-6) of
    the matched map; thermal weight coth(beta k/2); k integral by
    ``thermal_momentum_integral``.  Like
    ``corr_closed_form`` it takes matched pairs only: x1 in (x_minus, -a),
    x2 in (a, x_plus).
    """
    xm, xp = entanglement_boundary(t, profile)
    a = profile.a
    if not ((xm < x1 < -a) and (a < x2 < xp)):
        raise RegionError(f"mode-sum oracle: ({x1:.6g}, {x2:.6g}) is not a matched "
                          "inside/outside pair within the wedge; use corr_homogeneous")
    h = 1e-6
    w = lambda x: (matched_x0(x + h, t, profile)
                   - matched_x0(x - h, t, profile)) / (2.0 * h)
    sep = matched_x0(x2, t, profile) - matched_x0(x1, t, profile)
    return w(x1) * w(x2) * thermal_momentum_integral(sep, beta)


# --------------------------------------------------------------------------
# grids and peak detection
# --------------------------------------------------------------------------

@dataclass
class CorrelationGrid:
    x2: np.ndarray
    values: np.ndarray            # |correlation| per sample
    regions: list[str] = field(default_factory=list)
    stderr: np.ndarray | None = None


@dataclass(frozen=True)
class PeakReport:
    location: float
    contrast: float
    present: bool


def build_correlation_grid(x1: float, x2_values, t: float, beta: float,
                           profile: LineProfile, method: str = "closed_form") -> CorrelationGrid:
    """Sample |<Pi_L(x1) Pi_L(x2)>| over outside probes x2 > a.

    Region routing: the matched ``method`` (closed form or mode-sum oracle)
    while both probes sit inside the wedge, homogeneous spectral form
    otherwise (including every x2 when the inside probe itself lies beyond
    x_minus).
    """
    xm, xp = entanglement_boundary(t, profile)
    a = profile.a
    x2_values = np.asarray(x2_values, dtype=float)
    if np.any(x2_values <= a):
        raise ValueError("outside probes must satisfy x2 > a")
    evaluate = corr_closed_form if method == "closed_form" else corr_mode_sum_oracle
    x1_in_wedge = xm < x1 < -a
    vals, regions = [], []
    for x2 in x2_values:
        if x1_in_wedge and a < x2 < xp:
            vals.append(abs(evaluate(x1, x2, t, beta, profile)))
            regions.append("matched")
        else:
            vals.append(abs(corr_homogeneous(x1 - x2, t, beta)))
            regions.append("uniform")
    return CorrelationGrid(x2=x2_values, values=np.array(vals), regions=regions)


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
    vals = np.asarray(grid.values, dtype=float)
    idx = int(np.argmax(vals))
    location, height = float(grid.x2[idx]), float(vals[idx])
    span = abs(float(grid.x2[-1] - grid.x2[0]))
    window = 0.15 * span
    off = np.abs(grid.x2 - location) > window
    background = float(np.median(vals[off])) if off.sum() >= 4 else float(np.median(vals))
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

@dataclass(frozen=True)
class OpenCorrection:
    e_r: float


def open_correction_er(k: float, t: float, lam: float, temperature: float,
                       profile: LineProfile, x1: float | None = None) -> OpenCorrection:
    """Per-mode relative environment correction e_r at the pair-peak position.

    With the local ohmic kernels (dissipation -lam^2 d/ds delta, noise
    lam^2 T0 delta) the delta collapses the memory integrals; the remaining
    pieces are kept at their coincidence-limit dominant contribution:

      dissipation: each leg damped, total -lam^2 t * P_C(k);
      noise:  lam^2 T0 w1 w2 [ t/(2k^2) - sin(2kt)/(4k^3) ]  via G.N.G
              with the flat per-mode response sin(k s)/k.

    P_C(k) = k coth(beta k/2) cos(k A) w1 w2 is the closed-system per-mode
    integrand at separation A = X1 + X2 (the peak has X2 = X1).  Both
    cross-term readings (doubled second-leg vs symmetrized) coincide at this
    approximation order.  e_r = 0 exactly at lam = 0; a mode whose P_C
    vanishes is refused with RegimeError.
    """
    if k <= 0:
        raise ValueError("k must be positive (left-sector modes, small k)")
    xm, xp = entanglement_boundary(t, profile)
    if x1 is None:
        x1 = -0.5 * (profile.a + xp)   # mid-wedge inside probe
    if not (xm < x1 < -profile.a):
        raise RegionError(f"x1 = {x1:.6g} outside the wedge at t = {t:.6g}")
    if lam == 0.0:
        return OpenCorrection(0.0)
    if lam > 1e-3:
        warnings.warn("coupling not weak (lam > 1e-3)", RegimeWarning)
    t_h = hawking_temperature_line(profile.v_max, profile.v_min, profile.a)
    if temperature < 10.0 * t_h:
        warnings.warn("temperature below the high-T kernel regime (~100 T_H)", RegimeWarning)
    if k * profile.a > 1.0:
        warnings.warn("k outside the small-k window (k*a > 1)", RegimeWarning)

    x1_ln = matched_exponent(x1, t, profile) + math.log(profile.a)
    x1_val = math.exp(x1_ln)
    a_sep = 2.0 * x1_val                      # peak: X2 = X1
    w1w2 = (x1_val / profile.a) ** 2
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    p_c = thermal_weight(k, beta) * math.cos(k * a_sep) * w1w2
    if p_c == 0.0:
        raise RegimeError("closed per-mode correlator vanishes at this k")
    d_noise = lam ** 2 * temperature * w1w2 * (
        t / (2.0 * k ** 2) - math.sin(2.0 * k * t) / (4.0 * k ** 3))
    d_diss = -lam ** 2 * t * p_c
    e_r = abs((d_noise + d_diss) / p_c)
    return OpenCorrection(e_r=e_r)
