"""Horizon-pair momentum correlations on the collapsing channel flow.

The left-moving momentum two-point function carries the pair signature: a
peak in |<Pi_L(x1) Pi_L(x2)>| with x1 inside (x1 < -a) and x2 outside
(x2 > a), present only while both probes sit inside the wedge |x| < x_plus(t)
swept out by the interface characteristics.

Closed form (matched long-time scheme, initial temperature 1/beta):

    <Pi_L Pi_L> = -(pi/beta)^2 * (X1 X2 / a^2) * csch^2( pi (X1 + X2) / beta )

with X1 = |matched x0(x1)|, X2 = matched x0(x2); the beta -> inf limit is
-(X1 X2 / a^2) / (X1 + X2)^2.  Every exponential is assembled in log space.
The mode-sum oracle rebuilds the same object from matched mode functions:
thermal weight coth(beta k / 2), momentum factors by finite differences of
the traced-back initial position, k integral by regulated Fourier quadrature
with regulator-removal extrapolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .characteristics import (core_integrals, core_left_x0, entanglement_boundary,
                              matched_x0, mode_function)
from .errors import ExtrapolationError, RegimeError, RegimeWarning, RegionError
from .profiles import LineProfile, hawking_temperature_line
from .specfun import fourier_integral, neville_to_zero, thermal_weight


# --------------------------------------------------------------------------
# regulated spectral integrals
# --------------------------------------------------------------------------

_EPS_LADDER = (0.08, 0.04, 0.02, 0.01, 0.005)


def _regulated_fourier(f, scale: float, trig: str, eps: float,
                       regulator: str) -> float:
    if regulator == "exp":
        g = lambda k: f(k) * math.exp(-eps * k)
    elif regulator == "gauss":
        g = lambda k: f(k) * math.exp(-0.5 * (eps * k) ** 2)
    else:
        raise ValueError(f"unknown regulator {regulator!r}")
    return fourier_integral(g, 0.0, scale, kind=trig).value


def _extrapolate_eps(values, ladder) -> float:
    est = neville_to_zero(ladder, values)
    est_prev = neville_to_zero(ladder[:-1], values[:-1])
    spread = abs(est - est_prev)
    if not (math.isfinite(est) and spread <= 1e-3 * max(abs(est), 1e-300)):
        raise ExtrapolationError(
            f"regulator removal did not settle: last two extrapolants "
            f"{est_prev!r}, {est!r}", partial=None)
    return est


def _remove_regulator(f, separation: float, beta: float, trig: str,
                      regulator: str) -> float:
    """int_0^inf f(k) trig(k |separation|) dk, trig = cos or sin, by regulator removal.

    The regulator widths are _EPS_LADDER in units of min(|separation|, beta);
    the values are extrapolated to zero width in eps (exponential) or in
    eps^2 (Gaussian, which is even in eps).
    """
    a = abs(separation)
    ladder = [e * min(a, beta) for e in _EPS_LADDER]
    vals = [_regulated_fourier(f, a, trig, e, regulator) for e in ladder]
    if regulator == "gauss":
        ladder = [e * e for e in ladder]
    return _extrapolate_eps(vals, ladder)


def thermal_momentum_integral(separation: float, beta: float,
                              regulator: str = "exp") -> float:
    """Regulated int_0^inf k coth(beta k/2) cos(k * separation) dk.

    Distributional value; equals -(pi/beta)^2 csch^2(pi*separation/beta)
    (and -1/separation^2 at beta = inf).  Used by the mode-sum oracle.
    """
    if separation == 0.0:
        raise ValueError("separation must be nonzero")
    return _remove_regulator(lambda k: thermal_weight(k, beta), separation, beta,
                             "cos", regulator)


# --------------------------------------------------------------------------
# homogeneous-region correlation
# --------------------------------------------------------------------------

def corr_homogeneous(dx: float, t: float, beta: float,
                     regulator: str = "exp") -> complex:
    """Two-point momentum correlation when both probes share one uniform region.

    Spectral form int_0^inf dk/sqrt(2k) k^2 e^{-i k dx} coth(beta k/2): in a
    uniform region (kappa = 0) the value depends on positions only through
    dx and not on t.  The k^{3/2} measure is UV-divergent as written and is
    defined by exponential-regulator removal (Gaussian regulator available
    as a cross-check).  No pair peak: the result is translation invariant.
    """
    if dx == 0.0:
        raise ValueError("coincident points are UV-singular; need dx != 0")
    f = lambda k: thermal_weight(k, beta, 1.5) / math.sqrt(2.0)
    re = _remove_regulator(f, dx, beta, "cos", regulator)
    im = _remove_regulator(f, dx, beta, "sin", regulator)
    # e^{-i k dx} with dx of either sign; conjugate under dx -> -dx
    return complex(re, -im if dx > 0 else im)


# --------------------------------------------------------------------------
# matched closed form
# --------------------------------------------------------------------------

def _log_csch(z: float) -> float:
    """ln csch(z) for z > 0, overflow-safe."""
    return -z + math.log(2.0) - math.log1p(-math.exp(-2.0 * z))


def _matched_log_x(x: float, t: float, profile: LineProfile, side: str) -> float:
    """ln(X/a) for the matched exponentials; side 'in' (x < -a) or 'out' (x > a)."""
    a, f = profile.a, profile.sigma_accumulated(t)
    if side == "out":
        return (x + t - f * profile.v_max - a) / a
    return -(x + t - f * profile.v_min - a) / a


def corr_closed_form(x1: float, x2: float, t: float, beta: float,
                     profile: LineProfile) -> float:
    """Matched-scheme <Pi_L(x1,t) Pi_L(x2,t)>, x1 inside, x2 outside.

    Requires x1 in (x_minus, -a) and x2 in (a, x_plus); outside the wedge the
    matched exponentials do not apply (use corr_homogeneous).  beta = inf
    selects the zero-temperature limit -(X1 X2/a^2)/(X1+X2)^2.
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
    ln_x1 = _matched_log_x(x1, t, profile, "in") + math.log(a)
    ln_x2 = _matched_log_x(x2, t, profile, "out") + math.log(a)
    ln_pref = ln_x1 + ln_x2 - 2.0 * math.log(a)          # ln(X1 X2 / a^2)
    ln_sum = np.logaddexp(ln_x1, ln_x2)                  # ln(X1 + X2)
    if math.isinf(beta):
        return -math.exp(ln_pref - 2.0 * ln_sum)
    z = math.pi * math.exp(ln_sum) / beta
    if z < 1e-150:  # csch -> 1/z, avoid log1p underflow path
        return -math.exp(ln_pref - 2.0 * ln_sum)
    return -math.exp(ln_pref + 2.0 * (math.log(math.pi / beta) + _log_csch(z)))


def corr_mode_sum_oracle(x1: float, x2: float, t: float, beta: float,
                         profile: LineProfile) -> float:
    """Independent rebuild of the matched correlation from mode functions.

    Momentum factors: (d/dt + v d/dx) of the mode phase equals d(x0)/dx along
    left movers, evaluated here by central finite differences (step 1e-6) of
    the matched map; thermal weight coth(beta k/2); k integral by regulated
    Fourier quadrature with extrapolated regulator removal.  For probe pairs
    outside the wedge the homogeneous spectral form is reproduced instead.
    """
    xm, xp = entanglement_boundary(t, profile)
    a = profile.a
    matched_pair = (xm < x1 < -a) and (a < x2 < xp)
    h = 1e-6
    w = lambda x: (matched_x0(x + h, t, profile)
                   - matched_x0(x - h, t, profile)) / (2.0 * h)
    if matched_pair:
        sep = matched_x0(x2, t, profile) - matched_x0(x1, t, profile)
        return w(x1) * w(x2) * thermal_momentum_integral(sep, beta)
    # outside the wedge both probes must share a uniform region
    if x1 > xp and x2 > xp:
        return abs(corr_homogeneous(x1 - x2, t, beta))
    raise RegionError("mode-sum oracle: probe pair is neither matched "
                      "(inside/outside within the wedge) nor jointly uniform")


# --------------------------------------------------------------------------
# grids and peak detection
# --------------------------------------------------------------------------

@dataclass
class CorrelationGrid:
    t: float
    x1: float
    x2: np.ndarray
    values: np.ndarray            # |correlation| per sample
    method: str                   # closed_form | mode_sum_oracle | monte_carlo
    temperature: float
    regions: list[str] = field(default_factory=list)
    stderr: np.ndarray | None = None


@dataclass(frozen=True)
class PeakReport:
    location: float
    height: float
    background: float
    contrast: float
    present: bool


def build_correlation_grid(x1: float, x2_values, t: float, beta: float,
                           profile: LineProfile, method: str = "closed_form") -> CorrelationGrid:
    """Sample |<Pi_L(x1) Pi_L(x2)>| over outside probes x2 > a.

    Region routing: matched closed form while both probes sit inside the
    wedge, homogeneous spectral form otherwise (including every x2 when the
    inside probe itself lies beyond x_minus).
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
    temp = 0.0 if math.isinf(beta) else 1.0 / beta
    return CorrelationGrid(t=t, x1=x1, x2=x2_values, values=np.array(vals),
                           method=method, temperature=temp, regions=regions)


def detect_peak(grid: CorrelationGrid) -> PeakReport:
    """Locate and qualify the pair peak on a correlation grid.

    location = argmax |value|; background = median of samples farther than
    15% of the x2 span from it; contrast = height/background.  A peak is
    ``present`` when the maximum is a strict interior maximum and the
    contrast exceeds 3 (monotone tails have edge maxima and do not count,
    however steep).
    """
    n = len(grid.x2)
    if n < 16:
        raise ValueError(f"need at least 16 samples, got {n}")
    vals = np.asarray(grid.values, dtype=float)
    idx = int(np.argmax(vals))
    location, height = float(grid.x2[idx]), float(vals[idx])
    span = float(grid.x2[-1] - grid.x2[0])
    window = 0.15 * span
    off = np.abs(grid.x2 - location) > window
    background = float(np.median(vals[off])) if off.sum() >= 4 else float(np.median(vals))
    contrast = math.inf if background == 0.0 else height / background
    interior = 0 < idx < n - 1 and vals[idx] > vals[idx - 1] and vals[idx] > vals[idx + 1]
    return PeakReport(location=location, height=height, background=background,
                      contrast=contrast, present=bool(interior and contrast > 3.0))


# --------------------------------------------------------------------------
# momentum, Green function, open-system correction
# --------------------------------------------------------------------------

def momentum_of_field(dphi_dt: float, dphi_dx: float, v: float) -> float:
    """Canonical momentum Pi = d(phi)/dt + v * d(phi)/dx."""
    return dphi_dt + v * dphi_dx


def retarded_green(x: float, t: float, xp: float, tp: float,
                   profile: LineProfile) -> float:
    """Retarded Green function of the mode sum, i x commutator convention.

    G = (1/2pi) int_0^inf dk/k [ sin(k D_L) - sin(k D_R) ] * step(t - t'),
    D_b the difference of traced initial positions in branch b; the relative
    sector sign and the 1/2pi are the i x commutator convention fixed by the
    flat limit step(dt - |dx|)/2.  Each k integral is (pi/2) sign(D_b), so
    G = step(t - t') (sign D_L - sign D_R)/4.
    """
    if t < tp:
        return 0.0
    ci = core_integrals(profile)
    x0_l, xp0_l = core_left_x0(x, t, profile), core_left_x0(xp, tp, profile)
    d_l = x0_l - xp0_l
    d_r = (x0_l - 2.0 * ci.g(t)) - (xp0_l - 2.0 * ci.g(tp))
    return 0.25 * float(np.sign(d_l) - np.sign(d_r))


@dataclass(frozen=True)
class OpenCorrection:
    e_r: float
    notes: tuple = ()


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
    notes = []
    xm, xp = entanglement_boundary(t, profile)
    if x1 is None:
        x1 = -0.5 * (profile.a + xp)   # mid-wedge inside probe
    if not (xm < x1 < -profile.a):
        raise RegionError(f"x1 = {x1:.6g} outside the wedge at t = {t:.6g}")
    if lam == 0.0:
        return OpenCorrection(0.0)
    if lam > 1e-3:
        notes.append("coupling not weak (lam > 1e-3)")
    t_h = hawking_temperature_line(profile.v_max, profile.v_min, profile.a)
    if temperature < 10.0 * t_h:
        notes.append("temperature below the high-T kernel regime (~100 T_H)")
    if k * profile.a > 1.0:
        notes.append("k outside the small-k window (k*a > 1)")
    for msg in notes:
        warnings.warn(msg, RegimeWarning)

    x1_ln = _matched_log_x(x1, t, profile, "in") + math.log(profile.a)
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
    return OpenCorrection(e_r=e_r, notes=tuple(notes))


def mode_function_pde_residual(k: float, x: float, t: float,
                               profile: LineProfile, h: float) -> float:
    """|[(d_t + d_x v)(d_t + v d_x) - d_x^2] u_k| by nested central differences.

    The operator is evaluated with the transition-region velocity law, on
    whose modes ``mode_function`` is built; residual -> 0 at O(h^2).
    """
    def u(xx, tt):
        return mode_function(k, xx, tt, profile)

    def v(xx, tt):
        return profile.sigma(tt) * (1.0 + profile.kappa * xx)

    def w(xx, tt):  # (d_t + v d_x) u
        du_dt = (u(xx, tt + h) - u(xx, tt - h)) / (2.0 * h)
        du_dx = (u(xx + h, tt) - u(xx - h, tt)) / (2.0 * h)
        return du_dt + v(xx, tt) * du_dx

    dw_dt = (w(x, t + h) - w(x, t - h)) / (2.0 * h)
    dvw_dx = (v(x + h, t) * w(x + h, t) - v(x - h, t) * w(x - h, t)) / (2.0 * h)
    d2u_dx2 = (u(x + h, t) - 2.0 * u(x, t) + u(x - h, t)) / h ** 2
    return abs(dw_dt + dvw_dx - d2u_dx2)
