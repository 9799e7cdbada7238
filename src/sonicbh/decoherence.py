"""Diffusion coefficients and the decoherence-time estimate.

The normal coefficient D(t) is the double integral

    D(t) = (g^2/2) int_0^inf dnu int_0^t ds  nu f(nu) cos(nu s) cos(omega s)

(g = effective coupling).  For the Lorentzian cutoff it has a closed form in
trigonometric/hyperbolic integrals, evaluated here through the
cancellation-safe combination; an independent nested-quadrature oracle backs
it.  Spatial mode weights V1/V2 are quadratures of cos^2 / cos*sin of the
null coordinate over the ring, and the decoherence time follows from the
accumulated diffusion reaching order unity on the smallest trajectory
separation rho*delta^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .environment import EnvironmentSpec, cutoff_factor
from .errors import QuadratureError, RegimeError, RegimeWarning
from .params import TWO_PI, DerivedParams, PhysicalConfig, derive
from .profiles import RingProfile, hawking_temperature_ring, null_coordinate_map
from .specfun import (fourier_integral, integrate_adaptive, si,
                      stable_shi_chi_combo, thermal_weight)

# Criterion constant in (rho delta^2 / hbar) * accumulated diffusion == const,
# an order-unity convention; t_D scales linearly with it.
DECOHERENCE_CRITERION = 1.0

# Absolute tolerance of the D(t) quadrature oracles.
_D_ORACLE_TOL = 1e-10


@dataclass(frozen=True)
class VCoefficients:
    v1_u: float
    v2_u: float
    v1_v: float
    v2_v: float
    omega: float
    epsilon: float


@dataclass(frozen=True)
class DecoherenceEstimate:
    t_d: float
    zero_t_term: float
    thermal_term: float  # <= 0


# --------------------------------------------------------------------------
# normal diffusion coefficient
# --------------------------------------------------------------------------

def diffusion_exact(t: float, omega: float, spec: EnvironmentSpec) -> float:
    """Closed-form D(t) for the Lorentzian cutoff at zero temperature.

    D = (g^2/2) * omega/(1+(omega/L)^2) * [ A*(Shi cosh - Chi sinh)(Lt)
        + B*(Shi sinh - Chi cosh)(Lt) + Si(omega t) ],
    A = (L/omega) cos(omega t), B = sin(omega t).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if spec.cutoff_shape != "lorentzian":
        raise RegimeError(
            "the closed form is specific to the Lorentzian cutoff; "
            "use diffusion_quadrature_oracle for other shapes")
    if spec.bath_temperature != 0.0:
        raise RegimeError("closed form derived at zero bath temperature")
    if t == 0.0:
        return 0.0
    lam, g2 = spec.cutoff, spec.coupling_eff ** 2
    a = (lam / omega) * math.cos(omega * t)
    b = math.sin(omega * t)
    bracket = stable_shi_chi_combo(a, b, lam * t) + si(omega * t)
    return 0.5 * g2 * omega / (1.0 + (omega / lam) ** 2) * bracket


def _inner_antiderivative(nu: float, omega: float, t: float) -> float:
    half_sum = math.sin((nu + omega) * t) / (nu + omega)
    if abs(nu - omega) < 1e-13 * max(nu, omega):
        return 0.5 * (half_sum + t)
    return 0.5 * (half_sum + math.sin((nu - omega) * t) / (nu - omega))


def _inner_cos_cos(nu: float, omega: float, t: float) -> float:
    """int_0^t cos(nu s) cos(omega s) ds.

    Adaptive quadrature while the integrand carries few oscillations
    ((nu + omega) t <= 40), the elementary antiderivative beyond (both agree
    to machine precision on the overlap; see the oracle tests).
    """
    if (nu + omega) * t <= 40.0:
        try:
            return integrate_adaptive(lambda s: math.cos(nu * s) * math.cos(omega * s),
                                      0.0, t, tol=1e-12).value
        except QuadratureError:
            pass
    return _inner_antiderivative(nu, omega, t)


def diffusion_quadrature_oracle(t: float, omega: float, spec: EnvironmentSpec) -> float:
    """Brute-force D(t): nested quadrature of the defining double integral.

    The outer nu integral is taken plainly where the inner factor carries few
    oscillations; otherwise it is split around the sin((nu-omega)t)/(nu-omega)
    ridge at nu = omega and evaluated with oscillatory-weight quadrature on
    the sides, plus an exact Fourier-tail treatment beyond nu_b.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    lam, g2 = spec.cutoff, spec.coupling_eff ** 2
    tol = _D_ORACLE_TOL

    weight = lambda nu: nu * cutoff_factor(nu, spec)

    nu_b = 2.0 * omega + 6.0 * lam + 10.0 / t
    if nu_b * t < 300.0:
        pts = sorted({omega, max(omega - math.pi / t, 0.0), omega + math.pi / t,
                      min(lam, nu_b * 0.9)})
        finite = integrate_adaptive(lambda nu: weight(nu) * _inner_cos_cos(nu, omega, t),
                                    0.0, nu_b, tol=tol, points=pts, limit=800).value
    else:
        half = 0.5 * math.sin(omega * t)
        ridge = min(20.0 * math.pi / t, 0.45 * omega)
        finite = integrate_adaptive(
            lambda nu: weight(nu) * _inner_cos_cos(nu, omega, t),
            omega - ridge, omega + ridge, tol=tol, limit=400).value
        for lo, hi in ((0.0, omega - ridge), (omega + ridge, nu_b)):
            # sin((nu+-omega)t) expanded about the nu-oscillation e^{i nu t}
            f_sin = lambda nu: weight(nu) * 0.5 * math.cos(omega * t) * (
                1.0 / (nu + omega) + 1.0 / (nu - omega))
            f_cos = lambda nu: weight(nu) * half * (
                1.0 / (nu + omega) - 1.0 / (nu - omega))
            finite += fourier_integral(f_sin, lo, t, kind="sin", tol=tol, b=hi).value
            finite += fourier_integral(f_cos, lo, t, kind="cos", tol=tol, b=hi).value
    # tail: substitute mu = nu -+ omega so each piece is a pure Fourier integral
    tail_plus = fourier_integral(lambda mu: weight(mu - omega) / (2.0 * mu),
                                 nu_b + omega, t, kind="sin").value
    tail_minus = fourier_integral(lambda mu: weight(mu + omega) / (2.0 * mu),
                                  nu_b - omega, t, kind="sin").value
    return 0.5 * g2 * (finite + tail_plus + tail_minus)


def diffusion_thermal(t: float, omega: float, beta: float, spec: EnvironmentSpec) -> float:
    """Low-temperature two-term expansion of the cutoff-free D(t, beta):

        2 g^-2 D = omega Si(omega t) + 2 sin(omega t)/(omega beta^2)   (hbar = 1).

    Valid for beta*omega >> 1 and omega*t >> 1; warns outside the
    thermal regime.  The display drops a beta-independent cos(omega t)/t
    boundary term that the honest cutoff-free quadrature (and the Lorentzian
    closed form at large cutoff) retains; compare thermal parts against the
    oracle, not absolute values, at moderate omega*t.  Vanishes at t = 0 for
    every beta, so the coupling calibration is temperature-independent.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if math.isfinite(beta) and beta * omega < 10.0:
        warnings.warn("thermal expansion outside its low-temperature regime "
                      f"(beta*omega = {beta * omega:.3g} < 10)", RegimeWarning)
    g2 = spec.coupling_eff ** 2
    correction = 0.0 if math.isinf(beta) else (
        2.0 * math.sin(omega * t) / (omega * beta ** 2))
    return 0.5 * g2 * (omega * si(omega * t) + correction)


def diffusion_thermal_oracle(t: float, omega: float, beta: float,
                             spec: EnvironmentSpec) -> float:
    """Full-coth cutoff-free D(t, beta) by quadrature with the sharp split
    at nu = 2/beta (hbar = 1).

    The nu -> inf part carries no cutoff; its non-decaying tail piece is
    Abel-summed in closed form (the same distributional sense the Si closed
    form carries), the decaying remainder by Fourier quadrature.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    g2 = spec.coupling_eff ** 2
    nu_split = 0.0 if math.isinf(beta) else 2.0 / beta

    nu_b = 2.0 * omega + max(10.0 * nu_split, 4.0 * omega) + 10.0 / t
    pts = sorted({p for p in (nu_split, omega, omega - math.pi / t, omega + math.pi / t)
                  if 0.0 < p < nu_b})
    finite = integrate_adaptive(
        lambda nu: thermal_weight(nu, beta) * _inner_cos_cos(nu, omega, t),
        0.0, nu_b, tol=_D_ORACLE_TOL, points=pts, limit=800).value
    # beyond nu_b: coth == 1 to < 1e-10; inner integral decomposed as
    # (1/2)[sin((nu+om)t)/(nu+om) + sin((nu-om)t)/(nu-om)], mu = nu -+ omega:
    # integrand (mu -+ omega)/(2 mu) sin(mu t) = [1/2 -+ omega/(2 mu)] sin(mu t)
    tail = 0.0
    for mu0, sign in ((nu_b + omega, -1.0), (nu_b - omega, +1.0)):
        tail += math.cos(mu0 * t) / (2.0 * t)          # Abel value of int 1/2 sin(mu t)
        tail += sign * fourier_integral(lambda mu: omega / (2.0 * mu),
                                        mu0, t, kind="sin").value
    return 0.5 * g2 * (finite + tail)


# --------------------------------------------------------------------------
# anomalous diffusion coefficient
# --------------------------------------------------------------------------

def anomalous_diffusion_asymptotic(omega: float, tau: float,
                                   spec: EnvironmentSpec) -> float:
    """Long-time anomalous plateau (g^2/2) pi omega log(cutoff/omega).

    Contract value used in the decoherence bookkeeping; the honest
    time-domain quadrature differs in prefactor (see the oracle and the
    notes) but the anomalous branch is negligible in the regime of interest.
    Warns when omega*tau >= 1 (non-positive logarithm).
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if omega * tau >= 1.0:
        warnings.warn(f"omega*tau = {omega * tau:.3g} >= 1: anomalous log "
                      "asymptote is non-positive here", RegimeWarning)
    g2 = spec.coupling_eff ** 2
    return 0.5 * g2 * math.pi * omega * math.log(spec.cutoff / omega)


def anomalous_time_domain_oracle(t: float, omega: float, spec: EnvironmentSpec) -> float:
    """f(t) = int_0^t N(t, t-s) sin(omega s) ds by nested quadrature.

    inner(nu) = (1/2)[1/(omega+nu) + 1/(omega-nu)]
              - (1/2)[cos((nu+omega)t)/(nu+omega) - cos((nu-omega)t)/(nu-omega)];
    the smooth part is kept jointly with the oscillation near nu = omega
    (where the full inner is regular) and split outside the ridge.
    """
    lam, g2 = spec.cutoff, spec.coupling_eff ** 2
    tol = 1e-11
    weight = lambda nu: nu * cutoff_factor(nu, spec)

    def inner(nu):
        plus = (1.0 - math.cos((omega + nu) * t)) / (omega + nu)
        if abs(nu - omega) < 1e-13 * max(nu, omega):
            return 0.5 * plus
        return 0.5 * (plus + (1.0 - math.cos((omega - nu) * t)) / (omega - nu))

    nu_b = 2.0 * omega + 6.0 * lam + 10.0 / t
    ridge = min(20.0 * math.pi / t, 0.45 * omega)
    total = integrate_adaptive(lambda nu: weight(nu) * inner(nu),
                               omega - ridge, omega + ridge, tol=tol, limit=400).value
    cw, sw = math.cos(omega * t), math.sin(omega * t)
    for lo, hi in ((0.0, omega - ridge), (omega + ridge, nu_b)):
        total += integrate_adaptive(
            lambda nu: 0.5 * weight(nu) * (1.0 / (omega + nu) + 1.0 / (omega - nu)),
            lo, hi, tol=tol, limit=400).value
        # cos((nu +- omega)t) = cos(nu t) cos(omega t) -+ sin(nu t) sin(omega t)
        f_cos = lambda nu: -0.5 * weight(nu) * cw * (
            1.0 / (nu + omega) - 1.0 / (nu - omega))
        f_sin = lambda nu: 0.5 * weight(nu) * sw * (
            1.0 / (nu + omega) + 1.0 / (nu - omega))
        total += fourier_integral(f_cos, lo, t, kind="cos", tol=tol, b=hi).value
        total += fourier_integral(f_sin, lo, t, kind="sin", tol=tol, b=hi).value
    # beyond nu_b the smooth part decays like lam^2 omega / nu^3
    total += integrate_adaptive(
        lambda nu: 0.5 * weight(nu) * (1.0 / (omega + nu) + 1.0 / (omega - nu)),
        nu_b, np.inf, tol=tol).value
    total -= fourier_integral(lambda mu: weight(mu - omega) / (2.0 * mu),
                              nu_b + omega, t, kind="cos").value
    total += fourier_integral(lambda mu: weight(mu + omega) / (2.0 * mu),
                              nu_b - omega, t, kind="cos").value
    return 0.5 * g2 * total


# --------------------------------------------------------------------------
# spatial mode weights
# --------------------------------------------------------------------------

def allowed_frequencies(profile: RingProfile, branch: str,
                        epsilon: float | None = None) -> np.ndarray:
    """Periodicity-allowed mode frequencies 2*pi*n / |null circumference| up
    to the ceiling N/T; the v branch excludes epsilon (default: one ion
    spacing) around each horizon."""
    derived = derive(profile.config)
    if epsilon is None:
        epsilon = derived.delta
    nmap = null_coordinate_map(profile, branch, epsilon if branch == "v" else 0.0)
    base = TWO_PI / abs(nmap.total)
    n_max = int(derived.omega_max / base)
    return base * np.arange(1, n_max + 1)


def _branch_weights(nmap, omega: float) -> tuple[float, float]:
    """V1 = (L + int cos 2 omega x dtheta)/2 and V2 = int sin 2 omega x dtheta / 2."""
    if omega == 0.0:
        return TWO_PI, 0.0
    cos_part, sin_part = nmap.fourier(2.0 * omega)
    return 0.5 * (nmap.length + cos_part), 0.5 * sin_part


def _v_table(profile: RingProfile, omegas, epsilon: float | None = None) -> list[VCoefficients]:
    """V1/V2 of both branches at each omega, one omega at a time over the
    fixed quadrature nodes of the two null maps."""
    if epsilon is None:
        epsilon = derive(profile.config).delta
    map_u = null_coordinate_map(profile, "u", 0.0)
    map_v = null_coordinate_map(profile, "v", epsilon)
    return [VCoefficients(*_branch_weights(map_u, om), *_branch_weights(map_v, om),
                          om, epsilon) for om in omegas]


def v_coefficients(profile: RingProfile, omega: float,
                   epsilon: float | None = None) -> VCoefficients:
    """V1 = int cos^2(omega x_b), V2 = int cos sin over the ring, b = u, v.

    The v branch uses the epsilon-excluded null coordinate (default: one ion
    spacing).  At omega = 0 the values are exact by inspection.  A row of a
    sweep's mode table equals this call bit for bit.
    """
    return _v_table(profile, [omega], epsilon)[0]


# --------------------------------------------------------------------------
# decoherence time
# --------------------------------------------------------------------------

def decoherence_time(config: PhysicalConfig, derived: DerivedParams, gamma: float,
                     omega: float, temperature: float, vcoef: VCoefficients,
                     branch: str = "u") -> DecoherenceEstimate:
    """Decoherence time of the mode at frequency omega.

        t_D(0)  = C * 2 hbar^2 / (gamma^2 dv delta^2 omega pi rho^2 V)
        t_D(T0) = t_D(0) - 8 k_B^2 T0^2 / (omega^3 pi hbar^2)

    V = V1 of the requested branch: the anomalous term 2 log(1/(omega tau)) V2
    of the full weight stays under 10% of V1 at the allowed modes of the
    bench ring (acceptance check C05).  The thermal correction is quadratic
    and independent of the mode weight.
    """
    if gamma <= 0 or omega <= 0:
        raise ValueError("gamma and omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    v_eff = vcoef.v1_u if branch == "u" else vcoef.v1_v
    if v_eff <= 0:
        raise RegimeError(f"non-positive mode weight V = {v_eff:.3g}")
    hbar, k_b = config.hbar, config.k_boltzmann
    zero_t = (DECOHERENCE_CRITERION * 2.0 * hbar ** 2
              / (gamma ** 2 * derived.delta_v * derived.delta ** 2
                 * omega * math.pi * derived.rho ** 2 * v_eff))
    thermal = -8.0 * (k_b * temperature) ** 2 / (omega ** 3 * math.pi * hbar ** 2)
    t_d = zero_t + thermal
    if t_d <= 0:
        raise RegimeError(
            f"thermal correction dominates (t_D = {t_d:.3g} <= 0): outside "
            "the low-temperature expansion's validity")
    return DecoherenceEstimate(t_d=t_d, zero_t_term=zero_t, thermal_term=thermal)


class SweepRow(NamedTuple):
    """One sweep point; the field names are the sweep table's columns."""

    axis: float
    t_d_min: float
    t_d_max: float
    omega_min: float
    omega_max: float


def _mode_table(profile):
    """(branch, omega, V1/V2) of every allowed u and v mode.

    The weights depend on neither gamma nor T0, so one table serves every
    point of a sweep that keeps the profile.
    """
    modes = [(branch, om) for branch in ("u", "v")
             for om in allowed_frequencies(profile, branch)]
    table = _v_table(profile, [om for _branch, om in modes])
    return [(branch, om, vc) for (branch, om), vc in zip(modes, table)]


def _band(config, derived, gamma, temperature, modes):
    """(t_d_min, t_d_max, omega_of_min, omega_of_max) over a mode table."""
    t_d = [decoherence_time(config, derived, gamma, om, temperature, vc, branch=branch).t_d
           for branch, om, vc in modes]
    lo, hi = int(np.argmin(t_d)), int(np.argmax(t_d))   # first of equal values
    return t_d[lo], t_d[hi], modes[lo][1], modes[hi][1]


def sweep_decoherence(axis: str, values, config: PhysicalConfig, gamma: float,
                      temperature: float = 0.0):
    """Sweep t_D along gamma, v_min, or temperature.

    Returns (rows, errors): per-point failures are collected, not fatal.
    For each point the band (min, max) of t_D over the allowed mode
    frequencies of both branches is reported.  gamma and temperature are
    the fixed values of the axes not swept.
    """
    if axis not in ("gamma", "v_min", "temperature"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    rows, errors = [], []
    base_profile = RingProfile.from_config(config)
    if axis == "temperature":
        t_h = hawking_temperature_ring(base_profile)
        too_hot = [v for v in values if v > 100.0 * t_h]
        if too_hot:
            raise RegimeError(
                f"temperature sweep beyond 100 T_H = {100 * t_h:.4g} refused "
                "(low-temperature expansion invalid); offending values "
                f"start at {min(too_hot):.4g}")
    if axis != "v_min":
        modes = _mode_table(base_profile)
        base_derived = derive(config)

    for val in map(float, values):
        try:
            if axis == "gamma":
                b = _band(config, base_derived, val, temperature, modes)
            elif axis == "temperature":
                b = _band(config, base_derived, gamma, val, modes)
            else:
                if not val < config.mean_velocity:
                    raise RegimeError("v_min must stay below the revolution speed")
                cfg = replace(config, v_min=val)
                b = _band(cfg, derive(cfg), gamma, temperature,
                          _mode_table(RingProfile.from_config(cfg)))
            rows.append(SweepRow(val, *b))
        except Exception as exc:  # collected per point
            errors.append((val, repr(exc)))
    return rows, errors
