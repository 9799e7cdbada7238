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

A sweep reads one weight per mode, V1 of the mode's own branch: its mode
table takes that alone, from the cosine integral of the mode's own null map,
and each point's band is one array expression over the whole table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .environment import EnvironmentSpec, cutoff_factor
from .errors import RegimeError, SonicBHError
from .params import TWO_PI, DerivedParams, PhysicalConfig, derive
from .profiles import RingProfile, hawking_temperature_ring, null_coordinate_map
from .specfun import fourier_integral, integrate_adaptive, si, stable_shi_chi_combo

# Criterion constant in (rho delta^2 / hbar) * accumulated diffusion == const,
# an order-unity convention; t_D scales linearly with it.
DECOHERENCE_CRITERION = 1.0

# Absolute tolerance of the D(t) quadrature oracle.
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
    if spec.bath_temperature != 0.0:
        raise RegimeError("closed form derived at zero bath temperature")
    if t == 0.0:
        return 0.0
    lam, g2 = spec.cutoff, spec.coupling_eff ** 2
    a = (lam / omega) * math.cos(omega * t)
    b = math.sin(omega * t)
    bracket = stable_shi_chi_combo(a, b, lam * t) + si(omega * t)
    return 0.5 * g2 * omega / (1.0 + (omega / lam) ** 2) * bracket


def _inner_cos_cos(nu: float, omega: float, t: float) -> float:
    """int_0^t cos(nu s) cos(omega s) ds by its elementary antiderivative."""
    half_sum = math.sin((nu + omega) * t) / (nu + omega)
    if abs(nu - omega) < 1e-13 * max(nu, omega):
        return 0.5 * (half_sum + t)
    return 0.5 * (half_sum + math.sin((nu - omega) * t) / (nu - omega))


def diffusion_quadrature_oracle(t: float, omega: float, spec: EnvironmentSpec) -> float:
    """Brute-force D(t): nested quadrature of the defining double integral.

    The inner s integral is elementary; the outer nu integral is split around
    the sin((nu-omega)t)/(nu-omega) ridge at nu = omega, taken adaptively on
    the ridge and with oscillatory-weight quadrature on either side of it,
    plus an exact Fourier-tail treatment beyond nu_b.  One regime serves
    every t > 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    lam, g2 = spec.cutoff, spec.coupling_eff ** 2
    tol = _D_ORACLE_TOL

    weight = lambda nu: nu * cutoff_factor(nu, spec)

    nu_b = 2.0 * omega + 6.0 * lam + 10.0 / t
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


# --------------------------------------------------------------------------
# spatial mode weights
# --------------------------------------------------------------------------

def allowed_frequencies(profile: RingProfile, branch: str) -> np.ndarray:
    """Periodicity-allowed mode frequencies 2*pi*n / |null circumference| up
    to the ceiling N/T; the v branch excludes one ion spacing around each
    horizon."""
    derived = derive(profile.config)
    nmap = null_coordinate_map(profile, branch, derived.delta if branch == "v" else 0.0)
    base = TWO_PI / abs(nmap.total)
    n_max = int(derived.omega_max / base)
    return base * np.arange(1, n_max + 1)


def _v1(nmap, omega: float) -> float:
    """V1 = (L + int cos 2 omega x dtheta)/2, L the measure of the kept pieces."""
    return 0.5 * (nmap.length + nmap.cos_integral(2.0 * omega))


def _branch_weights(nmap, omega: float) -> tuple[float, float]:
    """(V1, V2), V2 = int sin 2 omega x dtheta / 2."""
    return _v1(nmap, omega), 0.5 * nmap.sin_integral(2.0 * omega)


def v_coefficients(profile: RingProfile, omega: float,
                   epsilon: float | None = None) -> VCoefficients:
    """V1 = int cos^2(omega x_b), V2 = int cos sin over the ring, b = u, v,
    at omega > 0 (else ValueError), over the fixed quadrature nodes of the
    two cached null maps.

    The v branch uses the epsilon-excluded null coordinate (default: one ion
    spacing).
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    if epsilon is None:
        epsilon = derive(profile.config).delta
    return VCoefficients(*_branch_weights(null_coordinate_map(profile, "u", 0.0), omega),
                         *_branch_weights(null_coordinate_map(profile, "v", epsilon), omega),
                         omega, epsilon)


# --------------------------------------------------------------------------
# decoherence time
# --------------------------------------------------------------------------

def _t_d(config, derived, gamma, temperature, omega, omega_cubed, v):
    """t_D of the modes at frequencies omega (cubes omega_cubed) of weights v,
    arrays in table order, as one array expression.

    The first offending mode in table order raises, its checks in the order
    V <= 0, t_D(0) overflow, t_D <= 0.
    """
    if gamma <= 0 or np.any(omega <= 0):
        raise ValueError("gamma and omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    hbar, k_b = config.hbar, config.k_boltzmann
    numerator = DECOHERENCE_CRITERION * 2.0 * hbar ** 2
    # an offending mode may divide by zero or overflow here; it is refused
    # below, before anything reads its t_D
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        denominator = (gamma ** 2 * derived.delta_v * derived.delta ** 2
                       * omega * math.pi * derived.rho ** 2 * v)
        t_d = (numerator / denominator
               - 8.0 * (k_b * temperature) ** 2 / (omega_cubed * math.pi * hbar ** 2))
    weightless = v <= 0
    overflows = ~(denominator > numerator / sys.float_info.max)
    bad = np.flatnonzero(weightless | overflows | (t_d <= 0))
    if bad.size:
        i = bad[0]
        if weightless[i]:
            raise RegimeError(f"non-positive mode weight V = {v[i]:.3g}")
        if overflows[i]:
            raise OverflowError("t_D(0) overflows: its denominator gamma^2 dv delta^2 "
                                f"omega pi rho^2 V = {denominator[i]:.3g} is too small")
        raise RegimeError(
            f"thermal correction dominates (t_D = {t_d[i]:.3g} <= 0): outside "
            "the low-temperature expansion's validity")
    return t_d


def decoherence_time(config: PhysicalConfig, derived: DerivedParams, gamma: float,
                     omega: float, temperature: float, vcoef: VCoefficients,
                     branch: str = "u") -> DecoherenceEstimate:
    """Decoherence time of the mode at frequency omega.

        t_D(0)  = C * 2 hbar^2 / (gamma^2 dv delta^2 omega pi rho^2 V)
        t_D(T0) = t_D(0) - 8 k_B^2 T0^2 / (omega^3 pi hbar^2)

    V = V1 of the requested branch: the anomalous term 2 log(1/(omega tau)) V2
    of the full weight stays under 10% of V1 at the allowed modes of the
    bench ring (acceptance check C05).  The thermal correction is quadratic
    and independent of the mode weight.  This is the one-mode case of the
    sweep's band, through the same expression, so the two agree bit for bit.
    """
    v = vcoef.v1_u if branch == "u" else vcoef.v1_v
    t_d = _t_d(config, derived, gamma, temperature, np.array([omega], dtype=float),
               np.array([omega ** 3], dtype=float), np.array([v], dtype=float))
    return DecoherenceEstimate(t_d=float(t_d[0]))


class SweepRow(NamedTuple):
    """One sweep point; the field names are the sweep table's columns."""

    axis: float
    t_d_min: float
    t_d_max: float
    omega_min: float
    omega_max: float


def _mode_table(profile):
    """(omega, omega^3, V1) arrays over every allowed u mode, then every
    allowed v mode.

    V1 is what t_D reads of a mode: it is taken on the mode's own null map
    alone (epsilon = delta on v), one 1-D cosine integral per mode, with no
    V2 and no weight of the other branch.  omega^3 is the power of each
    mode's scalar, as decoherence_time takes it.  The table depends on
    neither gamma nor T0, so one serves every point of a sweep that keeps the
    profile.
    """
    delta = derive(profile.config).delta
    omega, v1 = [], []
    for branch, epsilon in (("u", 0.0), ("v", delta)):
        nmap = null_coordinate_map(profile, branch, epsilon)
        for om in allowed_frequencies(profile, branch):
            omega.append(om)
            v1.append(_v1(nmap, om))
    return np.array(omega), np.array([om ** 3 for om in omega]), np.array(v1)


def _band(config, derived, gamma, temperature, modes):
    """(t_d_min, t_d_max, omega_of_min, omega_of_max) over a mode table."""
    omega = modes[0]
    t_d = _t_d(config, derived, gamma, temperature, *modes)
    lo, hi = int(np.argmin(t_d)), int(np.argmax(t_d))   # first of equal values
    return t_d[lo], t_d[hi], omega[lo], omega[hi]


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
        except (SonicBHError, ValueError, ArithmeticError) as exc:  # collected per point
            errors.append((val, repr(exc)))
    return rows, errors
