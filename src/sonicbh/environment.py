"""Ohmic bath: spectral density, time-domain kernels, coupling conversion.

The spectral density is J(nu) = coupling_eff^2 * nu * f(nu) with an
exponential or Lorentzian cutoff f.  Kernels are local in space; the spatial
delta is implicit and never materialized -- these functions return the
time-dependent coefficient only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, QuadratureError
from .specfun import fourier_integral, integrate_adaptive

CUTOFF_SHAPES = ("exponential", "lorentzian")


@dataclass(frozen=True)
class EnvironmentSpec:
    coupling_eff: float                 # dimensionless effective coupling
    cutoff: float                       # frequency scale of f(nu)
    cutoff_shape: str = "lorentzian"
    bath_temperature: float = 0.0

    def __post_init__(self):
        if self.coupling_eff < 0:
            raise ConfigError("coupling_eff must be >= 0")
        if not self.cutoff > 0:
            raise ConfigError("cutoff must be positive")
        if self.cutoff_shape not in CUTOFF_SHAPES:
            raise ConfigError(f"cutoff_shape must be one of {CUTOFF_SHAPES}")
        if self.bath_temperature < 0:
            raise ConfigError("bath_temperature must be >= 0")

    def with_temperature(self, t0: float) -> "EnvironmentSpec":
        return replace(self, bath_temperature=t0)

    def beta(self, k_boltzmann: float = 1.0) -> float:
        """Inverse temperature 1/(k_B T0); +inf at T0 = 0."""
        if self.bath_temperature == 0.0:
            return math.inf
        return 1.0 / (k_boltzmann * self.bath_temperature)


def cutoff_factor(nu, spec: EnvironmentSpec):
    nu = np.asarray(nu, dtype=float)
    if spec.cutoff_shape == "exponential":
        out = np.exp(-nu / spec.cutoff)
    else:
        out = 1.0 / (1.0 + (nu / spec.cutoff) ** 2)
    return out if out.ndim else float(out)


def spectral_density(nu, spec: EnvironmentSpec):
    """J(nu) = coupling_eff^2 * nu * f(nu), zero at nu = 0 for both shapes."""
    nu_arr = np.asarray(nu, dtype=float)
    if np.any(nu_arr < 0):
        raise ValueError("spectral_density defined for nu >= 0")
    out = spec.coupling_eff ** 2 * nu_arr * cutoff_factor(nu_arr, spec)
    return out if out.ndim else float(out)


def _coth_half(x: float) -> float:
    # coth(x/2), with the 2/x pole handled by the caller via limits
    return 1.0 / math.tanh(0.5 * x)


def _thermal_weight(nu: float, beta_hbar: float) -> float:
    """nu * coth(beta*hbar*nu/2) with its finite nu -> 0 limit."""
    if math.isinf(beta_hbar):
        return nu
    x = beta_hbar * nu
    if x < 1e-8:
        return 2.0 / beta_hbar + nu * x / 6.0
    return nu * _coth_half(x)


def noise_kernel(lag: float, spec: EnvironmentSpec, hbar: float = 1.0,
                 k_boltzmann: float = 1.0, tol: float = 1e-12) -> float:
    """N(lag) = 1/2 int_0^inf J(nu) coth(beta hbar nu / 2) cos(nu lag) dnu.

    Even in the lag.  For the Lorentzian cutoff the zero-lag value is
    logarithmically divergent and refused.
    """
    beta_hbar = spec.beta(k_boltzmann) * hbar
    gamma2 = spec.coupling_eff ** 2

    def smooth(nu):
        return gamma2 * _thermal_weight(nu, beta_hbar) * cutoff_factor(nu, spec)

    lag = abs(lag)
    if lag == 0.0:
        if spec.cutoff_shape == "lorentzian":
            raise QuadratureError(
                "noise kernel at zero lag diverges logarithmically for the "
                "Lorentzian cutoff; use the exponential shape")
        res = integrate_adaptive(smooth, 0.0, np.inf, tol=tol, rel_tol=1e-10)
        return 0.5 * res.value
    res = fourier_integral(smooth, 0.0, lag, kind="cos", tol=tol)
    return 0.5 * res.value


def dissipation_kernel(lag: float, spec: EnvironmentSpec, tol: float = 1e-12) -> float:
    """D(lag) = int_0^inf J(nu) sin(nu lag) dnu for lag > 0, else 0 (causal)."""
    if lag <= 0.0:
        return 0.0
    f = lambda nu: spectral_density(nu, spec)
    res = fourier_integral(f, 0.0, lag, kind="sin", tol=tol)
    return res.value


def effective_coupling(gamma: float, config, derived) -> float:
    """Map the force-noise fraction gamma onto the bath coupling.

    coupling_eff = gamma * sqrt(2 rho / hbar) * (v_max - v_min), the closure
    that identifies the cutoff time with the collapse time.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return gamma * math.sqrt(2.0 * derived.rho / config.hbar) * derived.delta_v
