"""Ohmic bath: spectral density, time-domain kernels, coupling conversion.

The spectral density is J(nu) = coupling_eff^2 * nu * f(nu) with an
exponential or Lorentzian cutoff f.  Kernels are local in space; the spatial
delta is implicit and never materialized -- these functions return the
time-dependent coefficient only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError
from .specfun import fourier_integral, integrate_adaptive, thermal_weight

CUTOFF_SHAPES = ("exponential", "lorentzian")

# Absolute tolerance of the kernel quadratures.
_KERNEL_TOL = 1e-12


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

    def beta(self) -> float:
        """Inverse temperature 1/T0 (k_B = 1); +inf at T0 = 0."""
        if self.bath_temperature == 0.0:
            return math.inf
        return 1.0 / self.bath_temperature


def cutoff_factor(nu: float, spec: EnvironmentSpec) -> float:
    """f(nu) = e^{-nu/cutoff} (exponential) or 1/(1 + (nu/cutoff)^2)."""
    if spec.cutoff_shape == "exponential":
        return math.exp(-nu / spec.cutoff)
    return 1.0 / (1.0 + (nu / spec.cutoff) ** 2)


def spectral_density(nu: float, spec: EnvironmentSpec) -> float:
    """J(nu) = coupling_eff^2 * nu * f(nu), zero at nu = 0 for both shapes."""
    if nu < 0:
        raise ValueError("spectral_density defined for nu >= 0")
    return spec.coupling_eff ** 2 * nu * cutoff_factor(nu, spec)


def noise_kernel(lag: float, spec: EnvironmentSpec) -> float:
    """N(lag) = 1/2 int_0^inf J(nu) coth(beta nu / 2) cos(nu lag) dnu (hbar = 1).

    Even in the lag.  For the Lorentzian cutoff the zero-lag value is
    logarithmically divergent and refused.
    """
    beta = spec.beta()
    gamma2 = spec.coupling_eff ** 2

    def smooth(nu):
        return gamma2 * thermal_weight(nu, beta) * cutoff_factor(nu, spec)

    lag = abs(lag)
    if lag == 0.0:
        if spec.cutoff_shape == "lorentzian":
            raise QuadratureError(
                "noise kernel at zero lag diverges logarithmically for the "
                "Lorentzian cutoff; use the exponential shape")
        res = integrate_adaptive(smooth, 0.0, np.inf, tol=_KERNEL_TOL, rel_tol=1e-10)
        return 0.5 * res.value
    res = fourier_integral(smooth, 0.0, lag, kind="cos", tol=_KERNEL_TOL)
    return 0.5 * res.value


def dissipation_kernel(lag: float, spec: EnvironmentSpec) -> float:
    """D(lag) = int_0^inf J(nu) sin(nu lag) dnu for lag > 0, else 0 (causal)."""
    if lag <= 0.0:
        return 0.0
    f = lambda nu: spectral_density(nu, spec)
    res = fourier_integral(f, 0.0, lag, kind="sin", tol=_KERNEL_TOL)
    return res.value


def effective_coupling(gamma: float, config, derived) -> float:
    """Map the force-noise fraction gamma onto the bath coupling.

    coupling_eff = gamma * sqrt(2 rho / hbar) * (v_max - v_min), the closure
    that identifies the cutoff time with the collapse time.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return gamma * math.sqrt(2.0 * derived.rho / config.hbar) * derived.delta_v
