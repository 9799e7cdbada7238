"""Ohmic bath: the cutoff shape and the coupling conversion.

The spectral density is J(nu) = coupling_eff^2 * nu * f(nu) with the
Lorentzian cutoff f; the diffusion coefficient integrates it against the
mode oscillation (``decoherence``).  Kernels are local in space: the
spatial delta is implicit and never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

CUTOFF_SHAPES = ("lorentzian",)


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


def cutoff_factor(nu: float, spec: EnvironmentSpec) -> float:
    """f(nu) = 1/(1 + (nu/cutoff)^2)."""
    return 1.0 / (1.0 + (nu / spec.cutoff) ** 2)


def effective_coupling(gamma: float, config, derived) -> float:
    """Map the force-noise fraction gamma onto the bath coupling.

    coupling_eff = gamma * sqrt(2 rho / hbar) * (v_max - v_min), the closure
    that identifies the cutoff time with the collapse time.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return gamma * math.sqrt(2.0 * derived.rho / config.hbar) * derived.delta_v
