"""Ohmic bath: the cutoff shape and the coupling conversion.

The spectral density is J(nu) = coupling_eff^2 * nu * f(nu) with the
Lorentzian cutoff f; the diffusion coefficient integrates it against the
mode oscillation (``decoherence``).  Kernels are local in space: the
spatial delta is implicit and never materialized.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class EnvironmentSpec(NamedTuple):
    """The bath.  Its config keys are checked in ``params.read_config``, and
    coupling_eff = gamma times a positive factor is >= 0 with gamma.  The
    cutoff is Lorentzian, the one shape the ``cutoff_shape`` key accepts."""

    coupling_eff: float                 # dimensionless effective coupling
    cutoff: float                       # frequency scale of f(nu)
    bath_temperature: float = 0.0


def cutoff_factor(nu: float, spec: EnvironmentSpec) -> float:
    """f(nu) = 1/(1 + (nu/cutoff)^2)."""
    return 1.0 / (1.0 + (nu / spec.cutoff) ** 2)


def effective_coupling(gamma: float, config, derived) -> float:
    """Map the force-noise fraction gamma onto the bath coupling.

    coupling_eff = gamma * sqrt(2 rho / hbar) * (v_max - v_min), the closure
    that identifies the cutoff time with the collapse time; gamma >= 0 is
    checked where the config is read.
    """
    return gamma * math.sqrt(2.0 * derived.rho / config.hbar) * derived.delta_v
