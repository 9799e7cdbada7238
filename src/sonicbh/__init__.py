"""Open-system observables of a collapsing sonic horizon.

Decoherence times of the ring flow under an ohmic bath, characteristic-curve
solutions of the channel-flow wave equation, horizon-pair momentum
correlations, and a Monte-Carlo cross-check of those correlations.
"""

__version__ = "0.1.0"

from .environment import EnvironmentSpec, effective_coupling
from .errors import ConfigError, QuadratureError, RegimeError, RegionError, SonicBHError
from .params import (DerivedParams, PhysicalConfig, default_config, derive,
                     load_config)

__all__ = [
    "ConfigError", "DerivedParams", "EnvironmentSpec", "PhysicalConfig",
    "QuadratureError", "RegimeError", "RegionError",
    "SonicBHError", "default_config", "derive", "effective_coupling",
    "load_config", "__version__",
]
