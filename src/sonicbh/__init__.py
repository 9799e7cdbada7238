"""Open-system observables of a collapsing sonic horizon.

Decoherence times of the ring flow under an ohmic bath, characteristic-curve
solutions of the channel-flow wave equation, horizon-pair momentum
correlations, and a Monte-Carlo cross-check of those correlations.
"""

__version__ = "0.1.0"

from .environment import EnvironmentSpec, effective_coupling
from .errors import (ConfigError, QuadratureError, RegimeError, RegimeWarning,
                     RegionError, SonicBHError)
from .params import (DerivedParams, PhysicalConfig, default_config, derive,
                     load_config)
from .profiles import (LineProfile, RingProfile, hawking_temperature_line,
                       hawking_temperature_ring, sigma_accumulated)

__all__ = [
    "ConfigError", "DerivedParams", "EnvironmentSpec", "LineProfile",
    "PhysicalConfig", "QuadratureError", "RegimeError", "RegimeWarning",
    "RegionError", "RingProfile", "SonicBHError", "default_config", "derive",
    "effective_coupling", "hawking_temperature_line", "hawking_temperature_ring",
    "load_config", "sigma_accumulated", "__version__",
]
