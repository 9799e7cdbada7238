"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
numeric failures (QuadratureError and friends) -> 3, RegimeError -> 4
(RegionError too: a point outside a formula's region, or a ring with no
sonic horizon, is a regime violation).
Nothing warns: each limit ends in one refusal, raised where it is owned.
"""


class SonicBHError(Exception):
    """Base class for package errors."""


class ConfigError(SonicBHError):
    """Malformed configuration document or violated parameter invariant."""


class RegimeError(SonicBHError):
    """Request outside the validity regime of a formula (refused, not extrapolated)."""


class RegionError(RegimeError):
    """Point lies outside the spatial region a closed form is valid in."""


class QuadratureError(SonicBHError):
    """Numerical integration did not converge.  Carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ExtrapolationError(QuadratureError):
    """A thermal k integral's Bose part cancels its vacuum part below accuracy."""
