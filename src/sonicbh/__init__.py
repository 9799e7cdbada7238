"""Open-system observables of a collapsing sonic horizon.

Decoherence times of the ring flow under an ohmic bath, characteristic-curve
solutions of the channel-flow wave equation, horizon-pair momentum
correlations, and a Monte-Carlo cross-check of those correlations.
"""

__version__ = "0.1.0"
