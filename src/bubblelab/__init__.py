"""Numerical laboratory for boundary bubbles on the half-space.

Verifies, at desk scale, the explicit objects behind a boundary blow-up
construction: the bubble family and its Jacobi fields, separable
half-space moments, the curvature forcing and its corrector, and the
reduced energy whose maximization locates the concentration point.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BubbleLabError,
    ConfigError,
    DecompositionError,
    DomainError,
    HypothesisFailure,
    InvalidFrame,
    NonConvergence,
    SingularSystem,
)
