"""Exception hierarchy shared across the package.

Everything derives from :class:`BubbleLabError` so callers can catch one
type at the CLI boundary and map it to an exit code.
"""


class BubbleLabError(RuntimeError):
    """Base class for all package-specific failures."""


class NonConvergence(BubbleLabError):
    """A quadrature or linear solve stalled above its error target."""


class DomainError(BubbleLabError):
    """Parameters outside the convergence/validity region of a formula."""


class InvalidFrame(BubbleLabError):
    """Curvature data violates the gauge trace conditions beyond tolerance."""


class DecompositionError(BubbleLabError):
    """Angular decomposition failed to reconstruct its input."""


class SingularSystem(BubbleLabError):
    """Deflated linear system is still numerically singular."""


class HypothesisFailure(BubbleLabError):
    """A structural hypothesis (sign or definiteness) fails on the data."""


class ConfigError(BubbleLabError):
    """Run configuration is unusable (bad file, bad value, missing gate)."""
