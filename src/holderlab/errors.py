"""Exception hierarchy shared by every holderlab module."""


class HolderLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HolderLabError):
    """Malformed or inconsistent experiment configuration."""


# --- kernel evaluation -------------------------------------------------

class AliasingViolation(HolderLabError):
    """Frequency lattice too coarse: the symbol has not decayed below the
    truncation floor at the largest resolved frequency."""


# --- quadrature of kernel conditions ----------------------------------

class QuadratureNotConverged(HolderLabError):
    """Two-level mesh refinement disagrees beyond the accepted threshold."""


class MomentDivergence(HolderLabError):
    """The |z|^beta moment of a heavy-tailed kernel diverges (beta >= alpha)."""


class NonPositiveData(HolderLabError):
    """Log-log fit received a non-positive scale or value."""


class InsufficientPoints(HolderLabError):
    """Fewer points than the regression minimum."""


# --- convolution / ensembles -------------------------------------------

class GridMismatch(HolderLabError):
    """Space or time lattices of the inputs are incompatible."""


# --- moments ------------------------------------------------------------

class PairOffGrid(HolderLabError):
    """A sampled point pair does not lie on the ensemble lattice."""


class EnsembleTooSmall(HolderLabError):
    """Monte Carlo ensemble below the minimum size for moment estimates."""


class MomentOverflow(HolderLabError):
    """A moment estimate or its standard error is not finite: the field values or their
    p-th powers overflowed."""


class EmptyRequest(HolderLabError):
    """Zero pairs (or points) requested."""


class EmptyCylinder(HolderLabError):
    """A sampling cylinder contains fewer than two lattice points."""


# --- campanato geometry --------------------------------------------------

class DimensionMismatch(HolderLabError):
    """Space-time points with different spatial dimensions."""


class SamplingBudgetTooSmall(HolderLabError):
    """Fewer than the minimum sample points per cylinder."""


class ThetaOutOfEmbeddingRange(HolderLabError):
    """Campanato exponent outside (1, 1 + p/(d+2)]: no Holder embedding."""
