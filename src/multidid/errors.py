"""Exception hierarchy shared across the package.

Every failure raised on a user-facing path derives from ``MultiDidError`` so
the command-line layer can map each class of failure to a stable exit code.
"""

from __future__ import annotations


class MultiDidError(Exception):
    """Base class for all package-specific errors."""


# panel construction and validation

class UnbalancedPanel(MultiDidError):
    """Some (group, period) pair is missing from the grid."""


class DuplicateCell(MultiDidError):
    """More than one row was supplied for the same (group, period)."""


class NonBinaryTreatment(MultiDidError):
    """A treatment value is outside {0, 1} where binary values are required."""


class NonPositiveWeight(MultiDidError):
    """A cell size is zero or negative."""


class NonFiniteValue(MultiDidError):
    """An outcome, cell size, treatment value or label is NaN or infinite."""


class InsufficientVariation(MultiDidError):
    """Fewer than two groups or two periods."""


class NonSharpDesign(MultiDidError):
    """Observations within one cell disagree on a treatment value."""


class MissingColumn(MultiDidError):
    """A required column is absent from the input file."""


# regression and decomposition

class CollinearTreatments(MultiDidError):
    """The regression design is rank deficient, the coefficient is undefined."""


class DegenerateDenominator(MultiDidError):
    """The partialled treatment has (numerically) zero weighted covariance."""


# staggered-design estimators

class NotStaggered(MultiDidError):
    """A treatment switches off, adoption dates are not well defined."""


class WrongOrder(MultiDidError):
    """Some group adopts the second treatment before the first."""


class PathologicalDesign(MultiDidError):
    """No cohort contains groups adopting the second treatment at different dates."""


class HorizonOutOfRange(MultiDidError):
    """Requested event-time horizon is not estimable on this design."""


class InsufficientPrePeriods(MultiDidError):
    """Not enough pre-adoption periods for the requested contrast."""

    def __init__(self, message: str, feasible_horizons: tuple = (), dropped: tuple = ()):
        super().__init__(message)
        self.feasible_horizons = tuple(feasible_horizons)
        self.dropped = tuple(dropped)


class NoControls(MultiDidError):
    """No not-yet-treated group is available as a comparison at any usable date."""


# simulation and bootstrap

class InvalidSpec(MultiDidError):
    """Simulation specification is internally inconsistent."""


class MissingPotentialOutcomes(MultiDidError):
    """The synthetic panel does not store the potential outcomes required."""


class AllReplicationsDegenerate(MultiDidError):
    """Every bootstrap replication produced an undefined estimate."""
