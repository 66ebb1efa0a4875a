"""Exception hierarchy shared across the package.

Every failure raised on a user-facing path derives from ``MultiDidError``,
and each class carries the stable exit code the command line returns for it
(``exit_code``, listed in ``multidid --help``): 3 invalid input, 4 undefined
coefficient, 5 violated design, 6 nothing estimable at the horizon, 7 every
bootstrap replication degenerate, 1 anything else.
"""

from __future__ import annotations


class MultiDidError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


# panel construction and validation

class UnbalancedPanel(MultiDidError):
    """Some (group, period) pair is missing from the grid."""
    exit_code = 3


class DuplicateCell(MultiDidError):
    """More than one row was supplied for the same (group, period)."""
    exit_code = 3


class NonBinaryTreatment(MultiDidError):
    """A treatment value is outside {0, 1} where binary values are required."""
    exit_code = 3


class NonPositiveWeight(MultiDidError):
    """A cell size is zero or negative."""
    exit_code = 3


class NonFiniteValue(MultiDidError):
    """An outcome, cell size, treatment value or label is NaN or infinite."""
    exit_code = 3


class InsufficientVariation(MultiDidError):
    """Fewer than two groups or two periods."""
    exit_code = 3


class NonSharpDesign(MultiDidError):
    """Observations within one cell disagree on a treatment value."""
    exit_code = 3


class MissingColumn(MultiDidError):
    """A required column is absent from the input file."""
    exit_code = 3


class InvalidEncoding(MultiDidError):
    """The input file holds a byte that is not UTF-8."""
    exit_code = 3


class MalformedInput(MultiDidError, ValueError):
    """A row cannot be read as a panel: a value that is not a number, a row
    short of a used column, labels of mixed types, a used column named twice in
    the header, or a field past ``csv.field_size_limit()``. A ValueError too, as
    these were before they had a class of their own."""
    exit_code = 3


# regression and decomposition

class CollinearTreatments(MultiDidError):
    """The regression design is rank deficient, the coefficient is undefined."""
    exit_code = 4


class DegenerateDenominator(MultiDidError):
    """The partialled treatment has (numerically) zero weighted covariance."""
    exit_code = 4


class NumericallySingular(MultiDidError):
    """LAPACK refused to factor or solve the regression's normal equations, as
    when one period holds almost none of the weight."""
    exit_code = 4


# staggered-design estimators

class NotStaggered(MultiDidError):
    """A treatment switches off, adoption dates are not well defined."""
    exit_code = 5


class WrongOrder(MultiDidError):
    """Some group adopts the second treatment before the first."""
    exit_code = 5


class PathologicalDesign(MultiDidError):
    """No cohort contains groups adopting the second treatment at different dates."""
    exit_code = 5


class HorizonOutOfRange(MultiDidError):
    """Requested event-time horizon is not estimable on this design."""
    exit_code = 6


class InsufficientPrePeriods(MultiDidError):
    """Not enough pre-adoption periods for the requested contrast."""
    exit_code = 6

    def __init__(self, message: str, feasible_horizons: tuple = (), dropped: tuple = ()):
        super().__init__(message)
        self.feasible_horizons = tuple(feasible_horizons)
        self.dropped = tuple(dropped)


class NoControls(MultiDidError):
    """No not-yet-treated group is available as a comparison at any usable date."""
    exit_code = 6


# simulation and bootstrap

class InvalidSpec(MultiDidError):
    """Simulation specification is internally inconsistent."""
    exit_code = 3


class MissingPotentialOutcomes(MultiDidError):
    """The synthetic panel does not store the potential outcomes required."""


class AllReplicationsDegenerate(MultiDidError):
    """Every bootstrap replication produced an undefined estimate."""
    exit_code = 7
