"""Exception hierarchy shared across the package.

Every failure the library raises deliberately derives from SurvrakeError so
callers can catch one type at the boundary. Subclasses distinguish input
problems (bad data, bad configuration) from numerical failures during
estimation; the command-line driver maps the two groups to different exit
codes.
"""

from __future__ import annotations


class SurvrakeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SurvrakeError):
    """A dataset, configuration, or argument failed validation."""


class NonFiniteInputError(InputError):
    """An input array contains NaN or infinity where finite values are required."""


class ParseError(InputError):
    """A data file could not be parsed.

    Attributes:
        row: 1-based data row number (excluding the header), when known.
        column: column name, when known.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        if row is not None or column is not None:
            where = ", ".join(
                part
                for part in (
                    f"row {row}" if row is not None else None,
                    f"column {column!r}" if column is not None else None,
                )
                if part
            )
            message = f"{message} ({where})"
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyDatasetError(InputError):
    """A data file contained a header but no records."""


class InvalidConfigError(InputError):
    """A configuration object or file is internally inconsistent."""


class InvalidPlanError(InputError):
    """A sampling plan is incompatible with the cohort it is applied to."""


class DimensionMismatchError(InputError):
    """Fitted model dimensions do not match the cohort they are applied to."""


class EmptyValidationError(InputError):
    """An operation requiring validated records found none selected."""


class EstimationError(SurvrakeError):
    """A numerical procedure failed to produce a usable estimate."""


class NoEventsError(EstimationError):
    """A proportional-hazards fit was requested on data with zero events."""


class SingularInformationError(EstimationError):
    """The information matrix is singular or numerically indefinite."""


class ConvergenceError(EstimationError):
    """An iterative solver exhausted its iteration budget."""


class RankDeficientDesignError(EstimationError):
    """A regression design matrix does not have full column rank."""


class SingularCalibrationError(EstimationError):
    """The raking system matrix built from the auxiliary totals is singular."""


class DegenerateAuxiliaryError(EstimationError):
    """An auxiliary column is constant at zero or otherwise uninformative."""


class BootstrapFailureError(EstimationError):
    """Too many bootstrap replicates failed to produce estimates."""


class AllReplicatesFailedError(BootstrapFailureError):
    """Every bootstrap replicate failed."""


class NotBracketedError(EstimationError):
    """A root-finding target is outside the achievable range.

    Attributes:
        achievable: (low, high) bounds of the attainable quantity, when known.
    """

    def __init__(self, message: str, achievable: tuple[float, float] | None = None):
        if achievable is not None:
            message = f"{message} (achievable range: {achievable[0]:.4f} to {achievable[1]:.4f})"
        super().__init__(message)
        self.achievable = achievable
