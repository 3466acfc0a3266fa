"""Exception hierarchy and the integer check shared by all ldslab modules.

The CLI maps these onto process exit codes: usage problems exit 2,
:class:`DataError` (and subclasses) exit 3, :class:`NumericalError`
(and subclasses) exit 4.
"""
import operator


class LdsLabError(Exception):
    """Base class for all errors raised by this package."""


class DataError(LdsLabError):
    """Invalid or inconsistent input data (bad shapes, short trajectories, ...)."""


class DimensionError(DataError):
    """Matrix dimensions are mutually inconsistent.

    Carries the name of the offending matrix in ``matrix``.
    """

    def __init__(self, matrix: str, message: str):
        super().__init__(f"{matrix}: {message}")
        self.matrix = matrix


class NumericalError(LdsLabError):
    """A numerical procedure failed (singular system, non-PSD covariance, ...)."""


class EigenPairingError(NumericalError):
    """No consistent reciprocal pairing of eigenvalues was found.

    ``left`` and ``right`` hold the eigenvalue lists of the two
    simultaneously diagonalized matrices; ``unmatched`` the residuals
    of the best available pairing.
    """

    def __init__(self, message, left, right, unmatched):
        super().__init__(message)
        self.left = list(left)
        self.right = list(right)
        self.unmatched = list(unmatched)


def require_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (no upper bound if ``high`` is None);
    otherwise a DataError naming ``name``, the range and the value given."""
    try:
        checked = operator.index(value)
    except TypeError:
        checked = None
    if checked is None or checked < low or (high is not None and checked > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DataError(f"{name} must be an integer {bounds}, got {value!r}")
    return checked


class RankDeficiencyWarning(UserWarning):
    """Requested model order exceeds the numerical rank of the data."""
