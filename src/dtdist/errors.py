"""Exception hierarchy.

The CLI maps these onto process exit codes through one table,
dtdist.cli._EXIT_CODES: ConfigError -> 2, the oracle and budget errors
(OracleModeError, ZeroWeightSubcubeError, RejectionCapExceededError,
BudgetExceededError) -> 3, any other error -> 1.
"""


class DtdistError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DtdistError):
    """Operands defined over different numbers of coordinates."""


class InvalidTreeError(DtdistError):
    """Tree violates a structural invariant (repeated split variable on a
    path, negative leaf density, or normalization off by more than 1e-9)."""


class InvalidPmfError(DtdistError):
    """Dense table is not a probability mass function within tolerance."""


class OracleModeError(DtdistError):
    """A query was issued that the oracle's access mode does not grant."""


class ZeroWeightSubcubeError(DtdistError):
    """Conditioning on a subcube of zero probability mass."""


class RejectionCapExceededError(DtdistError):
    """Rejection filtering could not collect the required conditioned
    samples within the per-point attempt cap."""


class BudgetExceededError(DtdistError):
    """A recursion, enumeration, or sample budget guard tripped."""


class DegenerateEstimateError(DtdistError):
    """Estimated quantities are unusable (e.g. all leaf masses zero, so the
    tree cannot be normalized)."""


class ConfigError(DtdistError):
    """Invalid run configuration."""
