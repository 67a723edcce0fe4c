"""Exception hierarchy shared by all scheduling and verification modules."""


class CcschedError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ParameterError(CcschedError):
    """Rejected parameters: non-integer gains, bad divisibility, empty sets."""

    exit_code = 2


class MalformedTableError(CcschedError):
    """A schedule refers to users or groups outside its declared universe."""

    exit_code = 2


class InfeasibleMError(ParameterError):
    """Requested per-column addition count violates the receive-antenna bound."""


class NoDonorError(ParameterError):
    """Donor mapping needs at least two baseline columns."""


class ConstructionError(CcschedError):
    """A combinatorial construction (greedy selection, assembly) ran out of moves.

    ``structural`` marks a failure that the baseline table and the addition
    count fix alone: no plan scaling avoids it.
    """

    exit_code = 3

    def __init__(self, message: str, structural: bool = False) -> None:
        super().__init__(message)
        self.structural = structural


class SearchFailureError(ConstructionError):
    """No integral replication plan found below the search cap."""


class AssemblyError(ConstructionError):
    """Assembled column failed the symbolic decodability conditions."""


class VerificationError(CcschedError):
    """Numeric verification found a violated invariant."""

    exit_code = 4


class NullityDeficientError(VerificationError):
    """Computed nullspace is too small for the requested number of streams."""
