"""Exception hierarchy shared by all wkernel modules."""


class WkernelError(Exception):
    """Base class for all wkernel errors."""


class InvalidInput(WkernelError, ValueError):
    """Malformed or inconsistent input (shape mismatch, NaN, bad range), an
    operation the given model does not offer, or bad command-line usage (a
    bad option value or combination).  Exit code 2."""


class RankOutOfRange(InvalidInput):
    """A requested number of leading directions is below 1 or above the
    retained rank, which ``retained`` holds."""

    def __init__(self, rank, retained):
        super().__init__(f"rank {rank} is outside 1 to the retained rank {retained}")
        self.rank = rank
        self.retained = retained


class NumericalFailure(WkernelError):
    """A numerical routine failed: no convergence, or a matrix that must be
    positive (semi)definite is not.  Exit code 4."""


class ParseError(WkernelError):
    """A data file could not be parsed; carries row/column location.  Exit
    code 3."""

    def __init__(self, message, path=None, row=None, col=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if row is not None:
            loc.append(f"row {row}")
        if col is not None:
            loc.append(f"col {col}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.path = path
        self.row = row
        self.col = col


class ConvergenceWarning(UserWarning):
    """Non-fatal warning: a sampler finished in a suspicious state."""
