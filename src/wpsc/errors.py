"""Exception hierarchy. The CLI maps these onto exit codes
(config -> 2, data -> 3, convergence -> 4)."""


class Error(Exception):
    """Base class for all package errors."""


class ConfigError(Error):
    """Invalid or mutually inconsistent user configuration."""


class ParameterError(ConfigError):
    """An operation received an out-of-contract argument."""


class NoGridError(ConfigError):
    """N admits no factorization N = A*Q with 2 <= A <= Q."""


class InfeasibleSpecError(ConfigError):
    """Synthetic-data spec cannot be realized (e.g. C*d > D)."""


class DataError(Error):
    """Input data violates a loader or operation precondition."""


class FormatError(DataError):
    """File does not match the declared binary format."""


class ConsistencyError(DataError):
    """Internally inconsistent input (counts or dimensions disagree)."""


class LabelingError(DataError):
    """A file name or label vector cannot be mapped to class ids."""


class EmptyInputError(DataError):
    """No usable input found."""


class DegenerateColumnError(DataError):
    """A data column is identically zero and cannot be normalized.

    ``columns`` holds the indices of up to eight zero columns.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = list(columns)


class DegenerateDataError(DataError):
    """Data degeneracy makes a solver ill-posed (e.g. mutually orthogonal columns)."""


class SplitError(DataError):
    """A stratified split would leave a cluster empty."""


class SizeError(DataError):
    """Image too small for the requested filter support."""


class ConvergenceError(Error):
    """Iterative solver failed to reach its tolerance.

    Carries the final residuals so callers can report them.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals) if residuals else {}
