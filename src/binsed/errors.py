"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes: input format 2, model corrupt 3,
shape mismatch 4, memory budget exceeded (strict mode) 5, and any other
package error, such as a tile worker that died, 1.
"""


class BinsedError(Exception):
    """Base class for all package errors."""


class InputFormatError(BinsedError):
    """Malformed or unsupported input data (WAV, feature file, float model)."""


class ShapeMismatchError(BinsedError):
    """Tensor shape does not match what the network expects."""


class ModelFormatError(BinsedError):
    """Serialized model is corrupt or incompatible."""


class BadMagicError(ModelFormatError):
    pass


class VersionError(ModelFormatError):
    pass


class CrcError(ModelFormatError):
    pass


class TruncatedError(ModelFormatError):
    pass


class TrailingDataError(ModelFormatError):
    pass


class BudgetExceededError(BinsedError):
    """Memory footprint exceeds the configured budget (strict mode only)."""


class WorkerError(BinsedError):
    """A tile worker process died during a run; the next run forks a new one."""
