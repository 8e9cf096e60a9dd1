"""Exception taxonomy shared by every module.

The CLI maps these onto process exit codes; library callers can catch the
narrow class they care about.
"""


class KgcmError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KgcmError):
    """Array dimensions do not match an operation's contract."""


class ContractError(KgcmError):
    """An operation was called outside its stated preconditions."""


class NumericError(KgcmError):
    """A NaN or infinity appeared where finite values are required."""


class TrainingError(KgcmError):
    """Optimization produced a non-finite loss or gradient."""


class ConfigError(KgcmError):
    """A configuration file or value is invalid."""


class FormatError(KgcmError):
    """A serialized file (model, embeddings) is malformed."""


class DataError(KgcmError):
    """A dataset file or record violates the data schema."""


class MetricError(KgcmError):
    """A metric was requested on an empty or invalid input."""


class HelperError(KgcmError):
    """A forked helper process ended before it sent its results."""
