"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, data
problems exit 2, numerical failures exit 3.
"""


class ConfigError(ValueError):
    """Invalid parameter value or combination."""


class DataError(ValueError):
    """Problem with an input event stream."""


class ParseError(DataError):
    """Malformed row in an input file.  Carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SchemaError(DataError):
    """Rows disagree about column count or feature arity."""


class EmptyInputError(DataError):
    """Input file contains no events."""


class InsufficientDataError(DataError):
    """Too few events to carve out train/val/test portions."""


class EmptyMaskError(DataError):
    """Inductive node selection produced an empty mask."""


class OrderingError(DataError):
    """Events presented out of timestamp order."""


class CheckpointError(ValueError):
    """Checkpoint file that is unreadable or of an unsupported version."""


class NumericalError(RuntimeError):
    """Non-finite values encountered during optimization."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given label configuration."""
