"""Exception types shared across the toolkit.

All of these derive from ValueError so callers can catch broadly, but the
CLI maps them to distinct exit codes (config/usage -> 2, format/IO -> 3).
"""


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class ConfigError(ValueError):
    """A configuration value violates its documented precondition."""


class DataError(ValueError):
    """Input data is structurally valid but semantically unusable; ``row`` indexes a bad table row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NumericError(ValueError):
    """An input contains non-finite values where finite ones are required."""


class UsageError(ValueError):
    """An API was called in an unsupported way (e.g. backward on a non-scalar)."""


class FormatError(ValueError):
    """A serialized file is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
