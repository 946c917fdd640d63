"""Exception types shared across the package, and the number checks that raise one."""


class CodonLabError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2  # the CLI's exit status for this error


class InvalidParamsError(CodonLabError, ValueError):
    """An argument lies outside the documented domain."""


class UnknownLetterError(InvalidParamsError):
    """A word contains a letter that is not part of the expected alphabet."""


class CapacityExceededError(CodonLabError):
    """An enumeration or simulation would exceed the configured cap."""

    exit_code = 3


class TableFormatError(CodonLabError, ValueError):
    """A translation-table file violates the expected format.

    `line` and `column` are 1-based positions when they are known; `column`
    points into the raw line, not into the field value.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def as_int(value, name: str, minimum: int | None = None) -> int:
    """`value` if it is an int, not a bool, and at least `minimum` (unless None)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParamsError(f"{name} must be >= {minimum}, got {value}")
    return value


def as_float(value, name: str) -> float:
    """`value` as a float by arithmetic, not float(), so a string, or a bool, is refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return value + 0.0
    except TypeError:
        raise InvalidParamsError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise InvalidParamsError(f"{name} is too large for a float") from None
