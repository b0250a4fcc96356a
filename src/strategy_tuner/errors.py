"""Exception types shared across the package."""

from __future__ import annotations

import reprlib


class _Shown(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            repr(x)
        except ValueError:  # more digits than int's text allows
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


#: ``reprlib.repr``, abbreviating a value from outside for an error's text,
#: but showing an int too long for ``repr`` by its bit length.
shown = _Shown().repr


class TunerError(Exception):
    """Base class for every error raised by this package."""


class LatticeMismatchError(TunerError):
    """Binary lattice operation applied to incompatible operands.

    Raised on variant or width mismatches. This always signals a
    programming bug in the caller, never bad user data, so the command
    line lets it through with its traceback.
    """


class ConfigParseError(TunerError):
    """Malformed configuration, catalog, or profile text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class InvalidSettingsError(TunerError):
    """Tuner settings fail validation before any analysis starts.

    ``field`` names the rejected setting when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class RenderError(TunerError):
    """A configuration cannot be rendered to analyzer arguments."""


class ProfileError(TunerError):
    """A synthetic analyzer profile violates an operation's precondition."""


class AnalyzerUnavailableError(TunerError):
    """The analyzer a run needs cannot be started (the command exits 3)."""


class BaselinesDoNotSeparateError(TunerError):
    """Dominancy baselines emit the same alarm count (d <= 0)."""
