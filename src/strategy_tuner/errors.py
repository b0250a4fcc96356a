"""Exception types: every error a command reports is a ``TunerError``, and a subclass
exists only where some handler tells it apart from the rest, which its docstring names."""

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
    """Base class for every error raised by this package: the command line exits 2 on one."""


class LatticeMismatchError(TunerError):
    """Binary lattice operation applied to incompatible operands.

    Raised on variant or width mismatches. This always signals a
    programming bug in the caller, never bad user data, so the command
    line lets it through with its traceback.
    """


class ConfigParseError(TunerError):
    """Malformed text or file: the trace and run file readers catch one to name what it was in."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        at = "" if column is None else f", column {column}"
        super().__init__(message if line is None else f"line {line}{at}: {message}")


class InvalidSettingsError(TunerError):
    """Tuner settings fail validation before any analysis starts.

    ``field`` names the rejected setting when there is one: a run config
    names that setting's line from it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class AnalyzerUnavailableError(TunerError):
    """The analyzer a run needs cannot be started: the command line exits 3 on one."""
