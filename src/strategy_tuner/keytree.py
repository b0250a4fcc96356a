"""Line-oriented "key = value" text format.

One grammar serves every file the tool reads or writes: configuration
files, catalog overrides, synthetic profiles, and the run config. Keys
are dotted paths; values are raw strings ending at end of line. Lines
whose first non-blank character is '#' are comments. Duplicate keys are
rejected.
"""

from __future__ import annotations

from .errors import ConfigParseError


class KeyTree:
    """Parsed key/value pairs with their source line numbers."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, int]] = {}

    def keys(self) -> list[str]:
        return list(self._entries)

    def get(self, key: str, default: str | None = None) -> str | None:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else default

    def line_of(self, key: str) -> int:
        return self._entries[key][1]

    def _insert(self, key: str, value: str, line: int) -> None:
        if key in self._entries:
            raise ConfigParseError(
                f"duplicate key {key!r} (first defined on line {self._entries[key][1]})",
                line=line,
            )
        self._entries[key] = (value, line)


def parse_keytree(text: str) -> KeyTree:
    tree = KeyTree()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", line=lineno, column=1)
        key, _, value = raw.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError("empty key before '='", line=lineno, column=1)
        if any(c.isspace() for c in key):
            raise ConfigParseError(f"key {key!r} must not contain spaces", line=lineno, column=1)
        tree._insert(key, value.strip(), lineno)
    return tree


def value_column(raw_line: str) -> int:
    """1-based column where the value of a 'key = value' line starts."""
    head, sep, tail = raw_line.partition("=")
    if not sep:
        return 1
    offset = len(head) + 1
    return offset + (len(tail) - len(tail.lstrip())) + 1

