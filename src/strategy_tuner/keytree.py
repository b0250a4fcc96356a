"""Line-oriented "key = value" text format.

One grammar serves every file the tool reads: configuration files,
catalog overrides, synthetic profiles, and the run config. Keys are
dotted paths; a value is the rest of its line, stripped. A line whose
first non-blank character is '#' is a comment; a duplicate key, and a
NUL anywhere, are rejected. Each key's Entry holds its value, its line,
and the 1-based column where the value starts, so an error can point at
the value. A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r`` (``split_lines``).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigParseError, shown


class Entry(NamedTuple):
    value: str
    line: int
    column: int


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by ``\\n``, ``\\r\\n``, a lone ``\\r`` or the end.

    Unlike ``str.splitlines``, no other character ends a line: a form
    feed, a vertical tab or U+2028 stays inside its line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line break, or is empty
    return lines


def parse_keytree(text: str) -> dict[str, Entry]:
    """The file's entries by key, in file order."""
    entries: dict[str, Entry] = {}
    for line, raw in enumerate(split_lines(text), start=1):
        if "\0" in raw:
            raise ConfigParseError("a NUL character is not allowed", line=line, column=raw.index("\0") + 1)
        key, sep, tail = raw.partition("=")
        key = key.strip()
        if key.startswith("#") or not (key or sep):
            continue  # a comment or a blank line
        if not sep:
            raise ConfigParseError("expected 'key = value'", line=line, column=1)
        if not key:
            raise ConfigParseError("empty key before '='", line=line, column=1)
        if len(key.split()) != 1:
            raise ConfigParseError(f"key {shown(key)} must not contain spaces", line=line, column=1)
        if key in entries:
            raise ConfigParseError(
                f"duplicate key {shown(key)} (first defined on line {entries[key].line})", line=line
            )
        value = tail.lstrip()
        entries[key] = Entry(value.rstrip(), line, len(raw) - len(value) + 1)
    return entries

