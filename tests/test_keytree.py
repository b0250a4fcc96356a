"""The key = value grammar: each entry's value, line and value column."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as stx

from strategy_tuner import ConfigParseError
from strategy_tuner.keytree import Entry, parse_keytree, split_lines

blanks = stx.text(" \t", max_size=3)
keys = stx.text("abz019.-_", min_size=1, max_size=8)
values = stx.text("ab 9.=#\t", max_size=8)


@stx.composite
def files(draw):
    """A file's text and the (key, value, line) of each entry, in file order."""
    lines: list[str] = []
    expected: list[tuple[str, str, int]] = []
    for key in draw(stx.lists(keys, unique=True, max_size=6)):
        filler = draw(stx.lists(blanks | blanks.map(lambda b: b + "#" + "x = y"), max_size=2))
        lines.extend(filler)
        value = draw(values)
        lines.append(draw(blanks) + key + draw(blanks) + "=" + value)
        expected.append((key, value.strip(), len(lines)))
    return "\n".join(lines) + draw(stx.sampled_from(["", "\n"])), expected


@given(files())
def test_entries_carry_value_line_and_column(generated):
    text, expected = generated
    entries = parse_keytree(text)
    assert [(key, e.value, e.line) for key, e in entries.items()] == expected
    lines = text.splitlines()
    for e in entries.values():
        assert lines[e.line - 1][e.column - 1 :].strip() == e.value
        if e.value:
            assert lines[e.line - 1][e.column - 1] == e.value[0]


def test_column_counts_tabs_and_indentation():
    entries = parse_keytree("  slevel\t=\t 104  \n# c = d\n\nempty =\np = a=b = c\n")
    assert entries == {
        "slevel": Entry("104", 1, 13),
        "empty": Entry("", 4, 8),
        "p": Entry("a=b = c", 5, 5),
    }


def test_duplicate_key_names_first_line():
    with pytest.raises(ConfigParseError) as err:
        parse_keytree("a = 1\n\nb = 2\na = 3\n")
    assert err.value.line == 4
    assert "duplicate key 'a' (first defined on line 1)" in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [("no equals sign", "expected 'key = value'"), ("  = 3", "empty key"), ("a b = 3", "spaces")],
)
def test_malformed_line_points_at_column_1(text, message):
    with pytest.raises(ConfigParseError, match=message) as err:
        parse_keytree("ok = 1\n" + text + "\n")
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize(
    "line, column",
    [("a = b\0c", 6), ("\0a = b", 1), ("a\0 = b", 2), ("# a comment\0", 12), ("\0", 1)],
    ids=["value", "key-start", "key", "comment", "alone"],
)
def test_a_nul_anywhere_points_at_itself(line, column):
    # a value holding one ended as a path or an analyzer argument in a ValueError
    with pytest.raises(ConfigParseError, match="a NUL character is not allowed") as err:
        parse_keytree("ok = 1\n" + line + "\n")
    assert (err.value.line, err.value.column) == (2, column)


# The characters at which str.splitlines() ends a line but a file does not.
OTHER_BREAKS = [
    c
    for c in map(chr, range(sys.maxunicode + 1))
    if c not in "\n\r" and len(f"a{c}b".splitlines()) == 2
]


@given(stx.text("ab \t\n\r"))
def test_split_lines_is_splitlines_without_other_breaks(text):
    assert split_lines(text) == text.splitlines()


@pytest.mark.parametrize("other", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newline_and_carriage_return_end_a_line(other):
    # the character stays inside its line, so the line numbers count
    # only \n, \r\n and \r
    assert split_lines(f"a{other}b\r\nc\rd\n") == [f"a{other}b", "c", "d"]
    assert parse_keytree(f"a = x{other}y\n{other}\nb = 2\n") == {
        "a": Entry(f"x{other}y", 1, 5),
        "b": Entry("2", 3, 5),
    }
    with pytest.raises(ConfigParseError) as err:
        parse_keytree(f"ok = 1\n{other}\nno equals sign\n")
    assert err.value.line == 3


# Every code point for which str.isspace() holds, the set str.split()
# splits on, except the line breaks at which a file ends a line.
SPACES = [
    space
    for space in map(chr, range(sys.maxunicode + 1))
    if space.isspace() and len(split_lines(f"a{space}b")) == 1
]


@pytest.mark.parametrize("space", SPACES, ids=lambda space: f"U+{ord(space):04X}")
def test_every_space_inside_a_key_is_rejected(space):
    with pytest.raises(ConfigParseError, match="must not contain spaces") as err:
        parse_keytree(f"ok = 1\na{space}b = 3\n")
    assert (err.value.line, err.value.column) == (2, 1)
