"""Latticed value spaces for analyzer parameters.

Three variants, each a complete lattice:

* ``IntVal`` - the naturals up to a float's range (``is_count``),
  extended with a distinguished ``INFINITY`` top, ordered by ``<=``;
  join is max, meet is min.
* ``BoolVal`` - booleans ordered by implication; join is or, meet is and.
* ``BitsVal`` - fixed-width boolean vectors ordered pointwise (the subset
  order on a set of labels); join/meet are pointwise or/and.

Each value stores its own order key in ``value``: a natural, or
``INFINITY`` (which is ``math.inf``, above every natural); ``False`` or
``True``; or, for a bit vector, an int mask with bit i set when entry i
is true. In every rule but its text form, a boolean is the one-bit
vector whose mask is its key (``BoolVal.width`` is 1). The order is
``a <= b`` on integers and mask inclusion, ``a & ~b == 0``, on masks,
which on one bit is ``<=``. Bottom is the only value of its lattice
whose key is 0, and :func:`from_key` turns a key back into a value.

A value stands for its own lattice, its kind: one variant and, for bit
vectors, one width (:func:`same_kind`). ``top``, ``bottom``,
``from_key`` and ``parse_value`` take any value of the lattice they work
in.

All values are immutable and freely shareable between threads. Binary
operations require both operands to be of the same kind; anything else
raises :class:`LatticeMismatchError`.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import ClassVar, Union

from .errors import LatticeMismatchError, shown

#: Saturation ceiling for finite integer arithmetic. Additions on finite
#: values clamp here instead of ever producing INFINITY.
INT_CEILING = 2**31 - 1

#: The top of the integer lattice.
INFINITY = math.inf


def is_amount(value: object) -> bool:
    """Whether ``value`` is an amount, such as a rate, a cost or seconds: an
    int or a float, not a bool, at least 0 and finite in a float's range."""
    return type(value) in (int, float) and 0.0 <= value <= sys.float_info.max


def is_count(value: object, least: int = 0) -> bool:
    """Whether ``value`` is a count of at least ``least``: an int, not a bool, that is an amount."""
    return type(value) is int and least <= value <= sys.float_info.max


#: ``float``'s syntax for a finite number, in ASCII and with no ``_``.
_DECIMAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def read_count(text: str) -> int:
    """The count that ``text`` spells: ASCII digits ``0``-``9``, no more than a count's 309."""
    if text.isascii() and text.isdigit() and len(text) <= 309 and is_count(int(text)):
        return int(text)
    raise ValueError(f"expected a count: ASCII digits 0-9 in a float's range, got {shown(text)}")


def read_int(text: str) -> int:
    """The int that ``text`` spells: an optional ``-`` before a count's digits (``read_count``)."""
    return -read_count(text[1:]) if text[:1] == "-" else read_count(text)


def read_amount(text: str) -> float:
    """The amount that ``text`` spells in ``float`` syntax, in ASCII and with no ``_``."""
    if _DECIMAL.fullmatch(text) and is_amount(value := float(text)):
        return value
    raise ValueError(f"expected a finite number at least 0 in ASCII, got {shown(text)}")


@dataclass(frozen=True, slots=True)
class IntVal:
    """A count (``is_count``) or INFINITY."""

    value: "int | float"

    def __post_init__(self) -> None:
        v = self.value
        if not (is_count(v) or v == INFINITY):
            raise ValueError(f"integer lattice value must be a natural number, got {shown(v)}")

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITY


@dataclass(frozen=True, slots=True)
class BoolVal:
    value: bool
    width: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not isinstance(self.value, bool):
            raise ValueError(f"boolean lattice value must be a bool, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class BitsVal:
    """A fixed-width vector of booleans; bit i of ``value`` is entry i."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if type(self.width) is not int or self.width < 1:
            raise ValueError(f"bit vectors must have positive width, got {self.width!r}")
        if type(self.value) is not int or not 0 <= self.value < 1 << self.width:
            raise ValueError(
                f"bit vector mask must be an int in [0, 2**{self.width}), got {self.value!r}"
            )

    @staticmethod
    def from_string(text: str) -> "BitsVal":
        """The vector whose entry i is ``text[i]``."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"bit vector literal must be a nonempty string of 0/1, got {shown(text)}")
        return BitsVal(int(text[::-1], 2), len(text))


LatticeValue = Union[IntVal, BoolVal, BitsVal]


def same_kind(a: LatticeValue, b: LatticeValue) -> bool:
    """Whether a and b lie in one lattice: one variant and, for bit vectors, one width."""
    return type(a) is type(b) and (type(a) is not BitsVal or a.width == b.width)  # type: ignore


def _require_compatible(a: LatticeValue, b: LatticeValue) -> None:
    if not same_kind(a, b):
        raise LatticeMismatchError(
            f"bit vector widths differ: {a.width} vs {b.width}"  # type: ignore[union-attr]
            if type(a) is type(b)
            else f"mixed lattice variants: {type(a).__name__} vs {type(b).__name__}"
        )


_key = attrgetter("value")


def leq(a: LatticeValue, b: LatticeValue) -> bool:
    """Partial order: integer <=, implication, pointwise implication."""
    _require_compatible(a, b)
    if isinstance(a, BitsVal):
        return a.value & ~b.value == 0
    return a.value <= b.value


def join(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Least upper bound: max, or, pointwise or."""
    _require_compatible(a, b)
    if isinstance(a, BitsVal):
        return BitsVal(a.value | b.value, a.width)
    return max(a, b, key=_key)


def meet(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Greatest lower bound: min, and, pointwise and."""
    _require_compatible(a, b)
    if isinstance(a, BitsVal):
        return BitsVal(a.value & b.value, a.width)
    return min(a, b, key=_key)


#: The two boolean values, indexed by their key.
_BOOLS = (BoolVal(False), BoolVal(True))


def from_key(like: LatticeValue, key: "int | float") -> LatticeValue:
    """The value of ``like``'s lattice whose order key is ``key``."""
    if isinstance(like, IntVal):
        return IntVal(key)
    if isinstance(like, BoolVal):
        return _BOOLS[key]  # type: ignore[index]
    return BitsVal(key, like.width)  # type: ignore[arg-type]


def top(like: LatticeValue) -> LatticeValue:
    """Greatest element of the lattice of ``like``: INFINITY / true / all-ones."""
    return from_key(like, INFINITY if isinstance(like, IntVal) else (1 << like.width) - 1)


def bottom(like: LatticeValue) -> LatticeValue:
    """Least element of the lattice of ``like``: 0 / false / all-zeros."""
    return from_key(like, 0)


def format_value(value: LatticeValue) -> str:
    """Textual form: decimal or "inf"; "true"/"false"; a 0/1 string, entry 0 first."""
    if isinstance(value, BoolVal):
        return "true" if value.value else "false"
    if isinstance(value, BitsVal):
        return format(value.value, f"0{value.width}b")[::-1]
    return str(value.value)


def parse_value(like: LatticeValue, text: str) -> LatticeValue:
    """Inverse of :func:`format_value` in the lattice of ``like``.

    Raises ValueError with a human-readable reason on malformed input.
    """
    text = text.strip()
    if isinstance(like, IntVal):
        return IntVal(INFINITY if text == "inf" else read_count(text))
    if isinstance(like, BoolVal):
        if text not in ("true", "false"):
            raise ValueError(f"expected 'true' or 'false', got {shown(text)}")
        return _BOOLS[text == "true"]
    if len(text) != like.width or any(c not in "01" for c in text):
        raise ValueError(f"expected {like.width} binary digits, got {shown(text)}")
    return BitsVal.from_string(text)
