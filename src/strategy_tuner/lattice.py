"""Latticed value spaces for analyzer parameters.

Three variants, each a complete lattice:

* ``IntVal`` - naturals extended with a distinguished ``INFINITY`` top,
  ordered by ``<=``; join is max, meet is min.
* ``BoolVal`` - booleans ordered by implication; join is or, meet is and.
* ``BitsVal`` - fixed-width boolean vectors ordered pointwise (the subset
  order on a set of labels); join/meet are pointwise or/and.

All values are immutable and freely shareable between threads. Binary
operations require both operands to be the same variant (and width);
anything else raises :class:`LatticeMismatchError`.

:func:`order_key` encodes a value as a number on which the order is one
machine comparison (see :func:`key_leq`), for code that compares many
values against the same few.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

from .errors import LatticeMismatchError

#: Saturation ceiling for finite integer arithmetic. Additions on finite
#: values clamp here instead of ever producing INFINITY.
INT_CEILING = 2**31 - 1


class _Infinity:
    """The top of the integer lattice. A lattice element, not a number."""

    _instance: "_Infinity | None" = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


@dataclass(frozen=True)
class IntVal:
    """A natural number or INFINITY."""

    value: "int | _Infinity"

    def __post_init__(self) -> None:
        v = self.value
        if isinstance(v, _Infinity):
            return
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"integer lattice value must be a natural number, got {v!r}")

    @property
    def is_infinite(self) -> bool:
        return isinstance(self.value, _Infinity)


@dataclass(frozen=True)
class BoolVal:
    value: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, bool):
            raise ValueError(f"boolean lattice value must be a bool, got {self.value!r}")


@dataclass(frozen=True)
class BitsVal:
    """A fixed-width vector of booleans; width is immutable."""

    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("bit vectors must have positive width")
        if not all(isinstance(b, bool) for b in self.bits):
            raise ValueError(f"bit vector entries must be bools, got {self.bits!r}")

    @property
    def width(self) -> int:
        return len(self.bits)

    @staticmethod
    def from_string(text: str) -> "BitsVal":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"bit vector literal must be a nonempty string of 0/1, got {text!r}")
        return BitsVal(tuple(c == "1" for c in text))


LatticeValue = Union[IntVal, BoolVal, BitsVal]


@dataclass(frozen=True)
class IntKind:
    pass


@dataclass(frozen=True)
class BoolKind:
    pass


@dataclass(frozen=True)
class BitsKind:
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("bit vector kinds must have positive width")


Kind = Union[IntKind, BoolKind, BitsKind]


def kind_of(value: LatticeValue) -> Kind:
    if isinstance(value, IntVal):
        return IntKind()
    if isinstance(value, BoolVal):
        return BoolKind()
    if isinstance(value, BitsVal):
        return BitsKind(value.width)
    raise TypeError(f"not a lattice value: {value!r}")


def _require_compatible(a: LatticeValue, b: LatticeValue) -> None:
    if type(a) is not type(b):
        raise LatticeMismatchError(
            f"mixed lattice variants: {type(a).__name__} vs {type(b).__name__}"
        )
    if isinstance(a, BitsVal) and a.width != b.width:  # type: ignore[union-attr]
        raise LatticeMismatchError(f"bit vector widths differ: {a.width} vs {b.width}")


OrderKey = Union[int, float]


def order_key(value: LatticeValue) -> OrderKey:
    """Encode a value so that its order is a plain comparison of keys.

    An integer maps to itself and INFINITY to ``math.inf``; a boolean
    maps to 0 or 1; a bit vector maps to an int mask with bit i set when
    entry i is true. Keys of the same kind compare with :func:`key_leq`,
    and bottom is the only value of its kind whose key is 0.
    """
    if isinstance(value, IntVal):
        return math.inf if value.is_infinite else value.value  # type: ignore[return-value]
    if isinstance(value, BoolVal):
        return int(value.value)
    if isinstance(value, BitsVal):
        return sum(1 << i for i, bit in enumerate(value.bits) if bit)
    raise TypeError(f"not a lattice value: {value!r}")


def _mask_leq(a: int, b: int) -> bool:
    return a & ~b == 0


def key_leq(kind: Kind) -> Callable[[OrderKey, OrderKey], bool]:
    """The order on the keys of one kind: ``<=``, or mask inclusion for bit vectors."""
    return _mask_leq if isinstance(kind, BitsKind) else operator.le  # type: ignore[return-value]


def leq(a: LatticeValue, b: LatticeValue) -> bool:
    """Partial order: integer <=, implication, pointwise implication."""
    _require_compatible(a, b)
    if isinstance(a, BitsVal):
        return _mask_leq(order_key(a), order_key(b))  # type: ignore[arg-type]
    return order_key(a) <= order_key(b)


def join(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Least upper bound: max, or, pointwise or."""
    _require_compatible(a, b)
    if isinstance(a, IntVal):
        assert isinstance(b, IntVal)
        if a.is_infinite or b.is_infinite:
            return IntVal(INFINITY)
        return IntVal(max(a.value, b.value))  # type: ignore[type-var]
    if isinstance(a, BoolVal):
        assert isinstance(b, BoolVal)
        return BoolVal(a.value or b.value)
    assert isinstance(a, BitsVal) and isinstance(b, BitsVal)
    return BitsVal(tuple(x or y for x, y in zip(a.bits, b.bits)))


def meet(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Greatest lower bound: min, and, pointwise and."""
    _require_compatible(a, b)
    if isinstance(a, IntVal):
        assert isinstance(b, IntVal)
        if a.is_infinite:
            return b
        if b.is_infinite:
            return a
        return IntVal(min(a.value, b.value))  # type: ignore[type-var]
    if isinstance(a, BoolVal):
        assert isinstance(b, BoolVal)
        return BoolVal(a.value and b.value)
    assert isinstance(a, BitsVal) and isinstance(b, BitsVal)
    return BitsVal(tuple(x and y for x, y in zip(a.bits, b.bits)))


def top(kind: Kind) -> LatticeValue:
    """Greatest element: INFINITY / true / all-ones."""
    if isinstance(kind, IntKind):
        return IntVal(INFINITY)
    if isinstance(kind, BoolKind):
        return BoolVal(True)
    return BitsVal((True,) * kind.width)


def bottom(kind: Kind) -> LatticeValue:
    """Least element: 0 / false / all-zeros."""
    if isinstance(kind, IntKind):
        return IntVal(0)
    if isinstance(kind, BoolKind):
        return BoolVal(False)
    return BitsVal((False,) * kind.width)


def saturating_add(base: IntVal, amount: int, ceiling: int = INT_CEILING) -> IntVal:
    """Add a nonnegative amount to an integer value, clamping at ceiling.

    Finite arithmetic never produces INFINITY; an infinite base stays
    infinite (the sum of infinity and anything is infinity).
    """
    if amount < 0:
        raise ValueError(f"saturating_add amount must be nonnegative, got {amount}")
    if base.is_infinite:
        return base
    if base.value >= ceiling:  # type: ignore[operator]
        return base
    return IntVal(min(base.value + amount, ceiling))  # type: ignore[operator]


def format_value(value: LatticeValue) -> str:
    """Textual form: decimal or "inf"; "true"/"false"; a 0/1 string."""
    if isinstance(value, IntVal):
        return "inf" if value.is_infinite else str(value.value)
    if isinstance(value, BoolVal):
        return "true" if value.value else "false"
    return "".join("1" if b else "0" for b in value.bits)


def parse_value(kind: Kind, text: str) -> LatticeValue:
    """Inverse of :func:`format_value` for a known kind.

    Raises ValueError with a human-readable reason on malformed input.
    """
    text = text.strip()
    if isinstance(kind, IntKind):
        if text == "inf":
            return IntVal(INFINITY)
        if not text.isdigit():
            raise ValueError(f"expected a natural number or 'inf', got {text!r}")
        return IntVal(int(text))
    if isinstance(kind, BoolKind):
        if text == "true":
            return BoolVal(True)
        if text == "false":
            return BoolVal(False)
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    if len(text) != kind.width or any(c not in "01" for c in text):
        raise ValueError(f"expected {kind.width} binary digits, got {text!r}")
    return BitsVal.from_string(text)
