"""Order, join, meet, and bounds for the three value variants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as stx

from strategy_tuner import (
    INFINITY,
    INT_CEILING,
    BitsVal,
    BoolVal,
    IntVal,
    LatticeMismatchError,
    bottom,
    format_value,
    join,
    leq,
    meet,
    parse_value,
    top,
)
from strategy_tuner.lattice import from_key, read_int, same_kind

ints = stx.integers(0, 1000).map(IntVal) | stx.just(IntVal(INFINITY))
bools = stx.booleans().map(BoolVal)
bits5 = stx.integers(0, 2**5 - 1).map(lambda mask: BitsVal(mask, 5))



def _entry(value: BitsVal, i: int) -> bool:
    """Entry i of a bit vector, read from its mask."""
    return bool(value.value >> i & 1)


same_variant_triples = stx.one_of(
    stx.tuples(ints, ints, ints),
    stx.tuples(bools, bools, bools),
    stx.tuples(bits5, bits5, bits5),
)


class TestOrder:
    def test_int_leq(self):
        assert leq(IntVal(2), IntVal(5))
        assert not leq(IntVal(5), IntVal(2))

    def test_infinity_is_greatest(self):
        assert leq(IntVal(10**9), IntVal(INFINITY))
        assert not leq(IntVal(INFINITY), IntVal(10**9))
        assert leq(IntVal(INFINITY), IntVal(INFINITY))

    def test_bool_reflexive(self):
        assert leq(BoolVal(False), BoolVal(False))

    def test_bool_implication(self):
        assert leq(BoolVal(False), BoolVal(True))
        assert not leq(BoolVal(True), BoolVal(False))

    def test_bits_pointwise_implication(self):
        a = BitsVal.from_string("01100")
        b = BitsVal.from_string("01000")
        # independent check: enumerate the 5 positions
        expected = all((not _entry(a, i)) or _entry(b, i) for i in range(5))
        assert expected is False
        assert leq(a, b) is False
        assert leq(b, a) is True


class TestJoinMeet:
    def test_int_join_is_max(self):
        assert join(IntVal(58), IntVal(104)) == IntVal(104)

    def test_int_join_with_infinity(self):
        assert join(IntVal(58), IntVal(INFINITY)) == IntVal(INFINITY)

    def test_bool_join_idempotent(self):
        assert join(BoolVal(False), BoolVal(False)) == BoolVal(False)

    def test_bits_join_pointwise_or(self):
        # by hand: 00110 | 10000 = 10110
        assert join(BitsVal.from_string("00110"), BitsVal.from_string("10000")) == BitsVal.from_string("10110")

    def test_int_meet_with_top_is_identity(self):
        assert meet(IntVal(INFINITY), IntVal(104)) == IntVal(104)

    def test_int_meet_is_min(self):
        assert meet(IntVal(58), IntVal(9)) == IntVal(9)

    def test_bool_meet_idempotent(self):
        assert meet(BoolVal(True), BoolVal(True)) == BoolVal(True)


class TestBounds:
    def test_top_int(self):
        assert top(IntVal(0)) == IntVal(INFINITY)

    def test_bottom_bool(self):
        assert bottom(BoolVal(False)) == BoolVal(False)

    def test_top_bits(self):
        assert top(BitsVal(0, 5)) == BitsVal.from_string("11111")

    def test_bottom_bits(self):
        assert bottom(BitsVal(0, 5)) == BitsVal.from_string("00000")


class TestRejectedValues:
    def test_boolean_takes_a_bool_only(self):
        with pytest.raises(ValueError, match="must be a bool, got 1"):
            BoolVal(1)

    @pytest.mark.parametrize("text", ["", "012", pytest.param("2" * 5000, id="5000-characters")])
    def test_bit_literal_is_nonempty_zeros_and_ones(self, text):
        # before: the message quoted a text of 5000 characters in full
        with pytest.raises(ValueError, match="nonempty string of 0/1") as caught:
            BitsVal.from_string(text)
        assert len(str(caught.value)) < 120


class TestMismatch:
    def test_variant_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            leq(IntVal(1), BoolVal(True))
        with pytest.raises(LatticeMismatchError):
            join(BoolVal(True), BitsVal.from_string("10101"))

    def test_width_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            meet(BitsVal.from_string("01"), BitsVal.from_string("011"))

    def test_same_kind_exactly_when_join_accepts(self):
        rng = random.Random(0x5A3E)

        def value():
            variant = rng.randrange(3)
            if variant == 0:
                return IntVal(rng.choice((0, 7, INFINITY)))
            if variant == 1:
                return BoolVal(rng.random() < 0.5)
            width = rng.randint(1, 6)
            return BitsVal(rng.randrange(1 << width), width)

        for _ in range(2000):
            a, b = value(), value()
            try:
                join(a, b)
                accepted = True
            except LatticeMismatchError:
                accepted = False
            assert same_kind(a, b) == accepted, (a, b)


class TestLatticeLaws:
    @given(same_variant_triples)
    def test_commutativity(self, triple):
        a, b, _ = triple
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)

    @given(same_variant_triples)
    def test_associativity(self, triple):
        a, b, c = triple
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @given(same_variant_triples)
    def test_idempotence(self, triple):
        a, _, _ = triple
        assert join(a, a) == a
        assert meet(a, a) == a

    @given(same_variant_triples)
    def test_absorption(self, triple):
        a, b, _ = triple
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a

    @given(same_variant_triples)
    def test_order_consistency(self, triple):
        a, b, _ = triple
        assert leq(a, b) == (join(a, b) == b)
        assert leq(a, b) == (meet(a, b) == a)

    @given(same_variant_triples)
    def test_bounds(self, triple):
        a, _, _ = triple
        assert leq(bottom(a), a)
        assert leq(a, top(a))


class TestOrderKeys:
    def test_encodings(self):
        assert IntVal(104).value == 104
        assert IntVal(INFINITY).value == math.inf
        assert (BoolVal(False).value, BoolVal(True).value) == (0, 1)
        # entry i sets bit i: 01100 has entries 1 and 2
        assert BitsVal.from_string("01100").value == 0b00110

    @given(same_variant_triples)
    def test_only_bottom_has_key_zero(self, triple):
        a, _, _ = triple
        assert (a.value == 0) == (a == bottom(a))

    def test_masks_are_not_compared_as_numbers(self):
        # 10000 -> 1 and 01000 -> 2: incomparable, though 1 <= 2
        a, b = BitsVal.from_string("10000"), BitsVal.from_string("01000")
        assert a.value < b.value
        assert not leq(a, b)


class TestBooleanIsOneBitVector:
    """Outside its text form, a boolean follows the rules of its one-bit twin."""

    @pytest.mark.parametrize("a", [False, True])
    @pytest.mark.parametrize("b", [False, True])
    def test_order_join_and_meet(self, a, b):
        x, y = BoolVal(a), BoolVal(b)
        u, v = BitsVal(int(a), 1), BitsVal(int(b), 1)
        assert leq(x, y) == leq(u, v)
        assert join(x, y).value == join(u, v).value
        assert meet(x, y).value == meet(u, v).value

    @pytest.mark.parametrize("b", [False, True])
    def test_bounds(self, b):
        for bound in (top, bottom):
            assert bound(BoolVal(b)).value == bound(BitsVal(int(b), 1)).value


class TestFromKey:
    @pytest.mark.parametrize(
        "value",
        [
            IntVal(0),
            IntVal(104),
            IntVal(INFINITY),
            BoolVal(False),
            BoolVal(True),
            BitsVal(0, 5),
            BitsVal(0b10110, 5),
            BitsVal(0b11111, 5),
        ],
    )
    def test_inverts_the_key(self, value):
        rebuilt = from_key(value, value.value)
        assert rebuilt == value
        assert type(rebuilt.value) is type(value.value)

    @given(same_variant_triples)
    def test_builds_in_the_lattice_of_like(self, triple):
        a, b, _ = triple
        assert from_key(a, b.value) == b


class TestProductStructure:
    @given(bits5, bits5)
    def test_bits_is_product_of_bools(self, a, b):
        joined = join(a, b)
        met = meet(a, b)
        for i in range(5):
            assert _entry(joined, i) == join(BoolVal(_entry(a, i)), BoolVal(_entry(b, i))).value
            assert _entry(met, i) == meet(BoolVal(_entry(a, i)), BoolVal(_entry(b, i))).value
        assert leq(a, b) == all(
            leq(BoolVal(_entry(a, i)), BoolVal(_entry(b, i))) for i in range(5)
        )


class TestTextualForm:
    @pytest.mark.parametrize(
        "value,text",
        [
            (IntVal(0), "0"),
            (IntVal(104), "104"),
            (IntVal(INFINITY), "inf"),
            (BoolVal(True), "true"),
            (BoolVal(False), "false"),
            (BitsVal.from_string("10110"), "10110"),
        ],
    )
    def test_round_trip(self, value, text):
        assert format_value(value) == text
        assert parse_value(value, text) == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_value(IntVal(0), "-3")

    @pytest.mark.parametrize(
        "text",
        ["\u0663", "\uff10", "\u00b2", "1\u0663", "1_0", "+3", "3.0", "1" * 310, "1" * 5001],
        ids=[
            "arabic-indic-3", "fullwidth-0", "superscript-2", "mixed",
            "underscore", "plus", "decimal-point", "310-digits", "5001-digits",
        ],
    )
    def test_naturals_are_ascii_digits(self, text):
        # str.isdigit() is true for the first four: the first two read as 3
        # and 0, and "²" reached int(), whose message did not say what a
        # natural is; 5001 digits ended in int()'s digit limit, whose advice
        # named sys.set_int_max_str_digits
        with pytest.raises(ValueError, match="expected a count: ASCII digits") as caught:
            parse_value(IntVal(0), text)
        assert len(str(caught.value)) < 120

    @pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("7", 7), ("-12", -12)])
    def test_an_int_is_a_count_with_an_optional_minus(self, text, value):
        assert read_int(text) == value and type(read_int(text)) is int

    @pytest.mark.parametrize(
        "text", ["", "-", "--1", "+1", "- 1", "1_0", "\uff14", "1.0", "-" + "1" * 5001]
    )
    def test_an_int_is_read_by_the_count_rule(self, text):
        with pytest.raises(ValueError, match="expected a count: ASCII digits") as caught:
            read_int(text)
        assert len(str(caught.value)) < 120

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            parse_value(BitsVal(0, 5), "0110")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            parse_value(BitsVal(0, 5), "01102")

    def test_rejects_bad_bool(self):
        with pytest.raises(ValueError):
            parse_value(BoolVal(False), "yes")


class TestConstruction:
    def test_negative_int_unrepresentable(self):
        with pytest.raises(ValueError):
            IntVal(-1)

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            BitsVal(0, 0)

    @pytest.mark.parametrize(
        "mask,width",
        [(1, 0), (True, 1), (False, 1), (-1, 3), (8, 3), (2**130, 130), (1.0, 3)],
    )
    def test_bits_mask_and_width_checked(self, mask, width):
        with pytest.raises(ValueError):
            BitsVal(mask, width)

    @given(stx.text("01", min_size=1, max_size=130))
    def test_from_string_sets_bit_i_for_entry_i(self, text):
        value = BitsVal.from_string(text)
        assert value.width == len(text)
        for i, c in enumerate(text):
            assert (value.value >> i & 1 == 1) == (c == "1")
        assert value.value >> len(text) == 0


any_value = stx.one_of(
    stx.integers(0, INT_CEILING).map(IntVal),
    stx.just(IntVal(INFINITY)),
    stx.booleans().map(BoolVal),
    stx.integers(1, 130).flatmap(
        lambda width: stx.integers(0, 2**width - 1).map(lambda mask: BitsVal(mask, width))
    ),
)


@given(any_value)
def test_text_round_trip(value):
    assert parse_value(value, format_value(value)) == value
