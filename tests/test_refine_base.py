"""Base-point refinement against an independent brute-force oracle."""

from __future__ import annotations

import random
from functools import reduce

import pytest

from strategy_tuner import (
    BitsVal,
    INFINITY,
    BoolVal,
    IntVal,
    LatticeMismatchError,
    ResultMatrix,
    bottom,
    build_result_matrix,
    join,
    leq,
    meet,
    refine_bases,
    top,
)
from strategy_tuner.distributions import REFINEMENT_RULES, admitted_joins
from strategy_tuner.lattice import from_key
from strategy_tuner.trace import read_trace
from test_golden import SCENARIOS, golden_path


def refine_base(matrix: ResultMatrix, current_base, rule: str = "paper"):
    """The refinement of a one-parameter matrix's only base."""
    return refine_bases(matrix, (current_base,), rule)[0]


def oracle_refine_base(matrix: ResultMatrix, column: int, current_base):
    """Re-derivation of the meet-and-join rule in a functional style.

    For each alarm, the set of sampled values whose analysis eliminated
    it; a column contributes the meet of that set unless it is empty or
    the meet equals top. The result folds join over the contributions,
    seeded with the current base.
    """
    values = matrix.values[column]
    top_elem = top(current_base)
    contributions = []
    for j in range(len(matrix.alarms)):
        eliminators = [values[i] for i, row in enumerate(matrix.produced) if not row[j]]
        if not eliminators:
            continue
        lowest = reduce(meet, eliminators)
        if lowest != top_elem:
            contributions.append(lowest)
    return reduce(join, contributions, current_base)


def oracle_refine_base_evidence(matrix: ResultMatrix, column: int, current_base):
    """Re-derivation of the contrast rule in the same functional style.

    A column contributes the meet of its eliminating values only if some
    value whose analysis produced the alarm is not at least that meet.
    """
    values = matrix.values[column]
    contributions = []
    for j in range(len(matrix.alarms)):
        eliminators = [values[i] for i, row in enumerate(matrix.produced) if not row[j]]
        producers = [values[i] for i, row in enumerate(matrix.produced) if row[j]]
        if not eliminators:
            continue
        lowest = reduce(meet, eliminators)
        if any(not leq(lowest, value) for value in producers):
            contributions.append(lowest)
    return reduce(join, contributions, current_base)


def slevel_worked_matrix() -> ResultMatrix:
    """Five completed analyses over four alarms; the sixth analysis
    failed and is excluded. True marks a produced alarm."""
    produced = [
        (False, False, True, True),  # value 58
        (False, False, True, True),  # value 103
        (False, False, False, True),  # value 104
        (False, False, False, True),  # value 1000
        (False, True, True, True),  # value 9
    ]
    return ResultMatrix(
        alarms=("alarm-1", "alarm-2", "alarm-3", "alarm-4"),
        produced=tuple(produced),
        values=((IntVal(58), IntVal(103), IntVal(104), IntVal(1000), IntVal(9)),),
    )


class TestWorkedExample:
    def test_refines_zero_to_104(self):
        matrix = slevel_worked_matrix()
        assert refine_base(matrix, IntVal(0)) == IntVal(104)

    def test_high_base_retained(self):
        matrix = slevel_worked_matrix()
        assert refine_base(matrix, IntVal(200)) == IntVal(200)

    def test_matches_oracle(self):
        matrix = slevel_worked_matrix()
        for base in (IntVal(0), IntVal(60), IntVal(200)):
            assert refine_base(matrix, base) == oracle_refine_base(matrix, 0, base)


class TestEliminatorSets:
    """Each distinct column's eliminating rows, paired with its producing rows."""

    def test_worked_example(self):
        # alarm-4 is produced everywhere, so it has no eliminating rows
        assert slevel_worked_matrix().columns == (
            ((0, 1, 2, 3, 4), ()),
            ((0, 1, 2, 3), (4,)),
            ((2, 3), (0, 1, 4)),
            ((), (0, 1, 2, 3, 4)),
        )

    def test_shared_sets_appear_once(self):
        matrix = ResultMatrix(
            alarms=("a", "b", "c"),
            produced=((False, True, False), (True, True, True)),
            values=((IntVal(3), IntVal(7)),),
        )
        assert matrix.columns == (((0,), (1,)), ((), (0, 1)))


class TestEdgeCases:
    def test_all_alarms_produced_everywhere(self):
        matrix = ResultMatrix(
            alarms=("a", "b"),
            produced=((True, True), (True, True)),
            values=((IntVal(3), IntVal(7)),),
        )
        assert refine_base(matrix, IntVal(1)) == IntVal(1)

    def test_no_completed_analyses(self):
        matrix = ResultMatrix(alarms=(), produced=(), values=((),))
        assert refine_base(matrix, IntVal(5)) == IntVal(5)

    def test_bases_and_value_columns_differ_in_number(self):
        matrix = slevel_worked_matrix()
        with pytest.raises(ValueError):
            refine_bases(matrix, (IntVal(0), IntVal(0)))
        with pytest.raises(ValueError):
            refine_bases(matrix, ())

    def test_boolean_top_meet_is_skipped(self):
        # the only eliminating analysis used the top value; the rule must
        # not snap the base to top
        matrix = ResultMatrix(
            alarms=("a",),
            produced=((False,), (True,)),
            values=((BoolVal(True), BoolVal(False)),),
        )
        assert refine_base(matrix, BoolVal(False)) == BoolVal(False)
        assert oracle_refine_base(matrix, 0, BoolVal(False)) == BoolVal(False)

    def test_integer_top_meet_is_skipped(self):
        # alarm "a" was eliminated only at INFINITY: its meet is top and is
        # skipped; alarm "b" was also eliminated at 12, which the base takes
        rows = (
            (False, False),
            (True, False),
            (True, True),
        )
        values = ((IntVal(INFINITY), IntVal(12), IntVal(3)),)
        only_top = ResultMatrix(
            alarms=("a",), produced=tuple(row[:1] for row in rows), values=values
        )
        assert only_top.columns == (((0,), (1, 2)),)
        assert refine_base(only_top, IntVal(0)) == IntVal(0)
        both = ResultMatrix(alarms=("a", "b"), produced=rows, values=values)
        assert both.columns == (((0,), (1, 2)), ((0, 1), (2,)))
        assert refine_base(both, IntVal(0)) == IntVal(12)
        assert refine_base(both, IntVal(0)) == oracle_refine_base(both, 0, IntVal(0))


class TestKindChecks:
    @staticmethod
    def _matrix(values) -> ResultMatrix:
        # row 0 eliminates alarm "a"; alarm "b" is produced everywhere
        return ResultMatrix(
            alarms=("a", "b"),
            produced=((False, True), (True, True)),
            values=(values,),
        )

    def test_integer_column_on_boolean_base(self):
        with pytest.raises(LatticeMismatchError):
            refine_base(self._matrix((IntVal(3), IntVal(0))), BoolVal(False))

    def test_four_bit_column_on_five_bit_base(self):
        with pytest.raises(LatticeMismatchError):
            refine_base(self._matrix((BitsVal(0b0101, 4), BitsVal(0, 4))), BitsVal(0, 5))

    def test_checked_even_when_nothing_is_eliminated(self):
        matrix = ResultMatrix(
            alarms=("b",),
            produced=((True,),),
            values=((BitsVal(0b0101, 4),),),
        )
        with pytest.raises(LatticeMismatchError):
            refine_base(matrix, BitsVal(0, 5))

    def test_one_mismatched_value_in_the_column(self):
        with pytest.raises(LatticeMismatchError):
            refine_base(self._matrix((IntVal(3), BoolVal(True))), IntVal(0))


def _random_matrix(rng: random.Random, kind) -> ResultMatrix:
    m = rng.randint(0, 6)
    n = rng.randint(0, 5)
    if isinstance(kind, IntVal):
        values = tuple(IntVal(rng.randint(0, 20)) for _ in range(m))
    elif isinstance(kind, BoolVal):
        values = tuple(BoolVal(rng.random() < 0.5) for _ in range(m))
    else:
        values = tuple(
            BitsVal(sum(1 << i for i in range(5) if rng.random() < 0.5), 5) for _ in range(m)
        )
    produced = tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(m))
    return ResultMatrix(tuple(f"a{j}" for j in range(n)), produced, (values,))


def _random_base(rng: random.Random, kind):
    if isinstance(kind, IntVal):
        return IntVal(rng.randint(0, 20))
    if isinstance(kind, BoolVal):
        return BoolVal(rng.random() < 0.5)
    return BitsVal(sum(1 << i for i in range(5) if rng.random() < 0.5), 5)


KINDS = (IntVal(0), BoolVal(False), BitsVal(0, 5))


ORACLES = {"paper": oracle_refine_base, "evidence": oracle_refine_base_evidence}


def _random_columns(rng: random.Random, infinity: float = 0.0) -> tuple[ResultMatrix, tuple]:
    """A random matrix with one value column per kind, and a base for each.

    An integer value is INFINITY, the top, with probability ``infinity``.
    """
    m, n = rng.randint(0, 6), rng.randint(0, 5)
    produced = tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(m))

    def value(kind):
        if isinstance(kind, IntVal) and rng.random() < infinity:
            return IntVal(INFINITY)
        return _random_base(rng, kind)

    values = tuple(tuple(value(kind) for _ in range(m)) for kind in KINDS)
    bases = tuple(_random_base(rng, kind) for kind in KINDS)
    return ResultMatrix(tuple(f"a{j}" for j in range(n)), produced, values), bases


class TestRandomizedOracleEquivalence:
    def test_matches_brute_force(self):
        rng = random.Random(20240901)
        for trial in range(300):
            kind = KINDS[trial % 3]
            matrix = _random_matrix(rng, kind)
            base = _random_base(rng, kind)
            assert refine_base(matrix, base) == oracle_refine_base(matrix, 0, base)

    def test_every_column_in_one_call(self):
        # one matrix, one column per kind: each base is refined against its
        # own column, as if it were the only one
        rng = random.Random(31)
        for _ in range(100):
            matrix, bases = _random_columns(rng)
            for rule, oracle in ORACLES.items():
                assert refine_bases(matrix, bases, rule) == tuple(
                    oracle(matrix, p, base) for p, base in enumerate(bases)
                )

    @pytest.mark.parametrize("rule", REFINEMENT_RULES)
    def test_admitted_joins_are_the_oracles_moves(self, rule):
        # each yield is a meet the oracle admits and the base does not
        # reach, named by its distinct column; every such meet is yielded
        # once; and joining the yields into the bases is the oracle's result
        oracle = ORACLES[rule]
        rng = random.Random(0xAD317)
        for _ in range(300):
            matrix, bases = _random_columns(rng, infinity=0.2)
            yields = list(admitted_joins(matrix, bases, rule))
            assert len({(p, c) for p, c, _ in yields}) == len(yields)
            moves, eliminators = set(), [rows for rows, _ in matrix.columns]
            for j, alarm in enumerate(matrix.alarms):
                column = tuple((row[j],) for row in matrix.produced)
                alone = ResultMatrix((alarm,), column, matrix.values)
                for p, base in enumerate(bases):
                    if oracle(alone, p, base) != base:  # admitted, and not reached by the base
                        c = eliminators.index(alone.columns[0][0])
                        moves.add((p, c, oracle(alone, p, bottom(base)).value))
            assert set(yields) == moves
            for p, base in enumerate(bases):
                folded = reduce(join, (from_key(base, k) for q, _, k in yields if q == p), base)
                assert folded == oracle(matrix, p, base)

    def test_boolean_refines_as_its_one_bit_vector(self):
        # a 0/1 column twice, once as booleans and once as one-bit vectors
        rng = random.Random(0xB001)
        for _ in range(200):
            m, n = rng.randint(0, 6), rng.randint(0, 5)
            produced = tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(m))
            bits = [rng.random() < 0.5 for _ in range(m + 1)]
            values = (
                tuple(map(BoolVal, bits[1:])),
                tuple(BitsVal(int(b), 1) for b in bits[1:]),
            )
            bases = (BoolVal(bits[0]), BitsVal(int(bits[0]), 1))
            matrix = ResultMatrix(tuple(f"a{j}" for j in range(n)), produced, values)
            for rule in ("paper", "evidence"):
                as_bool, as_bits = refine_bases(matrix, bases, rule)
                assert type(as_bool) is BoolVal and as_bool.value == as_bits.value

    def test_monotone_in_base(self):
        rng = random.Random(77)
        for trial in range(300):
            kind = KINDS[trial % 3]
            matrix = _random_matrix(rng, kind)
            base = _random_base(rng, kind)
            assert leq(base, refine_base(matrix, base))

    def test_row_and_column_permutation_invariance(self):
        rng = random.Random(123)
        for trial in range(150):
            kind = KINDS[trial % 3]
            matrix = _random_matrix(rng, kind)
            base = _random_base(rng, kind)
            expected = refine_base(matrix, base)

            row_order = list(range(len(matrix.produced)))
            col_order = list(range(len(matrix.alarms)))
            rng.shuffle(row_order)
            rng.shuffle(col_order)
            (values,) = matrix.values
            shuffled = ResultMatrix(
                alarms=tuple(matrix.alarms[j] for j in col_order),
                produced=tuple(
                    tuple(matrix.produced[i][j] for j in col_order) for i in row_order
                ),
                values=(tuple(values[i] for i in row_order),),
            )
            assert refine_base(shuffled, base) == expected


class TestGoldenMoves:
    # moved bases per golden trace, counted when the yields were first read from it
    MOVES = {"convergence": 14, "mixed": 15, "mixed-evidence": 16}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_record_folds_to_its_bases_after(self, name):
        # a record's own samples and outcomes rebuild its result matrix,
        # and the run's rule then names a yield for every base that moved
        rule = SCENARIOS[name][1].get("refinement", "paper")
        moves = 0
        for record in read_trace(golden_path(name).read_text(encoding="utf-8")):
            matrix = build_result_matrix(record.outcomes, record.sampled_configs)
            names = tuple(record.distributions_before)
            before = tuple(record.distributions_before[n].base for n in names)
            after = tuple(record.distributions_after[n].base for n in names)
            assert refine_bases(matrix, before, rule) == after
            moved = {p for p in range(len(names)) if after[p] != before[p]}
            assert moved <= {p for p, _, _ in admitted_joins(matrix, before, rule)}
            moves += len(moved)
        assert moves == self.MOVES[name]


class TestEvidenceRule:
    def test_worked_example(self):
        # alarm-1 has no producer and alarm-4 no eliminator; alarm-2's
        # eliminators meet at 58 and its producer holds 9; alarm-3's meet
        # at 104, producers 58, 103 and 9
        matrix = slevel_worked_matrix()
        assert refine_base(matrix, IntVal(0), "evidence") == IntVal(104)
        assert refine_base(matrix, IntVal(200), "evidence") == IntVal(200)

    def test_boolean_top_meet_with_contrast_is_joined(self):
        # the same matrix as test_boolean_top_meet_is_skipped: the row at
        # false produced the alarm, so true is what eliminated it
        matrix = ResultMatrix(
            alarms=("a",),
            produced=((False,), (True,)),
            values=((BoolVal(True), BoolVal(False)),),
        )
        assert refine_base(matrix, BoolVal(False), "evidence") == BoolVal(True)

    def test_no_contrast_no_join(self):
        # alarm "a" was eliminated by every row; alarm "b" was produced at
        # 9 and 12, both above its eliminators' meet of 3
        matrix = ResultMatrix(
            alarms=("a", "b"),
            produced=(
                (False, False),
                (False, True),
                (False, True),
            ),
            values=((IntVal(3), IntVal(9), IntVal(12)),),
        )
        assert refine_base(matrix, IntVal(1), "evidence") == IntVal(1)
        assert refine_base(matrix, IntVal(1), "paper") == IntVal(3)

    def test_vector_contrast_is_bitwise(self):
        # the producer 0b110 is neither below nor above the meet 0b011
        matrix = ResultMatrix(
            alarms=("a",),
            produced=((False,), (True,)),
            values=((BitsVal(0b011, 3), BitsVal(0b110, 3)),),
        )
        assert refine_base(matrix, BitsVal(0, 3), "evidence") == BitsVal(0b011, 3)

    def test_matches_brute_force_500_instances(self):
        rng = random.Random(0xE1DE)
        for trial in range(500):
            kind = KINDS[trial % 3]
            matrix = _random_matrix(rng, kind)
            if isinstance(kind, IntVal) and matrix.produced and rng.random() < 0.3:
                values = list(matrix.values[0])
                values[rng.randrange(len(values))] = IntVal(INFINITY)
                matrix = ResultMatrix(matrix.alarms, matrix.produced, (tuple(values),))
            base = _random_base(rng, kind)
            refined = refine_base(matrix, base, "evidence")
            assert refined == oracle_refine_base_evidence(matrix, 0, base)
            assert leq(base, refined)

    @pytest.mark.parametrize("rule", ["contrast", "Paper", None])
    def test_unknown_rule_rejected(self, rule):
        with pytest.raises(ValueError, match="refinement rule"):
            refine_base(slevel_worked_matrix(), IntVal(0), rule)


class TestMatrixValidation:
    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            ResultMatrix(
                alarms=("a", "b"),
                produced=((True,),),
                values=(),
            )

    def test_value_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            ResultMatrix(
                alarms=("a",),
                produced=((True,),),
                values=((),),
            )
