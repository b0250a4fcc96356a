"""Influence scoring and the controlled-experiment driver."""

from __future__ import annotations

import dataclasses
import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as stx

from strategy_tuner import (
    CostModel,
    DominancyReport,
    IntVal,
    ParamScore,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TimedOut,
    TunerError,
    influence_score,
    run_dominancy,
)
from strategy_tuner.dominancy import report_table, report_to_json


class TestInfluenceScore:
    def test_worked_example(self):
        # a = 13 - 8 = 5, b = 5 - 4 = 1, d = 13 - 4 = 9
        assert influence_score(13, 4, 8, 5) == pytest.approx(1 / 3, abs=1e-12)

    def test_inert_parameter_scores_zero(self):
        assert influence_score(13, 4, 13, 4) == 0.0

    def test_fully_explanatory_parameter_scores_one(self):
        # a = 9, b = 9, d = 9
        assert influence_score(13, 4, 4, 13) == pytest.approx(1.0, abs=1e-12)

    def test_negative_scores_returned_as_is(self):
        # selected produced MORE alarms than the low baseline
        score = influence_score(10, 2, 14, 2)
        assert score == pytest.approx((0.5 * -4 + 0.5 * 0) / 8)
        assert score < 0

    def test_equal_baselines_rejected(self):
        with pytest.raises(TunerError, match="^baselines do not separate: low=5, high=5$"):
            influence_score(5, 5, 5, 5)
        with pytest.raises(TunerError, match="^baselines do not separate: low=3, high=7$"):
            influence_score(3, 7, 3, 3)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            influence_score(-1, 0, 0, 0)

    @given(
        stx.integers(0, 50),
        stx.integers(0, 50),
        stx.integers(0, 50),
        stx.integers(0, 50),
        stx.integers(0, 100),
    )
    def test_shift_invariance(self, low, high, selected, excluded, shift):
        if low <= high:
            low = high + 1 + low
        base = influence_score(low, high, selected, excluded)
        shifted = influence_score(low + shift, high + shift, selected + shift, excluded + shift)
        assert shifted == pytest.approx(base, abs=1e-9)


@pytest.fixture
def slevel_only_profile(catalog):
    """Alarms eliminable through slevel alone: score(slevel) = 1."""
    return SyntheticProfile(
        catalog=catalog,
        alarms=(
            SyntheticAlarm(
                "a1", catalog.bottom_configuration().replace("slevel", IntVal(10))
            ),
            SyntheticAlarm(
                "a2", catalog.bottom_configuration().replace("slevel", IntVal(50))
            ),
            SyntheticAlarm("stuck", None),
        ),
        cost=CostModel(base_cost=0.01),
    )


class TestRunDominancy:
    def test_slevel_dominates_by_construction(self, catalog, slevel_only_profile):
        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        report = run_dominancy(
            "synthetic",
            low,
            high,
            catalog,
            SyntheticAnalyzer(slevel_only_profile),
            timeout=10.0,
        )
        assert report.alarms_low == 3
        assert report.alarms_high == 1
        assert report.dominant == "slevel"
        by_name = {entry.name: entry for entry in report.scores}
        assert by_name["slevel"].score == pytest.approx(1.0)
        for name, entry in by_name.items():
            if name != "slevel":
                assert entry.score == pytest.approx(0.0)

    def test_exactly_two_analyses_per_parameter_plus_baselines(
        self, catalog, slevel_only_profile
    ):
        calls = []
        inner = SyntheticAnalyzer(slevel_only_profile)

        class Counting:
            def run(self, task):
                calls.append(task)
                return inner.run(task)

        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        run_dominancy("synthetic", low, high, catalog, Counting(), timeout=10.0)
        assert len(calls) == 2 * len(catalog) + 2

    @pytest.mark.parametrize("num_process", [0, -3, 2.5, True])
    def test_bad_worker_count_rejected_before_any_analysis(
        self, catalog, slevel_only_profile, num_process
    ):
        calls = []
        inner = SyntheticAnalyzer(slevel_only_profile)

        class RealClock:  # not virtual-clock, so the worker count reaches a pool
            def run(self, task):
                calls.append(task)
                return inner.run(task)

        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        with pytest.raises(ValueError, match="num_process must be an int >= 1"):
            run_dominancy(
                "synthetic", low, high, catalog, RealClock(), 10.0, num_process=num_process
            )
        assert calls == []

    @pytest.mark.parametrize("timeout", [math.inf, 10**400, 0.0], ids=["inf", "10**400", "0.0"])
    def test_a_deadline_that_is_no_positive_amount_is_rejected_before_any_analysis(
        self, catalog, slevel_only_profile, timeout
    ):
        # before: an infinite deadline ran every analysis with none
        calls = []
        inner = SyntheticAnalyzer(slevel_only_profile)

        class Counting:
            def run(self, task):
                calls.append(task)
                return inner.run(task)

        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        with pytest.raises(ValueError, match="timeout must be a positive finite number"):
            run_dominancy("synthetic", low, high, catalog, Counting(), timeout=timeout)
        assert calls == []

    def test_both_batches_share_one_pool(self, catalog, slevel_only_profile):
        inner = SyntheticAnalyzer(slevel_only_profile)
        threads = []

        class RealClock:  # not virtual-clock, so the batches use a pool
            def run(self, task):
                threads.append(threading.current_thread())
                return inner.run(task)

        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        before = threading.active_count()
        report = run_dominancy(
            "synthetic", low, high, catalog, RealClock(), timeout=10.0, num_process=1
        )
        assert report.dominant == "slevel"
        assert len(threads) == 2 * len(catalog) + 2
        # One worker serves the baselines and every controlled pair; a
        # pool per batch would have started a second thread.
        assert len(set(threads)) == 1
        assert threading.active_count() == before

    def test_identical_baselines_error(self, catalog, slevel_only_profile):
        low = catalog.bottom_configuration()
        with pytest.raises(TunerError, match="^baselines do not separate: low=(\\d+), high=\\1$"):
            run_dominancy(
                "synthetic",
                low,
                low,
                catalog,
                SyntheticAnalyzer(slevel_only_profile),
                timeout=10.0,
            )

    def test_controlled_pairs_differ_in_one_parameter(self, catalog, slevel_only_profile):
        low = catalog.bottom_configuration()
        high = (
            low.replace("slevel", IntVal(50)).replace("ilevel", IntVal(9))
        )
        report = run_dominancy(
            "synthetic", low, high, catalog, SyntheticAnalyzer(slevel_only_profile), timeout=10.0
        )
        assert tuple(p.name for p in report.scores) == catalog.names
        for pair in report.scores:
            diff_sel = [n for n in catalog.names if pair.selected_config[n] != low[n]]
            diff_exc = [n for n in catalog.names if pair.excluded_config[n] != high[n]]
            assert diff_sel in ([], [pair.name])
            assert diff_exc in ([], [pair.name])
            assert pair.alarms_selected is not None
            assert pair.alarms_excluded is not None

    def test_unavailable_scores_excluded_from_argmax(self, catalog, slevel_only_profile):
        inner = SyntheticAnalyzer(slevel_only_profile)

        class FlakyOnSlevel:
            def run(self, task):
                # fail the controlled runs whose slevel is the high value
                # but whose ilevel differs from both baselines' pairing
                outcome = inner.run(task)
                if task.config["slevel"] == IntVal(50) and task.config["ilevel"] == IntVal(0):
                    return TimedOut(task.timeout)
                return outcome

        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50)).replace("ilevel", IntVal(9))
        report = run_dominancy(
            "synthetic", low, high, catalog, FlakyOnSlevel(), timeout=10.0
        )
        by_name = {entry.name: entry for entry in report.scores}
        assert by_name["slevel"].score is None
        assert report.dominant != "slevel"

    def test_failed_baseline_raises(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(), cost=CostModel(base_cost=100.0)
        )
        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        with pytest.raises(TunerError):
            run_dominancy(
                "synthetic", low, high, catalog, SyntheticAnalyzer(profile), timeout=1.0
            )

    def test_scores_in_unit_interval_for_monotone_profile(self, catalog, slevel_only_profile):
        low = catalog.bottom_configuration()
        high = (
            low.replace("slevel", IntVal(50))
            .replace("ilevel", IntVal(16))
            .replace("plevel", IntVal(20))
        )
        report = run_dominancy(
            "synthetic",
            low,
            high,
            catalog,
            SyntheticAnalyzer(slevel_only_profile),
            timeout=10.0,
        )
        for entry in report.scores:
            assert entry.score is not None
            assert 0.0 <= entry.score <= 1.0

    def test_report_is_pure_function_of_alarm_sets(self, catalog, slevel_only_profile):
        low = catalog.bottom_configuration()
        high = low.replace("slevel", IntVal(50))
        analyzer = SyntheticAnalyzer(slevel_only_profile)
        r1 = run_dominancy("synthetic", low, high, catalog, analyzer, timeout=10.0)
        r2 = run_dominancy("synthetic", low, high, catalog, analyzer, timeout=10.0)
        assert r1 == r2

    def test_twisted_profile_can_score_negative(self, catalog):
        """Non-monotone behavior surfaces as a negative influence score."""
        from strategy_tuner import BoolVal, Twist

        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm(
                    "a2", catalog.bottom_configuration().replace("ilevel", IntVal(5))
                ),
                SyntheticAlarm(
                    "a3",
                    catalog.bottom_configuration().replace("octagon-through-calls", BoolVal(True)),
                ),
            ),
            twists=(Twist("a2", "slevel", IntVal(30)),),
        )
        low = catalog.bottom_configuration()
        high = (
            low.replace("slevel", IntVal(50))
            .replace("ilevel", IntVal(5))
            .replace("octagon-through-calls", BoolVal(True))
        )
        report = run_dominancy(
            "synthetic", low, high, catalog, SyntheticAnalyzer(profile), timeout=10.0
        )
        by_name = {entry.name: entry for entry in report.scores}
        # excluding slevel un-poisons a2, beating the high baseline
        assert by_name["slevel"].score < 0


def report_of(catalog, scores, selected=None) -> DominancyReport:
    """A report over the first len(scores) parameters: alarms 5 low, 2 high."""
    low = catalog.bottom_configuration()
    rows = tuple(
        ParamScore(name, low, low, selected, None if score is None else 2, score)
        for name, score in zip(catalog.names, scores)
    )
    return DominancyReport(alarms_low=5, alarms_high=2, scores=rows)


class TestReport:
    def test_a_report_stores_only_its_counts_and_scores(self):
        names = [field.name for field in dataclasses.fields(DominancyReport)]
        assert names == ["alarms_low", "alarms_high", "scores"]
        names = [field.name for field in dataclasses.fields(ParamScore)]
        assert names == [
            "name", "selected_config", "excluded_config", "alarms_selected", "alarms_excluded",
            "score",
        ]

    @pytest.mark.parametrize(
        "scores, dominant, tie",
        [
            ([None, 0.5, 0.25, 0.5], "auto-loop-unroll", True),
            ([-0.5, -0.25, None], "auto-loop-unroll", False),
            ([0.0], "min-loop-unroll", False),
            ([None, None], None, False),
        ],
    )
    def test_dominant_is_the_first_highest_score(self, catalog, scores, dominant, tie):
        report = report_of(catalog, scores)
        assert (report.dominant, report.tie) == (dominant, tie)

    def test_no_score_means_no_dominant_parameter(self, catalog):
        report = report_of(catalog, [None] * len(catalog), selected=3)
        lines = report_table(report).splitlines()
        assert lines[2] == "min-loop-unroll                   3      n/a   n/a   n/a     3      n/a"
        assert all(line.endswith("n/a") for line in lines[2 : 2 + len(catalog)])
        assert lines[-2:] == ["baselines: low=5 high=2 d=3", "dominant parameter: unavailable"]
        obj = report_to_json(report)
        assert (obj["dominant"], obj["tie"]) == (None, False)
        assert obj["scores"][0] == {
            "name": "min-loop-unroll",
            "alarms_selected": 3,
            "alarms_excluded": None,
            "a": None,
            "b": None,
            "score": None,
            "dominant": False,
        }

    def test_table_and_json_derive_a_and_b(self, catalog):
        report = report_of(catalog, [1 / 3], selected=4)
        assert report_table(report).splitlines()[2] == (
            "min-loop-unroll                   4        2     1     0     3    0.333  *"
        )
        row = report_to_json(report)["scores"][0]
        assert (row["a"], row["b"], row["dominant"]) == (1, 0, True)
