"""Loop behavior: matrix building, dispatch, refinement, and budget."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import io
import json
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as stx

from strategy_tuner import (
    AnalysisTask,
    BestSample,
    Completed,
    CostModel,
    Crashed,
    IntVal,
    InvalidSettingsError,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TimedOut,
    TuneResult,
    TunerSettings,
    build_result_matrix,
    config_dominates,
    default_catalog,
    leq,
    parse_configuration,
    parse_profile,
    refine_delta,
    tune,
)
from strategy_tuner import orchestrator
from strategy_tuner.analyzers import synthetic_alarms
from strategy_tuner.paramspace import Configuration
from strategy_tuner.trace import record_to_json


def _configs_with_slevel(catalog, values):
    return [catalog.base_configuration().replace("slevel", IntVal(v)) for v in values]


class TestBuildResultMatrix:
    def test_failed_analyses_excluded(self, catalog):
        # six analyses, the last one failed; the universe covers exactly
        # the alarms some completed analysis produced
        values = [58, 103, 104, 1000, 9, 9999]
        configs = _configs_with_slevel(catalog, values)
        alarm_sets = [
            {"alarm-3", "alarm-4"},
            {"alarm-3", "alarm-4"},
            {"alarm-4"},
            {"alarm-4"},
            {"alarm-2", "alarm-3", "alarm-4"},
        ]
        outcomes = [Completed(frozenset(s), 1.0) for s in alarm_sets] + [TimedOut(5.0)]
        matrix = build_result_matrix(outcomes, configs)
        assert len(matrix.produced) == 5
        assert set(matrix.alarms) == {"alarm-2", "alarm-3", "alarm-4"}
        assert matrix.values[catalog.names.index("slevel")] == (
            IntVal(58),
            IntVal(103),
            IntVal(104),
            IntVal(1000),
            IntVal(9),
        )
        for j in range(len(matrix.alarms)):
            assert any(row[j] for row in matrix.produced)

    def test_zero_completed(self, catalog):
        configs = _configs_with_slevel(catalog, [1, 2])
        matrix = build_result_matrix([TimedOut(1.0), Crashed("boom")], configs)
        assert len(matrix.produced) == 0
        assert len(matrix.alarms) == 0
        assert matrix.values == ((),) * len(catalog.names)

    def test_universe_orders_by_first_appearance_then_lex(self, catalog):
        configs = _configs_with_slevel(catalog, [1, 2])
        outcomes = [
            Completed(frozenset({"zeta", "beta"}), 1.0),
            Completed(frozenset({"alpha", "beta"}), 1.0),
        ]
        matrix = build_result_matrix(outcomes, configs)
        # the trace's universe keeps first-seen order; the matrix's columns are the sorted ids
        assert orchestrator.alarm_universe(tuple(outcomes)) == ("beta", "zeta", "alpha")
        assert matrix.alarms == ("alpha", "beta", "zeta")

    def test_duplicate_alarm_sets_counted_once(self, catalog):
        configs = _configs_with_slevel(catalog, [1, 2])
        outcomes = [
            Completed(frozenset({"a", "b"}), 1.0),
            Completed(frozenset({"a", "b"}), 1.0),
        ]
        matrix = build_result_matrix(outcomes, configs)
        assert len(matrix.alarms) == 2

    def test_misaligned_inputs_rejected(self, catalog):
        with pytest.raises(ValueError):
            build_result_matrix([TimedOut(1.0)], [])

    def test_shared_and_copied_alarm_sets_agree(self, catalog):
        # an analyzer may hand out one object per distinct alarm set, or a
        # fresh copy per analysis; the matrix is the same either way
        configs = _configs_with_slevel(catalog, [1, 2, 3, 4, 5, 6])
        sets = [("b", "a"), ("c",), ("b", "a"), (), None, ("c",)]
        one_each = {s: frozenset(s) for s in sets if s is not None}
        shared = [TimedOut(1.0) if s is None else Completed(one_each[s], 1.0) for s in sets]
        copies = [TimedOut(1.0) if s is None else Completed(frozenset(s), 1.0) for s in sets]
        assert shared[0].alarms is shared[2].alarms
        assert copies[0].alarms is not copies[2].alarms
        matrix = build_result_matrix(shared, configs)
        assert matrix == build_result_matrix(copies, configs)
        assert matrix.alarms == ("a", "b", "c")
        assert matrix.values == tuple(zip(*(configs[i].values for i in (0, 1, 2, 3, 5))))
        assert list(matrix.produced) == [
            (True, True, False),
            (False, False, True),
            (True, True, False),
            (False, False, False),
            (False, False, True),
        ]


def _makespan_one_slot_per_worker(durations, workers):
    """The schedule as it was: one slot for every worker, however few tasks."""
    if not durations:
        return 0.0
    free = [0.0] * max(1, workers)
    for d in durations:
        idx = min(range(len(free)), key=free.__getitem__)
        free[idx] += d
    return max(free)


class TestMakespan:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_as_one_slot_per_worker(self, seed):
        rng = random.Random(seed)
        durations = [
            rng.choice((0.0, 1.5, rng.uniform(0.0, 10.0))) for _ in range(rng.randint(1, 16))
        ]
        for workers in [*range(1, 2 * len(durations) + 1), 100_000]:
            assert orchestrator._makespan(durations, workers) == _makespan_one_slot_per_worker(
                durations, workers
            )

    def test_no_tasks(self):
        assert orchestrator._makespan([], 100_000) == 0.0


class TestSettingsValidation:
    def test_defaults_are_valid(self):
        settings = TunerSettings(time_budget=60.0)
        assert settings.num_sample == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_budget": 0.0},
            {"time_budget": 60.0, "num_sample": 0},
            {"time_budget": 60.0, "num_process": 0},
            {"time_budget": 60.0, "max_iterations": -1},
            {"time_budget": math.inf},
            {"time_budget": math.nan},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidSettingsError):
            TunerSettings(**kwargs)

    def test_rejection_names_the_field(self):
        with pytest.raises(InvalidSettingsError) as info:
            TunerSettings(time_budget=math.inf)
        assert info.value.field == "time_budget"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sample", 2.5),
            ("num_sample", 4.0),
            ("num_process", 2.0),
            ("seed", 1.5),
            ("seed", "1"),
            ("max_iterations", 2.5),
            ("num_sample", True),
            ("seed", False),
        ],
    )
    def test_counts_must_be_ints(self, field, value):
        # before: max_iterations 2.5 ran past its cap, seed 1.5 became
        # seed 1 and num_sample 2.5 raised a TypeError out of tune
        with pytest.raises(InvalidSettingsError, match=f"{field} must be an int") as info:
            TunerSettings(time_budget=60.0, **{field: value})
        assert info.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_budget", "5"),
            ("time_budget", True),
            pytest.param("time_budget", 10**400, id="time_budget-1e400"),
            pytest.param("time_budget", 2**1024, id="time_budget-2^1024"),
        ],
    )
    def test_numbers_must_be_ints_or_floats(self, field, value):
        # before: a string raised a bare TypeError out of the range check,
        # True passed it as 1, and an int past a float's range passed it and
        # ended tune in OverflowError
        with pytest.raises(InvalidSettingsError, match=f"{field} must be a") as info:
            TunerSettings(**{"time_budget": 60.0, field: value})
        assert info.value.field == field

    def test_refinement_defaults_to_the_paper(self):
        assert TunerSettings(time_budget=60.0).refinement == "paper"
        assert TunerSettings(time_budget=60.0, refinement="evidence").refinement == "evidence"

    @pytest.mark.parametrize("value", ["contrast", "Paper", " evidence", "", 1, None])
    def test_refinement_must_be_a_rule(self, value):
        with pytest.raises(InvalidSettingsError, match="refinement must be 'paper' or") as info:
            TunerSettings(time_budget=60.0, refinement=value)
        assert info.value.field == "refinement"

    @pytest.mark.parametrize("value", [0, -1, True, 2.5, "3"])
    def test_patience_must_be_an_int_of_at_least_one(self, value):
        with pytest.raises(InvalidSettingsError, match="patience must be an int >= 1") as info:
            TunerSettings(time_budget=60.0, patience=value)
        assert info.value.field == "patience"

    def test_patience_defaults_to_three_and_may_be_none(self):
        assert TunerSettings(time_budget=60.0).patience == 3
        assert TunerSettings(time_budget=60.0, patience=None).patience is None
        assert TunerSettings(time_budget=60.0, patience=1).patience == 1

    def test_numbers_may_be_ints(self):
        assert TunerSettings(time_budget=5).time_budget == 5

    def test_an_int_budget_is_kept_as_a_float(self):
        # an int budget gave an int total: 0, where the same run's float budget gives 0.0
        settings = TunerSettings(time_budget=60, max_iterations=0)
        assert type(settings.time_budget) is float
        total = TuneResult(settings, {}, ()).wall_time_total
        assert type(total) is float and total == 0.0

    def test_the_iteration_fraction_and_the_minimum_slice_are_constants(self):
        settings = TunerSettings(time_budget=60.0)
        assert (settings.iteration_fraction, settings.min_slice) == (0.5, 1.0)
        assert (TunerSettings.iteration_fraction, TunerSettings.min_slice) == (0.5, 1.0)
        assert len(dataclasses.fields(TunerSettings)) == 7
        assert dataclasses.replace(settings, seed=4).min_slice == 1.0
        for name in ("iteration_fraction", "min_slice"):
            with pytest.raises(TypeError):
                TunerSettings(time_budget=1, **{name: 2})


class ConcurrencyProbe:
    """Records peak concurrent run() calls; completes with no alarms."""

    def __init__(self, hold: float = 0.05):
        self.hold = hold
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def run(self, task: AnalysisTask):
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        time.sleep(self.hold)
        with self._lock:
            self._active -= 1
        return Completed(frozenset(), self.hold)


class TestDispatch:
    def test_peak_concurrency_bounded(self, catalog):
        probe = ConcurrencyProbe()
        settings = TunerSettings(
            time_budget=30.0, num_sample=4, num_process=2, seed=0, max_iterations=1
        )
        result = tune("prog", catalog, settings, probe)
        assert len(result.iteration_trace) == 1
        assert probe.peak <= 2

    def test_exactly_num_sample_tasks(self, catalog):
        probe = ConcurrencyProbe(hold=0.0)
        settings = TunerSettings(
            time_budget=30.0, num_sample=6, num_process=3, seed=0, max_iterations=2
        )
        result = tune("prog", catalog, settings, probe)
        for record in result.iteration_trace:
            assert len(record.sampled_configs) == 6
            assert len(record.outcomes) == 6

    def test_raising_analyzer_recorded_as_crash(self, catalog):
        class Exploding:
            def run(self, task):
                raise RuntimeError("kaboom")

        settings = TunerSettings(time_budget=30.0, seed=0, max_iterations=1)
        result = tune("prog", catalog, settings, Exploding())
        record = result.iteration_trace[0]
        assert all(isinstance(o, Crashed) for o in record.outcomes)
        assert record_to_json(record)["completed"] == 0


class Returning:
    """A virtual-clock analyzer that returns ``make(task)`` for every task."""

    virtual_clock = True

    def __init__(self, make):
        self.make = make

    def run(self, task):
        return self.make(task)


def _contract_run(catalog, make):
    settings = TunerSettings(time_budget=100.0, max_iterations=5)
    return tune("prog", catalog, settings, Returning(make))


class TestAnalyzerContract:
    """``run_batch`` turns what an analyzer must not return into a crash or a timeout."""

    @pytest.mark.parametrize("wall", [-10.0, math.nan, math.inf, "1"])
    def test_bad_wall_time_is_a_crash(self, catalog, wall):
        # a wall time of -10 gave a total of -200.0 s: the budget grew
        for make in (lambda t: Completed(frozenset(), wall), lambda t: TimedOut(wall)):
            result = _contract_run(catalog, make)
            for record in result.iteration_trace:
                assert all(isinstance(o, Crashed) for o in record.outcomes)
            assert result.wall_time_total == 0.0

    @pytest.mark.parametrize("wall", [True, False])
    @pytest.mark.parametrize("status", [Completed, TimedOut])
    def test_bool_wall_time_is_a_crash(self, catalog, status, wall):
        # True passed as a time of 1: the trace held "wall_time": true,
        # which read_trace rejected at record 0
        from strategy_tuner.trace import read_trace, write_record

        buffer = io.StringIO()
        settings = TunerSettings(time_budget=100.0, max_iterations=1)
        write = lambda record: write_record(buffer, record)  # noqa: E731
        make = (lambda t: Completed(frozenset({"a"}), wall)) if status is Completed else (
            lambda t: TimedOut(wall)
        )
        result = tune("prog", catalog, settings, Returning(make), on_record=write)
        infos = {o.exit_info for r in result.iteration_trace for o in r.outcomes}
        assert infos == {f"analyzer reported wall time {wall!r}"}
        assert tuple(read_trace(buffer.getvalue())) == result.iteration_trace

    @pytest.mark.parametrize("status", [Completed, TimedOut])
    def test_overshoot_is_a_timeout_at_the_deadline(self, catalog, status):
        # ten times the deadline charged 500 s of a 100 s budget
        def make(task):
            wall = 10 * task.timeout
            return Completed(frozenset(), wall) if status is Completed else TimedOut(wall)

        result = _contract_run(catalog, make)
        for record in result.iteration_trace:
            assert all(isinstance(o, TimedOut) for o in record.outcomes)
        deadlines = [o.wall_time for r in result.iteration_trace for o in r.outcomes]
        assert deadlines[0] == 100.0 * 0.5 / 4
        assert sum(r.elapsed for r in result.iteration_trace) <= 100.0
        assert result.wall_time_total <= 100.0

    def test_alarms_not_a_frozenset_is_a_crash(self, catalog):
        # a list raised TypeError (unhashable) out of tune
        result = _contract_run(catalog, lambda t: Completed(["a", "a"], 1.0))
        record = result.iteration_trace[0]
        assert all(isinstance(o, Crashed) for o in record.outcomes)
        assert "list" in record.outcomes[0].exit_info

    @pytest.mark.parametrize(
        "alarms, kinds",
        [
            (frozenset({1, "a"}), "int"),
            (frozenset({1, 2}), "int"),
            (frozenset({b"x", 2.5}), "bytes, float"),
        ],
        ids=["int-and-str", "ints", "bytes-and-float"],
    )
    def test_alarm_ids_not_all_strings_is_a_crash(self, catalog, alarms, kinds):
        # {1, "a"} made tune raise TypeError from the result matrix's sort;
        # {1, 2} wrote a trace that read_trace rejected at record 0
        from strategy_tuner.trace import read_trace, write_record

        buffer = io.StringIO()
        settings = TunerSettings(time_budget=100.0, max_iterations=3)
        write = lambda record: write_record(buffer, record)  # noqa: E731
        analyzer = Returning(lambda t: Completed(alarms, 1.0))
        result = tune("prog", catalog, settings, analyzer, on_record=write)
        infos = {o.exit_info for r in result.iteration_trace for o in r.outcomes}
        assert infos == {f"analyzer reported alarm ids as {kinds}"}
        assert tuple(read_trace(buffer.getvalue())) == result.iteration_trace

    def test_a_shared_alarm_set_is_checked_once_a_batch(self, catalog):
        class CountingSet(frozenset):
            iterations = 0

            def __iter__(self):
                CountingSet.iterations += 1
                return super().__iter__()

        shared = CountingSet({"a", "b"})
        configs = [catalog.base_configuration()] * 4
        analyzer = Returning(lambda t: Completed(shared, 1.0))
        for batch in range(1, 3):
            outcomes = orchestrator.run_batch(analyzer, "prog", configs, 10.0, map)
            assert all(o.alarms is shared for o in outcomes)
            assert CountingSet.iterations == batch

    def test_not_an_outcome_is_a_crash(self, catalog):
        # None ran at no charge, and writing the trace raised AttributeError
        from strategy_tuner.trace import read_trace, write_record

        buffer = io.StringIO()
        settings = TunerSettings(time_budget=100.0, max_iterations=5, patience=None)
        write = lambda record: write_record(buffer, record)  # noqa: E731
        result = tune("prog", catalog, settings, Returning(lambda t: None), on_record=write)
        assert len(result.iteration_trace) == 5
        for record in result.iteration_trace:
            assert all(isinstance(o, Crashed) for o in record.outcomes)
        assert "NoneType" in result.iteration_trace[0].outcomes[0].exit_info
        assert tuple(read_trace(buffer.getvalue())) == result.iteration_trace

    @pytest.mark.parametrize("info", [None, object()], ids=["None", "object"])
    def test_exit_info_not_a_str_is_a_crash(self, catalog, info):
        # None was written as null and read back as 'None'; an object made
        # writing the trace raise TypeError out of tune
        from strategy_tuner.trace import read_trace, write_record

        buffer = io.StringIO()
        settings = TunerSettings(time_budget=100.0, max_iterations=2)
        write = lambda record: write_record(buffer, record)  # noqa: E731
        analyzer = Returning(lambda t: Crashed(info))
        result = tune("prog", catalog, settings, analyzer, on_record=write)
        assert len(result.iteration_trace) == 2
        infos = {o.exit_info for r in result.iteration_trace for o in r.outcomes}
        assert infos == {f"analyzer reported exit info as {type(info).__name__}"}
        assert tuple(read_trace(buffer.getvalue())) == result.iteration_trace

    def test_valid_outcomes_pass_through(self, catalog):
        kept = [Completed(frozenset({"a"}), 1.0), TimedOut(12.5), Crashed("exit status 1")]
        for outcome in kept:
            result = _contract_run(catalog, lambda t: outcome)
            assert result.iteration_trace[0].outcomes[0] is outcome


class ThreadRecorder:
    """A real-clock analyzer noting the thread each analysis runs on.

    It keeps the thread objects, so a thread that has exited is never
    confused with a later one that reuses its identifier.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self._lock = threading.Lock()
        self.threads: list[threading.Thread] = []

    def run(self, task: AnalysisTask):
        with self._lock:
            self.threads.append(threading.current_thread())
        if self.inner is not None:
            return self.inner.run(task)
        return Completed(frozenset(), 0.0)

    def distinct(self) -> int:
        return len(set(self.threads))


class TestWorkerPool:
    def test_one_pool_for_the_whole_run(self, catalog):
        recorder = ThreadRecorder()
        settings = TunerSettings(
            time_budget=30.0, num_sample=4, num_process=2, seed=0, max_iterations=5, patience=None
        )
        result = tune("prog", catalog, settings, recorder)
        assert len(result.iteration_trace) == 5
        assert len(recorder.threads) == 20
        assert 1 <= recorder.distinct() <= 2
        assert threading.main_thread() not in recorder.threads

    def test_threads_end_when_tune_returns(self, catalog):
        before = threading.active_count()
        settings = TunerSettings(
            time_budget=30.0, num_sample=4, num_process=3, seed=0, max_iterations=3
        )
        tune("prog", catalog, settings, ThreadRecorder())
        assert threading.active_count() == before

    def test_threads_end_when_on_record_raises(self, catalog):
        before = threading.active_count()
        settings = TunerSettings(
            time_budget=30.0, num_sample=4, num_process=3, seed=0, max_iterations=5
        )

        def on_record(record):
            if record.index == 1:
                raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            tune("prog", catalog, settings, ThreadRecorder(), on_record=on_record)
        assert threading.active_count() == before

    def test_virtual_clock_runs_on_the_calling_thread(
        self, catalog, incompressible_profile, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a virtual-clock run created a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        recorder = ThreadRecorder(SyntheticAnalyzer(incompressible_profile))
        recorder.virtual_clock = True
        settings = TunerSettings(
            time_budget=100.0, num_sample=4, num_process=2, seed=0, max_iterations=3
        )
        tune("synthetic", catalog, settings, recorder)
        assert set(recorder.threads) == {threading.current_thread()}

    def test_run_batch_uses_the_given_pool(self, catalog, monkeypatch):
        with ThreadPoolExecutor(max_workers=1) as pool:
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
            recorder = ThreadRecorder()
            configs = [catalog.base_configuration()] * 3
            for _ in range(2):
                outcomes = orchestrator.run_batch(recorder, "prog", configs, 1.0, pool.map)
                assert all(isinstance(o, Completed) for o in outcomes)
        assert len(recorder.threads) == 6
        assert recorder.distinct() == 1


@pytest.fixture
def incompressible_profile(catalog):
    return SyntheticProfile(
        catalog=catalog,
        alarms=(SyntheticAlarm("stuck-1", None), SyntheticAlarm("stuck-2", None)),
        cost=CostModel(base_cost=0.2),
    )


class TestEtaScaling:
    def test_all_timed_out_scales_down(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(), cost=CostModel(base_cost=10_000.0)
        )
        settings = TunerSettings(
            time_budget=100.0, num_sample=4, num_process=4, seed=0, max_iterations=1
        )
        result = tune("synthetic", catalog, settings, SyntheticAnalyzer(profile))
        record = result.iteration_trace[0]
        assert all(isinstance(o, TimedOut) for o in record.outcomes)
        assert record_to_json(record)["eta"] == 0.25
        before = record.distributions_before["slevel"]
        after = record.distributions_after["slevel"]
        assert after.delta == (before.delta[0] * 0.25,)
        assert after.base == before.base
        (q_before,) = record.distributions_before["split-return"].delta
        (q_after,) = record.distributions_after["split-return"].delta
        assert q_after == pytest.approx(1.0 - (1.0 - q_before) ** 0.25)

    def test_all_completed_scales_up(self, catalog, incompressible_profile):
        settings = TunerSettings(
            time_budget=100.0, num_sample=4, num_process=4, seed=0, max_iterations=1
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(incompressible_profile)
        )
        record = result.iteration_trace[0]
        written = record_to_json(record)
        assert written["completed"] == 4
        assert written["eta"] == 2.25

    def test_loop_continues_after_zero_completions(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(), cost=CostModel(base_cost=10_000.0)
        )
        settings = TunerSettings(
            time_budget=40_000.0, num_sample=2, num_process=2, seed=0, max_iterations=3
        )
        result = tune("synthetic", catalog, settings, SyntheticAnalyzer(profile))
        assert len(result.iteration_trace) >= 2


class TestBudget:
    def test_budget_below_min_slice_runs_nothing(self, catalog, incompressible_profile):
        settings = TunerSettings(time_budget=0.5, seed=0)
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(incompressible_profile)
        )
        assert result.iteration_trace == ()
        assert result.recommended_config == catalog.base_configuration()

    def test_virtual_budget_exact_compliance(self, catalog, incompressible_profile):
        settings = TunerSettings(time_budget=3.0, seed=3)
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(incompressible_profile)
        )
        assert result.iteration_trace
        assert result.wall_time_total <= settings.time_budget
        assert result.wall_time_total == pytest.approx(
            sum(r.elapsed for r in result.iteration_trace)
        )

    def test_real_clock_budget_with_grace(self, catalog):
        class Sleeper:
            def run(self, task):
                wait = min(0.02, task.timeout)
                time.sleep(wait)
                return Completed(frozenset(), wait)

        settings = TunerSettings(time_budget=1.6, num_sample=2, num_process=2, seed=0)
        start = time.monotonic()
        result = tune("prog", catalog, settings, Sleeper())
        elapsed = time.monotonic() - start
        assert result.iteration_trace
        assert elapsed <= settings.time_budget * 1.1 + 2.0
        # the run's total is the seconds it charged, on a real clock too: the
        # budget less each record's elapsed, subtracted in order, and within
        # the time measured around the run
        remaining = settings.time_budget
        for record in result.iteration_trace:
            remaining -= record.elapsed
        assert result.wall_time_total == settings.time_budget - remaining
        assert result.wall_time_total <= elapsed

    def test_analyze_phase_fits_one_slice(self, catalog, incompressible_profile):
        # num_process < num_sample: per-analysis deadline shrinks by the
        # number of waves, so one iteration still costs <= one slice
        settings = TunerSettings(
            time_budget=100.0,
            num_sample=4,
            num_process=1,
            seed=0,
            max_iterations=1,
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(incompressible_profile)
        )
        assert result.iteration_trace[0].elapsed <= 50.0 + 1e-9


def _crash(task):
    raise RuntimeError("kaboom")


def _fail_after(limit, seen):
    """An ``on_record`` that keeps each record and fails once ``limit`` are
    written, so a run that would never end fails instead of hanging."""

    def on_record(record):
        seen.append(record)
        if len(seen) >= limit:
            raise AssertionError(f"the run wrote {limit} records and went on")

    return on_record


class TestStopRule:
    """Without a cap, a run ends after an iteration that cannot shrink its budget."""

    def test_every_analysis_crashing_ends_an_uncapped_run(self, catalog):
        seen = []
        settings = TunerSettings(time_budget=10.0)
        result = tune("prog", catalog, settings, Returning(_crash), _fail_after(50, seen))
        assert len(result.iteration_trace) == 1
        assert seen == list(result.iteration_trace)
        assert result.iteration_trace[0].elapsed == 0.0
        assert all(isinstance(o, Crashed) for o in result.iteration_trace[0].outcomes)

    def test_a_capped_run_still_runs_to_its_cap(self, catalog):
        settings = TunerSettings(time_budget=10.0, max_iterations=3)
        result = tune("prog", catalog, settings, Returning(_crash), _fail_after(50, []))
        assert len(result.iteration_trace) == 3

    @pytest.mark.parametrize(
        "budget",
        [dict(time_budget=1e17)],
        ids=["budget-1e17"],
    )
    def test_a_charge_below_half_an_ulp_ends_an_uncapped_run(
        self, catalog, convergence_profile, budget
    ):
        seen = []
        settings = TunerSettings(num_process=4, seed=0, **budget)
        analyzer = SyntheticAnalyzer(convergence_profile)
        result = tune("synthetic", catalog, settings, analyzer, _fail_after(50, seen))
        assert len(result.iteration_trace) == 1
        assert seen == list(result.iteration_trace)
        assert result.iteration_trace[0].elapsed > 0.0
        assert result.wall_time_total == 0.0


def _moved(record) -> bool:
    before, after = record.distributions_before, record.distributions_after
    return any(before[name].base != after[name].base for name in before)


class TestPatience:
    """A run ends after ``patience`` iterations in a row that moved no base."""

    @given(
        seed=stx.integers(0, 2**16),
        patience=stx.integers(1, 4),
        num_sample=stx.sampled_from([3, 6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_a_patient_run_is_a_prefix_of_the_run_to_its_cap(
        self, catalog, convergence_profile, seed, patience, num_sample
    ):
        # the stop takes no draw: a run it ends wrote the first k records
        # of the run to the cap, and the last `patience` of them moved no base
        common = dict(time_budget=1e9, num_sample=num_sample, seed=seed, max_iterations=15)
        analyzer = SyntheticAnalyzer(convergence_profile)
        full = tune("synthetic", catalog, TunerSettings(**common, patience=None), analyzer)
        seen = []
        result = tune(
            "synthetic", catalog, TunerSettings(**common, patience=patience), analyzer, seen.append
        )
        records = result.iteration_trace
        k = len(records)
        assert seen == list(records) == list(full.iteration_trace[:k])
        assert result.final_distributions == full.iteration_trace[k - 1].distributions_after
        moves = [_moved(record) for record in full.iteration_trace]
        if result.stopped_by == "patience":
            assert k >= patience and not any(moves[k - patience : k])
            assert k == patience or moves[k - patience - 1]
        else:
            assert (result.stopped_by, k) == ("max_iterations", 15)
            assert full.stopped_by == "max_iterations"
        # no earlier window of `patience` quiet iterations was passed over
        for end in range(patience, k):
            assert any(moves[end - patience : end])

    def test_a_run_that_moves_no_base_stops_after_patience_records(self, catalog):
        seen = []
        settings = TunerSettings(time_budget=10.0, max_iterations=20, patience=4)
        result = tune("prog", catalog, settings, Returning(_crash), seen.append)
        assert len(result.iteration_trace) == 4
        assert seen == list(result.iteration_trace)
        assert result.stopped_by == "patience"

    @pytest.mark.parametrize(
        "kwargs, rule",
        [
            (dict(time_budget=10.0, max_iterations=0), "max_iterations"),
            (dict(time_budget=0.5), "budget"),
            (dict(time_budget=10.0), "stalled"),
            (dict(time_budget=10.0, max_iterations=2), "max_iterations"),
            (dict(time_budget=10.0, max_iterations=5), "patience"),
        ],
    )
    def test_the_result_names_the_rule_that_ended_the_run(self, catalog, kwargs, rule):
        result = tune("prog", catalog, TunerSettings(**kwargs), Returning(_crash))
        assert result.stopped_by == rule

    def test_a_run_out_of_budget_says_so(self, catalog, convergence_profile):
        settings = TunerSettings(time_budget=60.0, num_process=4, seed=0, patience=None)
        result = tune("synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile))
        assert result.stopped_by == "budget"
        assert settings.time_budget - result.wall_time_total < settings.min_slice

    @given(
        budget=stx.sampled_from([0.5, 60.0, 1e9, 1e13, 1e17]),
        cap=stx.none() | stx.integers(0, 15),
        patience=stx.none() | stx.integers(1, 4),
        num_sample=stx.integers(1, 6),
        seed=stx.integers(0, 2**16),
        crashing=stx.booleans(),
    )
    # two rules hold at once: stalled and patience, patience and the cap, budget and the cap
    @example(budget=60.0, cap=None, patience=1, num_sample=1, seed=0, crashing=True)
    @example(budget=60.0, cap=2, patience=2, num_sample=1, seed=0, crashing=True)
    @example(budget=0.5, cap=0, patience=None, num_sample=1, seed=0, crashing=False)
    @settings(max_examples=60, deadline=None)
    def test_the_first_rule_to_hold_in_order_ends_the_run(
        self, catalog, convergence_profile, budget, cap, patience, num_sample, seed, crashing
    ):
        # only the budget can end an uncapped, impatient run on the convergence
        # profile, and at 1e9 or 1e13 it would take billions of iterations
        assume(crashing or cap is not None or patience is not None or budget < 1e9)
        settings = TunerSettings(
            time_budget=budget, num_sample=num_sample, seed=seed, max_iterations=cap,
            patience=patience,
        )
        analyzer = Returning(_crash) if crashing else SyntheticAnalyzer(convergence_profile)
        result = tune("prog", catalog, settings, analyzer, _fail_after(2000, []))

        def first_rule(index, remaining, quiet, stalled):
            rules = {
                "stalled": stalled and cap is None,
                "patience": quiet == patience,
                "budget": remaining < settings.min_slice,
                "max_iterations": index == cap,
            }
            return next((rule for rule, holds in rules.items() if holds), None)

        # stop_rule, which tune asks before each iteration, agrees with
        # first_rule on every prefix of the records
        records = result.iteration_trace
        remaining, quiet, stalled = budget, 0, False
        lefts = [budget]
        for record in records:
            assert first_rule(record.index, remaining, quiet, stalled) is None
            assert orchestrator.stop_rule(settings, records[: record.index], lefts) is None
            quiet = 0 if _moved(record) else quiet + 1
            stalled = remaining - record.elapsed == remaining
            remaining -= record.elapsed
            lefts.append(remaining)
        index = len(records)
        assert first_rule(index, remaining, quiet, stalled) == result.stopped_by
        assert orchestrator.stop_rule(settings, records, lefts) == result.stopped_by
        # whatever rule ended it, the result is what its records give
        assert result.wall_time_total == budget - remaining
        last = records[-1].distributions_after if records else catalog.initial_distributions()
        assert result.final_distributions == last

    @pytest.mark.parametrize("refinement", ["paper", "evidence"])
    @pytest.mark.parametrize("num_sample", [6, 16])
    def test_the_default_stop_recommends_what_the_run_to_the_cap_does(
        self, catalog, num_sample, refinement
    ):
        # Counting patience in analyses (⌈12 / num_sample⌉ quiet iterations)
        # changes 33 of these 64 outcomes; see ROADMAP "Measured and dropped".
        profile = parse_profile(CONVERGENCE_PROFILE.read_text(encoding="utf-8"), catalog)
        analyzer = SyntheticAnalyzer(profile)
        for seed in range(16):
            common = dict(
                time_budget=1e9, num_sample=num_sample, num_process=2, seed=seed,
                max_iterations=14, refinement=refinement,
            )
            default = tune("synthetic", catalog, TunerSettings(**common), analyzer)
            full = tune("synthetic", catalog, TunerSettings(**common, patience=None), analyzer)
            assert default.recommended_config == full.recommended_config, seed
            assert len(default.best_sampled.alarms) == len(full.best_sampled.alarms), seed


class TestStateEvolution:
    def test_bases_never_regress(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=9, max_iterations=12
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile)
        )
        for record in result.iteration_trace:
            for name in catalog.names:
                assert leq(
                    record.distributions_before[name].base,
                    record.distributions_after[name].base,
                )

    def test_samples_dominate_iteration_base(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=11, max_iterations=12
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile)
        )
        for record in result.iteration_trace:
            base_config = Configuration(
                catalog.names,
                tuple(record.distributions_before[name].base for name in catalog.names),
            )
            for config in record.sampled_configs:
                assert config_dominates(config, base_config)

    def test_incompressible_only_profile_keeps_bases(self, catalog, incompressible_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=5, max_iterations=8
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(incompressible_profile)
        )
        assert result.recommended_config == catalog.base_configuration()

    def test_best_round_alarm_count_non_increasing(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=9, max_iterations=15
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile)
        )
        best_counts = []
        for record in result.iteration_trace:
            counts = [len(o.alarms) for o in record.outcomes if isinstance(o, Completed)]
            assert counts, "benign cost model should never time out"
            best_counts.append(min(counts))
        assert all(b >= a for a, b in zip(best_counts[1:], best_counts))

    def test_recommended_equals_final_bases(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=9, max_iterations=6
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile)
        )
        for name in catalog.names:
            assert result.recommended_config[name] == result.final_distributions[name].base

    def test_best_sampled_consistency(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=9, max_iterations=6
        )
        result = tune(
            "synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile)
        )
        assert result.best_sampled is not None


MIXED_PROFILE = Path(__file__).parent / "data" / "golden" / "mixed.profile"


def _tune_mixed(catalog, seed):
    """The golden ``mixed`` scenario, in which some analyses time out."""
    profile = parse_profile(MIXED_PROFILE.read_text(encoding="utf-8"), catalog)
    settings = TunerSettings(
        time_budget=1500.0, num_sample=6, num_process=2, seed=seed, max_iterations=12
    )
    result = tune("synthetic", catalog, settings, SyntheticAnalyzer(profile))
    outcomes = [o for record in result.iteration_trace for o in record.outcomes]
    assert any(isinstance(o, TimedOut) for o in outcomes)
    assert any(isinstance(o, Completed) for o in outcomes)
    return result


@pytest.fixture(scope="module")
def mixed_run(catalog):
    return _tune_mixed(catalog, seed=4)


class TestLoopRecords:
    """What each iteration hands on to the next, and what ``tune`` returns."""

    def test_record_indices_count_from_zero(self, mixed_run):
        trace = mixed_run.iteration_trace
        assert [record.index for record in trace] == list(range(len(trace)))
        assert len(trace) > 1

    def test_distributions_chain_between_records(self, catalog, mixed_run):
        trace = mixed_run.iteration_trace
        assert trace[0].distributions_before == catalog.initial_distributions()
        for previous, record in zip(trace, trace[1:]):
            assert record.distributions_before == previous.distributions_after
        assert mixed_run.final_distributions == trace[-1].distributions_after

    @pytest.mark.parametrize("seed", [4, 3])
    def test_best_sampled_is_earliest_with_fewest_alarms(self, catalog, seed):
        result = _tune_mixed(catalog, seed)
        trace = result.iteration_trace
        completed = [
            (len(outcome.alarms), k, i)
            for k, record in enumerate(trace)
            for i, outcome in enumerate(record.outcomes)
            if isinstance(outcome, Completed)
        ]
        count, k, i = min(completed)
        alarms = trace[k].outcomes[i].alarms
        best = BestSample(trace[k].sampled_configs[i], tuple(sorted(alarms)))
        assert result.best_sampled == best
        # Under seed 3 (seed 4 is the golden run) later analyses tie the
        # fewest alarms with other configurations, so keeping a later one
        # would differ.
        tied = {trace[k].sampled_configs[i] for c, k, i in completed if c == count}
        assert seed != 3 or len(tied) > 1


class TestReproducibility:
    def test_identical_runs_identical_traces(self, catalog, convergence_profile):
        settings = TunerSettings(
            time_budget=1e9, num_sample=4, num_process=4, seed=21, max_iterations=8
        )
        r1 = tune("synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile))
        r2 = tune("synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile))
        assert r1.iteration_trace == r2.iteration_trace
        assert r1.recommended_config == r2.recommended_config

    def test_different_seeds_differ(self, catalog, convergence_profile):
        base = dict(time_budget=1e9, num_sample=4, num_process=4, max_iterations=4)
        r1 = tune(
            "synthetic",
            catalog,
            TunerSettings(seed=1, **base),
            SyntheticAnalyzer(convergence_profile),
        )
        r2 = tune(
            "synthetic",
            catalog,
            TunerSettings(seed=2, **base),
            SyntheticAnalyzer(convergence_profile),
        )
        assert r1.iteration_trace[0].sampled_configs != r2.iteration_trace[0].sampled_configs


CONVERGENCE_PROFILE = Path(__file__).parent.parent / "samples" / "convergence.profile"


class TestRefinementRules:
    """Both rules over the benchmark's ``converge`` settings and its 48 seed-0 tuner seeds."""

    @staticmethod
    def _eliminated(catalog, rule: str) -> list[int]:
        profile = parse_profile(CONVERGENCE_PROFILE.read_text(encoding="utf-8"), catalog)
        eliminable = {a.alarm_id for a in profile.alarms if a.requirement is not None}
        counts = []
        for seed in range(48):
            settings = TunerSettings(
                time_budget=1e9,
                num_sample=4,
                num_process=2,
                seed=seed,
                max_iterations=14,
                refinement=rule,
            )
            result = tune("synthetic", catalog, settings, SyntheticAnalyzer(profile))
            counts.append(len(eliminable - synthetic_alarms(profile, result.recommended_config)))
        return counts

    def test_paper_recommendation_is_pinned(self, catalog):
        # a mean of 1.5417 of 3 eliminable alarms
        assert sum(self._eliminated(catalog, "paper")) == 74

    def test_evidence_recommendation_eliminates_more(self, catalog):
        counts = self._eliminated(catalog, "evidence")
        assert sum(counts) / len(counts) >= 1.9


# An adversarial analyzer's script: each step is a valid outcome (its wall
# time a fraction of the deadline, past 1 an overshoot), a malformed
# outcome, or _RAISE. The analyzer plays the steps in turn, cycling.
_RAISE = object()
_VALID_STEP = stx.one_of(
    stx.tuples(
        stx.just("completed"),
        stx.frozensets(stx.sampled_from("abcde")),
        stx.floats(0.0, 2.0),
    ),
    stx.tuples(stx.just("timed-out"), stx.floats(0.0, 2.0)),
    stx.tuples(stx.just("crashed"), stx.text(max_size=8)),
)
_MALFORMED_STEP = stx.sampled_from(
    [
        Completed(frozenset({"a"}), True),
        Completed(frozenset(), False),
        TimedOut(True),
        Completed(["a"], 1.0),
        Completed(frozenset({1, "a"}), 1.0),
        Completed(frozenset(), -1.0),
        TimedOut(math.nan),
        Completed(frozenset({"b"}), math.inf),
        TimedOut("1"),
        Crashed(None),
        None,
        "completed",
        _RAISE,
    ]
)


class Adversary:
    """A virtual-clock analyzer that plays its script and notes each deadline."""

    virtual_clock = True

    def __init__(self, script):
        self.script = script
        self.deadlines: list[float] = []

    def run(self, task):
        step = self.script[len(self.deadlines) % len(self.script)]
        self.deadlines.append(task.timeout)
        if step is _RAISE:
            raise RuntimeError("adversary")
        if not isinstance(step, tuple):
            return step
        kind, *args = step
        if kind == "completed":
            return Completed(args[0], args[1] * task.timeout)
        if kind == "timed-out":
            return TimedOut(args[0] * task.timeout)
        return Crashed(args[0])


class TestAdversarialAnalyzer:
    """The paper's invariants hold whatever an analyzer returns or raises."""

    @given(
        script=stx.lists(stx.one_of(_VALID_STEP, _MALFORMED_STEP), min_size=1, max_size=24),
        budget=stx.floats(1.0, 1e4),
        num_sample=stx.integers(1, 6),
        num_process=stx.integers(1, 3),
        iterations=stx.integers(1, 5),
        seed=stx.integers(0, 2**16),
        rule=stx.sampled_from(["paper", "evidence"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_and_read_back(
        self, script, budget, num_sample, num_process, iterations, seed, rule
    ):
        from strategy_tuner.trace import (
            distribution_from_json,
            read_trace,
            result_to_json,
            write_record,
        )

        catalog = default_catalog()
        names = catalog.names
        settings = TunerSettings(
            time_budget=budget,
            num_sample=num_sample,
            num_process=num_process,
            seed=seed,
            max_iterations=iterations,
            refinement=rule,
        )
        analyzer = Adversary(script)
        buffer = io.StringIO()
        write = lambda record: write_record(buffer, record)  # noqa: E731
        result = tune("prog", catalog, settings, analyzer, on_record=write)
        records = result.iteration_trace

        assert records
        assert sum(r.elapsed for r in records) <= budget
        assert result.wall_time_total <= budget
        outcomes = [o for r in records for o in r.outcomes]
        assert len(outcomes) == len(analyzer.deadlines)
        for outcome, deadline in zip(outcomes, analyzer.deadlines):
            if isinstance(outcome, Crashed):
                assert type(outcome.exit_info) is str
                continue
            assert type(outcome.wall_time) in (int, float)
            assert 0.0 <= outcome.wall_time <= deadline
            if isinstance(outcome, Completed):
                assert all(type(a) is str for a in outcome.alarms)
        for previous, record in zip((None, *records), records):
            before, after = record.distributions_before, record.distributions_after
            if previous is not None:
                assert before == previous.distributions_after
            base = Configuration(names, tuple(before[n].base for n in names))
            assert all(config_dominates(c, base) for c in record.sampled_configs)
            assert all(leq(before[n].base, after[n].base) for n in names)
            completed = sum(isinstance(o, Completed) for o in record.outcomes)
            counts = record_to_json(record)
            assert counts["completed"] == completed
            assert counts["eta_c"] == completed / num_sample
            assert counts["eta"] == 2.0 * (completed / num_sample) + 1.0 / num_sample
            assert all(after[n].delta == refine_delta(before[n], counts["eta"]) for n in names)

        assert tuple(read_trace(buffer.getvalue())) == records
        written = json.loads(json.dumps(result_to_json(result)))
        assert written["iterations"] == len(records)
        assert written["wall_time_total"] == result.wall_time_total
        final = {n: distribution_from_json(d) for n, d in written["final_distributions"].items()}
        assert final == result.final_distributions == records[-1].distributions_after
        recommended = "".join(f"{n} = {v}\n" for n, v in written["recommended_config"].items())
        assert parse_configuration(recommended, catalog) == result.recommended_config
        best = written["best_sampled"]
        assert (best is None) == (result.best_sampled is None)
        if best is not None:
            config = "".join(f"{n} = {v}\n" for n, v in best["config"].items())
            assert parse_configuration(config, catalog) == result.best_sampled.config
            assert tuple(best["alarms"]) == result.best_sampled.alarms
            assert best["alarm_count"] == len(result.best_sampled.alarms)
