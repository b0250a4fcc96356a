"""Trace records: lossless round-trip and malformed-input diagnostics."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import re
import reprlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as stx

from strategy_tuner import (
    BitsVal,
    BoolVal,
    Completed,
    ConfigParseError,
    Crashed,
    IntVal,
    IterationRecord,
    ParamDistribution,
    SyntheticAnalyzer,
    TimedOut,
    TuneResult,
    TunerSettings,
    build_result_matrix,
    parse_profile,
    refine_delta,
    scaling_factor,
    tune,
)
from strategy_tuner import cli, orchestrator
from strategy_tuner.paramspace import Catalog, Configuration, ParamSpec
from strategy_tuner.trace import (
    SCHEMA_VERSION,
    distribution_from_json,
    distribution_to_json,
    outcome_from_json,
    read_trace,
    record_from_json,
    record_to_json,
    result_to_json,
    run_from_json,
    run_to_json,
    write_record,
)
from test_golden import SCENARIOS, golden_path, run_scenario
from test_orchestrator import Returning, _crash

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
MIXED_TRACE = GOLDEN_DIR / "mixed.ndjson"


@pytest.fixture(scope="module")
def short_run(catalog_module, profile_module):
    settings = TunerSettings(
        time_budget=1e9, num_sample=3, num_process=2, seed=13, max_iterations=4
    )
    return tune("synthetic", catalog_module, settings, SyntheticAnalyzer(profile_module))


@pytest.fixture(scope="module")
def catalog_module():
    from strategy_tuner import default_catalog

    return default_catalog()


@pytest.fixture(scope="module")
def profile_module(catalog_module):
    from strategy_tuner import CostModel, IntVal, SyntheticAlarm, SyntheticProfile

    requirement = catalog_module.bottom_configuration().replace("slevel", IntVal(30))
    return SyntheticProfile(
        catalog=catalog_module,
        alarms=(SyntheticAlarm("a", requirement), SyntheticAlarm("stuck", None)),
        cost=CostModel(base_cost=0.1),
    )


class TestRoundTrip:
    def test_records_round_trip_losslessly(self, short_run):
        for record in short_run.iteration_trace:
            assert record_from_json(record_to_json(record)) == record

    def test_json_serializable(self, short_run):
        for record in short_run.iteration_trace:
            json.dumps(record_to_json(record))

    def test_schema_version_present(self, short_run):
        obj = record_to_json(short_run.iteration_trace[0])
        assert obj["schema"] == SCHEMA_VERSION

    def test_write_and_read_back(self, short_run):
        buffer = io.StringIO()
        for record in short_run.iteration_trace:
            write_record(buffer, record)
        parsed = read_trace(buffer.getvalue())
        assert tuple(parsed) == short_run.iteration_trace

    def test_read_back_configs_equal_and_hash_equal(self, short_run):
        for record in short_run.iteration_trace:
            back = record_from_json(json.loads(json.dumps(record_to_json(record))))
            for produced, read in zip(record.sampled_configs, back.sampled_configs):
                assert read == produced
                assert hash(read) == hash(produced)

    def test_width_one_vector_keeps_its_kind(self):
        # the base, not the delta's length, names the delta's family: a
        # width-1 vector and a boolean both hold one q
        before = {
            "flag": ParamDistribution(BoolVal(False), (0.25,)),
            "bits": ParamDistribution(BitsVal(0, 1), (0.25,)),
        }
        eta = scaling_factor(0, 1)  # the one analysis crashed
        after = {
            "flag": ParamDistribution(BoolVal(True), refine_delta(before["flag"], eta)),
            "bits": ParamDistribution(BitsVal(1, 1), refine_delta(before["bits"], eta)),
        }
        record = IterationRecord(
            index=0,
            sampled_configs=(Configuration(("flag", "bits"), (BoolVal(True), BitsVal(1, 1))),),
            outcomes=(Crashed("exit 1"),),
            distributions_before=before,
            distributions_after=after,
            elapsed=0.0,
        )
        buffer = io.StringIO()
        write_record(buffer, record)
        written = json.loads(buffer.getvalue())["distributions_before"]
        assert written["flag"] == {"base": "false", "delta": {"kind": "bernoulli", "q": 0.25}}
        assert written["bits"] == {"base": "0", "delta": {"kind": "bernoulli_vector", "qs": [0.25]}}
        (back,) = read_trace(buffer.getvalue())
        assert back == record
        assert type(back.distributions_after["bits"].base) is BitsVal
        assert type(back.distributions_after["flag"].base) is BoolVal

    def test_result_json_shape(self, short_run):
        obj = result_to_json(short_run)
        assert obj["iterations"] == len(short_run.iteration_trace)
        assert set(obj["recommended_config"]) == set(short_run.recommended_config.names)
        assert obj["best_sampled"]["alarm_count"] == len(short_run.best_sampled.alarms)


class TestAlarmOrder:
    def test_completed_alarms_sorted(self, short_run):
        for record in short_run.iteration_trace:
            obj = record_to_json(record)
            for out, written in zip(record.outcomes, obj["outcomes"]):
                if isinstance(out, Completed):
                    assert written["alarms"] == sorted(out.alarms)

    def test_universe_missing_an_alarm(self, short_run):
        # a record carries no universe of its own, so none can lack an
        # alarm: the writer derives it from the outcomes, each distinct set
        # in first-seen order adding its new ids sorted
        record = dataclasses.replace(
            short_run.iteration_trace[0],
            outcomes=(
                Completed(frozenset({"c", "b"}), 1.0),
                TimedOut(2.0),
                Completed(frozenset({"b", "a", "c"}), 1.0),
                Completed(frozenset({"c", "b"}), 1.0),
            ),
        )
        obj = record_to_json(record)
        assert obj["outcomes"][2]["alarms"] == ["a", "b", "c"]
        assert obj["alarm_universe"] == ["b", "c", "a"]
        assert orchestrator.alarm_universe(record.outcomes) == ("b", "c", "a")

    def test_record_whose_universe_lacks_its_alarms(self, short_run):
        # a written record whose universe lacks, adds, repeats or reorders
        # an id of its outcomes is not read
        record = _with_outcomes(
            short_run.iteration_trace[0],
            (Completed(frozenset("zy"), 0.5), TimedOut(1.0), Completed(frozenset(), 2)),
        )
        assert record_to_json(record)["outcomes"][0]["alarms"] == ["y", "z"]
        line = json.dumps(record_to_json(record))
        assert json.loads(line)["alarm_universe"] == ["y", "z"]
        assert read_trace(line)[0] == record
        for universe in (["y"], ["y", "z", "x"], ["y", "z", "y"], ["z", "y"]):
            obj = json.loads(line)
            obj["alarm_universe"] = universe
            with pytest.raises(ConfigParseError, match="record 0 is malformed: alarm_universe"):
                read_trace(json.dumps(obj))

    @pytest.mark.parametrize(
        "sets, universe",
        [
            ([("c", "a"), ("b",), ("c", "a"), (), ("b",)], ["a", "c", "b"]),
            ([("b",), ("c", "a"), ("b",), (), ("c", "a")], ["b", "a", "c"]),
        ],
        ids=["universe-holds-all", "universe-in-another-order"],
    )
    def test_shared_and_copied_alarm_sets_agree(self, short_run, sets, universe):
        # one object per distinct alarm set, or a fresh copy per outcome:
        # the record serializes the same either way, and the order in which
        # the sets first appear orders the universe
        one_each = {s: frozenset(s) for s in sets}
        timed_out = (TimedOut(2.0),)
        base = short_run.iteration_trace[0]
        shared = dataclasses.replace(
            base, outcomes=tuple(Completed(one_each[s], 0.5) for s in sets) + timed_out
        )
        copies = dataclasses.replace(
            base, outcomes=tuple(Completed(frozenset(s), 0.5) for s in sets) + timed_out
        )
        assert shared.outcomes[0].alarms is shared.outcomes[2].alarms
        assert copies.outcomes[0].alarms is not copies.outcomes[2].alarms
        obj = record_to_json(shared)
        assert json.dumps(obj) == json.dumps(record_to_json(copies))
        assert [o.get("alarms") for o in obj["outcomes"]] == [*map(sorted, sets), None]
        assert obj["alarm_universe"] == universe


class TestRunState:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_prefix_of_the_records_is_the_run_so_far(self, catalog_module, name):
        # a run stopped after k iterations wrote the full run's first k
        # records, and its distributions and its budget follow from them
        # alone: the state a resumed run would start from
        profile_path, settings = SCENARIOS[name]
        profile = parse_profile(profile_path.read_text(encoding="utf-8"), catalog_module)
        lines = golden_path(name).read_text(encoding="utf-8").splitlines(keepends=True)
        records = read_trace("".join(lines))
        budget = settings["time_budget"]
        for k in range(1, len(records) + 1):
            stream = io.StringIO()
            result = tune(
                "synthetic",
                catalog_module,
                TunerSettings(**{**settings, "max_iterations": k}),
                SyntheticAnalyzer(profile),
                on_record=lambda record: write_record(stream, record),
            )
            assert stream.getvalue() == "".join(lines[:k])
            assert result.final_distributions == records[k - 1].distributions_after
            remaining = budget
            for record in records[:k]:
                remaining -= record.elapsed
            assert result.wall_time_total == budget - remaining


    @pytest.mark.parametrize(
        "name, overrides, stop",
        [
            *((name, {}, "max_iterations") for name in sorted(SCENARIOS)),
            *(
                (name, {"patience": TunerSettings.patience}, "patience")
                for name in sorted(SCENARIOS)
            ),
            ("crashing", {"time_budget": 10.0, "max_iterations": 0}, "max_iterations"),
            ("crashing", {"time_budget": 0.5}, "budget"),
            ("crashing", {"time_budget": 10.0}, "stalled"),
        ],
    )
    def test_a_result_rebuilds_from_its_trace(self, catalog_module, name, overrides, stop):
        # a result holds nothing that its run file (its settings and its
        # catalog's initial distributions) and its trace do not: result.json
        # and summary.txt follow from them byte for byte
        if name == "crashing":
            settings = TunerSettings(**overrides)
            stream = io.StringIO()
            live = tune(
                "prog", catalog_module, settings, Returning(_crash),
                on_record=lambda record: write_record(stream, record),
            )
            text = stream.getvalue()
        else:
            settings = TunerSettings(**{**SCENARIOS[name][1], **overrides})
            live, text = run_scenario(name, **overrides)
        run = json.dumps(run_to_json(settings, catalog_module.initial_distributions()))
        settings, initial = run_from_json(run)
        rebuilt = TuneResult(settings, initial, tuple(read_trace(text, initial)))
        assert live.stopped_by == stop
        assert json.dumps(result_to_json(rebuilt)) == json.dumps(result_to_json(live))
        assert cli._summary(rebuilt) == cli._summary(live)

    @pytest.mark.parametrize("name", ["mixed", "mixed-evidence"])
    def test_every_timed_out_analysis_took_its_deadline(self, catalog_module, name):
        # on the virtual clock an analysis past its deadline is charged the
        # deadline itself, so every one equals the deadline the result derives
        settings = TunerSettings(**SCENARIOS[name][1])
        records = tuple(read_trace(golden_path(name).read_text(encoding="utf-8")))
        result = TuneResult(settings, catalog_module.initial_distributions(), records)
        timed_out = [
            (outcome.wall_time, deadline)
            for record, deadline in zip(records, result.deadlines, strict=True)
            for outcome in record.outcomes
            if isinstance(outcome, TimedOut)
        ]
        assert len(timed_out) > 20
        assert all(wall == deadline for wall, deadline in timed_out)


class TestRunFile:
    def test_round_trip(self, catalog_module):
        settings = TunerSettings(time_budget=12.5, seed=-3, max_iterations=None, patience=None)
        initial = catalog_module.initial_distributions()
        assert run_from_json(json.dumps(run_to_json(settings, initial), indent=2)) == (
            settings,
            initial,
        )

    def test_the_trace_must_start_from_the_run_file(self, catalog_module):
        # record 0's distributions before are the run's initial distributions
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        initial = catalog_module.initial_distributions()
        assert len(read_trace("\n".join(lines), initial)) == len(lines)
        assert read_trace("", {}) == []
        moved = {**initial, "slevel": ParamDistribution(IntVal(1), initial["slevel"].delta)}
        with pytest.raises(
            ConfigParseError,
            match="^trace record 0 is malformed: distributions_before are not the run file's: "
            "'slevel' differs$",
        ):
            read_trace("\n".join(lines), moved)
        with pytest.raises(
            ConfigParseError, match="record names nothing as parameter 13, where the run file's is"
        ):
            read_trace("\n".join(lines), {**initial, "extra": initial["slevel"]})


#: Alarm ids that JSON must escape: a quote, a backslash, a tab, a
#: non-ASCII letter, an astral code point, and the empty id.
ESCAPED_IDS = ('say "hi"', "back\\slash", "tab\there", "naïve", "astral \U0001F600", "", "plain")


class CyclingAnalyzer:
    """A virtual-clock analyzer that returns its outcomes in turn, one a task."""

    virtual_clock = True

    def __init__(self, make):
        self.make = make
        self.calls = 0

    def run(self, task):
        outcome = self.make[self.calls % len(self.make)](task)
        self.calls += 1
        return outcome


class TestWriter:
    def test_lines_are_json_dumps_of_the_record(self, catalog_module):
        # each alarm id is escaped once per record, each alarm list laid out
        # once: the bytes are json.dumps's all the same
        shared = frozenset(ESCAPED_IDS)
        analyzer = CyclingAnalyzer([
            lambda t: Completed(shared, 1.5),
            lambda t: TimedOut(t.timeout),
            lambda t: Completed(frozenset(ESCAPED_IDS[:3]), 2),
            lambda t: Crashed('exit "2": \'quoted\' and \\ "more"'),
            lambda t: Completed(shared, 0.25),
            lambda t: Completed(frozenset({""}), 0.0),
            lambda t: Completed(frozenset(), 1.0),
        ])
        settings = TunerSettings(time_budget=100.0, num_sample=5, max_iterations=4)
        buffer = io.StringIO()
        result = tune(
            "prog", catalog_module, settings, analyzer,
            on_record=lambda record: write_record(buffer, record),
        )
        statuses = {type(o) for r in result.iteration_trace for o in r.outcomes}
        assert statuses == {Completed, TimedOut, Crashed}
        lines = buffer.getvalue().splitlines()
        assert lines == [json.dumps(record_to_json(r)) for r in result.iteration_trace]
        assert tuple(read_trace(buffer.getvalue())) == result.iteration_trace

    def test_integer_wall_times_rewrite_byte_for_byte(self, catalog_module):
        # an analyzer may report whole seconds: the tuner stores them as
        # floats, so the trace reads back to its bytes; an int past a float's
        # range is no time a float holds, so, like inf, it is a crash (it
        # was a timeout at the deadline), written abbreviated
        analyzer = CyclingAnalyzer([
            lambda t: Completed(frozenset({"a"}), 1),
            lambda t: Completed(frozenset(), 3),
            lambda t: TimedOut(2),
            lambda t: Completed(frozenset({"b"}), 10**400),
        ])
        settings = TunerSettings(time_budget=100.0, num_sample=4, max_iterations=2)
        buffer = io.StringIO()
        result = tune(
            "prog", catalog_module, settings, analyzer,
            on_record=lambda record: write_record(buffer, record),
        )
        outcomes = [o for record in result.iteration_trace for o in record.outcomes]
        assert {type(o.wall_time) for o in outcomes if not isinstance(o, Crashed)} == {float}
        assert Crashed(f"analyzer reported wall time {reprlib.repr(10**400)}") in outcomes
        rewritten = io.StringIO()
        for record in read_trace(buffer.getvalue()):
            write_record(rewritten, record)
        assert rewritten.getvalue() == buffer.getvalue()

    def test_an_integer_rate_rewrites_byte_for_byte(self):
        # a library catalog may give a rate as an int: it is stored, and so
        # written in record 0, as the float that the reader gives back
        catalog = Catalog((
            ParamSpec("slevel", ParamDistribution(IntVal(0), (20,)), "-slevel"),
            ParamSpec("x", ParamDistribution(BoolVal(False), (1,)), "-x", ("", "on")),
        ))
        analyzer = CyclingAnalyzer([lambda t: Completed(frozenset(), 1.0)])
        settings = TunerSettings(time_budget=100.0, num_sample=2, max_iterations=2)
        buffer = io.StringIO()
        tune(
            "prog", catalog, settings, analyzer,
            on_record=lambda record: write_record(buffer, record),
        )
        text = buffer.getvalue()
        assert '"lambda": 20.0' in text and '"q": 1.0' in text
        rewritten = io.StringIO()
        for record in read_trace(text):
            write_record(rewritten, record)
        assert rewritten.getvalue() == text

    def test_a_parameter_named_alarms_writes_as_json_dumps(self):
        # only an outcome's alarms are spliced: a parameter of that name
        # holds a string in a configuration and an object in a distribution
        catalog = Catalog((
            ParamSpec("alarms", ParamDistribution(IntVal(0), (3.0,)), "-alarms"),
            ParamSpec("x", ParamDistribution(BoolVal(False), (0.5,)), "-x", ("", "on")),
        ))
        shared = frozenset(ESCAPED_IDS)
        analyzer = CyclingAnalyzer([
            lambda t: Completed(shared, 1.0),
            lambda t: Completed(frozenset(ESCAPED_IDS), 0.5),
            lambda t: Completed(frozenset(), 2.0),
            lambda t: TimedOut(t.timeout),
            lambda t: Completed(shared, 0.25),
            lambda t: Completed(frozenset(ESCAPED_IDS[2:]), 0.75),
        ])
        settings = TunerSettings(time_budget=100.0, num_sample=6, max_iterations=3)
        buffer = io.StringIO()
        result = tune(
            "prog", catalog, settings, analyzer,
            on_record=lambda record: write_record(buffer, record),
        )
        text = buffer.getvalue()
        assert text == "".join(json.dumps(record_to_json(r)) + "\n" for r in result.iteration_trace)
        assert '"alarms": "' in text and '"alarms": {"base"' in text
        assert tuple(read_trace(text)) == result.iteration_trace

    def test_tune_builds_each_universe_once(self):
        # the result matrix builds the iteration's universe and layout, and
        # the writer gets each back from its cache once: the universe for
        # the record's derived fields, the layout for its alarm texts
        orchestrator.alarm_universe.cache_clear()
        orchestrator.alarm_sets.cache_clear()
        result, text = run_scenario("mixed")
        assert text == golden_path("mixed").read_text(encoding="utf-8")
        assert len(result.iteration_trace) == 12
        for cache in (orchestrator.alarm_universe, orchestrator.alarm_sets):
            info = cache.cache_info()
            assert (info.misses, info.hits) == (12, 12)

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.ndjson")), ids=lambda p: p.stem)
    def test_reading_builds_no_layout(self, path):
        # the reader checks a record's universe, not its membership rows
        orchestrator.alarm_sets.cache_clear()
        records = read_trace(path.read_text(encoding="utf-8"))
        assert records
        assert orchestrator.alarm_sets.cache_info().misses == 0

    def test_each_set_is_tested_against_each_id_once(self, short_run):
        # the matrix and the writer read one membership row per distinct
        # set; a copy of a set already seen is never tested
        class Counted(frozenset):
            tests = 0

            def __contains__(self, alarm):
                self.tests += 1
                return super().__contains__(alarm)

        sets = (Counted("ba"), Counted("c"), Counted())
        copy = Counted("ab")
        outcomes = (
            Completed(sets[0], 0.5),
            TimedOut(1.0),
            Completed(sets[1], 0.5),
            Completed(copy, 0.5),
            Completed(sets[2], 0.5),
            Completed(sets[0], 0.5),
        )
        config = short_run.iteration_trace[0].sampled_configs[0]
        record = dataclasses.replace(
            short_run.iteration_trace[0],
            sampled_configs=(config,) * len(outcomes),
            outcomes=outcomes,
        )
        orchestrator.alarm_sets.cache_clear()
        matrix = build_result_matrix(record.outcomes, record.sampled_configs)
        buffer = io.StringIO()
        write_record(buffer, record)
        assert matrix.alarms == ("a", "b", "c")
        assert [s.tests for s in sets] == [3, 3, 3] and copy.tests == 0
        assert buffer.getvalue() == json.dumps(record_to_json(record)) + "\n"

    def test_universe_cache_answers_by_value(self):
        shared = frozenset({"b", "a"})
        outcomes = (
            Completed(shared, 1.0),
            TimedOut(2.0),
            Completed(frozenset({"c", "a"}), 0.5),
            Completed(frozenset({"a", "b"}), 0.25),
            Crashed("x"),
        )
        orchestrator.alarm_sets.cache_clear()
        assert orchestrator.alarm_sets(outcomes)[0] == ("a", "b", "c")
        # an equal tuple built separately
        assert orchestrator.alarm_sets(tuple(list(outcomes)))[0] == ("a", "b", "c")
        info = orchestrator.alarm_sets.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert orchestrator.alarm_sets(outcomes) == (
            ("a", "b", "c"),
            {shared: (True, True, False), frozenset("ac"): (True, False, True)},
        )
        assert orchestrator.alarm_universe(outcomes) == ("a", "b", "c")

    @given(
        stx.lists(stx.frozensets(stx.text(), max_size=6), min_size=1, max_size=6),
        stx.lists(stx.integers(0, 5), max_size=6),
    )
    def test_any_alarm_ids_write_as_json_dumps(self, short_run, sets, repeats):
        # a set held by two outcomes is one shared object, as the synthetic
        # analyzer reports it
        outcomes = [Completed(s, 0.5) for s in sets]
        outcomes += [outcomes[i % len(sets)] for i in repeats]
        record = dataclasses.replace(
            short_run.iteration_trace[0],
            outcomes=(*outcomes, TimedOut(1.0), Crashed('"')),
        )
        buffer = io.StringIO()
        write_record(buffer, record)
        assert buffer.getvalue() == json.dumps(record_to_json(record)) + "\n"


class TestMalformedTraces:
    def test_unknown_delta_kind(self):
        with pytest.raises(ConfigParseError, match="unknown delta kind 'gamma'"):
            distribution_from_json({"base": "0", "delta": {"kind": "gamma", "lambda": 1.0}})

    def test_unknown_outcome_status(self):
        with pytest.raises(ConfigParseError, match="unknown outcome status 'lost'"):
            outcome_from_json({"status": "lost", "wall_time": 1.0})

    def test_unsupported_schema(self, short_run):
        obj = record_to_json(short_run.iteration_trace[0])
        obj["schema"] = 999
        with pytest.raises(ConfigParseError):
            record_from_json(obj)

    @pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
    def test_schema_must_be_an_integer(self, short_run, schema):
        # equal to 1, but not the integer 1
        obj = record_to_json(short_run.iteration_trace[0])
        obj["schema"] = schema
        with pytest.raises(ConfigParseError, match=f"unsupported trace schema {schema!r}"):
            record_from_json(obj)

    def test_json_nested_too_deep_is_malformed(self):
        # before: json.loads's RecursionError went through read_trace
        with pytest.raises(ConfigParseError, match="^trace record 0 is malformed: "):
            read_trace("[" * 100_000 + "\n")

    @pytest.mark.parametrize("field", ["schema", "index", "completed", "elapsed"])
    def test_an_integer_is_read_as_a_count(self, field):
        # before: 5,001 digits ended in int()'s digit limit, whose advice
        # named sys.set_int_max_str_digits
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record[field] = "DIGITS"
        lines[0] = json.dumps(record).replace('"DIGITS"', "1" + "0" * 5000)
        with pytest.raises(ConfigParseError) as caught:
            read_trace("\n".join(lines))
        message = str(caught.value)
        assert message.startswith("trace record 0 is malformed: expected a count: ASCII digits")
        assert len(message) < 200 and "set_int_max_str_digits" not in message

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("schema", -1, "unsupported trace schema -1"),
            ("index", -1, "index -1, not 0"),
            ("elapsed", -3, "elapsed must be a finite number >= 0, got -3"),
        ],
    )
    def test_a_negative_integer_keeps_its_field_message(self, field, value, reason):
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record[field] = value
        lines[0] = json.dumps(record)
        with pytest.raises(ConfigParseError, match=f"^trace record 0 is malformed: {reason}$"):
            read_trace("\n".join(lines))

    def test_bad_json_names_record_index(self, short_run):
        buffer = io.StringIO()
        write_record(buffer, short_run.iteration_trace[0])
        text = buffer.getvalue() + "{not json}\n"
        with pytest.raises(ConfigParseError) as err:
            read_trace(text)
        assert "record 1" in str(err.value)

    def test_missing_field_names_record_index(self, short_run):
        obj = record_to_json(short_run.iteration_trace[0])
        del obj["eta"]
        with pytest.raises(ConfigParseError) as err:
            read_trace(json.dumps(obj) + "\n")
        assert "record 0" in str(err.value)

    @pytest.mark.parametrize("other", ["\x85", "\u2028", "\u2029"])
    def test_a_line_break_inside_a_json_string_stays_in_its_record(self, short_run, other):
        # JSON lets a string hold these characters unescaped; str.splitlines
        # would cut the record there
        record = _with_outcomes(
            short_run.iteration_trace[0],
            (Completed(frozenset({f"a{other}b"}), 0.5), TimedOut(1.0), Crashed("x")),
        )
        text = json.dumps(record_to_json(record), ensure_ascii=False) + "\n"
        assert other in text
        assert read_trace(text) == [record]

    def test_blank_lines_ignored(self, short_run):
        buffer = io.StringIO()
        write_record(buffer, short_run.iteration_trace[0])
        text = "\n" + buffer.getvalue() + "\n"
        assert len(read_trace(text)) == 1

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda lines: [lines[1], lines[0], *lines[2:]], "record 0 is malformed: index 1"),
            (lambda lines: lines[:3] + lines[4:], "record 3 is malformed: index 4, not 3"),
            (lambda lines: lines + lines, "record 12 is malformed: index 0, not 12"),
            (
                lambda lines: [lines[0].replace('"index": 0', '"index": -3'), *lines[1:]],
                "record 0 is malformed: index -3, not 0",
            ),
            (lambda lines: [lines[0], "", "{not json}"], "record 1 is malformed"),
            (
                lambda lines: [
                    lines[1].replace('"index": 1,', '"index": 0,'),
                    lines[0].replace('"index": 0,', '"index": 1,'),
                    *lines[2:],
                ],
                "record 1 is malformed: distributions_before are not",
            ),
        ],
        ids=["swapped", "one-dropped", "concatenated", "negative-index", "after-a-blank-line",
             "swapped-and-renumbered"],
    )
    def test_trace_is_one_run(self, edit, reason):
        # a trace is the state of one run: record N is its iteration N, and
        # starts from where record N-1 left the distributions; an error
        # names the record by its count, not its line
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        with pytest.raises(ConfigParseError, match=f"trace {reason}"):
            read_trace("\n".join(edit(lines)))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda configs: configs[0].pop("slevel"),
            lambda configs: configs.__setitem__(1, dict(reversed(configs[1].items()))),
        ],
        ids=["config-lacks-a-parameter", "config-in-another-order"],
    )
    def test_config_must_list_the_record_parameters_in_order(self, mutate):
        # values are read by position, so a reordered config would put its
        # values in other parameters' columns
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        mutate(first["sampled_configs"])
        lines[0] = json.dumps(first)
        with pytest.raises(ConfigParseError, match="trace record 0 is malformed"):
            read_trace("\n".join(lines))

    @pytest.mark.parametrize(
        "index, mutate, reason",
        [
            (0, lambda r: r["distributions_after"].pop("slevel"), "distributions_after names"),
            (1, lambda r: _drop_parameter(r, "domains"), "first record's"),
            (0, lambda r: r["outcomes"].pop(), "5 outcomes for 6 sampled configs"),
            (0, lambda r: r.__setitem__("completed", 5), "completed is 5"),
            # the rest read back before: a record of no analyses; an index
            # or a count of int(value), 6 passing the count check of
            # record 0's 6 completed outcomes; and eta_c or eta as written
            (0, lambda r: r.update(sampled_configs=[], outcomes=[], completed=0), "one outcome"),
            (0, lambda r: r.__setitem__("index", 2.5), "index must be an integer"),
            (0, lambda r: r.__setitem__("index", "3"), "index must be an integer"),
            (0, lambda r: r.__setitem__("index", True), "index must be an integer"),
            (0, lambda r: r.__setitem__("completed", 6.9), "completed is 6.9, not 6"),
            (1, lambda r: r.__setitem__("eta", 99.0), "eta is 99.0, not 2.1666666666666665"),
            (1, lambda r: r.__setitem__("eta_c", -1.0), "eta_c is -1.0, not 1.0"),
            (1, lambda r: r.__setitem__("eta_c", "1.0"), "eta_c is '1.0', not 1.0"),
            (1, lambda r: r.__setitem__("eta", math.nan), "eta is nan, not 2.1666666666666665"),
            # read back before as 1.0: every outcome of record 0 completed,
            # so its eta_c is 1.0, and one of three completed makes eta 1.0
            (0, lambda r: r.__setitem__("eta_c", True), "eta_c is True, not 1.0"),
            (0, lambda r: _one_of_three_completed(r).__setitem__("eta", True),
             "eta is True, not 1.0"),
            # equal to what the writer wrote, but of another JSON type: the
            # first read back before, and plotted
            (0, lambda r: r.__setitem__("eta_c", 1), "eta_c is 1, not 1.0"),
            (5, lambda r: r.__setitem__("completed", 4.0), "completed is 4.0, not 4"),
            # read back before, and plotted: the last record's after is no
            # later record's before, so a boolean base sat in an integer chart
            (11, lambda r: r["distributions_after"].update(slevel=_BERNOULLI),
             "lattice of parameter 'slevel'"),
            (11, lambda r: r["distributions_after"].update(domains=_THREE_BITS),
             "lattice of parameter 'domains'"),
            # read back before: a delta after that is not refine_delta of the
            # one before and eta, here by one float step
            (11, lambda r: _next_float(r["distributions_after"]["slevel"]["delta"], "lambda"),
             "distributions_after gives parameter 'slevel' the delta"),
            (11, lambda r: _next_float(r["distributions_after"]["split-return"]["delta"], "q"),
             "distributions_after gives parameter 'split-return' the delta"),
            (11, lambda r: _next_float(r["distributions_after"]["domains"]["delta"]["qs"], 2),
             "distributions_after gives parameter 'domains' the delta"),
        ],
        ids=["after-lacks-a-parameter", "parameters-differ-from-record-0",
             "an-outcome-per-config", "completed-count", "no-outcome", "index-float",
             "index-string", "index-bool", "completed-float", "eta-wrong", "eta_c-negative",
             "eta_c-string", "eta-nan", "eta_c-bool", "eta-bool", "eta_c-int", "completed-float-equal",
             "after-changes-a-lattice", "after-narrows-a-vector", "after-changes-a-lambda",
             "after-changes-a-q", "after-changes-a-qs-entry"],
    )
    def test_record_must_agree_with_itself_and_record_0(self, index, mutate, reason):
        # the first four made ``plot`` or ``build_result_matrix`` fail on read-back
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[index])
        mutate(record)
        lines[index] = json.dumps(record)
        with pytest.raises(
            ConfigParseError, match=f"trace record {index} is malformed: .*{re.escape(reason)}"
        ):
            read_trace("\n".join(lines))

    @pytest.mark.parametrize(
        "index, mutate, reason",
        [
            (0, lambda r: _rename(r["sampled_configs"][0], _LONG, "slevel"),
             "configuration names 'slevel' as parameter 4, where the record's is 'sss"),
            (0, lambda r: r["distributions_after"].pop(_LONG),
             "distributions_after names 'ilevel' as parameter 4, where the record's is 'sss"),
            (1, lambda r: _rename_parameter(r, _LONG, "t" * 5000),
             "record names 'ttt"),
            (11, lambda r: r["distributions_after"].__setitem__(_LONG, _BERNOULLI),
             "distributions_after changes the lattice of parameter 'sss"),
            (11, lambda r: _next_float(r["distributions_after"][_LONG]["delta"], "lambda"),
             "distributions_after gives parameter 'sss"),
        ],
        ids=["configuration", "distributions_after", "first-record", "lattice", "delta"],
    )
    def test_a_long_parameter_name_gives_a_short_message(self, index, mutate, reason):
        # before: the first three printed both name lists whole and the
        # fourth the whole name, 5,000 characters and more each
        text = MIXED_TRACE.read_text(encoding="utf-8").replace('"slevel"', json.dumps(_LONG))
        lines = text.splitlines()
        assert len(read_trace(text)) == len(lines)
        record = json.loads(lines[index])
        mutate(record)
        lines[index] = json.dumps(record)
        with pytest.raises(ConfigParseError) as err:
            read_trace("\n".join(lines))
        message = str(err.value)
        assert message.startswith(f"trace record {index} is malformed: ") and reason in message
        assert len(message) < 300

    @pytest.mark.parametrize(
        "value",
        [-3.0, math.nan, math.inf, "5", True, 10**400],
        ids=["negative", "nan", "inf", "string", "bool", "too-large"],
    )
    @pytest.mark.parametrize(
        "index, field",
        [(3, "elapsed"), (3, "completed wall_time"), (4, "timed_out wall_time")],
        ids=["elapsed", "completed", "timed-out"],
    )
    def test_times_must_be_finite_and_nonnegative(self, index, field, value):
        # read back before: a negative or nan elapsed would replay as budget,
        # "5" and true as 5.0 and 1.0, and 10**400 raised OverflowError
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[index])
        if field == "elapsed":
            record["elapsed"] = value
        else:
            record["outcomes"][0]["wall_time"] = value
        lines[index] = json.dumps(record)
        with pytest.raises(ConfigParseError, match=f"trace record {index} is malformed"):
            read_trace("\n".join(lines))

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda r: r["outcomes"][0].__setitem__("alarms", "abc"), "alarms must be"),
            (lambda r: r["outcomes"][0].__setitem__("alarms", [1, 2]), "alarms must be"),
            # read back before as a set, so rewriting the record changed its bytes
            (lambda r: r["outcomes"][0]["alarms"].reverse(), "alarms must be sorted, each listed once"),
            (lambda r: r["outcomes"][0]["alarms"].insert(0, r["outcomes"][0]["alarms"][0]),
             "alarms must be sorted, each listed once"),
            (lambda r: r.__setitem__("alarm_universe", "xyz"), "alarm_universe is 'xyz', not \\["),
        ],
        ids=["alarms-a-string", "alarms-not-strings", "alarms-unsorted", "alarms-repeated",
             "universe-a-string"],
    )
    def test_alarm_fields_must_be_arrays_of_strings(self, mutate, reason):
        # read back before: a string spelled one alarm per character, and
        # ints became alarms no analyzer reports
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        mutate(record)
        lines[0] = json.dumps(record)
        with pytest.raises(ConfigParseError, match=f"trace record 0 is malformed: {reason}"):
            read_trace("\n".join(lines))

    @pytest.mark.parametrize("exit_info", [None, [1], 3], ids=["null", "array", "number"])
    def test_exit_info_must_be_a_string(self, exit_info):
        # read back before as Crashed('None'), Crashed('[1]') and Crashed('3');
        # the last record is edited, since its restated deltas begin no record
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        if record["outcomes"][0]["status"] == "completed":
            record["completed"] -= 1
        record["outcomes"][0] = {"status": "crashed", "exit_info": "killed"}
        completed, n = record["completed"], len(record["outcomes"])
        record["eta_c"], record["eta"] = completed / n, scaling_factor(completed, n)
        _restate_deltas(record)
        lines[-1] = json.dumps(record)
        assert read_trace("\n".join(lines))[-1].outcomes[0] == Crashed("killed")
        record["outcomes"][0]["exit_info"] = exit_info
        lines[-1] = json.dumps(record)
        with pytest.raises(ConfigParseError, match="trace record 11 is malformed: exit_info must be"):
            read_trace("\n".join(lines))

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("slevel", "lambda", "5"),
            ("slevel", "lambda", True),
            ("split-return", "q", "0.5"),
            ("split-return", "q", True),
            ("domains", "qs", ["0.5"] * 5),
            ("domains", "qs", [True] * 5),
            ("domains", "qs", "00000"),
            ("slevel", "lambda", 10**400),
        ],
        ids=["lambda-string", "lambda-bool", "q-string", "q-bool", "qs-strings", "qs-bools",
             "qs-a-string", "lambda-too-large"],
    )
    def test_deltas_must_be_json_numbers(self, name, field, value):
        # read back before as 5.0, 1.0, 0.5, 1.0, five 0.5s, five 1.0s and
        # one 0.0 per character: a distribution the run never had; 10**400
        # raised OverflowError, and is now read as a count's text is
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["distributions_before"][name]["delta"][field] = value
        lines[0] = json.dumps(record)
        reason = "expected a count" if value == 10**400 else f"{field} must"
        with pytest.raises(ConfigParseError, match=f"trace record 0 is malformed: {reason}"):
            read_trace("\n".join(lines))

    def test_integral_delta_reads_back_as_a_float(self):
        lines = MIXED_TRACE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["distributions_before"]["slevel"]["delta"]["lambda"] = 20
        lines[0] = json.dumps(record)
        assert read_trace("\n".join(lines))[0].distributions_before["slevel"].delta == (20.0,)

    @pytest.mark.parametrize("name", sorted(SCENARIOS), ids=lambda name: golden_path(name).name)
    def test_golden_traces_read_back(self, name):
        # the records a trace reads back to write it again, byte for byte
        text = golden_path(name).read_text(encoding="utf-8")
        records = read_trace(text)
        assert len(records) == len(text.splitlines())
        stream = io.StringIO()
        for record in records:
            write_record(stream, record)
        assert stream.getvalue() == text


def _with_outcomes(record: IterationRecord, outcomes: tuple) -> IterationRecord:
    """``record`` with ``outcomes``, each delta after restated through ``refine_delta``."""
    eta = scaling_factor(sum(isinstance(o, Completed) for o in outcomes), len(outcomes))
    after = {
        name: ParamDistribution(dist.base, refine_delta(record.distributions_before[name], eta))
        for name, dist in record.distributions_after.items()
    }
    return dataclasses.replace(record, outcomes=outcomes, distributions_after=after)


def _restate_deltas(record: dict) -> None:
    """Rewrite a record object's deltas after through ``refine_delta`` of its before and eta."""
    after = record["distributions_after"]
    for name, before in record["distributions_before"].items():
        delta = refine_delta(distribution_from_json(before), record["eta"])
        base = distribution_from_json(after[name]).base
        after[name] = distribution_to_json(ParamDistribution(base, delta))


def _one_of_three_completed(record: dict) -> dict:
    """Keep three analyses, only the first completed, so that eta is exactly 1.0."""
    del record["sampled_configs"][3:]
    first, timed_out = record["outcomes"][0], {"status": "timed_out", "wall_time": 1.0}
    record.update(outcomes=[first, timed_out, timed_out], alarm_universe=first["alarms"])
    record.update(completed=1, eta_c=1 / 3, eta=scaling_factor(1, 3))
    assert record["eta"] == 1.0
    return record


# distributions of another lattice than the mixed trace's slevel and domains
_BERNOULLI = {"base": "true", "delta": {"kind": "bernoulli", "q": 0.5}}
_THREE_BITS = {"base": "110", "delta": {"kind": "bernoulli_vector", "qs": [0.5] * 3}}


#: A parameter name that no error may quote whole.
_LONG = "s" * 5000


def _next_float(values: dict | list, key) -> None:
    """Move ``values[key]`` to the next float toward 1.0."""
    values[key] = math.nextafter(values[key], 1.0)


def _rename(part: dict, old: str, new: str) -> None:
    """Rename ``part``'s key ``old`` to ``new`` in place, keeping its position."""
    items = [(new if key == old else key, value) for key, value in part.items()]
    part.clear()
    part.update(items)


def _rename_parameter(record: dict, old: str, new: str) -> None:
    """Rename a parameter in every part of a record, which stays self-consistent."""
    for part in (record["distributions_before"], record["distributions_after"]):
        _rename(part, old, new)
    for config in record["sampled_configs"]:
        _rename(config, old, new)


def _drop_parameter(record: dict, name: str) -> None:
    """Remove a parameter from every part of a record, which stays self-consistent."""
    for part in (record["distributions_before"], record["distributions_after"]):
        del part[name]
    for config in record["sampled_configs"]:
        del config[name]

