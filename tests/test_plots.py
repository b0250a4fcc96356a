"""Chart emission from traces."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from strategy_tuner import (
    CostModel,
    IntVal,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TunerSettings,
    tune,
)
from strategy_tuner.plots import sparkline, write_plots
from strategy_tuner.trace import read_trace, record_to_json

MIXED_TRACE = Path(__file__).resolve().parent / "data" / "golden" / "mixed.ndjson"


@pytest.fixture(scope="module")
def records():
    from strategy_tuner import default_catalog

    catalog = default_catalog()
    requirement = catalog.bottom_configuration().replace("slevel", IntVal(40))
    profile = SyntheticProfile(
        catalog=catalog,
        alarms=(SyntheticAlarm("a", requirement), SyntheticAlarm("stuck", None)),
        cost=CostModel(base_cost=0.1),
    )
    settings = TunerSettings(
        time_budget=1e9, num_sample=3, num_process=3, seed=2, max_iterations=5
    )
    return list(
        tune("synthetic", catalog, settings, SyntheticAnalyzer(profile)).iteration_trace
    )


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▄" * 3

    def test_monotone_series_uses_full_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_infinite_values_drawn_at_the_top(self):
        inf = float("inf")
        assert sparkline([0.0, 8.0, inf, 4.0]) == "▁██▅"
        assert sparkline([2.0, inf, 2.0]) == "▄█▄"
        assert sparkline([inf, inf]) == "██"

    def test_missing_values_are_gaps(self):
        assert sparkline([None, 2.0, 4.0, None]) == " ▁█ "
        assert sparkline([None, 5.0]) == " ▄"
        assert sparkline([None, None]) == "  "


class TestWritePlots:
    def test_one_file_per_parameter_plus_alarms(self, records, tmp_path):
        written = write_plots(records, tmp_path)
        assert len(written) == 14
        assert (tmp_path / "alarms.txt").exists()
        assert (tmp_path / "param-slevel.txt").exists()

    def test_deterministic_bytes(self, records, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_plots(records, first)
        write_plots(records, second)
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_chart_contents(self, records, tmp_path):
        write_plots(records, tmp_path)
        chart = (tmp_path / "param-slevel.txt").read_text(encoding="utf-8")
        assert "parameter: slevel" in chart
        assert "lambda" in chart
        assert str(len(records) - 1) in chart

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_plots([], tmp_path)

    def test_trace_with_an_infinite_base(self, records, tmp_path):
        lines = [json.dumps(record_to_json(r)) for r in records]
        last = json.loads(lines[-1])
        last["distributions_after"]["slevel"]["base"] = "inf"
        lines[-1] = json.dumps(last)
        write_plots(read_trace("\n".join(lines)), tmp_path)
        chart = (tmp_path / "param-slevel.txt").read_text(encoding="utf-8").splitlines()
        assert chart[-4].split()[:2] == [str(records[-1].index), "inf"]
        assert chart[-2].startswith("base:  ") and chart[-2].endswith("█")

    def test_alarm_chart_draws_empty_iterations_as_gaps(self, tmp_path):
        # the golden mixed trace has iterations in which every analysis
        # timed out; its lowest real count is 2 alarms, at iteration 1
        records = read_trace(MIXED_TRACE.read_text(encoding="utf-8"))
        write_plots(records, tmp_path)
        last = (tmp_path / "alarms.txt").read_text(encoding="utf-8").splitlines()[-1]
        assert last.startswith("best: ")
        spark = last[len("best: "):]
        assert len(spark) == len(records) == 12
        assert [i for i, c in enumerate(spark) if c == " "] == [4, 6, 7, 8, 9, 10, 11]
        assert spark[1] == "▁"
