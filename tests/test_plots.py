"""Chart emission from traces."""

from __future__ import annotations

import hashlib
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
from strategy_tuner.plots import alarm_chart, charts, param_chart, sparkline
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
    def test_one_file_per_parameter_plus_alarms(self, records):
        texts = charts(records)
        names = [f"param-{name}.txt" for name in records[0].distributions_before]
        assert len(names) == 13 and list(texts) == names + ["alarms.txt"]
        assert all(isinstance(text, str) and text.endswith("\n") for text in texts.values())

    def test_deterministic_bytes(self, records):
        assert charts(records) == charts(records)
        # each chart of the golden mixed trace, byte for byte as the charts
        # were first written, in order after its file name
        texts = charts(read_trace(MIXED_TRACE.read_text(encoding="utf-8")))
        digest = hashlib.sha256()
        for name, text in texts.items():
            digest.update(name.encode() + b"\0" + text.encode("utf-8"))
        assert digest.hexdigest() == (
            "331ba0de82a19c2c0e4bb08edca5b6a8af5d94c3d1d765e7438531f22d017b16"
        )

    def test_chart_contents(self, records):
        chart = charts(records)["param-slevel.txt"]
        assert chart == param_chart(records, "slevel")
        assert "parameter: slevel" in chart
        assert "lambda" in chart
        assert str(len(records) - 1) in chart

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            charts([])

    def test_trace_with_an_infinite_base(self, records):
        lines = [json.dumps(record_to_json(r)) for r in records]
        last = json.loads(lines[-1])
        last["distributions_after"]["slevel"]["base"] = "inf"
        lines[-1] = json.dumps(last)
        chart = charts(read_trace("\n".join(lines)))["param-slevel.txt"].splitlines()
        assert chart[-4].split()[:2] == [str(records[-1].index), "inf"]
        assert chart[-2].startswith("base:  ") and chart[-2].endswith("█")

    def test_alarm_chart_draws_empty_iterations_as_gaps(self):
        # the golden mixed trace has iterations in which every analysis
        # timed out; its lowest real count is 2 alarms, at iteration 1
        records = read_trace(MIXED_TRACE.read_text(encoding="utf-8"))
        chart = charts(records)["alarms.txt"]
        assert chart == alarm_chart(records)
        last = chart.splitlines()[-1]
        assert last.startswith("best: ")
        spark = last[len("best: "):]
        assert len(spark) == len(records) == 12
        assert [i for i, c in enumerate(spark) if c == " "] == [4, 6, 7, 8, 9, 10, 11]
        assert spark[1] == "▁"
