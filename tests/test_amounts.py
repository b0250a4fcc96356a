"""Every site that takes an amount accepts exactly what one rule accepts."""

from __future__ import annotations

import json
import math
import reprlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stx

from strategy_tuner import (
    AnalysisTask,
    BoolVal,
    Completed,
    ConfigParseError,
    Configuration,
    CostModel,
    Crashed,
    IntVal,
    InvalidSettingsError,
    ParamDistribution,
    TunerSettings,
)
from strategy_tuner.distributions import is_amount
from strategy_tuner.orchestrator import run_batch
from strategy_tuner.trace import outcome_from_json, record_from_json

from test_golden import golden_path
from test_orchestrator import Returning

_RECORD = golden_path("convergence").read_text(encoding="utf-8").splitlines()[0]

_CONFIG = Configuration(("slevel",), (IntVal(3),))

VALUES = stx.one_of(
    stx.floats(),  # nan, -inf, inf, -0.0 and subnormals among them
    stx.integers(),
    stx.integers(2**1023, 2**1025),  # across the end of a float's range
    stx.sampled_from(
        [
            math.nan,
            math.inf,
            -math.inf,
            -0.0,
            5e-324,
            sys.float_info.max,
            int(sys.float_info.max),
            int(sys.float_info.max) + 1,
            2**1024,
            10**400,
            True,
            False,
            None,
        ]
    ),
    stx.text(max_size=4),
)


def _rule(value) -> bool:
    """The rule, stated apart from the package: an int or a float, not a
    bool, at least 0 and finite in a float's range."""
    if type(value) is float:
        return 0.0 <= value < math.inf
    return type(value) is int and 0 <= value <= int(sys.float_info.max)


def _accepts(build, error: type[Exception]) -> bool:
    """Whether ``build()`` returns; it may raise only ``error``."""
    try:
        build()
    except error:
        return False
    return True


@given(VALUES)
@settings(max_examples=300)
def test_every_site_accepts_exactly_the_amounts(value):
    # before: inf and 10**400 passed AnalysisTask, True and 10**400 passed CostModel and crashed every analysis,
    # 10**400 passed TunerSettings and ended tune in OverflowError, "1"
    # raised TypeError from CostModel, and an int wall time past a float's
    # range was a timeout at the deadline
    amount = _rule(value)
    assert is_amount(value) is amount
    budget = lambda: TunerSettings(time_budget=value)  # noqa: E731
    assert _accepts(budget, InvalidSettingsError) is (amount and value > 0)
    task = lambda: AnalysisTask("prog", _CONFIG, value)  # noqa: E731
    assert _accepts(task, ValueError) is (amount and value > 0)
    assert _accepts(lambda: CostModel(base_cost=value), ValueError) is amount
    assert _accepts(lambda: CostModel(weights={"slevel": value}), ValueError) is amount
    assert _accepts(lambda: ParamDistribution(IntVal(0), (value,)), ValueError) is amount
    q = lambda: ParamDistribution(BoolVal(False), (value,))  # noqa: E731
    assert _accepts(q, ValueError) is (amount and value <= 1)
    # a time past the deadline is a timeout, and any other time is kept
    analyzer = Returning(lambda task: Completed(frozenset(), value))
    (outcome,) = run_batch(analyzer, "prog", [_CONFIG], 1.0, map)
    assert isinstance(outcome, Crashed) is not amount
    for obj in (
        {"status": "completed", "alarms": [], "wall_time": value},
        {"status": "timed_out", "wall_time": value},
    ):
        assert _accepts(lambda: outcome_from_json(obj), ConfigParseError) is amount
    record = json.loads(_RECORD)
    record["elapsed"] = value
    assert _accepts(lambda: record_from_json(record), ConfigParseError) is amount


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: TunerSettings(time_budget=10**400), InvalidSettingsError),
        (lambda: CostModel(base_cost=10**400), ValueError),
        (lambda: AnalysisTask("prog", _CONFIG, 10**400), ValueError),
    ],
    ids=["TunerSettings", "CostModel", "AnalysisTask"],
)
def test_a_huge_int_is_abbreviated_in_the_error(build, error):
    # before: each text held all 401 digits, over 400 characters
    with pytest.raises(error) as caught:
        build()
    assert reprlib.repr(10**400) in str(caught.value) and len(str(caught.value)) < 100


def test_a_huge_wall_time_is_abbreviated_in_the_crash():
    analyzer = Returning(lambda task: Completed(frozenset(), 10**400))
    (outcome,) = run_batch(analyzer, "prog", [_CONFIG], 1.0, map)
    assert outcome == Crashed(f"analyzer reported wall time {reprlib.repr(10**400)}")
    assert len(outcome.exit_info) < 100
