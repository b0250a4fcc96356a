"""Every site that takes an amount or a count accepts exactly what one rule accepts."""

from __future__ import annotations

import json
import math
import reprlib
import sys
from pathlib import Path

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
    TunerError,
    TunerSettings,
    default_catalog,
    parse_profile,
    run_dominancy,
    scaling_factor,
    serialize_configuration,
)
from strategy_tuner import cli, dominancy
from strategy_tuner.distributions import LAMBDA_CAP
from strategy_tuner.paramspace import apply_catalog_overrides
from strategy_tuner.lattice import INFINITY, is_amount, is_count
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


def _count_rule(value, least: int) -> bool:
    """The count rule, stated apart from the package: an int, not a bool,
    at least ``least`` and in a float's range."""
    return type(value) is int and least <= value <= int(sys.float_info.max)


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


def _dominancy(num_process, calls: list):
    """``run_dominancy`` with ``num_process`` through a virtual-clock fake
    that records each task in ``calls`` and crashes, so the baselines fail."""
    low = default_catalog().bottom_configuration()
    analyzer = Returning(lambda task: calls.append(task) or Crashed("fake"))
    return run_dominancy("prog", low, low, default_catalog(), analyzer, 1.0, num_process)


@given(VALUES)
@settings(max_examples=300)
def test_every_site_accepts_exactly_the_counts(value):
    # before: 10**400 passed every site, TunerSettings's num_process ending
    # tune in ZeroDivisionError and IntVal's crashing every analysis, and
    # scaling_factor took a bool or a float for num_sample. No tune runs
    # here with an accepted count: 10**300 samples would never finish.
    count = {least: _count_rule(value, least) for least in (0, 1)}
    for least in (0, 1):
        assert is_count(value, least) is count[least]
    fields = {"num_sample": 1, "num_process": 1, "max_iterations": 0, "patience": 1}
    for field, least in fields.items():
        build = lambda: TunerSettings(time_budget=1.0, **{field: value})  # noqa: E731
        optional = field in ("max_iterations", "patience") and value is None
        assert _accepts(build, InvalidSettingsError) is (optional or count[least])
    assert _accepts(lambda: IntVal(value), ValueError) is (count[0] or value == INFINITY)
    assert _accepts(lambda: scaling_factor(0, value), InvalidSettingsError) is count[1]
    # an accepted num_process reaches the baselines, which crash
    calls: list = []
    with pytest.raises(TunerError if count[1] else ValueError):
        _dominancy(value, calls)
    assert len(calls) == (2 if count[1] else 0)


#: Huge ints and their text in an error: reprlib's abbreviation, or, past
#: the digits an int's text allows, the bit length.
HUGE = ((10**400, reprlib.repr(10**400)), (10**5000, "<int of 16610 bits>"))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda huge: TunerSettings(time_budget=huge), InvalidSettingsError),
        (lambda huge: CostModel(base_cost=huge), ValueError),
        (lambda huge: AnalysisTask("prog", _CONFIG, huge), ValueError),
    ],
    ids=["TunerSettings", "CostModel", "AnalysisTask"],
)
def test_a_huge_int_is_abbreviated_in_the_error(build, error):
    # before: each text held all 401 digits, over 400 characters, and 5001
    # digits raised a bare ValueError from reprlib instead of the site's error
    for huge, text in HUGE:
        with pytest.raises(error) as caught:
            build(huge)
        assert text in str(caught.value) and len(str(caught.value)) < 100


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda huge: TunerSettings(time_budget=1.0, num_sample=huge), InvalidSettingsError),
        (lambda huge: IntVal(huge), ValueError),
        (lambda huge: ParamDistribution(IntVal(0), (huge,)), ValueError),
        (lambda huge: scaling_factor(0, huge), InvalidSettingsError),
        (lambda huge: _dominancy(huge, []), ValueError),
    ],
    ids=["TunerSettings", "IntVal", "ParamDistribution", "scaling_factor", "run_dominancy"],
)
def test_a_huge_count_is_abbreviated_in_the_error(build, error):
    # before: ParamDistribution's text ran to 473 characters, and the other
    # sites took 10**400 as a count
    for huge, text in HUGE:
        with pytest.raises(error) as caught:
            build(huge)
        assert text in str(caught.value) and len(str(caught.value)) < 120


def test_a_huge_wall_time_is_abbreviated_in_the_crash():
    # before: 5001 digits ended the whole batch in reprlib's ValueError
    for huge, text in HUGE:
        analyzer = Returning(lambda task: Completed(frozenset(), huge))
        (outcome,) = run_batch(analyzer, "prog", [_CONFIG], 1.0, map)
        assert outcome == Crashed(f"analyzer reported wall time {text}")
        assert len(outcome.exit_info) < 100


# The text rule: each site that reads a number's text, from a file or a flag.

SAMPLES = Path(__file__).parent.parent / "samples"
PROFILE = SAMPLES / "synthetic_slevel.profile"
_LARGEST = int(sys.float_info.max)  # the largest count, 309 digits

TEXTS = [
    "3", "03", "3.5", "1e3", "inf", "nan", "-1", "+3", "1_0", "0_5",
    "４", "٣", "²", "1" + "0" * 309, "1" * 5001, str(_LARGEST), str(_LARGEST + 1),
]


def _count_text(text: str) -> int | None:
    """The rule for a count's text, stated apart from the package: ASCII
    digits 0-9, at most 309 of them, spelling a count."""
    if text and set(text) <= set("0123456789") and len(text) <= 309 and int(text) <= _LARGEST:
        return int(text)
    return None


def _amount_text(text: str) -> float | None:
    """The rule for an amount's text, stated apart from the package: an
    ASCII number in float syntax, with no '_', that is an amount."""
    if not text or not set(text) <= set("0123456789+-.eE"):
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0 <= value < math.inf else None


def _at_least(least, rule):
    return lambda text: None if rule(text) is None or rule(text) < least else rule(text)


def _at_most(most, rule):
    return lambda text: None if rule(text) is None or rule(text) > most else rule(text)


def _positive(rule):
    return lambda text: rule(text) or None


def _seed_text(text: str) -> int | None:
    count = _count_text(text[1:] if text.startswith("-") else text)
    return None if count is None else -count if text.startswith("-") else count


class _Timeout(Exception):
    """The --timeout that reached run_dominancy."""


def _settings(tmp_path, line: str, *flags: str) -> TunerSettings:
    conf = tmp_path / "run.conf"
    conf.write_text(f"profile = {PROFILE}\n{line}\n", encoding="utf-8")
    args = cli.build_parser().parse_args(["tune", "--config", str(conf), *flags])
    return cli.load_run_config(args).settings


def _key(field: str):
    return lambda text, tmp_path, _: getattr(_settings(tmp_path, f"tuner.{field} = {text}"), field)


def _flag(flag: str, field: str):
    return lambda text, tmp_path, _: getattr(_settings(tmp_path, "", f"{flag}={text}"), field)


def _override(name: str, field: str):
    def read(text, *_):
        catalog = apply_catalog_overrides(default_catalog(), f"{name}.{field} = {text}")
        initial = catalog.spec(name).initial
        return initial.base.value if field == "base" else initial.delta[0]

    return read


def _profile(line: str, value):
    return lambda text, *_: value(parse_profile(line + text, default_catalog()))


def _dominancy_timeout(text, tmp_path, monkeypatch):
    def reached(program, low, high, catalog, analyzer, timeout, num_process):
        raise _Timeout(timeout)

    monkeypatch.setattr(dominancy, "run_dominancy", reached)
    low = tmp_path / "low.conf"
    low.write_text(serialize_configuration(default_catalog().base_configuration()), "utf-8")
    argv = ["--profile", str(PROFILE), "--out", str(tmp_path / "out"), f"--timeout={text}"]
    args = cli.build_parser().parse_args(["dominancy", *argv, str(low), str(low)])
    with pytest.raises(_Timeout) as reached_with:
        cli.cmd_dominancy(args)  # a rejected text raises ConfigParseError
    return reached_with.value.args[0]


_FLAGS = {
    "max_iterations": "--max-iterations",
    "time_budget": "--budget",
    "num_sample": "--samples",
    "num_process": "--processes",
    "seed": "--seed",
}

_SETTING_RULES = {
    "max_iterations": _count_text,
    "time_budget": _positive(_amount_text),
    "num_sample": _at_least(1, _count_text),
    "num_process": _at_least(1, _count_text),
    "seed": _seed_text,
    "patience": _at_least(1, _count_text),
    "refinement": lambda text: None,  # no number names a rule
}

# Each site: how it reads a text, and what the rule says it reads.
SITES = {
    "catalog base": (_override("slevel", "base"), _count_text),
    "catalog lambda": (_override("slevel", "lambda"), _at_most(LAMBDA_CAP, _amount_text)),
    "catalog q": (_override("split-return", "q"), _at_most(1, _amount_text)),
    "profile cost": (_profile("cost.base = ", lambda p: p.cost.base_cost), _amount_text),
    "profile weight": (
        _profile("cost.weight.slevel = ", lambda p: p.cost.weights["slevel"]),
        _amount_text,
    ),
    "profile requirement": (
        _profile("alarm.a.requires.slevel = ", lambda p: p.alarms[0].requirement["slevel"].value),
        lambda text: INFINITY if text == "inf" else _count_text(text),
    ),
    **{f"tuner.{field}": (_key(field), rule) for field, rule in _SETTING_RULES.items()},
    **{flag: (_flag(flag, field), _SETTING_RULES[field]) for field, flag in _FLAGS.items()},
    "dominancy --timeout": (_dominancy_timeout, _positive(_amount_text)),
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_reads_exactly_the_numbers_the_text_rule_reads(tmp_path, monkeypatch, site):
    # before: catalog lambda and q, profile costs and the tuner.* keys and
    # flags read '0_5' as 5.0, '1_0' as 10 and full-width '４' as 4; counts
    # took '+3'; and 5001 digits ended in int()'s digit-limit advice
    read, rule = SITES[site]
    for text in TEXTS:
        want = rule(text)
        try:
            got = read(text, tmp_path, monkeypatch)
        except (TunerError, ValueError) as exc:
            assert want is None, f"{text[:20]!r} rejected: {exc}"
            assert len(str(exc)) < 300
        else:
            assert (type(got), got) == (type(want), want), f"{text[:20]!r} read as {got!r}"
