"""The types a run creates per sample hold only their fields, stay frozen, and copy and pickle."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from strategy_tuner import (
    AnalysisTask,
    BitsVal,
    BoolVal,
    Completed,
    Configuration,
    Crashed,
    IntVal,
    ParamDistribution,
    TimedOut,
)

_CONFIG = Configuration(("slevel",), (IntVal(3),))

# One instance per type, and the repr a frozen dataclass gives it.
CASES = [
    (IntVal(3), "IntVal(value=3)"),
    (BoolVal(True), "BoolVal(value=True)"),
    (BitsVal(0b101, 3), "BitsVal(value=5, width=3)"),
    (_CONFIG, "Configuration(names=('slevel',), values=(IntVal(value=3),))"),
    (
        ParamDistribution(IntVal(0), (2.0,)),
        "ParamDistribution(base=IntVal(value=0), delta=(2.0,))",
    ),
    (
        AnalysisTask("prog", _CONFIG, 5.0),
        "AnalysisTask(program_ref='prog', config=Configuration(names=('slevel',), "
        "values=(IntVal(value=3),)), timeout=5.0)",
    ),
    (Completed(frozenset({"a"}), 1.5), "Completed(alarms=frozenset({'a'}), wall_time=1.5)"),
    (TimedOut(2.0), "TimedOut(wall_time=2.0)"),
    (Crashed("exit status 1"), "Crashed(exit_info='exit status 1')"),
]


@pytest.mark.parametrize("value, text", CASES, ids=[type(v).__name__ for v, _ in CASES])
def test_slotted_and_frozen(value, text):
    cls = type(value)
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__slots__ == names
    assert not hasattr(value, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    fields = tuple(getattr(value, name) for name in names)
    twin = cls(*fields)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(fields)
    assert repr(value) == text
    for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is cls and rebuilt == value
