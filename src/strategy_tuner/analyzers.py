"""The black-box analyzer boundary.

Every analyzer implements one operation: run a task (program reference,
configuration, wall-clock timeout) and report either the alarm set it
completed with, a timeout, or a crash. The synthetic analyzer in this
module makes end-to-end runs reproducible: alarms are suppressed exactly
when the configuration dominates their per-alarm requirement, runtime is
an arithmetic cost model, and a virtual clock mode skips real sleeping so
whole tuning runs finish in milliseconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Union

from .errors import ConfigParseError, ProfileError
from .keytree import parse_keytree
from .lattice import (
    BitsVal,
    BoolVal,
    IntVal,
    LatticeValue,
    OrderKey,
    key_leq,
    kind_of,
    leq,
    order_key,
    parse_value,
)
from .paramspace import Catalog, Configuration, config_join


@dataclass(frozen=True)
class AnalysisTask:
    program_ref: str
    config: Configuration
    timeout: float

    def __post_init__(self) -> None:
        if not (self.timeout > 0):
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")


@dataclass(frozen=True)
class Completed:
    alarms: frozenset[str]
    wall_time: float


@dataclass(frozen=True)
class TimedOut:
    wall_time: float


@dataclass(frozen=True)
class Crashed:
    exit_info: str


AnalysisOutcome = Union[Completed, TimedOut, Crashed]


class Analyzer(Protocol):
    def run(self, task: AnalysisTask) -> AnalysisOutcome: ...


@dataclass(frozen=True)
class SyntheticAlarm:
    """An alarm with the least configuration that suppresses it.

    ``requirement`` is None for incompressible alarms, which no
    configuration can eliminate.
    """

    alarm_id: str
    requirement: Configuration | None


@dataclass(frozen=True)
class CostModel:
    """Simulated runtime: base seconds plus weighted precision cost."""

    base_cost: float = 0.0
    weights: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Twist:
    """Non-monotone wrinkle: the alarm reappears once the named
    parameter reaches the threshold, even if its requirement is met."""

    alarm_id: str
    param: str
    threshold: LatticeValue


#: One requirement entry above bottom: parameter, order key of the
#: required value, and the order on keys of its kind.
_Need = tuple[str, OrderKey, Callable[[OrderKey, OrderKey], bool]]


@dataclass(frozen=True)
class SyntheticProfile:
    catalog: Catalog
    alarms: tuple[SyntheticAlarm, ...]
    cost: CostModel = CostModel()
    twists: tuple[Twist, ...] = ()
    #: The alarm rule compiled once: per alarm, its requirement entries
    #: above bottom (a bottom entry always holds), or None when the alarm
    #: is incompressible.
    rule: tuple[tuple[str, tuple[_Need, ...] | None], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        rule = tuple(
            (alarm.alarm_id, None if alarm.requirement is None else _needs(alarm.requirement))
            for alarm in self.alarms
        )
        object.__setattr__(self, "rule", rule)


def _needs(requirement: Configuration) -> tuple[_Need, ...]:
    keys = ((name, value, order_key(value)) for name, value in requirement.entries)
    # bottom is the only value with key 0, in every kind
    return tuple((name, key, key_leq(kind_of(value))) for name, value, key in keys if key)


def precision_contribution(value: LatticeValue) -> float:
    """Cost contribution of one value: magnitude, 0/1, or popcount."""
    if isinstance(value, IntVal):
        return math.inf if value.is_infinite else float(value.value)
    if isinstance(value, BoolVal):
        return 1.0 if value.value else 0.0
    assert isinstance(value, BitsVal)
    return float(sum(value.bits))


def simulated_cost(profile: SyntheticProfile, config: Configuration) -> float:
    values = config.as_dict()
    cost = profile.cost.base_cost
    for name, weight in profile.cost.weights.items():
        cost += weight * precision_contribution(values[name])
    return cost


def synthetic_alarms(profile: SyntheticProfile, config: Configuration) -> frozenset[str]:
    """Alarm set reported for a configuration (pure function).

    An alarm is suppressed when the configuration dominates its
    requirement, unless a twist on it fires.
    """
    values = config.as_dict()
    keys = {name: order_key(value) for name, value in values.items()}
    poisoned = {
        twist.alarm_id
        for twist in profile.twists
        if leq(twist.threshold, values[twist.param])
    }
    produced = set()
    for alarm_id, needs in profile.rule:
        if needs is not None and alarm_id not in poisoned:
            for name, need, holds in needs:
                if not holds(need, keys[name]):
                    break
            else:
                continue
        produced.add(alarm_id)
    return frozenset(produced)


class SyntheticAnalyzer:
    """Deterministic in-process analyzer driven by a profile.

    With ``virtual_clock`` (the default) the cost model is compared to
    the deadline arithmetically and no wall time passes; otherwise the
    run sleeps for the simulated duration.
    """

    def __init__(self, profile: SyntheticProfile, virtual_clock: bool = True):
        self.profile = profile
        self.virtual_clock = virtual_clock

    def run(self, task: AnalysisTask) -> AnalysisOutcome:
        cost = simulated_cost(self.profile, task.config)
        if cost > task.timeout:
            if not self.virtual_clock:
                time.sleep(task.timeout)
            return TimedOut(wall_time=task.timeout)
        if not self.virtual_clock:
            time.sleep(cost)
        return Completed(alarms=synthetic_alarms(self.profile, task.config), wall_time=cost)


def synthetic_oracle_least_config(profile: SyntheticProfile) -> Configuration:
    """Least configuration eliminating every eliminable alarm.

    The pointwise join of all suppressible alarms' requirements. Only
    meaningful for monotone profiles, so twists are rejected, as are
    infinite integer requirements (nothing dominates them short of top).
    """
    if profile.twists:
        raise ProfileError("oracle requires a monotone profile (no twists)")
    acc = profile.catalog.bottom_configuration()
    for alarm in profile.alarms:
        if alarm.requirement is None:
            continue
        for name, value in alarm.requirement.entries:
            if isinstance(value, IntVal) and value.is_infinite:
                raise ProfileError(
                    f"requirement for {alarm.alarm_id!r} is unbounded in {name!r}"
                )
        acc = config_join(acc, alarm.requirement)
    return acc


def parse_profile(text: str, catalog: Catalog) -> SyntheticProfile:
    """Parse a synthetic profile file.

    Key grammar (one key per line):
      ``cost.base = <seconds>``
      ``cost.weight.<param> = <float>``
      ``alarm.<id>.requires.<param> = <lattice literal>``
      ``alarm.<id>.incompressible = true``
      ``twist.<id>.<param> = <lattice literal>``

    Unnamed requirement parameters default to the lattice bottom.
    """
    tree = parse_keytree(text)
    base_cost = 0.0
    weights: dict[str, float] = {}
    requirements: dict[str, dict[str, LatticeValue]] = {}
    incompressible: dict[str, bool] = {}
    twists: list[Twist] = []

    for key in tree.keys():
        lineno = tree.line_of(key)
        raw = tree.get(key, "")
        assert raw is not None
        parts = key.split(".")
        try:
            if parts == ["cost", "base"]:
                base_cost = float(raw)
            elif len(parts) == 3 and parts[:2] == ["cost", "weight"]:
                weights[_known_param(catalog, parts[2])] = float(raw)
            elif len(parts) == 4 and parts[0] == "alarm" and parts[2] == "requires":
                name = _known_param(catalog, parts[3])
                spec = catalog.spec(name)
                requirements.setdefault(parts[1], {})[name] = parse_value(spec.kind, raw)
            elif len(parts) == 3 and parts[0] == "alarm" and parts[2] == "incompressible":
                if raw not in ("true", "false"):
                    raise ValueError(f"expected 'true' or 'false', got {raw!r}")
                incompressible[parts[1]] = raw == "true"
            elif len(parts) == 3 and parts[0] == "twist":
                name = _known_param(catalog, parts[2])
                spec = catalog.spec(name)
                twists.append(Twist(parts[1], name, parse_value(spec.kind, raw)))
            else:
                raise ValueError(f"unrecognized profile key {key!r}")
        except ValueError as exc:
            raise ConfigParseError(str(exc), line=lineno)

    alarms: list[SyntheticAlarm] = []
    alarm_ids = sorted(set(requirements) | {a for a, flag in incompressible.items() if flag})
    for alarm_id in alarm_ids:
        if incompressible.get(alarm_id):
            if alarm_id in requirements:
                raise ConfigParseError(
                    f"alarm {alarm_id!r} is both incompressible and has requirements"
                )
            alarms.append(SyntheticAlarm(alarm_id, None))
        else:
            requirement = catalog.configuration(requirements[alarm_id], fill_bottom=True)
            alarms.append(SyntheticAlarm(alarm_id, requirement))

    known_alarms = {a.alarm_id for a in alarms}
    for twist in twists:
        if twist.alarm_id not in known_alarms:
            raise ConfigParseError(f"twist references unknown alarm {twist.alarm_id!r}")

    return SyntheticProfile(
        catalog=catalog,
        alarms=tuple(alarms),
        cost=CostModel(base_cost=base_cost, weights=weights),
        twists=tuple(twists),
    )


def _known_param(catalog: Catalog, name: str) -> str:
    if name not in catalog.names():
        raise ValueError(f"unknown parameter {name!r}")
    return name
