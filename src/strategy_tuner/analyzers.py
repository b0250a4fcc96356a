"""The black-box analyzer boundary.

Every analyzer implements one operation: run a task (program reference,
configuration, wall-clock timeout) and report either the alarm set it
completed with, a timeout, or a crash. The synthetic analyzer in this
module makes end-to-end runs reproducible: alarms are suppressed exactly
when the configuration dominates their per-alarm requirement, runtime is
an arithmetic cost model, and its virtual clock spends no real time, so
whole tuning runs finish in milliseconds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress
from operator import or_
from typing import Callable, Mapping, Protocol, Union

from .errors import ConfigParseError, ProfileError, shown
from .keytree import parse_keytree
from .lattice import INFINITY, BoolVal, IntVal, LatticeValue, is_amount, leq, parse_value
from .lattice import read_amount, same_kind
from .paramspace import Catalog, Configuration, config_join


@dataclass(frozen=True, slots=True)
class AnalysisTask:
    program_ref: str
    config: Configuration
    timeout: float

    def __post_init__(self) -> None:
        if not (is_amount(self.timeout) and self.timeout > 0):
            got = shown(self.timeout)
            raise ValueError(f"timeout must be a positive finite number, got {got}")


@dataclass(frozen=True, slots=True)
class Completed:
    alarms: frozenset[str]
    wall_time: float


@dataclass(frozen=True, slots=True)
class TimedOut:
    wall_time: float


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        for cost in (self.base_cost, *self.weights.values()):
            if not is_amount(cost):
                got = shown(cost)
                raise ValueError(f"costs must be numbers, finite and at least 0, got {got}")


@dataclass(frozen=True)
class Twist:
    """Non-monotone wrinkle: the alarm reappears once the named
    parameter reaches the threshold, even if its requirement is met."""

    alarm_id: str
    param: str
    threshold: LatticeValue


#: Maps the digits of a binary numeral to the bytes 0 and 1.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _compile_rule(profile: SyntheticProfile) -> Callable[[tuple[LatticeValue, ...]], int]:
    """The alarm rule as one function: values in catalog order -> the mask
    of the alarms they eliminate, where bit i stands for alarm i.

    An alarm is eliminated when it is compressible and every parameter it
    needs above bottom lets it through, unless a twist on it fires. A
    bottom requirement constrains nothing, so it is dropped here.
    """
    alarms, catalog = profile.alarms, profile.catalog
    held: dict[int, dict[int | float, int]] = {}  # position -> required key -> alarms
    compressible = 0
    for bit, alarm in enumerate(alarms):
        if alarm.requirement is not None:
            compressible |= 1 << bit
            for index, value in enumerate(alarm.requirement.values):
                if value.value:  # bottom is the only key 0
                    by_key = held.setdefault(index, {})
                    by_key[value.value] = by_key.get(value.value, 0) | 1 << bit
    every = (1 << len(alarms)) - 1
    # An integer parameter passes the alarms that need nothing of it
    # (released[0]) and, once its key reaches keys[i - 1], those of
    # released[i]. A boolean or bit vector passes those that need nothing
    # of it and each group whose required mask its key includes.
    thresholds, groups = [], []
    for index, by_key in held.items():
        free = every & ~reduce(or_, by_key.values())
        if isinstance(catalog.bottoms[index], IntVal):
            keys = sorted(by_key)
            released = [*accumulate(map(by_key.get, keys), or_, initial=free)]
            thresholds.append((index, keys, released))
        else:
            groups.append((index, free, tuple(by_key.items())))
    twists = [
        (catalog.names.index(twist.param), twist.threshold, sum(
            1 << bit for bit, alarm in enumerate(alarms) if alarm.alarm_id == twist.alarm_id
        ))
        for twist in profile.twists
    ]

    def eliminated(values: tuple[LatticeValue, ...]) -> int:
        mask = compressible
        for index, keys, released in thresholds:
            mask &= released[bisect_right(keys, values[index].value)]
        for index, passed, needs in groups:
            key = values[index].value
            for need, needers in needs:
                if need & ~key == 0:
                    passed |= needers
            mask &= passed
        for index, threshold, poisoned in twists:
            if leq(threshold, values[index]):
                mask &= ~poisoned
        return mask

    return eliminated


@dataclass(frozen=True)
class SyntheticProfile:
    catalog: Catalog
    alarms: tuple[SyntheticAlarm, ...]
    cost: CostModel = CostModel()
    twists: tuple[Twist, ...] = ()
    #: The alarm rule, compiled once: values in catalog order -> the mask
    #: of the alarms they eliminate (see ``_compile_rule``).
    eliminated: Callable[[tuple[LatticeValue, ...]], int] = field(
        init=False, compare=False, repr=False
    )
    #: Alarm ids, last alarm first: the digit order of a binary numeral.
    ids: tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: Each cost weight's parameter position in the catalog, and the weight.
    weighted: tuple[tuple[int, float], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = self.catalog.names
        for name in (*self.cost.weights, *(twist.param for twist in self.twists)):
            if name not in names:
                raise ValueError(f"unknown parameter {shown(name)}")
        for twist in self.twists:
            if not same_kind(twist.threshold, self.catalog.spec(twist.param).initial.base):
                raise ValueError(f"twist on {shown(twist.param)} has a threshold of the wrong kind")
        for alarm in self.alarms:
            if alarm.requirement is not None:
                values = self.values_of(alarm.requirement)
                if not all(map(same_kind, values, self.catalog.bottoms)):
                    raise ValueError(f"alarm {shown(alarm.alarm_id)} requires a value of the wrong kind")
        weighted = tuple((names.index(name), w) for name, w in self.cost.weights.items())
        object.__setattr__(self, "weighted", weighted)
        object.__setattr__(self, "eliminated", _compile_rule(self))
        object.__setattr__(self, "ids", tuple(alarm.alarm_id for alarm in reversed(self.alarms)))

    def __reduce__(self):
        # pickle cannot save the compiled rule, a closure: rebuild it from the fields
        return SyntheticProfile, (self.catalog, self.alarms, self.cost, self.twists)

    def values_of(self, config: Configuration) -> tuple[LatticeValue, ...]:
        """The values by catalog position; ValueError if the names differ from the catalog's."""
        if config.names != self.catalog.names:
            raise ValueError(f"configuration of {list(config.names)}, not the profile's catalog")
        return config.values


def precision_contribution(value: LatticeValue) -> float:
    """Cost contribution of one value: an integer's magnitude, otherwise the popcount."""
    if isinstance(value, IntVal):
        return float(value.value)
    return float(value.value.bit_count())


def simulated_cost(profile: SyntheticProfile, config: Configuration) -> float:
    values = profile.values_of(config)
    cost = profile.cost.base_cost
    for index, weight in profile.weighted:
        cost += weight * precision_contribution(values[index])
    return cost


def _alarm_names(ids: tuple[str, ...], eliminated: int) -> frozenset[str]:
    """The ids, last alarm first, of the alarms not in the eliminated mask."""
    produced = eliminated ^ ((1 << len(ids)) - 1)
    # One 0/1 byte per alarm, last alarm first, to select the ids. A set
    # copied into a frozenset gets a smaller table than one grown from an
    # iterator.
    selectors = format(produced, f"0{len(ids)}b").encode().translate(_BINARY_DIGITS)
    return frozenset(set(compress(ids, selectors)))


def synthetic_alarms(profile: SyntheticProfile, config: Configuration) -> frozenset[str]:
    """Alarm set reported for a configuration (pure function).

    An alarm is suppressed when the configuration dominates its
    requirement, unless a twist on it fires.
    """
    return _alarm_names(profile.ids, profile.eliminated(profile.values_of(config)))


class SyntheticAnalyzer:
    """Deterministic in-process analyzer driven by a profile.

    Its clock is virtual: the cost model is compared to the deadline
    arithmetically and no wall time passes.

    Configurations that eliminate the same alarms get the same frozenset
    object, built once per analyzer: a run reports few distinct alarm
    sets, and every set kept is one that some outcome holds.
    """

    virtual_clock = True

    def __init__(self, profile: SyntheticProfile):
        self.profile = profile
        # eliminated mask -> alarm set. Threads sharing one analyzer may
        # race to fill one entry; each builds an equal set, so any wins.
        self._alarm_sets: dict[int, frozenset[str]] = {}

    def run(self, task: AnalysisTask) -> AnalysisOutcome:
        cost = simulated_cost(self.profile, task.config)  # checks the parameter names
        if cost > task.timeout:
            return TimedOut(wall_time=task.timeout)
        eliminated = self.profile.eliminated(task.config.values)
        alarms = self._alarm_sets.get(eliminated)
        if alarms is None:
            alarms = self._alarm_sets[eliminated] = _alarm_names(self.profile.ids, eliminated)
        return Completed(alarms=alarms, wall_time=cost)


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
        for name, value in zip(alarm.requirement.names, alarm.requirement.values):
            if value.value == INFINITY:  # only an integer's key is ever INFINITY
                raise ProfileError(
                    f"requirement for {shown(alarm.alarm_id)} is unbounded in {name!r}"
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

    Cost values must be finite and at least 0. Unnamed requirement
    parameters default to the catalog's shared bottoms; each distinct
    literal of a parameter is parsed once, into one shared value.
    """
    base_cost = 0.0
    weights: dict[str, float] = {}
    requirements: dict[str, list[LatticeValue]] = {}  # values in catalog order
    incompressible: dict[str, int] = {}  # alarm id -> line of its "incompressible = true"
    twists: dict[Twist, int] = {}  # twist -> line of its key
    literals: dict[tuple[str, str], LatticeValue] = {}

    def literal(name: str, raw: str) -> LatticeValue:
        if (name, raw) not in literals:
            spec = catalog.spec(_known_param(catalog, name))
            literals[name, raw] = parse_value(spec.initial.base, raw)
        return literals[name, raw]

    for key, (raw, lineno, _) in parse_keytree(text).items():
        parts = key.split(".")
        try:
            if parts == ["cost", "base"]:
                base_cost = read_amount(raw)
            elif len(parts) == 3 and parts[:2] == ["cost", "weight"]:
                weights[_known_param(catalog, parts[2])] = read_amount(raw)
            elif len(parts) == 4 and parts[0] == "alarm" and parts[2] == "requires":
                value = literal(parts[3], raw)
                values = requirements.setdefault(parts[1], list(catalog.bottoms))
                values[catalog.names.index(parts[3])] = value
            elif len(parts) == 3 and parts[0] == "alarm" and parts[2] == "incompressible":
                if parse_value(BoolVal(False), raw).value:
                    incompressible[parts[1]] = lineno
            elif len(parts) == 3 and parts[0] == "twist":
                twists[Twist(parts[1], parts[2], literal(parts[2], raw))] = lineno
            else:
                raise ValueError(f"unrecognized profile key {shown(key)}")
        except ValueError as exc:
            raise ConfigParseError(str(exc), line=lineno)

    alarms: list[SyntheticAlarm] = []
    for alarm_id in sorted(set(requirements) | set(incompressible)):
        if alarm_id in incompressible:
            if alarm_id in requirements:
                raise ConfigParseError(
                    f"alarm {shown(alarm_id)} is both incompressible and has requirements",
                    line=incompressible[alarm_id],
                )
            alarms.append(SyntheticAlarm(alarm_id, None))
        else:
            requirement = Configuration(catalog.names, tuple(requirements[alarm_id]))
            alarms.append(SyntheticAlarm(alarm_id, requirement))

    known_alarms = {a.alarm_id for a in alarms}
    for twist, lineno in twists.items():
        if twist.alarm_id not in known_alarms:
            raise ConfigParseError(f"twist references unknown alarm {shown(twist.alarm_id)}", lineno)

    return SyntheticProfile(
        catalog=catalog,
        alarms=tuple(alarms),
        cost=CostModel(base_cost=base_cost, weights=weights),
        twists=tuple(twists),
    )


def _known_param(catalog: Catalog, name: str) -> str:
    if name not in catalog.names:
        raise ValueError(f"unknown parameter {shown(name)}")
    return name
