"""Reference semantics of the tuner on plain Python values.

The benchmark checks the program's output against this module, so it
imports nothing from ``strategy_tuner``. Values are read from their text
form (trace and profile literals) into plain Python values:

* integer parameters: an ``int``, or ``INF`` for the lattice top;
* boolean parameters: a ``bool``;
* bit-vector parameters: a ``frozenset`` of the indices of the set bits.

On all three, ``a <= b`` is the lattice order. Meet is ``min`` (``&`` on
sets) and join is ``max`` (``|`` on sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

#: Rates are capped here when the delta is scaled (the tuner's LAMBDA_CAP).
LAMBDA_CAP = 100_000.0


@dataclass(frozen=True)
class Kind:
    """Lattice of one parameter: "int", "bool" or "bits" of some width."""

    name: str
    width: int = 0


def kind_of_delta(delta: dict) -> Kind:
    """The lattice a delta distribution (trace JSON form) pairs with."""
    if delta["kind"] == "poisson":
        return Kind("int")
    if delta["kind"] == "bernoulli":
        return Kind("bool")
    if delta["kind"] == "bernoulli_vector":
        return Kind("bits", len(delta["qs"]))
    raise ValueError(f"unknown delta kind {delta['kind']!r}")


def kinds_of(distributions: dict) -> dict[str, Kind]:
    """Parameter kinds from a trace ``distributions_*`` object."""
    return {name: kind_of_delta(d["delta"]) for name, d in distributions.items()}


def parse_literal(kind: Kind, text: str):
    text = text.strip()
    if kind.name == "int":
        if text == "inf":
            return INF
        if not text.isdigit():
            raise ValueError(f"bad integer literal {text!r}")
        return int(text)
    if kind.name == "bool":
        if text not in ("true", "false"):
            raise ValueError(f"bad boolean literal {text!r}")
        return text == "true"
    if len(text) != kind.width or set(text) - {"0", "1"}:
        raise ValueError(f"bad {kind.width}-bit literal {text!r}")
    return frozenset(i for i, c in enumerate(text) if c == "1")


def parse_config(kinds: dict[str, Kind], literals: dict[str, str]) -> dict:
    return {name: parse_literal(kinds[name], text) for name, text in literals.items()}


def meet(a, b):
    return a & b if isinstance(a, frozenset) else min(a, b)


def join(a, b):
    return a | b if isinstance(a, frozenset) else max(a, b)


def top(kind: Kind):
    if kind.name == "int":
        return INF
    if kind.name == "bool":
        return True
    return frozenset(range(kind.width))


def bottom(kind: Kind):
    if kind.name == "int":
        return 0
    if kind.name == "bool":
        return False
    return frozenset()


@dataclass(frozen=True)
class Profile:
    """A synthetic profile: per-alarm requirements and the cost model.

    ``alarms`` maps an alarm id to its requirement (parameters it names,
    with the least value that suppresses it), or to None when the alarm is
    incompressible. ``weights`` keeps file order, which fixes the order
    the cost terms are summed in.
    """

    alarms: dict[str, dict | None]
    base_cost: float
    weights: tuple[tuple[str, float], ...]

    @property
    def eliminable(self) -> int:
        return sum(1 for req in self.alarms.values() if req is not None)


def parse_profile(text: str, kinds: dict[str, Kind]) -> Profile:
    """Parse the ``key = value`` profile format (twists are not supported)."""
    base_cost = 0.0
    weights: list[tuple[str, float]] = []
    requirements: dict[str, dict] = {}
    incompressible: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        parts = key.strip().split(".")
        value = value.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        if parts == ["cost", "base"]:
            base_cost = float(value)
        elif len(parts) == 3 and parts[:2] == ["cost", "weight"]:
            weights.append((parts[2], float(value)))
        elif len(parts) == 4 and parts[0] == "alarm" and parts[2] == "requires":
            requirements.setdefault(parts[1], {})[parts[3]] = parse_literal(kinds[parts[3]], value)
        elif len(parts) == 3 and parts[0] == "alarm" and parts[2] == "incompressible":
            if value == "true":
                incompressible.add(parts[1])
        else:
            raise ValueError(f"line {lineno}: unsupported profile key {key.strip()!r}")
    alarms: dict[str, dict | None] = {a: None for a in incompressible}
    alarms.update(requirements)
    return Profile(alarms=alarms, base_cost=base_cost, weights=tuple(weights))


def alarms_of(profile: Profile, config: dict) -> frozenset[str]:
    """Alarms reported for a configuration: all but the suppressed ones."""
    return frozenset(
        alarm
        for alarm, req in profile.alarms.items()
        if req is None or not all(low <= config[p] for p, low in req.items())
    )


def eliminated(profile: Profile, config: dict) -> int:
    """How many eliminable alarms the configuration suppresses."""
    produced = alarms_of(profile, config)
    return sum(1 for alarm, req in profile.alarms.items() if req is not None and alarm not in produced)


def least_config(profile: Profile, kinds: dict[str, Kind]) -> dict:
    """The oracle: pointwise join of every eliminable alarm's requirement."""
    acc = {name: bottom(kind) for name, kind in kinds.items()}
    for req in profile.alarms.values():
        for name, value in (req or {}).items():
            acc[name] = join(acc[name], value)
    return acc


def _contribution(value) -> float:
    if isinstance(value, frozenset):
        return float(len(value))
    return float(value)


def cost_of(profile: Profile, config: dict) -> float:
    """Simulated seconds: base cost plus weighted precision terms."""
    cost = profile.base_cost
    for name, weight in profile.weights:
        cost += weight * _contribution(config[name])
    return cost


def refine_base(kind: Kind, base, universe, rows) -> object:
    """Brute-force base refinement of one parameter for one round.

    ``rows`` holds one ``(sampled value, alarm set)`` pair per completed
    analysis. Per alarm column of ``universe``: the meet over the rows
    that did not report the alarm, joined into the base. A column
    contributes nothing when no row eliminated the alarm or when the meet
    is top (the rule ``tests/test_refine_base.py`` states).
    """
    top_value = top(kind)
    acc = base
    for alarm in universe:
        eliminators = [value for value, alarms in rows if alarm not in alarms]
        if not eliminators:
            continue
        lowest = eliminators[0]
        for value in eliminators[1:]:
            lowest = meet(lowest, value)
        if lowest != top_value:
            acc = join(acc, lowest)
    return acc


def eta(completed: int, num_sample: int) -> float:
    """Scaling factor: 2 * completion rate + 1 / num_sample."""
    return 2.0 * completed / num_sample + 1.0 / num_sample


def scale_delta(delta: dict, factor: float) -> dict:
    """Delta update: lambda * eta (capped), q -> 1 - (1 - q) ** eta."""
    def scale_q(q: float) -> float:
        return min(max(1.0 - (1.0 - q) ** factor, 0.0), 1.0)

    if delta["kind"] == "poisson":
        return {"kind": "poisson", "lambda": min(delta["lambda"] * factor, LAMBDA_CAP)}
    if delta["kind"] == "bernoulli":
        return {"kind": "bernoulli", "q": scale_q(delta["q"])}
    return {"kind": "bernoulli_vector", "qs": [scale_q(q) for q in delta["qs"]]}


def deadline(remaining: float, iteration_fraction: float, num_sample: int, num_process: int) -> float:
    """Per-analysis deadline: one geometric slice spread over the waves."""
    waves = math.ceil(num_sample / num_process)
    return remaining * iteration_fraction / waves
