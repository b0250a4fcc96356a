"""Synthetic analyzer: elimination semantics, cost model, and oracle."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from strategy_tuner import (
    AnalysisTask,
    BitsVal,
    BoolVal,
    Completed,
    ConfigParseError,
    CostModel,
    Crashed,
    IntVal,
    INFINITY,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TimedOut,
    TunerError,
    Twist,
    config_dominates,
    leq,
    parse_profile,
    synthetic_oracle_least_config,
)
from strategy_tuner.analyzers import precision_contribution, simulated_cost, synthetic_alarms
from strategy_tuner.lattice import INT_CEILING, bottom, top
from strategy_tuner.orchestrator import run_batch
from strategy_tuner.paramspace import Configuration


@pytest.fixture
def slevel_profile(catalog):
    requirement = catalog.bottom_configuration().replace("slevel", IntVal(104))
    return SyntheticProfile(
        catalog=catalog,
        alarms=(SyntheticAlarm("alarm-1", requirement),),
        cost=CostModel(base_cost=0.01),
    )


class TestRunContract:
    def test_alarm_survives_low_config(self, catalog, slevel_profile):
        analyzer = SyntheticAnalyzer(slevel_profile)
        outcome = analyzer.run(
            AnalysisTask("synthetic", catalog.base_configuration(), timeout=10.0)
        )
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset({"alarm-1"})

    def test_alarm_suppressed_by_dominating_config(self, catalog, slevel_profile):
        config = catalog.base_configuration().replace("slevel", IntVal(104))
        outcome = SyntheticAnalyzer(slevel_profile).run(
            AnalysisTask("synthetic", config, timeout=10.0)
        )
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset()

    def test_cost_above_deadline_times_out(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(), cost=CostModel(base_cost=10.0)
        )
        outcome = SyntheticAnalyzer(profile).run(
            AnalysisTask("synthetic", catalog.base_configuration(), timeout=1.0)
        )
        assert outcome == TimedOut(wall_time=1.0)

    def test_virtual_clock_does_not_sleep(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(), cost=CostModel(base_cost=30.0)
        )
        start = time.monotonic()
        SyntheticAnalyzer(profile).run(
            AnalysisTask("synthetic", catalog.base_configuration(), timeout=5.0)
        )
        assert time.monotonic() - start < 1.0

    def test_deterministic(self, catalog, slevel_profile):
        analyzer = SyntheticAnalyzer(slevel_profile)
        task = AnalysisTask("synthetic", catalog.base_configuration(), timeout=10.0)
        assert analyzer.run(task) == analyzer.run(task)

    def test_nonpositive_timeout_rejected(self, catalog):
        with pytest.raises(ValueError):
            AnalysisTask("synthetic", catalog.base_configuration(), timeout=0.0)

    def test_equal_masks_share_one_alarm_set(self, catalog):
        # 200 random configurations of one analyzer: each outcome's set is
        # the pure function's, and configurations that eliminate the same
        # alarms get one object, built once
        rng = random.Random(2718)
        needs = {
            "slevel": IntVal(12),
            "domains": BitsVal.from_string("01010"),
            "octagon-through-calls": BoolVal(True),
        }
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=tuple(
                SyntheticAlarm(f"a{i}", catalog.bottom_configuration().replace(name, value))
                for i, (name, value) in enumerate(needs.items())
            )
            + (SyntheticAlarm("stuck", None),),
        )
        analyzer = SyntheticAnalyzer(profile)
        configs = [_random_config(catalog, rng) for _ in range(200)]
        outcomes = [analyzer.run(AnalysisTask("synthetic", c, timeout=10.0)) for c in configs]
        for config, outcome in zip(configs, outcomes):
            assert outcome.alarms == synthetic_alarms(profile, config)
        distinct = {outcome.alarms for outcome in outcomes}
        assert len(distinct) > 1
        assert len({id(outcome.alarms) for outcome in outcomes}) == len(distinct)
        # a fresh analyzer builds its own sets
        again = SyntheticAnalyzer(profile).run(AnalysisTask("synthetic", configs[0], timeout=10.0))
        assert again.alarms == outcomes[0].alarms and again.alarms is not outcomes[0].alarms

        # threads sharing one analyzer share the dict; a race on one entry
        # may build a set twice, never a wrong one
        threaded = SyntheticAnalyzer(profile)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                tasks = [AnalysisTask("synthetic", c, timeout=10.0) for c in configs * 3]
                results = list(pool.map(threaded.run, tasks, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        for task, outcome in zip(tasks, results):
            assert outcome.alarms == synthetic_alarms(profile, task.config)


class TestCatalogPositions:
    """The synthetic analyzer reads a configuration's values by catalog position."""

    def test_configuration_of_other_names_is_a_crash(self, catalog):
        # read by name, a reordered configuration completed as if in order
        requirement = catalog.bottom_configuration().replace("slevel", IntVal(3))
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(SyntheticAlarm("a", requirement),),
            cost=CostModel(base_cost=1.0, weights={"slevel": 0.5}),
        )
        base = catalog.base_configuration()
        reordered = Configuration(base.names[::-1], base.values[::-1])
        partial = Configuration(base.names[:-1], base.values[:-1])
        for config in (reordered, partial):
            for read in (simulated_cost, synthetic_alarms):
                with pytest.raises(ValueError, match="not the profile's catalog"):
                    read(profile, config)
            (outcome,) = run_batch(SyntheticAnalyzer(profile), "p", [config], 10.0, map)
            assert isinstance(outcome, Crashed)
            assert "not the profile's catalog" in outcome.exit_info

    def test_requirement_of_other_names_rejected(self, catalog):
        base = catalog.base_configuration()
        reordered = Configuration(base.names[::-1], base.values[::-1])
        with pytest.raises(ValueError, match="not the profile's catalog"):
            SyntheticProfile(catalog=catalog, alarms=(SyntheticAlarm("a", reordered),))

    @pytest.mark.parametrize(
        "name, value",
        [("domains", IntVal(3)), ("slevel", BitsVal(3, 5)), ("split-return", IntVal(1))],
    )
    def test_requirement_of_the_wrong_kind_rejected(self, catalog, name, value):
        # IntVal(3) at domains was accepted, and the alarm then counted as
        # eliminated at domains = 11000
        base = catalog.base_configuration()
        values = tuple(value if n == name else v for n, v in zip(base.names, base.values))
        requirement = Configuration(base.names, values)
        with pytest.raises(ValueError, match="alarm 'a' requires a value of the wrong kind"):
            SyntheticProfile(catalog=catalog, alarms=(SyntheticAlarm("a", requirement),))

    def test_gates_hold_catalog_positions(self, catalog):
        requirement = (
            catalog.bottom_configuration()
            .replace("slevel", IntVal(3))
            .replace("domains", BitsVal.from_string("01000"))
        )
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(SyntheticAlarm("a", requirement),),
            cost=CostModel(weights={"domains": 2.0, "ilevel": 1.0}),
            twists=(Twist("a", "plevel", IntVal(50)),),
        )
        # the rule reads slevel, domains and the twist's plevel at their
        # catalog positions: lowering either need, or reaching the twist,
        # at that position alone brings the alarm back
        assert synthetic_alarms(profile, requirement) == set()
        changes = {4: IntVal(2), 12: BitsVal.from_string("10100"), 6: IntVal(50)}
        for index, value in changes.items():
            values = list(requirement.values)
            values[index] = value
            config = Configuration(catalog.names, tuple(values))
            assert synthetic_alarms(profile, config) == {"a"}
        assert [catalog.names[index] for index in changes] == ["slevel", "domains", "plevel"]
        assert profile.weighted == ((12, 2.0), (5, 1.0))

    def test_profile_copies_and_pickles(self, catalog, slevel_profile):
        # the compiled rule is rebuilt from the fields, not copied
        low = catalog.base_configuration()
        high = low.replace("slevel", IntVal(104))
        for rebuilt in (
            copy.copy(slevel_profile),
            copy.deepcopy(slevel_profile),
            pickle.loads(pickle.dumps(slevel_profile)),
        ):
            assert rebuilt == slevel_profile
            assert synthetic_alarms(rebuilt, low) == {"alarm-1"}
            assert synthetic_alarms(rebuilt, high) == set()


_BAD_PROFILES = {
    "negative-base": ({"base_cost": -1.0}, ()),
    "nan-base": ({"base_cost": float("nan")}, ()),
    "infinite-base": ({"base_cost": float("inf")}, ()),
    "negative-weight": ({"weights": {"slevel": -1.0}}, ()),
    "true-base": ({"base_cost": True}, ()),
    "false-base": ({"base_cost": False}, ()),
    "string-base": ({"base_cost": "1"}, ()),
    "none-base": ({"base_cost": None}, ()),
    "string-weight": ({"weights": {"slevel": "1"}}, ()),
    "huge-weight": ({"weights": {"slevel": 10**400}}, ()),
    "unknown-weight": ({"weights": {"slevl": 1.0}}, ()),
    "unknown-twist-param": ({}, (Twist("a", "slevl", IntVal(3)),)),
    "twist-of-wrong-kind": ({}, (Twist("a", "slevel", BoolVal(True)),)),
}


class TestCostModel:
    def test_contributions(self):
        assert precision_contribution(IntVal(7)) == 7.0
        assert precision_contribution(IntVal(INFINITY)) == float("inf")
        assert precision_contribution(BoolVal(True)) == 1.0
        assert precision_contribution(BoolVal(False)) == 0.0
        assert precision_contribution(BitsVal.from_string("10110")) == 3.0

    @pytest.mark.parametrize("b", [False, True])
    def test_boolean_costs_as_its_one_bit_vector(self, b):
        assert precision_contribution(BoolVal(b)) == precision_contribution(BitsVal(int(b), 1))

    def test_weighted_cost(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(),
            cost=CostModel(base_cost=1.0, weights={"slevel": 0.5, "domains": 2.0}),
        )
        config = catalog.base_configuration().replace("slevel", IntVal(10))
        # base 1.0 + 0.5*10 + 2.0*popcount(10000)
        assert simulated_cost(profile, config) == pytest.approx(1.0 + 5.0 + 2.0)

    @pytest.mark.parametrize("cost,twists", _BAD_PROFILES.values(), ids=list(_BAD_PROFILES))
    def test_bad_profile_rejected_at_construction(self, catalog, cost, twists):
        # accepted, each ran to a negative total time, died mid-run on a
        # nan timeout, or crashed every analysis (a bool cost as a wall time
        # of True or False, 10**400 in OverflowError); a string or None
        # raised TypeError
        with pytest.raises(ValueError):
            SyntheticProfile(catalog, (), CostModel(**cost), twists)


def _random_config(catalog, rng: random.Random):
    values = {}
    for spec in catalog:
        kind = spec.initial.base
        if kind.__class__.__name__ == "IntVal":
            values[spec.name] = IntVal(rng.randint(0, 30))
        elif kind.__class__.__name__ == "BoolVal":
            values[spec.name] = BoolVal(rng.random() < 0.5)
        else:
            width = kind.width
            values[spec.name] = BitsVal(
                sum(1 << i for i in range(width) if rng.random() < 0.5), width
            )
    return catalog.configuration(values)


class TestMonotonicity:
    def test_twist_free_profile_is_monotone(self, catalog):
        rng = random.Random(5150)
        reqs = [
            catalog.bottom_configuration().replace("slevel", IntVal(12)),
            catalog.bottom_configuration().replace("ilevel", IntVal(15)),
            catalog.bottom_configuration().replace("domains", BitsVal.from_string("01010")),
            catalog.bottom_configuration().replace("octagon-through-calls", BoolVal(True)),
        ]
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=tuple(SyntheticAlarm(f"a{i}", r) for i, r in enumerate(reqs))
            + (SyntheticAlarm("stuck", None),),
        )
        from strategy_tuner.paramspace import config_join

        for _ in range(200):
            low = _random_config(catalog, rng)
            high = config_join(low, _random_config(catalog, rng))
            assert config_dominates(high, low)
            assert synthetic_alarms(profile, high) <= synthetic_alarms(profile, low)

    def test_twist_breaks_monotonicity(self, catalog):
        requirement = catalog.bottom_configuration().replace("slevel", IntVal(5))
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(SyntheticAlarm("a", requirement),),
            twists=(Twist("a", "partition-history", IntVal(3)),),
        )
        ok = catalog.bottom_configuration().replace("slevel", IntVal(5))
        poisoned = ok.replace("partition-history", IntVal(3))
        assert config_dominates(poisoned, ok)
        assert synthetic_alarms(profile, ok) == frozenset()
        assert synthetic_alarms(profile, poisoned) == frozenset({"a"})


def _bottom_with(catalog, values):
    """The catalog's bottom configuration with ``values`` set."""
    return catalog.configuration(dict(zip(catalog.names, catalog.bottoms)) | values)


def _random_value(kind, rng: random.Random):
    """Any value of a kind, bottom and INFINITY included."""
    name = kind.__class__.__name__
    if name == "IntVal":
        return IntVal(rng.choice((0, INFINITY, rng.randint(0, 12))))
    if name == "BoolVal":
        return BoolVal(rng.random() < 0.5)
    width = kind.width
    return BitsVal(sum(1 << i for i in range(width) if rng.random() < 0.5), width)


def _required_value(kind, rng: random.Random):
    """A value above bottom, INFINITY included."""
    value = _random_value(kind, rng)
    while value == bottom(kind):
        value = _random_value(kind, rng)
    return value


def _one_below(value):
    """The values one step below a value above bottom."""
    if isinstance(value, BoolVal):
        return [BoolVal(False)]
    if isinstance(value, BitsVal):
        return [
            BitsVal(value.value & ~(1 << i), value.width)
            for i in range(value.width)
            if value.value >> i & 1
        ]
    return [IntVal(INT_CEILING if value.is_infinite else value.value - 1)]


def _plain_alarms(profile, config):
    """The alarm rule restated on whole requirements, without compilation."""
    poisoned = {
        twist.alarm_id
        for twist in profile.twists
        if leq(twist.threshold, config[twist.param])
    }
    return frozenset(
        alarm.alarm_id
        for alarm in profile.alarms
        if alarm.requirement is None
        or not config_dominates(config, alarm.requirement)
        or alarm.alarm_id in poisoned
    )


class TestCompiledRule:
    def test_matches_plain_rule(self, catalog):
        rng = random.Random(90210)
        specs = list(catalog)
        for _ in range(60):
            alarms = []
            for i in range(rng.randint(0, 12)):
                if rng.random() < 0.2:
                    alarms.append(SyntheticAlarm(f"a{i}", None))
                    continue
                needed = rng.sample(specs, rng.randint(0, 4))
                values = {spec.name: _random_value(spec.initial.base, rng) for spec in needed}
                alarms.append(
                    SyntheticAlarm(f"a{i}", _bottom_with(catalog, values))
                )
            twists = tuple(
                Twist(alarm.alarm_id, spec.name, _random_value(spec.initial.base, rng))
                for alarm in alarms
                if rng.random() < 0.3
                for spec in [rng.choice(specs)]
            )
            profile = SyntheticProfile(catalog=catalog, alarms=tuple(alarms), twists=twists)
            for _ in range(20):
                config = catalog.configuration(
                    {spec.name: _random_value(spec.initial.base, rng) for spec in specs}
                )
                assert synthetic_alarms(profile, config) == _plain_alarms(profile, config)

    def test_bottom_requirements_are_dropped(self, catalog):
        # a bottom requirement constrains nothing: slevel alone holds "a"
        # back, an alarm needing nothing above bottom is always eliminated,
        # and only an incompressible alarm survives the top configuration
        requirement = catalog.bottom_configuration().replace("slevel", IntVal(3))
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm("a", requirement),
                SyntheticAlarm("stuck", None),
                SyntheticAlarm("free", catalog.bottom_configuration()),
            ),
        )
        low = catalog.bottom_configuration()
        highest = catalog.configuration({spec.name: top(spec.initial.base) for spec in catalog})
        assert synthetic_alarms(profile, low) == {"a", "stuck"}
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(2))) == {"a", "stuck"}
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(3))) == {"stuck"}
        assert synthetic_alarms(profile, highest) == {"stuck"}

    def test_masks_spanning_several_words(self, catalog):
        rng = random.Random(6174)
        specs = list(catalog)
        for count in (65, 128, 200):
            alarms = []
            for i in range(count):
                if rng.random() < 0.1:
                    alarms.append(SyntheticAlarm(f"a{i}", None))
                    continue
                needed = rng.sample(specs, rng.randint(1, 3))
                values = {spec.name: _random_value(spec.initial.base, rng) for spec in needed}
                alarms.append(
                    SyntheticAlarm(f"a{i}", _bottom_with(catalog, values))
                )
            twists = tuple(
                Twist(alarm.alarm_id, spec.name, _random_value(spec.initial.base, rng))
                for alarm in alarms
                if rng.random() < 0.05
                for spec in [rng.choice(specs)]
            )
            profile = SyntheticProfile(catalog=catalog, alarms=tuple(alarms), twists=twists)
            highest = catalog.configuration({spec.name: top(spec.initial.base) for spec in specs})
            produced = synthetic_alarms(profile, highest)
            assert produced == _plain_alarms(profile, highest)
            # some compressible alarm past the first 64 bits is eliminated
            assert any(alarm.alarm_id not in produced for alarm in alarms[64:])
            for _ in range(30):
                config = catalog.configuration(
                    {spec.name: _random_value(spec.initial.base, rng) for spec in specs}
                )
                assert synthetic_alarms(profile, config) == _plain_alarms(profile, config)

    def test_configurations_at_and_one_below_each_requirement(self, catalog):
        rng = random.Random(1729)
        specs = list(catalog)
        alarms = []
        for i in range(90):
            needed = rng.sample(specs, rng.randint(1, 3))
            values = {spec.name: _required_value(spec.initial.base, rng) for spec in needed}
            alarms.append(SyntheticAlarm(f"a{i}", _bottom_with(catalog, values)))
        profile = SyntheticProfile(catalog=catalog, alarms=tuple(alarms))
        highest = catalog.configuration({spec.name: top(spec.initial.base) for spec in specs})
        for alarm in alarms:
            for name, need in zip(alarm.requirement.names, alarm.requirement.values):
                if need == bottom(need):
                    continue
                for below in _one_below(need):
                    for base in (highest, alarm.requirement):
                        at, under = base.replace(name, need), base.replace(name, below)
                        produced_at = synthetic_alarms(profile, at)
                        produced_under = synthetic_alarms(profile, under)
                        assert alarm.alarm_id not in produced_at
                        assert alarm.alarm_id in produced_under
                        assert produced_at == _plain_alarms(profile, at)
                        assert produced_under == _plain_alarms(profile, under)

    def test_infinite_requirements_and_values(self, catalog):
        def needs(value):
            return catalog.bottom_configuration().replace("slevel", IntVal(value))

        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm("unbounded", needs(INFINITY)),
                SyntheticAlarm("ceiling", needs(INT_CEILING)),
                SyntheticAlarm("small", needs(7)),
            ),
            twists=(Twist("small", "slevel", IntVal(INFINITY)),),
        )
        low = catalog.bottom_configuration()
        assert synthetic_alarms(profile, low) == {"unbounded", "ceiling", "small"}
        # each of the keys 7, INT_CEILING and infinity releases its alarm
        # at that value and not one below
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(6))) == {
            "unbounded", "ceiling", "small"
        }
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(7))) == {
            "unbounded", "ceiling"
        }
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(INT_CEILING - 1))) == {
            "unbounded", "ceiling"
        }
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(INT_CEILING))) == {
            "unbounded"
        }
        # only INFINITY reaches an infinite requirement, and it fires the twist
        assert synthetic_alarms(profile, low.replace("slevel", IntVal(INFINITY))) == {"small"}


class TestOracle:
    def test_join_of_requirements(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm(
                    "a", catalog.bottom_configuration().replace("slevel", IntVal(9))
                ),
                SyntheticAlarm(
                    "b", catalog.bottom_configuration().replace("slevel", IntVal(104))
                ),
            ),
        )
        least = synthetic_oracle_least_config(profile)
        assert least["slevel"] == IntVal(104)
        assert least["ilevel"] == IntVal(0)

    def test_empty_profile_gives_bottom(self, catalog):
        profile = SyntheticProfile(catalog=catalog, alarms=())
        assert synthetic_oracle_least_config(profile) == catalog.bottom_configuration()

    def test_bits_requirements_pointwise_or(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm(
                    "a",
                    catalog.bottom_configuration().replace("domains", BitsVal.from_string("00100")),
                ),
                SyntheticAlarm(
                    "b",
                    catalog.bottom_configuration().replace("domains", BitsVal.from_string("01000")),
                ),
            ),
        )
        least = synthetic_oracle_least_config(profile)
        assert least["domains"] == BitsVal.from_string("01100")

    def test_incompressible_ignored(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog, alarms=(SyntheticAlarm("stuck", None),)
        )
        assert synthetic_oracle_least_config(profile) == catalog.bottom_configuration()

    def test_twists_rejected(self, catalog):
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(SyntheticAlarm("stuck", None),),
            twists=(Twist("stuck", "slevel", IntVal(3)),),
        )
        with pytest.raises(TunerError, match=r"^oracle requires a monotone profile \(no twists\)$"):
            synthetic_oracle_least_config(profile)

    def test_unbounded_requirement_rejected(self, catalog):
        requirement = catalog.bottom_configuration().replace("slevel", IntVal(INFINITY))
        profile = SyntheticProfile(
            catalog=catalog, alarms=(SyntheticAlarm("a", requirement),)
        )
        with pytest.raises(TunerError, match="^requirement for 'a' is unbounded in 'slevel'$"):
            synthetic_oracle_least_config(profile)

    def test_least_by_exhaustive_enumeration(self, catalog):
        """Enumerate a small sublattice and check the oracle is minimal."""
        profile = SyntheticProfile(
            catalog=catalog,
            alarms=(
                SyntheticAlarm(
                    "a",
                    catalog.bottom_configuration()
                    .replace("slevel", IntVal(3))
                    .replace("domains", BitsVal.from_string("01000")),
                ),
                SyntheticAlarm(
                    "b",
                    catalog.bottom_configuration()
                    .replace("ilevel", IntVal(5))
                    .replace("domains", BitsVal.from_string("00100")),
                ),
                SyntheticAlarm("stuck", None),
            ),
        )
        least = synthetic_oracle_least_config(profile)
        eliminable = {"a", "b"}

        candidates = []
        for slevel, ilevel, bits in itertools.product(
            range(8), range(8), range(2**5)
        ):
            config = (
                catalog.bottom_configuration()
                .replace("slevel", IntVal(slevel))
                .replace("ilevel", IntVal(ilevel))
                .replace("domains", BitsVal(bits, 5))
            )
            if not (synthetic_alarms(profile, config) & eliminable):
                candidates.append(config)

        assert least in candidates
        for config in candidates:
            assert config_dominates(config, least)


PROFILE_TEXT = """
# demo profile
cost.base = 0.25
cost.weight.slevel = 0.001

alarm.overflow.requires.slevel = 104
alarm.overflow.requires.domains = 01100
alarm.leak.incompressible = true

twist.overflow.partition-history = 2
"""


class TestProfileParsing:
    def test_full_profile(self, catalog):
        profile = parse_profile(PROFILE_TEXT, catalog)
        assert profile.cost.base_cost == 0.25
        assert profile.cost.weights == {"slevel": 0.001}
        assert len(profile.alarms) == 2
        overflow = next(a for a in profile.alarms if a.alarm_id == "overflow")
        assert overflow.requirement["slevel"] == IntVal(104)
        assert overflow.requirement["domains"] == BitsVal.from_string("01100")
        assert overflow.requirement["ilevel"] == IntVal(0)
        leak = next(a for a in profile.alarms if a.alarm_id == "leak")
        assert leak.requirement is None
        assert profile.twists == (Twist("overflow", "partition-history", IntVal(2)),)

    def test_values_are_shared(self, catalog):
        # lattice values are immutable, so a profile holds one object per
        # distinct literal of a parameter, and the catalog's own bottoms
        literals = [("slevel", "3"), ("slevel", "0"), ("ilevel", "12"), ("slevel", "3")]
        text = "".join(
            f"alarm.a{i}.requires.{name} = {raw}\nalarm.a{i}.requires.domains = 11000\n"
            f"twist.a{i}.{name} = {raw}\n"
            for i, (name, raw) in enumerate(literals)
        )
        profile = parse_profile(text, catalog)
        shared: dict[tuple[str, str], object] = {}
        for alarm, twist, (name, raw) in zip(profile.alarms, profile.twists, literals):
            requirement = alarm.requirement
            first = shared.setdefault((name, raw), twist.threshold)
            assert requirement[name] is twist.threshold is first
            domains = requirement["domains"]
            assert domains is shared.setdefault(("domains", "11000"), domains)
            for param, value, least in zip(requirement.names, requirement.values, catalog.bottoms):
                if param not in (name, "domains"):
                    assert value is least
        assert len(shared) == 4

    def test_unknown_parameter(self, catalog):
        with pytest.raises(ConfigParseError):
            parse_profile("alarm.a.requires.bogus = 3\n", catalog)

    def test_unknown_key_shape(self, catalog):
        with pytest.raises(ConfigParseError):
            parse_profile("alarm.a.wibble = 3\n", catalog)

    def test_conflicting_alarm(self, catalog):
        text = "alarm.a.requires.slevel = 3\nalarm.a.incompressible = true\n"
        with pytest.raises(ConfigParseError):
            parse_profile(text, catalog)

    def test_incompressible_takes_true_or_false(self, catalog):
        with pytest.raises(ConfigParseError, match="expected 'true' or 'false'") as err:
            parse_profile("alarm.a.incompressible = maybe\n", catalog)
        assert err.value.line == 1

    def test_twist_for_unknown_alarm(self, catalog):
        with pytest.raises(ConfigParseError):
            parse_profile("twist.ghost.slevel = 3\n", catalog)

    def test_twist_for_unknown_alarm_names_its_line(self, catalog):
        text = "alarm.a.requires.slevel = 3\ntwist.b.slevel = 10\n"
        with pytest.raises(ConfigParseError, match="twist references unknown alarm 'b'") as err:
            parse_profile(text, catalog)
        assert err.value.line == 2

    def test_conflicting_alarm_names_the_incompressible_line(self, catalog):
        text = "alarm.a.incompressible = true\ncost.base = 1\nalarm.a.requires.slevel = 3\n"
        with pytest.raises(ConfigParseError, match="both incompressible") as err:
            parse_profile(text, catalog)
        assert err.value.line == 1

    @pytest.mark.parametrize("raw", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("key", ["cost.base", "cost.weight.slevel"])
    def test_cost_must_be_finite_and_nonnegative(self, catalog, key, raw):
        # a negative cost grows the remaining budget, nan fails every task's
        # timeout check, and inf times out every analysis
        text = f"alarm.a.requires.slevel = 3\n{key} = {raw}\n"
        with pytest.raises(ConfigParseError) as err:
            parse_profile(text, catalog)
        assert err.value.line == 2

    def test_zero_cost_accepted(self, catalog):
        profile = parse_profile("cost.base = 0\ncost.weight.slevel = 0.0\n", catalog)
        assert profile.cost.base_cost == 0.0
        assert profile.cost.weights == {"slevel": 0.0}
