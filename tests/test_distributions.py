"""Sampling and scaling of the composite parameter distributions."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stx

from strategy_tuner import (
    INFINITY,
    INT_CEILING,
    BitsVal,
    BoolVal,
    Catalog,
    Completed,
    IntVal,
    InvalidSettingsError,
    ParamDistribution,
    ParamSpec,
    RandomStream,
    TunerSettings,
    default_catalog,
    leq,
    refine_delta,
    scaling_factor,
)
from strategy_tuner import orchestrator
from strategy_tuner import rng as rng_module
from strategy_tuner.distributions import LAMBDA_CAP, DrawSource, compile_sampler


def _rate(lam):
    """An integer distribution from base 0 with Poisson rate lam."""
    return ParamDistribution(IntVal(0), (lam,))


def _coin(q):
    """A boolean distribution from base false with Bernoulli parameter q."""
    return ParamDistribution(BoolVal(False), (q,))


class TestPairing:
    def test_valid_pairings(self):
        ParamDistribution(IntVal(0), (1.0,))
        ParamDistribution(BoolVal(False), (0.5,))
        ParamDistribution(BitsVal.from_string("10000"), (0.5,) * 5)

    def test_variant_mismatch_rejected(self):
        # a vector's qs on an integer, a rate above 1 on a boolean
        with pytest.raises(ValueError):
            ParamDistribution(IntVal(0), (0.5, 0.5))
        with pytest.raises(ValueError):
            ParamDistribution(BoolVal(False), (20.0,))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamDistribution(BitsVal.from_string("101"), (0.5,) * 5)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            ParamDistribution(IntVal(0), (-0.1,))
        with pytest.raises(ValueError):
            ParamDistribution(BoolVal(False), (1.5,))
        with pytest.raises(ValueError):
            ParamDistribution(BitsVal(0, 2), (0.5, -0.2))

    @pytest.mark.parametrize(
        "base, delta",
        [
            (IntVal(0), ()),
            (IntVal(0), (1.0, 1.0)),
            (BoolVal(False), ()),
            (BoolVal(False), (0.5, 0.5)),
            (BitsVal(0, 1), ()),
            (BitsVal(0, 3), (0.5, 0.5)),
            (BitsVal(0, 3), (0.5,) * 4),
            (IntVal(0), [1.0]),
            (BoolVal(False), [0.5]),
            (BitsVal(0, 2), [0.5, 0.5]),
        ],
        ids=[
            "int-empty", "int-two", "bool-empty", "bool-two", "bits-empty", "bits-short",
            "bits-long", "int-list", "bool-list", "bits-list",
        ],
    )
    def test_wrong_length_or_list_rejected(self, base, delta):
        # a list would make the distribution mutable and unhashable
        with pytest.raises(ValueError, match="delta tuple"):
            ParamDistribution(base, delta)

    @pytest.mark.parametrize(
        "lam",
        [math.inf, math.nan, pytest.param(10**400, id="1e400"), pytest.param(2**1024, id="2^1024")],
    )
    def test_non_finite_rate_rejected(self, lam):
        # an infinite rate would hang the first sample, and an int past a
        # float's range is no rate a float can store: ValueError, not OverflowError
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _rate(lam)

    @pytest.mark.parametrize(
        "base, delta",
        [
            (BoolVal(False), (True,)),
            (BoolVal(False), (False,)),
            (IntVal(0), (True,)),
            (BitsVal(0, 2), (0.5, True)),
            (IntVal(0), ("2",)),
            (BoolVal(False), (None,)),
        ],
        ids=["bool-q-true", "bool-q-false", "int-rate-true", "bits-q-true", "str", "none"],
    )
    def test_an_entry_that_is_no_int_or_float_is_rejected(self, base, delta):
        # a bool q would be written as JSON true, which no trace reader takes
        with pytest.raises(ValueError, match="delta tuple of .* numbers"):
            ParamDistribution(base, delta)

    @pytest.mark.parametrize(
        "base, delta",
        [(IntVal(0), (20,)), (IntVal(3), (0,)), (BoolVal(False), (1,)), (BitsVal(0, 2), (0, 0.5))],
        ids=["rate-20", "rate-0", "q-1", "qs-0"],
    )
    def test_int_entries_are_stored_as_floats(self, base, delta):
        stored = ParamDistribution(base, delta).delta
        assert stored == delta
        assert [type(entry) for entry in stored] == [float] * len(delta)


def _counts(lam, random, n):
    """n draws of Poisson(lam), lam > 0, through the compiled sampler of rate lam from base 0."""
    _, draw = compile_sampler(_rate(lam))
    return [draw(random).value for _ in range(n)]


class TestSampleParam:
    """A compiled sampler, one distribution at a time."""

    def test_zero_rate_is_dirac(self):
        assert compile_sampler(_rate(0.0)) == (IntVal(0), None)

    def test_true_base_absorbs(self):
        assert compile_sampler(ParamDistribution(BoolVal(True), (0.9,))) == (BoolVal(True), None)

    def test_poisson_offset_mean(self):
        # mean of base 10 + Poisson(10) over 1e5 draws: 20 +/- 0.1
        _, draw = compile_sampler(ParamDistribution(IntVal(10), (10.0,)))
        random = RandomStream(3).generator("t")
        n = 100_000
        total = sum(draw(random).value for _ in range(n))
        assert 19.9 <= total / n <= 20.1

    @given(
        stx.one_of(
            stx.builds(ParamDistribution, stx.integers(0, 50).map(IntVal), stx.tuples(stx.floats(0, 20))),
            stx.builds(ParamDistribution, stx.booleans().map(BoolVal), stx.tuples(stx.floats(0, 1))),
            stx.builds(
                ParamDistribution,
                stx.integers(0, 2**5 - 1).map(lambda mask: BitsVal(mask, 5)),
                stx.lists(stx.floats(0, 1), min_size=5, max_size=5).map(tuple),
            ),
        ),
        stx.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_sample_dominates_base(self, dist, seed):
        fixed, draw = compile_sampler(dist)
        sample = fixed if draw is None else draw(RandomStream(seed).generator("s"))
        assert leq(dist.base, sample)


class _ScriptedDraws:
    """A draw source that returns the given draws in order and counts them."""

    def __init__(self, draws):
        self.draws = draws
        self.taken = 0

    def __call__(self) -> float:
        self.taken += 1
        return self.draws[self.taken - 1]


def _old_sample_param(dist: ParamDistribution, random: DrawSource):
    """The rule before draws were skipped: draw the delta, then join it into the base."""
    delta, base = dist.delta, dist.base
    if isinstance(base, IntVal):
        draw = _reference_poisson(delta[0], random)
        # saturating addition: an infinite base, or one at the ceiling or above, stays put
        return base if base.value >= INT_CEILING else IntVal(min(base.value + draw, INT_CEILING))
    if isinstance(base, BoolVal):
        return BoolVal(base.value or random() < delta[0])
    draw = sum(1 << i for i, q in enumerate(delta) if random() < q)
    return BitsVal(base.value | draw, base.width)


_QS = stx.one_of(stx.sampled_from([0.0, 1.0]), stx.floats(0, 1))
_DISTRIBUTIONS = stx.one_of(
    stx.builds(
        ParamDistribution,
        stx.one_of(stx.integers(0, 50), stx.sampled_from([INT_CEILING, INFINITY])).map(IntVal),
        stx.tuples(stx.floats(0, 60)),
    ),
    stx.builds(ParamDistribution, stx.booleans().map(BoolVal), stx.tuples(_QS)),
    stx.builds(
        ParamDistribution,
        stx.one_of(stx.integers(0, 2**5 - 1), stx.just(2**5 - 1)).map(
            lambda mask: BitsVal(mask, 5)
        ),
        stx.lists(_QS, min_size=5, max_size=5).map(tuple),
    ),
)


class TestFixedDraws:
    """A sample the distribution already fixes takes no draw."""

    @pytest.mark.parametrize(
        "dist, expected",
        [
            (ParamDistribution(IntVal(INT_CEILING), (5.0,)), IntVal(INT_CEILING)),
            (ParamDistribution(IntVal(INT_CEILING + 7), (50.0,)), IntVal(INT_CEILING + 7)),
            (ParamDistribution(IntVal(INFINITY), (5.0,)), IntVal(INFINITY)),
            (ParamDistribution(BoolVal(True), (0.5,)), BoolVal(True)),
            (
                ParamDistribution(BitsVal.from_string("11111"), (0.5,) * 5),
                BitsVal.from_string("11111"),
            ),
            (_coin(0.0), BoolVal(False)),
            (_coin(1.0), BoolVal(True)),
            (
                ParamDistribution(BitsVal.from_string("10000"), (0.0, 1.0, 0.0, 1.0, 0.0)),
                BitsVal.from_string("11010"),
            ),
        ],
        ids=["ceiling", "above-ceiling", "infinity", "true", "all-ones", "q0", "q1", "trivial-vector"],
    )
    def test_no_draw(self, dist, expected):
        fixed, draw = compile_sampler(dist)
        assert draw is None and fixed == expected

    def test_partly_trivial_vector_draws_every_bit(self):
        # bit i takes draw i: were bit 0 (q = 0) skipped, bit 1 would
        # take 0.1 and be set
        dist = ParamDistribution(BitsVal.from_string("0000"), (0.0, 0.5, 1.0, 0.5))
        random = _ScriptedDraws([0.1, 0.9, 0.1, 0.1])
        _, draw = compile_sampler(dist)
        assert draw(random) == BitsVal.from_string("0011")
        assert random.taken == 4

    @given(_DISTRIBUTIONS, stx.integers(0, 2**32))
    @settings(max_examples=300)
    def test_same_sample_as_drawing_first(self, dist, seed):
        fixed, draw = compile_sampler(dist)
        ours = fixed if draw is None else draw(RandomStream(seed).generator("s"))
        assert ours == _old_sample_param(dist, RandomStream(seed).generator("s"))


def _three_branch_sampler(dist: ParamDistribution):
    """``compile_sampler`` for Bernoulli deltas as it was with a boolean branch of its own."""
    base, qs = dist.base, dist.delta
    if isinstance(base, BoolVal):
        (q,) = qs
        if base.value or q in (0.0, 1.0):
            return BoolVal(base.value or q == 1.0), None
        return None, lambda random: BoolVal(random() < q)
    mask, width = base.value, base.width
    if mask == (1 << width) - 1:
        return base, None
    if all(q in (0.0, 1.0) for q in qs):
        return BitsVal(mask | sum(1 << i for i, q in enumerate(qs) if q == 1.0), width), None
    bits = tuple((1 << i, q) for i, q in enumerate(qs))
    return None, lambda random: BitsVal(mask | sum(b for b, q in bits if random() < q), width)


@stx.composite
def _bernoulli_distributions(draw):
    """A boolean, or a vector of 1 to 8 bits at bottom, top or any key; each q 0, 1 or uniform."""
    if draw(stx.booleans()):
        base, width = BoolVal(draw(stx.booleans())), 1
    else:
        width = draw(stx.integers(1, 8))
        top_key = (1 << width) - 1
        key = draw(stx.one_of(stx.sampled_from([0, top_key]), stx.integers(0, top_key)))
        base = BitsVal(key, width)
    return ParamDistribution(base, tuple(draw(stx.lists(_QS, min_size=width, max_size=width))))


class TestBernoulliBranch:
    """Booleans sample as one-bit vectors: no fixed value and no draw changes."""

    @given(_bernoulli_distributions(), stx.integers(0, 2**32))
    @settings(max_examples=300)
    def test_same_samples_as_a_boolean_branch(self, dist, seed):
        fixed, draw = compile_sampler(dist)
        ref_fixed, ref_draw = _three_branch_sampler(dist)
        assert fixed == ref_fixed and type(fixed) is type(ref_fixed)
        assert (draw is None) == (ref_draw is None)
        if draw is not None:
            # every bit takes one draw, so 20 samples take 20 draws per bit
            stream = RandomStream(seed).generator("s")
            draws = [stream() for _ in range(20 * len(dist.delta))]
            ours, theirs = _ScriptedDraws(draws), _ScriptedDraws(draws)
            assert [draw(ours) for _ in range(20)] == [ref_draw(theirs) for _ in range(20)]
            assert ours.taken == theirs.taken == len(draws)


class TestSaturation:
    """An integer sample is its base plus a Poisson draw, clamped at INT_CEILING."""

    def test_plain_addition(self):
        _, draw = compile_sampler(ParamDistribution(IntVal(10), (5.0,)))
        for seed in range(20):
            (count,) = _counts(5.0, RandomStream(seed).generator("s"), 1)
            assert draw(RandomStream(seed).generator("s")) == IntVal(10 + count)

    def test_clamps_at_ceiling(self):
        _, draw = compile_sampler(ParamDistribution(IntVal(INT_CEILING - 2), (100.0,)))
        random = RandomStream(0).generator("s")
        assert all(draw(random) == IntVal(INT_CEILING) for _ in range(100))

    def test_infinite_base_stays_infinite(self):
        dist = ParamDistribution(IntVal(INFINITY), (5.0,))
        assert compile_sampler(dist) == (IntVal(INFINITY), None)

    @given(
        stx.sampled_from([0, 50, INT_CEILING - 1, INT_CEILING]),
        stx.sampled_from([1.0, 50.0, LAMBDA_CAP]),
        stx.integers(0, 2**32),
    )
    @settings(max_examples=50)
    def test_never_produces_infinity(self, base, lam, seed):
        fixed, draw = compile_sampler(ParamDistribution(IntVal(base), (lam,)))
        sample = fixed if draw is None else draw(RandomStream(seed).generator("s"))
        assert not sample.is_infinite and sample.value <= INT_CEILING


_CATALOG = default_catalog()

_RATES = stx.one_of(
    stx.sampled_from([0.0, LAMBDA_CAP]),
    stx.floats(0, 30, exclude_max=True),
    stx.floats(30, 1000),
).map(lambda lam: (lam,))


def _distribution_of(kind):
    """Distributions of one kind: every case that fixes a sample, and every sampler."""
    if isinstance(kind, IntVal):
        bases = stx.one_of(
            stx.integers(0, 50), stx.sampled_from([INT_CEILING, INT_CEILING + 7, INFINITY])
        )
        return stx.builds(ParamDistribution, bases.map(IntVal), _RATES)
    if isinstance(kind, BoolVal):
        return stx.builds(ParamDistribution, stx.booleans().map(BoolVal), stx.tuples(_QS))
    width, ones = kind.width, (1 << kind.width) - 1
    qs = stx.one_of(
        stx.lists(_QS, min_size=width, max_size=width),
        stx.lists(stx.sampled_from([0.0, 1.0]), min_size=width, max_size=width),
    )
    return stx.builds(
        ParamDistribution,
        stx.one_of(stx.integers(0, ones), stx.just(ones)).map(lambda mask: BitsVal(mask, width)),
        qs.map(tuple),
    )


_CATALOG_DISTRIBUTIONS = stx.fixed_dictionaries(
    {spec.name: _distribution_of(spec.initial.base) for spec in _CATALOG}
)


class TestCompiledPlan:
    """An iteration's samples come from one plan compiled from its distributions."""

    @given(_CATALOG_DISTRIBUTIONS, stx.integers(0, 2**32), stx.integers(0, 30), stx.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_plan_matches_reference_sampler(self, distributions, seed, iteration, num_sample):
        rng = RandomStream(seed)
        configs = orchestrator._sample_configurations(
            _CATALOG, distributions, num_sample, rng, iteration
        )
        assert len(configs) == num_sample
        for i, config in enumerate(configs):
            sample = rng.split("iter", iteration, "sample", i)
            assert config.names == _CATALOG.names
            for name, value in zip(config.names, config.values):
                dist = distributions[name]
                fixed, draw = compile_sampler(dist)
                random = sample.generator("param", name)
                assert value == (fixed if draw is None else draw(random))
                assert value == _old_sample_param(dist, sample.generator("param", name))

    def test_tune_draws_each_name_under_its_labels(self):
        # the sampler draws under encode_labels("param", name); every name,
        # a non-ASCII one too, draws from the stream its labels name
        catalog = Catalog((
            ParamSpec("naïve", _rate(4.0), "-naive"),
            ParamSpec("日本", ParamDistribution(BitsVal(0, 3), (0.5,) * 3), "-j", ("a", "b", "c")),
            ParamSpec("x", ParamDistribution(BoolVal(False), (0.5,)), "-x", ("", "on")),
        ))

        class NoAlarms:
            virtual_clock = True

            def run(self, task):
                return Completed(frozenset(), 1.0)

        settings = TunerSettings(time_budget=100.0, num_sample=5, seed=3, max_iterations=2)
        result = orchestrator.tune("prog", catalog, settings, NoAlarms())
        for record in result.iteration_trace:
            for i, config in enumerate(record.sampled_configs):
                sample = RandomStream(3).split("iter", record.index, "sample", i)
                for name, value in zip(config.names, config.values):
                    fixed, draw = compile_sampler(record.distributions_before[name])
                    random = sample.generator("param", name)
                    assert value == (fixed if draw is None else draw(random))

    def test_fixed_parameters_seed_no_generator(self, monkeypatch):
        seeded = []
        seed_generator = rng_module._seeded
        monkeypatch.setattr(
            rng_module, "_seeded", lambda hasher: seeded.append(1) or seed_generator(hasher)
        )
        # the labels of each stream the orchestrator splits off, by identity;
        # the stream is kept so that no other object takes its id
        split_off = {}
        split = RandomStream.split

        def recording_split(self, *labels):
            child = split(self, *labels)
            split_off[id(child)] = (child, labels)
            return child

        asked = []
        generator = RandomStream.generator

        def recording_generator(self, *labels):
            asked.append((split_off[id(self)][1], labels))
            return generator(self, *labels)

        monkeypatch.setattr(RandomStream, "split", recording_split)
        monkeypatch.setattr(RandomStream, "generator", recording_generator)
        distributions = _CATALOG.initial_distributions()
        fixed = {
            "min-loop-unroll": ParamDistribution(IntVal(3), (0.0,)),
            "slevel": ParamDistribution(IntVal(INT_CEILING), (20.0,)),
            "plevel": ParamDistribution(IntVal(INFINITY), (LAMBDA_CAP,)),
            "split-return": _coin(0.0),
            "remove-redundant-alarms": _coin(1.0),
            "octagon-through-calls": ParamDistribution(BoolVal(True), (0.5,)),
            "domains": ParamDistribution(BitsVal.from_string("10000"), (0.0, 1.0, 0.0, 1.0, 0.0)),
        }
        distributions.update(fixed)
        configs = orchestrator._sample_configurations(
            _CATALOG, distributions, 3, RandomStream(5), 2
        )
        drawn = [name for name in _CATALOG.names if name not in fixed]
        assert asked == [
            (("iter", 2, "sample", i), ("param", name)) for i in range(3) for name in drawn
        ]
        assert len(seeded) == len(asked)
        for config in configs:
            assert config["min-loop-unroll"] == IntVal(3)
            assert config["slevel"] == IntVal(INT_CEILING)
            assert config["plevel"] == IntVal(INFINITY)
            assert config["split-return"] == BoolVal(False)
            assert config["remove-redundant-alarms"] == BoolVal(True)
            assert config["octagon-through-calls"] == BoolVal(True)
            assert config["domains"] == BitsVal.from_string("11010")


class TestSamplePoisson:
    """The Poisson draw of an integer sampler from base 0."""

    def test_rate_zero(self):
        assert compile_sampler(_rate(0.0)) == (IntVal(0), None)

    def test_mean_at_rate_20(self):
        random = RandomStream(4).generator("p")
        n = 100_000
        mean = sum(_counts(20.0, random, n)) / n
        assert abs(mean - 20.0) <= 3.0 * math.sqrt(20.0 / n)

    def test_mass_at_zero_rate_4(self):
        random = RandomStream(5).generator("p")
        n = 100_000
        zeros = _counts(4.0, random, n).count(0)
        assert abs(zeros / n - math.exp(-4.0)) <= 0.005

    def test_large_rate_mean(self):
        # mean check exercises the >= 30 (PTRS) path
        random = RandomStream(6).generator("p")
        n = 20_000
        mean = sum(_counts(150.0, random, n)) / n
        assert abs(mean - 150.0) <= 4.0 * math.sqrt(150.0 / n)

    def test_ceiling_cap(self):
        # three below the ceiling, a draw adds at most 3
        random = RandomStream(7).generator("p")
        for lam in (50.0, LAMBDA_CAP):
            _, draw = compile_sampler(ParamDistribution(IntVal(INT_CEILING - 3), (lam,)))
            assert draw(random).value - (INT_CEILING - 3) <= 3

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            _rate(-1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, lam):
        # an infinite rate must fail at once rather than loop
        with pytest.raises(ValueError):
            _rate(lam)

    def test_draw_cost_independent_of_rate(self):
        # an O(lam) sampler needs about 10 ms a draw at the cap
        random = RandomStream(8).generator("p")
        start = time.perf_counter()
        _counts(LAMBDA_CAP, random, 10_000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_small_rates_replay_inversion(self, seed):
        # below 30 every draw must consume the same uniforms as plain
        # inversion by sequential search, so such runs replay unchanged
        rates = [0.05, 0.4, 1.0, 2.5, 7.0, 12.5, 20.0, 29.0, 29.999]
        ours = RandomStream(seed).generator("replay")
        ref = RandomStream(seed).generator("replay")
        for lam in rates:
            for count in _counts(lam, ours, 200):
                assert count == _reference_inversion(lam, ref)


    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_rates_replay_ptrs(self, seed):
        rates = [30.0, 45.5, 150.0, 1e4, LAMBDA_CAP]
        ours = RandomStream(seed).generator("replay")
        ref = RandomStream(seed).generator("replay")
        for lam in rates:
            for count in _counts(lam, ours, 200):
                assert count == _reference_ptrs(lam, ref)


def _reference_poisson(lam: float, random: DrawSource) -> int:
    """Poisson(lam) capped at the ceiling, as the sampler has always drawn it."""
    if lam == 0:
        return 0
    draw = _reference_inversion(lam, random) if lam < 30.0 else _reference_ptrs(lam, random)
    return min(draw, INT_CEILING)


def _reference_ptrs(lam: float, random: DrawSource) -> int:
    """Hörmann's PTRS (1993), restated with every constant computed per draw."""
    slam = math.sqrt(lam)
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = random() - 0.5
        v = 1.0 - random()
        us = 0.5 - abs(u)
        if us < 0.013 and v > us:
            continue
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0:
            continue
        if math.log(v) + log_inv_alpha - math.log(a / (us * us) + b) <= (
            -lam + k * log_lam - math.lgamma(k + 1)
        ):
            return k


def _reference_inversion(lam: float, random: DrawSource) -> int:
    """Inversion by sequential search, as the sampler has always done below 30."""
    u = random()
    p = math.exp(-lam)
    cdf = p
    k = 0
    limit = int(lam + 40.0 * math.sqrt(lam) + 100.0)
    while u > cdf and k < limit:
        k += 1
        p *= lam / k
        cdf += p
    return k


class TestRefineDelta:
    def test_poisson_scaling(self):
        assert refine_delta(_rate(20.0), 2.25) == (45.0,)

    def test_bernoulli_identity_at_one(self):
        assert refine_delta(_coin(0.5), 1.0) == (0.5,)

    def test_poisson_identity_at_one(self):
        assert refine_delta(_rate(12.5), 1.0) == (12.5,)

    def test_bernoulli_at_two(self):
        # 1 - (1 - 0.5)^2 = 0.75
        (q,) = refine_delta(_coin(0.5), 2.0)
        assert q == pytest.approx(0.75, abs=1e-12)

    def test_vector_pointwise(self):
        refined = refine_delta(ParamDistribution(BitsVal(0, 2), (0.5, 0.2)), 2.0)
        assert refined[0] == pytest.approx(0.75, abs=1e-12)
        assert refined[1] == pytest.approx(1.0 - 0.8**2, abs=1e-12)

    def test_lambda_cap(self):
        assert refine_delta(_rate(LAMBDA_CAP), 2.25) == (LAMBDA_CAP,)
        assert refine_delta(_rate(LAMBDA_CAP / 2), 2.25) == (LAMBDA_CAP,)

    @given(stx.floats(0, 1), stx.floats(0.01, 10))
    def test_bernoulli_stays_in_unit_interval(self, q, eta):
        (refined,) = refine_delta(_coin(q), eta)
        assert 0.0 <= refined <= 1.0

    @given(stx.floats(0, 1), stx.floats(0.01, 5), stx.floats(0.01, 5))
    def test_monotone_in_eta(self, q, eta1, eta2):
        lo, hi = sorted((eta1, eta2))
        assert refine_delta(_coin(q), lo)[0] <= refine_delta(_coin(q), hi)[0] + 1e-15
        assert refine_delta(_rate(q * 10), lo) <= refine_delta(_rate(q * 10), hi)

    @given(
        stx.one_of(stx.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53, 1.0]), stx.floats(0, 1)),
        stx.floats(0, 3, exclude_min=True),
    )
    def test_bernoulli_formula_needs_no_clamp(self, q, eta):
        (refined,) = refine_delta(_coin(q), eta)
        assert 0.0 <= refined <= 1.0
        assert refined == min(max(1.0 - (1.0 - q) ** eta, 0.0), 1.0)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            refine_delta(_rate(1.0), 0.0)


class TestScalingFactor:
    def test_all_completed(self):
        assert scaling_factor(4, 4) == 2.25

    def test_none_completed(self):
        assert scaling_factor(0, 4) == 0.25

    def test_half_completed(self):
        # 2 * 0.5 + 1/4
        assert scaling_factor(2, 4) == 1.25

    def test_above_one_from_half_rate(self):
        for num in (1, 2, 4, 8, 100):
            for done in range(num + 1):
                eta = scaling_factor(done, num)
                if done / num >= 0.5:
                    assert eta > 1.0

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidSettingsError):
            scaling_factor(0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scaling_factor(5, 4)
