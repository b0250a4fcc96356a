"""Acceptance gate: one test per criterion, at its stated tolerance.

The conftest hook prints a PASS/FAIL line per criterion after the run.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from strategy_tuner import (
    AdapterConfig,
    AnalysisTask,
    BitsVal,
    BoolVal,
    Completed,
    CostModel,
    Crashed,
    IntVal,
    ParamDistribution,
    RandomStream,
    ResultMatrix,
    SubprocessAnalyzer,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TimedOut,
    TunerSettings,
    bottom,
    config_dominates,
    influence_score,
    join,
    leq,
    meet,
    refine_bases,
    refine_delta,
    scaling_factor,
    synthetic_oracle_least_config,
    top,
    tune,
)
from strategy_tuner.analyzers import synthetic_alarms
from strategy_tuner.distributions import compile_sampler
from strategy_tuner.paramspace import Configuration

from test_refine_base import oracle_refine_base

CONVERGENCE_SEED = 9
CONVERGENCE_SETTINGS = dict(
    time_budget=1e9, num_sample=4, num_process=4, max_iterations=20, patience=None
)


@pytest.fixture(scope="module")
def convergence_run(catalog, convergence_profile):
    settings = TunerSettings(seed=CONVERGENCE_SEED, **CONVERGENCE_SETTINGS)
    start = time.perf_counter()
    result = tune("synthetic", catalog, settings, SyntheticAnalyzer(convergence_profile))
    return result, time.perf_counter() - start


# --- criterion 1: worked refinement example ----------------------------------


def worked_refinement_matrix() -> ResultMatrix:
    # the full four-alarm matrix, analysis 6 excluded as failed; True
    # marks a produced alarm
    produced = [
        (False, False, True, True),  # 58
        (False, False, True, True),  # 103
        (False, False, False, True),  # 104
        (False, False, False, True),  # 1000
        (False, True, True, True),  # 9
    ]
    return ResultMatrix(
        alarms=("alarm-1", "alarm-2", "alarm-3", "alarm-4"),
        produced=tuple(produced),
        values=((IntVal(58), IntVal(103), IntVal(104), IntVal(1000), IntVal(9)),),
    )


def test_criterion_01_refine_base_worked_example():
    matrix = worked_refinement_matrix()
    start = time.perf_counter()
    (from_zero,) = refine_bases(matrix, (IntVal(0),))
    (from_two_hundred,) = refine_bases(matrix, (IntVal(200),))
    elapsed = time.perf_counter() - start
    assert from_zero == IntVal(104)
    assert from_two_hundred == IntVal(200)
    assert elapsed < 0.001


# --- criterion 2: eta and delta-scaling formulas -----------------------------


def test_criterion_02_eta_and_delta_formulas():
    assert scaling_factor(4, 4) == 2.25
    (refined_q,) = refine_delta(ParamDistribution(BoolVal(False), (0.5,)), 2.25)
    assert abs(refined_q - (1.0 - 0.5**2.25)) <= 1e-12
    (refined_lam,) = refine_delta(ParamDistribution(IntVal(0), (20.0,)), 2.25)
    assert abs(refined_lam - 45.0) <= 1e-12


# --- criterion 3: dominancy worked example -----------------------------------


def test_criterion_03_influence_score_worked_example():
    assert abs(influence_score(13, 4, 8, 5) - 1.0 / 3.0) <= 1e-12


# --- criterion 4: lattice law suite -------------------------------------------


def _random_value(rng: random.Random, kind):
    if isinstance(kind, IntVal):
        return IntVal(rng.randint(0, 1000))
    if isinstance(kind, BoolVal):
        return BoolVal(rng.random() < 0.5)
    width = kind.width
    return BitsVal(sum(1 << i for i in range(width) if rng.random() < 0.5), width)


def test_criterion_04_lattice_laws_1000_triples_per_variant():
    rng = random.Random(0xACCE55)
    start = time.perf_counter()
    for kind in (IntVal(0), BoolVal(False), BitsVal(0, 5)):
        for _ in range(1000):
            a, b, c = (_random_value(rng, kind) for _ in range(3))
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert join(a, a) == a and meet(a, a) == a
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a
            assert leq(a, b) == (join(a, b) == b)
            assert leq(a, b) == (meet(a, b) == a)
            assert leq(bottom(kind), a) and leq(a, top(kind))
    assert time.perf_counter() - start < 1.0


# --- criterion 5: Algorithm-1 oracle equivalence ------------------------------


def _random_instance(rng: random.Random, kind):
    m = rng.randint(0, 6)
    n = rng.randint(0, 5)
    if isinstance(kind, IntVal):
        values = tuple(IntVal(rng.randint(0, 20)) for _ in range(m))
        base = IntVal(rng.randint(0, 20))
    elif isinstance(kind, BoolVal):
        values = tuple(BoolVal(rng.random() < 0.5) for _ in range(m))
        base = BoolVal(rng.random() < 0.5)
    else:
        values = tuple(
            BitsVal(sum(1 << i for i in range(5) if rng.random() < 0.5), 5) for _ in range(m)
        )
        base = BitsVal(sum(1 << i for i in range(5) if rng.random() < 0.5), 5)
    matrix = ResultMatrix(
        alarms=tuple(f"a{j}" for j in range(n)),
        produced=tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(m)),
        values=(values,),
    )
    return matrix, base


def test_criterion_05_refine_base_matches_oracle_500_instances():
    rng = random.Random(0x5EED)
    kinds = (IntVal(0), BoolVal(False), BitsVal(0, 5))
    for trial in range(500):
        matrix, base = _random_instance(rng, kinds[trial % 3])
        assert refine_bases(matrix, (base,)) == (oracle_refine_base(matrix, 0, base),)


# --- criterion 6: sampler statistics ------------------------------------------


def test_criterion_06_poisson_sampler_statistics():
    start = time.perf_counter()
    n = 100_000
    for lam in (0.4, 2.0, 10.0, 20.0):
        random = RandomStream(0xBEEF).generator("acceptance", str(lam))
        _, draw = compile_sampler(ParamDistribution(IntVal(0), (lam,)))
        draws = [draw(random).value for _ in range(n)]
        mean = sum(draws) / n
        assert abs(mean - lam) <= 3.0 * math.sqrt(lam / n)
        if lam <= 4.0:
            p_zero = sum(1 for d in draws if d == 0) / n
            assert abs(p_zero - math.exp(-lam)) <= 0.005
    for lam in (50.0, 1e3, 1e5):
        random = RandomStream(0xBEEF).generator("acceptance", str(lam))
        _, draw = compile_sampler(ParamDistribution(IntVal(0), (lam,)))
        draws = [draw(random).value for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / (n - 1)
        assert abs(mean - lam) <= 3.0 * math.sqrt(lam / n)
        # sample variance of Poisson(lam): sd sqrt((mu4 - lam^2) / n), mu4 = lam + 3 lam^2
        assert abs(var - lam) <= 3.0 * math.sqrt((lam + 2.0 * lam * lam) / n)
    assert time.perf_counter() - start < 5.0


# --- criterion 7: end-to-end synthetic convergence ----------------------------


def test_criterion_07_end_to_end_convergence(catalog, convergence_profile, convergence_run):
    result, elapsed = convergence_run
    assert elapsed < 10.0
    assert len(result.iteration_trace) == 20

    oracle = synthetic_oracle_least_config(convergence_profile)
    assert config_dominates(result.recommended_config, oracle)

    final = result.iteration_trace[-1]
    completed = [o for o in final.outcomes if isinstance(o, Completed)]
    assert completed
    best_final = min(completed, key=lambda o: len(o.alarms))
    assert sorted(best_final.alarms) == ["incompressible-1", "incompressible-2"]

    recommended_alarms = synthetic_alarms(convergence_profile, result.recommended_config)
    initial_alarms = synthetic_alarms(convergence_profile, catalog.base_configuration())
    assert len(recommended_alarms) < len(initial_alarms)


# --- criterion 8: incrementality and dominance over traces ---------------------


def _check_trace_properties(records, names):
    for record in records:
        for name in names:
            assert leq(
                record.distributions_before[name].base,
                record.distributions_after[name].base,
            )
        base_config = Configuration(
            names, tuple(record.distributions_before[name].base for name in names)
        )
        for config in record.sampled_configs:
            assert config_dominates(config, base_config)


def _random_profile(catalog, rng: random.Random) -> SyntheticProfile:
    alarms = []
    for i in range(rng.randint(1, 4)):
        choice = rng.random()
        if choice < 0.25:
            alarms.append(SyntheticAlarm(f"inc-{i}", None))
            continue
        requirement = {}
        for spec in rng.sample(list(catalog), rng.randint(1, 3)):
            if isinstance(spec.initial.base, IntVal):
                requirement[spec.name] = IntVal(rng.randint(1, 40))
            elif isinstance(spec.initial.base, BoolVal):
                requirement[spec.name] = BoolVal(True)
            else:
                width = spec.initial.base.width
                requirement[spec.name] = BitsVal(
                    sum(1 << i for i in range(width) if rng.random() < 0.4), width
                )
        unset = dict(zip(catalog.names, catalog.bottoms))
        alarms.append(SyntheticAlarm(f"req-{i}", catalog.configuration(unset | requirement)))
    # occasional slevel weight induces real timeouts in some runs
    weights = {"slevel": 0.4} if rng.random() < 0.4 else {}
    return SyntheticProfile(
        catalog=catalog,
        alarms=tuple(alarms),
        cost=CostModel(base_cost=0.2, weights=weights),
    )


def test_criterion_08_incrementality_and_dominance(catalog, convergence_run):
    result, _ = convergence_run
    _check_trace_properties(result.iteration_trace, catalog.names)

    rng = random.Random(0xD1CE)
    for run_index in range(5):
        profile = _random_profile(catalog, rng)
        settings = TunerSettings(
            time_budget=100.0,
            num_sample=3,
            num_process=3,
            seed=1000 + run_index,
            max_iterations=6,
        )
        result = tune("synthetic", catalog, settings, SyntheticAnalyzer(profile))
        assert result.iteration_trace
        _check_trace_properties(result.iteration_trace, catalog.names)


# --- criterion 9: reproducibility ----------------------------------------------


def test_criterion_09_byte_identical_traces(catalog, convergence_profile, tmp_path):
    from strategy_tuner.trace import write_record

    paths = []
    for name in ("first", "second"):
        settings = TunerSettings(seed=CONVERGENCE_SEED, **CONVERGENCE_SETTINGS)
        path = tmp_path / f"{name}.ndjson"
        with path.open("w", encoding="utf-8") as stream:
            tune(
                "synthetic",
                catalog,
                settings,
                SyntheticAnalyzer(convergence_profile),
                on_record=lambda record: write_record(stream, record),
            )
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first  # traces are nonempty


# --- criterion 10: subprocess adapter timing ------------------------------------


def test_criterion_10_subprocess_fixtures(catalog):
    base_config = catalog.base_configuration()

    sleeper = AdapterConfig(command="sleep 60", pattern=r".*")
    start = time.monotonic()
    outcome = SubprocessAnalyzer(sleeper, catalog).run(
        AnalysisTask("prog.c", base_config, timeout=1.0)
    )
    elapsed = time.monotonic() - start
    assert isinstance(outcome, TimedOut)
    assert elapsed <= 3.0

    echo = AdapterConfig(command="echo warn:a.c:3:overflow", pattern=r"warn:(.*)")
    outcome = SubprocessAnalyzer(echo, catalog).run(
        AnalysisTask("prog.c", base_config, timeout=5.0)
    )
    assert isinstance(outcome, Completed)
    assert outcome.alarms == frozenset({"a.c:3:overflow"})

    failing = AdapterConfig(command="false", pattern=r".*")
    outcome = SubprocessAnalyzer(failing, catalog).run(
        AnalysisTask("prog.c", base_config, timeout=5.0)
    )
    assert isinstance(outcome, Crashed)
