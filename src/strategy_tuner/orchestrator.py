"""The sample-analyze-refine loop.

``tune`` runs the loop. Each iteration draws ``num_sample`` configurations
from the current distributions, analyzes them through ``worker_pool``'s
map, builds the result matrix from whatever completed (one row of produced
alarms per completed analysis, one value column per parameter), refines
each parameter's base in one ``refine_bases`` call (meet-and-join over
alarm columns) and its delta (completion-rate scaling), and charges its
time to the budget. The records are the run's only state: ``stop_rule``
reads them, and ``TuneResult`` derives all it reports from them.

Budget policy: every analysis of an iteration gets the same deadline,
``remaining * iteration_fraction / waves`` where ``waves`` is the number
of sequential batches the pool needs for ``num_sample`` tasks. At full
parallelism that is exactly ``remaining * iteration_fraction``, and at
any parallelism the analyze phase fits in one geometric slice, so it can
never overshoot the budget. A real-clock charge also covers sampling,
refinement and the adapter's ``REAP_WAIT``, which no slice bounds. An
analyzer with a true ``virtual_clock`` attribute is charged the makespan
of its wall times instead (``worker_pool``), so its runs are
bit-reproducible from the seed alone. ``deadline`` holds the deadline formula.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, ClassVar, Iterator, Sequence

from .analyzers import AnalysisOutcome, AnalysisTask, Analyzer, Completed, Crashed, TimedOut
from .distributions import (
    REFINEMENT_RULES,
    ParamDistribution,
    ResultMatrix,
    compile_sampler,
    refine_bases,
    refine_delta,
    scaling_factor,
)
from .errors import InvalidSettingsError, shown
from .lattice import is_amount, is_count
from .paramspace import Catalog, Configuration
from .rng import RandomStream


@dataclass(frozen=True)
class TunerSettings:
    time_budget: float
    num_sample: int = 4
    num_process: int = 1
    seed: int = 0
    max_iterations: int | None = None
    refinement: str = "paper"
    patience: int | None = 3
    #: The share of the remaining budget one iteration's analyses may take.
    iteration_fraction: ClassVar[float] = 0.5
    #: The run stops once less budget than this, in seconds, remains.
    min_slice: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        checks = (
            (
                "time_budget",
                is_amount(self.time_budget) and self.time_budget > 0,
                "a positive finite number",
            ),
            ("num_sample", is_count(self.num_sample, 1), "an int >= 1"),
            ("num_process", is_count(self.num_process, 1), "an int >= 1"),
            ("seed", type(self.seed) is int, "an int"),
            (
                "max_iterations",
                self.max_iterations is None or is_count(self.max_iterations),
                "an int >= 0",
            ),
            (
                "refinement",
                type(self.refinement) is str and self.refinement in REFINEMENT_RULES,
                " or ".join(map(repr, REFINEMENT_RULES)),
            ),
            ("patience", self.patience is None or is_count(self.patience, 1), "an int >= 1 or None"),
        )
        for name, ok, requirement in checks:
            if not ok:
                got = shown(getattr(self, name))
                raise InvalidSettingsError(f"{name} must be {requirement}, got {got}", field=name)
        object.__setattr__(self, "time_budget", float(self.time_budget))  # so a total is a float


@dataclass(frozen=True)
class IterationRecord:
    index: int
    sampled_configs: tuple[Configuration, ...]
    outcomes: tuple[AnalysisOutcome, ...]
    distributions_before: dict[str, ParamDistribution]
    distributions_after: dict[str, ParamDistribution]
    elapsed: float


@dataclass(frozen=True)
class BestSample:
    config: Configuration
    alarms: tuple[str, ...]


@dataclass(frozen=True)
class TuneResult:
    settings: TunerSettings
    initial_distributions: dict[str, ParamDistribution]
    iteration_trace: tuple[IterationRecord, ...]

    @cached_property
    def remaining(self) -> tuple[float, ...]:
        """The budget left before each record, and after the last."""
        elapsed = (record.elapsed for record in self.iteration_trace)
        return tuple(itertools.accumulate(elapsed, operator.sub, initial=self.settings.time_budget))

    @cached_property
    def deadlines(self) -> tuple[float, ...]:
        """Each record's deadline, the one every analysis of its iteration got."""
        return tuple(deadline(self.settings, left) for left in self.remaining[:-1])

    @cached_property
    def wall_time_total(self) -> float:
        """The seconds the run charged, on either clock."""
        return self.settings.time_budget - self.remaining[-1]

    @cached_property
    def stopped_by(self) -> str | None:
        """The rule that ended the run, as ``stop_rule`` names it."""
        return stop_rule(self.settings, self.iteration_trace, self.remaining)

    @cached_property
    def final_distributions(self) -> dict[str, ParamDistribution]:
        """The last record's distributions after, or the initial ones with no record."""
        trace = self.iteration_trace
        return dict(trace[-1].distributions_after if trace else self.initial_distributions)

    @cached_property
    def recommended_config(self) -> Configuration:
        """The final bases, one per parameter in catalog order."""
        bases = tuple(dist.base for dist in self.final_distributions.values())
        return Configuration(tuple(self.final_distributions), bases)

    @cached_property
    def best_sampled(self) -> BestSample | None:
        """The first completed sample with the fewest alarms; None if none completed."""
        samples = (
            (config, outcome.alarms)
            for record in self.iteration_trace
            for config, outcome in zip(record.sampled_configs, record.outcomes)
            if isinstance(outcome, Completed)
        )
        best = min(samples, key=lambda sample: len(sample[1]), default=None)
        return None if best is None else BestSample(best[0], tuple(sorted(best[1])))


@lru_cache(maxsize=1)
def alarm_universe(outcomes: tuple[AnalysisOutcome, ...]) -> tuple[str, ...]:
    """The trace's universe: each distinct completed set of ``outcomes``, in first-seen
    order, adds its ids not listed yet, sorted. The last answer is kept by value."""
    universe: list[str] = []
    seen: set[str] = set()
    for alarms in dict.fromkeys(o.alarms for o in outcomes if isinstance(o, Completed)):
        new = alarms - seen
        universe += sorted(new)
        seen |= new
    return tuple(universe)


@lru_cache(maxsize=1)
def alarm_sets(
    outcomes: tuple[AnalysisOutcome, ...],
) -> tuple[tuple[str, ...], dict[frozenset[str], tuple[bool, ...]]]:
    """The one layout of ``outcomes``'s alarm sets: ``(ids, rows)``.

    ``ids`` is ``alarm_universe`` sorted, and ``rows`` maps each distinct
    completed set to its one membership row over ``ids``. The last answer
    is kept by value, and its callers share it and only read it: ``tune``
    builds the matrix from the tuple it stores in the record, so the trace
    writer gets both caches' answers back.
    """
    ids = tuple(sorted(alarm_universe(outcomes)))
    sets = dict.fromkeys(o.alarms for o in outcomes if isinstance(o, Completed))
    return ids, {alarms: tuple(map(alarms.__contains__, ids)) for alarms in sets}


def build_result_matrix(
    outcomes: list[AnalysisOutcome] | tuple[AnalysisOutcome, ...],
    sampled_configs: list[Configuration] | tuple[Configuration, ...],
) -> ResultMatrix:
    """Matrix over completed analyses only: ``alarm_sets``'s sorted ids and their sets' rows."""
    if len(outcomes) != len(sampled_configs):
        raise ValueError("outcomes and sampled_configs must align")
    ids, rows = alarm_sets(tuple(outcomes))
    completed = [(i, out.alarms) for i, out in enumerate(outcomes) if isinstance(out, Completed)]
    names = sampled_configs[0].names if sampled_configs else ()
    row_values = [sampled_configs[i].values for i, _ in completed]
    return ResultMatrix(
        alarms=ids,
        produced=tuple(rows[alarms] for _, alarms in completed),
        values=tuple(zip(*row_values)) if row_values else ((),) * len(names),
    )


def _sample_configurations(
    catalog: Catalog,
    distributions: dict[str, ParamDistribution],
    num_sample: int,
    rng: RandomStream,
    iteration: int,
) -> list[Configuration]:
    """The iteration's ``num_sample`` configurations, from one compiled plan.

    Sample i's value of parameter n draws from the stream labelled
    ``iter, iteration, sample, i, param, n``; a parameter whose value the
    plan fixes takes no generator.
    """
    names = catalog.names
    plan = [(name, *compile_sampler(distributions[name])) for name in names]
    configs = []
    for i in range(num_sample):
        sample = rng.split("iter", iteration, "sample", i)
        values = tuple(
            fixed if draw is None else draw(sample.generator("param", name))
            for name, fixed, draw in plan
        )
        configs.append(Configuration(names, values))
    return configs


def deadline(settings: TunerSettings, remaining: float) -> float:
    """Each analysis's deadline in an iteration that starts with ``remaining`` seconds left."""
    waves = math.ceil(settings.num_sample / settings.num_process)
    return remaining * settings.iteration_fraction / waves


def stop_rule(
    settings: TunerSettings, records: Sequence[IterationRecord], remaining: Sequence[float]
) -> str | None:
    """The first stop rule to hold after ``records``, or None; ``remaining`` is the
    budget left before each record and after the last. In order: ``stalled``,
    with no cap, once the last charge left the budget unchanged (a virtual-clock
    batch that all crashed, or a charge below half an ulp), as it could then never
    run out; ``patience``, once the last ``patience`` records moved no base, as the
    bases are what the loop learns (the cross-entropy method's stop, de Boer et
    al., Ann. OR 2005); ``budget``, once less than ``min_slice`` is left;
    ``max_iterations``, at the cap. It reads at most ``patience`` records."""
    recent = records[-settings.patience :] if settings.patience else ()
    quiet = len(recent) == settings.patience and all(
        r.distributions_before[n].base == r.distributions_after[n].base
        for r in recent for n in r.distributions_after
    )
    return (
        "stalled" if settings.max_iterations is None and remaining[-2:-1] == remaining[-1:]
        else "patience" if quiet
        else "budget" if remaining[-1] < settings.min_slice
        else "max_iterations" if len(records) == settings.max_iterations
        else None
    )


@contextmanager
def worker_pool(analyzer: Analyzer, workers: int) -> Iterator[tuple[Callable, Callable]]:
    """``(dispatch, charge)``: the ``map`` for all of a run's batches, and its clock.

    ``charge(outcomes, started)`` is an iteration's seconds, given its
    batch's outcomes and its ``time.monotonic()`` at the start. A real-clock
    analyzer gets ``pool.map`` of one pool of at most ``workers`` threads,
    shut down when the block exits, however it exits, and the real time
    since ``started``. A virtual-clock analyzer gets the builtin ``map``,
    on the calling thread, and the makespan of the outcomes' wall times on
    ``workers`` workers, a crash counting 0.
    """
    if getattr(analyzer, "virtual_clock", False):
        yield map, lambda outcomes, started: _makespan(
            [0.0 if isinstance(o, Crashed) else o.wall_time for o in outcomes], workers
        )
        return
    from concurrent.futures import ThreadPoolExecutor  # only a real-clock run loads it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map, lambda outcomes, started: time.monotonic() - started


def run_batch(
    analyzer: Analyzer,
    program_ref: str,
    configs: list[Configuration],
    timeout: float,
    dispatch: Callable,
) -> list[AnalysisOutcome]:
    """Analyze each configuration of ``program_ref`` within ``timeout`` through ``dispatch``.

    ``dispatch`` is a ``map``, such as ``worker_pool`` gives. Outcomes
    come in configuration order. An analyzer that raises, or returns a
    malformed outcome, yields a ``Crashed`` outcome; one that reports
    more time than ``timeout`` yields a ``TimedOut`` at ``timeout``.
    """
    tasks = [AnalysisTask(program_ref=program_ref, config=c, timeout=timeout) for c in configs]
    # The alarm sets found to hold only strings, by identity: an analyzer
    # that shares one set among its outcomes has it checked once a batch.
    # Holding the set keeps its id from being reused within the batch.
    all_strings: dict[int, frozenset[str]] = {}

    def guarded(task: AnalysisTask) -> AnalysisOutcome:
        try:
            outcome = analyzer.run(task)
        except Exception as exc:  # a raising analyzer counts as a crash
            return Crashed(exit_info=f"analyzer raised {exc!r}")
        if isinstance(outcome, Crashed):
            info = outcome.exit_info
            if isinstance(info, str):
                return outcome
            return Crashed(exit_info=f"analyzer reported exit info as {type(info).__name__}")
        if not isinstance(outcome, (Completed, TimedOut)):
            return Crashed(exit_info=f"analyzer returned {type(outcome).__name__}, not an outcome")
        if isinstance(outcome, Completed):
            alarms = outcome.alarms
            if not isinstance(alarms, frozenset):
                return Crashed(exit_info=f"analyzer reported alarms as {type(alarms).__name__}")
            if all_strings.get(id(alarms)) is not alarms:
                if not all(map(isinstance, alarms, itertools.repeat(str))):
                    kinds = sorted({type(a).__name__ for a in alarms if not isinstance(a, str)})
                    return Crashed(exit_info=f"analyzer reported alarm ids as {', '.join(kinds)}")
                all_strings[id(alarms)] = alarms
        wall = outcome.wall_time
        if not is_amount(wall):
            return Crashed(exit_info=f"analyzer reported wall time {shown(wall)}")
        if wall > timeout:
            return TimedOut(wall_time=timeout)
        return outcome if type(wall) is float else replace(outcome, wall_time=float(wall))

    return list(dispatch(guarded, tasks))


def _makespan(durations: list[float], workers: int) -> float:
    """Greedy earliest-free-worker schedule, matching pool dispatch order."""
    # A worker beyond the task count never takes a task.
    free = [0.0] * max(1, min(workers, len(durations)))
    for d in durations:
        idx = min(range(len(free)), key=free.__getitem__)
        free[idx] += d
    return max(free)


def tune(
    program_ref: str,
    catalog: Catalog,
    settings: TunerSettings,
    analyzer: Analyzer,
    on_record: Callable[[IterationRecord], None] | None = None,
) -> TuneResult:
    """Drive iterations until ``stop_rule`` names a rule.

    ``on_record`` is invoked after each iteration (e.g. to append and
    flush a trace file), before the next one starts. All iterations share
    one worker pool, which is shut down before ``tune`` returns or raises.
    """
    initial = distributions = catalog.initial_distributions()
    rng = RandomStream(settings.seed)
    records: list[IterationRecord] = []
    remaining = [settings.time_budget]  # before each record, and after the last

    with worker_pool(analyzer, settings.num_process) as (dispatch, charge):
        while stop_rule(settings, records, remaining) is None:
            index = len(records)
            iteration_started = time.monotonic()
            timeout = deadline(settings, remaining[-1])
            # Sampling is serial and precedes dispatch, so completion order
            # cannot perturb the stream.
            configs = _sample_configurations(catalog, distributions, settings.num_sample, rng, index)
            # one tuple for the matrix and the record: the writer hits the layout's caches
            outcomes = tuple(run_batch(analyzer, program_ref, configs, timeout, dispatch))
            matrix = build_result_matrix(outcomes, configs)
            eta = scaling_factor(len(matrix.produced), len(outcomes))
            bases_before = tuple(distributions[n].base for n in catalog.names)
            bases = refine_bases(matrix, bases_before, settings.refinement)
            after = {
                name: ParamDistribution(base, refine_delta(distributions[name], eta))
                for name, base in zip(catalog.names, bases)
            }
            elapsed = charge(outcomes, iteration_started)
            record = IterationRecord(index, tuple(configs), outcomes, distributions, after, elapsed)
            records.append(record)
            remaining.append(remaining[-1] - elapsed)
            del matrix  # an iteration's largest object: free it before the next is built
            distributions = after
            if on_record is not None:
                on_record(record)

    return TuneResult(settings, initial, tuple(records))
