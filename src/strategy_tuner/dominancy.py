"""Controlled-experiment driver for per-parameter influence scoring.

Given a low-precision and a high-precision baseline that separate in
alarm counts, each parameter is scored by two single-parameter swaps:
"selected" keeps just this parameter from the high config on top of the
low baseline, "excluded" reverts just this parameter of the high config
to its low value. The score averages the alarm reduction the parameter
achieves alone and the reduction lost without it, normalized by the
baseline gap; the argmax is the dominant parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analyzers import AnalysisOutcome, Analyzer, Completed
from .errors import BaselinesDoNotSeparateError, TunerError
from .orchestrator import run_batch, worker_pool
from .paramspace import Catalog, Configuration


@dataclass(frozen=True)
class ParamScore:
    """Both single-parameter swaps for one parameter, and their score.

    The selected config takes this parameter from the high baseline and
    the other parameters from the low one; the excluded config is the
    reverse. Counts are None when the analysis failed.
    """

    name: str
    selected_config: Configuration
    excluded_config: Configuration
    alarms_selected: int | None
    alarms_excluded: int | None
    a: int | None
    b: int | None
    score: float | None  # None when either controlled analysis failed


@dataclass(frozen=True)
class DominancyReport:
    alarms_low: int
    alarms_high: int
    scores: tuple[ParamScore, ...]
    dominant: str | None
    tie: bool

    @property
    def d(self) -> int:
        return self.alarms_low - self.alarms_high


def influence_score(
    alarms_low: int, alarms_high: int, alarms_selected: int, alarms_excluded: int
) -> float:
    """(0.5*a + 0.5*b) / d with a, b, d the alarm-count differences.

    a: low baseline minus the selected experiment; b: the excluded
    experiment minus the high baseline; d: the baseline gap. Negative
    scores are legal (non-monotone analyzers) and returned as-is.
    """
    for count in (alarms_low, alarms_high, alarms_selected, alarms_excluded):
        if count < 0:
            raise ValueError(f"alarm counts must be nonnegative, got {count}")
    d = alarms_low - alarms_high
    if d <= 0:
        raise BaselinesDoNotSeparateError(
            f"baselines do not separate: low={alarms_low}, high={alarms_high}"
        )
    a = alarms_low - alarms_selected
    b = alarms_excluded - alarms_high
    return (0.5 * a + 0.5 * b) / d


def _controlled_configs(
    low: Configuration, high: Configuration, name: str
) -> tuple[Configuration, Configuration]:
    selected = low.replace(name, high[name])
    excluded = high.replace(name, low[name])
    return selected, excluded


def _alarm_count(outcome: AnalysisOutcome) -> int | None:
    if isinstance(outcome, Completed):
        return len(outcome.alarms)
    return None


def run_dominancy(
    program_ref: str,
    low_config: Configuration,
    high_config: Configuration,
    catalog: Catalog,
    analyzer: Analyzer,
    timeout: float,
    num_process: int = 1,
) -> DominancyReport:
    """Run the 2 baselines plus 2 analyses per parameter and score them.

    Failed controlled analyses are recorded as unavailable and excluded
    from the dominance ranking; failed baselines abort the run. Both
    batches run on one worker pool.
    """
    with worker_pool(analyzer, max(1, num_process)) as pool:
        low_outcome, high_outcome = run_batch(
            analyzer, program_ref, [low_config, high_config], timeout, pool
        )
        alarms_low = _alarm_count(low_outcome)
        alarms_high = _alarm_count(high_outcome)
        if alarms_low is None or alarms_high is None:
            raise TunerError("baseline analysis did not complete within the timeout")
        if alarms_low <= alarms_high:
            raise BaselinesDoNotSeparateError(
                f"baselines do not separate: low={alarms_low}, high={alarms_high}"
            )
        swaps = [_controlled_configs(low_config, high_config, spec.name) for spec in catalog]
        jobs = [config for selected, excluded in swaps for config in (selected, excluded)]
        outcomes = run_batch(analyzer, program_ref, jobs, timeout, pool)

    scores: list[ParamScore] = []
    for i, spec in enumerate(catalog):
        n_selected = _alarm_count(outcomes[2 * i])
        n_excluded = _alarm_count(outcomes[2 * i + 1])
        a = b = score = None
        if n_selected is not None and n_excluded is not None:
            a = alarms_low - n_selected
            b = n_excluded - alarms_high
            score = influence_score(alarms_low, alarms_high, n_selected, n_excluded)
        scores.append(ParamScore(spec.name, *swaps[i], n_selected, n_excluded, a, b, score))

    dominant: str | None = None
    best: float | None = None
    tie = False
    for entry in scores:
        if entry.score is None:
            continue
        if best is None or entry.score > best:
            dominant, best, tie = entry.name, entry.score, False
        elif entry.score == best:
            tie = True  # ties broken by catalog order; first argmax kept
    return DominancyReport(
        alarms_low=alarms_low,
        alarms_high=alarms_high,
        scores=tuple(scores),
        dominant=dominant,
        tie=tie,
    )


def report_table(report: DominancyReport) -> str:
    """Human-readable table, one row per parameter."""
    header = f"{'parameter':<26} {'selected':>8} {'excluded':>8} {'a':>5} {'b':>5} {'d':>5} {'score':>8}  dominant"
    lines = [header, "-" * len(header)]
    for entry in report.scores:
        score = "n/a" if entry.score is None else f"{entry.score:.3f}"
        sel = "n/a" if entry.alarms_selected is None else str(entry.alarms_selected)
        exc = "n/a" if entry.alarms_excluded is None else str(entry.alarms_excluded)
        a = "n/a" if entry.a is None else str(entry.a)
        b = "n/a" if entry.b is None else str(entry.b)
        flag = "  *" if entry.name == report.dominant else ""
        lines.append(
            f"{entry.name:<26} {sel:>8} {exc:>8} {a:>5} {b:>5} {report.d:>5} {score:>8}{flag}"
        )
    lines.append("")
    lines.append(f"baselines: low={report.alarms_low} high={report.alarms_high} d={report.d}")
    if report.dominant is not None:
        note = " (tie broken by catalog order)" if report.tie else ""
        lines.append(f"dominant parameter: {report.dominant}{note}")
    else:
        lines.append("dominant parameter: unavailable")
    return "\n".join(lines) + "\n"


def report_to_json(report: DominancyReport) -> dict:
    return {
        "alarms_low": report.alarms_low,
        "alarms_high": report.alarms_high,
        "d": report.d,
        "dominant": report.dominant,
        "tie": report.tie,
        "scores": [
            {
                "name": s.name,
                "alarms_selected": s.alarms_selected,
                "alarms_excluded": s.alarms_excluded,
                "a": s.a,
                "b": s.b,
                "score": s.score,
                "dominant": s.name == report.dominant,
            }
            for s in report.scores
        ],
    }
