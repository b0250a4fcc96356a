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
from functools import cached_property

from .analyzers import AnalysisOutcome, Analyzer, Completed
from .errors import BaselinesDoNotSeparateError, TunerError, shown
from .lattice import is_count
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
    score: float | None  # None when either controlled analysis failed


@dataclass(frozen=True)
class DominancyReport:
    alarms_low: int
    alarms_high: int
    scores: tuple[ParamScore, ...]  # in catalog order

    @property
    def d(self) -> int:
        return self.alarms_low - self.alarms_high

    @cached_property
    def dominant(self) -> str | None:
        """The first parameter in catalog order with the highest score; None if none has one."""
        scored = [s for s in self.scores if s.score is not None]
        return max(scored, key=lambda s: s.score).name if scored else None

    @cached_property
    def tie(self) -> bool:
        """Whether another parameter has the dominant parameter's score."""
        scores = [s.score for s in self.scores if s.score is not None]
        return scores.count(max(scores, default=None)) > 1


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


def _alarm_count(outcome: AnalysisOutcome) -> int | None:
    return len(outcome.alarms) if isinstance(outcome, Completed) else None


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
    batches run through the map of one ``worker_pool`` of ``num_process``
    workers, an int >= 1 as ``TunerSettings`` requires, and no budget is charged.
    """
    if not is_count(num_process, 1):
        raise ValueError(f"num_process must be an int >= 1, got {shown(num_process)}")
    with worker_pool(analyzer, num_process) as (dispatch, _):
        baselines = run_batch(analyzer, program_ref, [low_config, high_config], timeout, dispatch)
        alarms_low, alarms_high = map(_alarm_count, baselines)
        if alarms_low is None or alarms_high is None:
            raise TunerError("baseline analysis did not complete within the timeout")
        if alarms_low <= alarms_high:  # checked before the 2 analyses per parameter run
            raise BaselinesDoNotSeparateError(
                f"baselines do not separate: low={alarms_low}, high={alarms_high}"
            )
        swaps = [
            (low_config.replace(n, high_config[n]), high_config.replace(n, low_config[n]))
            for n in catalog.names
        ]
        jobs = [config for pair in swaps for config in pair]
        counts = list(map(_alarm_count, run_batch(analyzer, program_ref, jobs, timeout, dispatch)))

    scores: list[ParamScore] = []
    for name, pair, n_selected, n_excluded in zip(catalog.names, swaps, counts[::2], counts[1::2]):
        score = None
        if n_selected is not None and n_excluded is not None:
            score = influence_score(alarms_low, alarms_high, n_selected, n_excluded)
        scores.append(ParamScore(name, *pair, n_selected, n_excluded, score))
    return DominancyReport(alarms_low, alarms_high, tuple(scores))


def _gains(report: DominancyReport, entry: ParamScore) -> tuple[int | None, int | None]:
    """The row's a and b, as in :func:`influence_score`; None if the row has no score."""
    if entry.score is None:
        return None, None
    return report.alarms_low - entry.alarms_selected, entry.alarms_excluded - report.alarms_high


def report_table(report: DominancyReport) -> str:
    """Human-readable table, one row per parameter."""
    header = f"{'parameter':<26} {'selected':>8} {'excluded':>8} {'a':>5} {'b':>5} {'d':>5} {'score':>8}  dominant"
    lines = [header, "-" * len(header)]
    for entry in report.scores:
        score = "n/a" if entry.score is None else f"{entry.score:.3f}"
        counts = (entry.alarms_selected, entry.alarms_excluded, *_gains(report, entry))
        sel, exc, a, b = ("n/a" if n is None else str(n) for n in counts)
        flag = "  *" if entry.name == report.dominant else ""
        lines.append(
            f"{entry.name:<26} {sel:>8} {exc:>8} {a:>5} {b:>5} {report.d:>5} {score:>8}{flag}"
        )
    lines += ["", f"baselines: low={report.alarms_low} high={report.alarms_high} d={report.d}"]
    note = " (tie broken by catalog order)" if report.tie else ""
    lines.append(f"dominant parameter: {report.dominant or 'unavailable'}{note}")
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
                "a": _gains(report, s)[0],
                "b": _gains(report, s)[1],
                "score": s.score,
                "dominant": s.name == report.dominant,
            }
            for s in report.scores
        ],
    }
