"""Static evolution charts from a recorded trace.

The text of one chart per parameter (base point and exploration parameter
per iteration, with a sparkline) plus an alarm-count chart. Each is a pure
function of the trace, so replotting is byte-identical.
"""

from __future__ import annotations

import math

from .analyzers import Completed, precision_contribution
from .lattice import BoolVal, IntVal, format_value
from .orchestrator import IterationRecord

_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(series: list[float | None]) -> str:
    """One level per value, scaled between the finite extremes.

    A non-finite value (an infinite base) is drawn at the top level, a
    series whose finite values are all equal at the middle one, and a
    missing value (None) as a gap.
    """
    finite = [x for x in series if x is not None and math.isfinite(x)]
    lo, hi = min(finite, default=0.0), max(finite, default=0.0)

    def glyph(x: float | None) -> str:
        if x is None:
            return " "
        if not math.isfinite(x):
            return _LEVELS[7]
        return _LEVELS[min(7, int((x - lo) / (hi - lo) * 8)) if hi > lo else 3]

    return "".join(map(glyph, series))


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.6g}"


def _delta_summary(record: IterationRecord, name: str) -> tuple[str, float]:
    dist = record.distributions_after[name]
    if isinstance(dist.base, IntVal):
        return "lambda", dist.delta[0]
    if isinstance(dist.base, BoolVal):
        return "q", dist.delta[0]
    return "mean_q", sum(dist.delta) / len(dist.delta)


def param_chart(records: list[IterationRecord], name: str) -> str:
    lines = [f"parameter: {name}", ""]
    delta_label, _ = _delta_summary(records[0], name)
    lines.append(f"{'iter':>4}  {'base':>12}  {delta_label:>12}")
    bases, deltas = [], []
    for record in records:
        base = record.distributions_after[name].base
        _, delta_value = _delta_summary(record, name)
        bases.append(precision_contribution(base))
        deltas.append(delta_value)
        lines.append(f"{record.index:>4}  {format_value(base):>12}  {_fmt(delta_value):>12}")
    lines.append("")
    lines.append(f"base:  {sparkline(bases)}")
    lines.append(f"{delta_label}: {sparkline(deltas)}")
    return "\n".join(lines) + "\n"


def alarm_chart(records: list[IterationRecord]) -> str:
    lines = ["alarms per iteration (best completed analysis)", ""]
    lines.append(f"{'iter':>4}  {'completed':>9}  {'best':>6}")
    series: list[float | None] = []
    for record in records:
        counts = [len(o.alarms) for o in record.outcomes if isinstance(o, Completed)]
        best = min(counts, default=None)
        series.append(best)
        shown = "-" if best is None else str(best)
        lines.append(f"{record.index:>4}  {len(counts):>9}  {shown:>6}")
    lines.append("")
    lines.append(f"best: {sparkline(series)}")
    return "\n".join(lines) + "\n"


def charts(records: list[IterationRecord]) -> dict[str, str]:
    """Each chart file's name and text: one per parameter, then the alarm chart."""
    if not records:
        raise ValueError("cannot plot an empty trace")
    texts = {f"param-{n}.txt": param_chart(records, n) for n in records[0].distributions_before}
    texts["alarms.txt"] = alarm_chart(records)
    return texts
