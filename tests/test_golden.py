"""Golden virtual-clock traces: a refactor must leave them byte-identical.

Each scenario runs ``tune`` on the synthetic backend (virtual clock) and
writes every record through ``trace.write_record``, exactly as
``strategy-tuner tune`` writes ``trace.ndjson``. The test compares the
result byte for byte with a file under ``tests/data/golden/``.

* ``convergence``: ``samples/convergence.profile``, seed 9, 4 samples,
  4 workers, 20 iterations, budget 1e9 (every analysis completes).
* ``mixed``: ``tests/data/golden/mixed.profile`` (integer, boolean and
  bit-vector requirements, a twist, two incompressible alarms), seed 4,
  6 samples, 2 workers, 12 iterations, budget 1500, under which some
  analyses time out.
* ``mixed-evidence``: the ``mixed`` scenario under ``refinement =
  "evidence"``, the contrast rule.

Each scenario runs to its cap (``patience=None``). Under the default
patience each stops earlier, and writes a prefix of its golden file.

Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

Regenerating is allowed only in a change that means to alter the trace
(different draws, refinement results, outcomes or trace format), and
that change says so in CHANGES.md. A change that claims to preserve
behaviour must pass this test with the files as they are.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from strategy_tuner.analyzers import SyntheticAnalyzer, parse_profile
from strategy_tuner.orchestrator import TuneResult, TunerSettings, tune
from strategy_tuner.paramspace import Configuration, default_catalog
from strategy_tuner.trace import read_trace, write_record

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

# The scenarios run to their caps: ``patience=None`` turns the default stop off.
_MIXED = dict(
    time_budget=1500.0, num_sample=6, num_process=2, seed=4, max_iterations=12, patience=None
)

SCENARIOS = {
    "convergence": (
        ROOT / "samples" / "convergence.profile",
        dict(
            time_budget=1e9, num_sample=4, num_process=4, seed=9, max_iterations=20, patience=None
        ),
    ),
    "mixed": (GOLDEN / "mixed.profile", _MIXED),
    "mixed-evidence": (GOLDEN / "mixed.profile", {**_MIXED, "refinement": "evidence"}),
}


def run_scenario(name: str, **overrides) -> tuple[TuneResult, str]:
    """The scenario's result and its trace as ``strategy-tuner tune`` writes it."""
    profile_path, settings = SCENARIOS[name]
    catalog = default_catalog()
    profile = parse_profile(profile_path.read_text(encoding="utf-8"), catalog)
    stream = io.StringIO()
    result = tune(
        "synthetic",
        catalog,
        TunerSettings(**{**settings, **overrides}),
        SyntheticAnalyzer(profile),
        on_record=lambda record: write_record(stream, record),
    )
    return result, stream.getvalue()


def render_trace(name: str) -> str:
    return run_scenario(name)[1]


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.ndjson"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    expected = golden_path(name).read_bytes()
    assert render_trace(name).encode("utf-8") == expected


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_patience_writes_a_prefix_of_the_golden_trace(name):
    # the stop takes no draw: the run it ends is the golden run cut short,
    # with the golden run's recommendation
    result, text = run_scenario(name, patience=TunerSettings.patience)
    expected = golden_path(name).read_bytes()
    written = text.encode("utf-8")
    assert result.stopped_by == "patience"
    assert len(written) < len(expected) and expected.startswith(written)
    golden = read_trace(expected.decode("utf-8"))[-1].distributions_after
    bases = tuple(golden[param].base for param in golden)
    assert result.recommended_config == Configuration(tuple(golden), bases)


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        golden_path(scenario).write_bytes(render_trace(scenario).encode("utf-8"))
        print(f"wrote {golden_path(scenario)}")
