"""Adaptive tuner for black-box static analyzer abstraction parameters.

Models each analyzer parameter as a Dirac base point plus a stochastic
exploration delta over a latticed value space, then iterates
sample-analyze-refine rounds under a time budget: bases absorb the least
precise settings observed to eliminate alarms, deltas scale with the
completion rate.
"""

from .analyzers import (
    AnalysisOutcome,
    AnalysisTask,
    Analyzer,
    Completed,
    CostModel,
    Crashed,
    SyntheticAlarm,
    SyntheticAnalyzer,
    SyntheticProfile,
    TimedOut,
    Twist,
    parse_profile,
    synthetic_oracle_least_config,
)
from .distributions import (
    ParamDistribution,
    ResultMatrix,
    refine_bases,
    refine_delta,
    scaling_factor,
)
from .errors import (
    AnalyzerUnavailableError,
    ConfigParseError,
    InvalidSettingsError,
    LatticeMismatchError,
    TunerError,
)
from .lattice import (
    INFINITY,
    INT_CEILING,
    BitsVal,
    BoolVal,
    IntVal,
    bottom,
    format_value,
    join,
    leq,
    meet,
    parse_value,
    top,
)
from .orchestrator import (
    BestSample,
    IterationRecord,
    TuneResult,
    TunerSettings,
    build_result_matrix,
    tune,
)
from .paramspace import (
    Catalog,
    Configuration,
    ParamSpec,
    config_dominates,
    default_catalog,
    parse_configuration,
    render_cli_args,
    serialize_configuration,
)
from .rng import RandomStream

__version__ = "0.1.0"

# Names whose module a synthetic tune does not need: each loads on first
# use (PEP 562), so importing the package leaves its module unloaded.
_LAZY = {
    "DominancyReport": "dominancy",
    "ParamScore": "dominancy",
    "influence_score": "dominancy",
    "run_dominancy": "dominancy",
    "AdapterConfig": "subprocess_adapter",
    "SubprocessAnalyzer": "subprocess_adapter",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
