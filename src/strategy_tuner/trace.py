"""Newline-delimited trace, run file and result serialization.

One JSON record per iteration, self-describing: every record carries a
schema version and the full before/after distributions, whose delta kind
fixes how the lattice literals in the same record parse back. A record
round-trips losslessly into an IterationRecord without a catalog. Its
``alarm_universe``, ``completed``, ``eta_c`` and ``eta`` follow from its
outcomes by one rule, ``_derived``: the writer writes them from it, and the
reader requires each to equal it, JSON type included, and each
``distributions_after`` delta to equal ``refine_delta`` of its before and eta.
The run file holds a run's settings and initial distributions: with the trace, its result.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import compress, zip_longest
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, TextIO

from .analyzers import AnalysisOutcome, Completed, Crashed, TimedOut
from .distributions import ParamDistribution, refine_bases, refine_delta, scaling_factor
from .errors import ConfigParseError, InvalidSettingsError, shown
from .keytree import split_lines
from .lattice import BitsVal, BoolVal, IntVal, LatticeValue, format_value, is_amount, parse_value
from .lattice import read_int, same_kind
from .orchestrator import IterationRecord, TuneResult, TunerSettings, alarm_sets, alarm_universe
from .orchestrator import build_result_matrix, stop_rule
from .paramspace import Configuration, check_param_name

SCHEMA_VERSION = 1

# json.dumps's encoder without its cycle check: a record's JSON form is a
# tree that record_to_json has just built, so it holds no cycle.
_ENCODER = json.JSONEncoder(check_circular=False)

# What a malformed file raises in a reader: a field of the wrong JSON type fails where used.
_MALFORMED = (KeyError, ValueError, TypeError, AttributeError, RecursionError, ConfigParseError)


def distribution_to_json(dist: ParamDistribution) -> dict[str, Any]:
    """The base's textual form and its delta, whose JSON kind the base's lattice names."""
    base, params = dist.base, dist.delta
    if isinstance(base, IntVal):
        delta: dict[str, Any] = {"kind": "poisson", "lambda": params[0]}
    elif isinstance(base, BoolVal):
        delta = {"kind": "bernoulli", "q": params[0]}
    else:
        delta = {"kind": "bernoulli_vector", "qs": list(params)}
    return {"base": format_value(base), "delta": delta}


def _number(value: Any, field: str) -> float:
    """A JSON number that is an amount (``is_amount``), as a float."""
    if not is_amount(value):
        raise ConfigParseError(f"{field} must be a finite number >= 0, got {shown(value)}")
    return float(value)


def distribution_from_json(obj: dict[str, Any]) -> ParamDistribution:
    """Inverse of :func:`distribution_to_json`: the delta's kind names the base's lattice."""
    delta = obj["delta"]
    kind = delta.get("kind")
    if kind == "poisson":
        like: LatticeValue = IntVal(0)
        params: tuple[float, ...] = (_number(delta["lambda"], "lambda"),)
    elif kind == "bernoulli":
        like, params = BoolVal(False), (_number(delta["q"], "q"),)
    elif kind == "bernoulli_vector":
        if type(delta["qs"]) is not list:
            raise ConfigParseError("qs must be an array of numbers")
        params = tuple(_number(q, "qs") for q in delta["qs"])
        like = BitsVal(0, len(params))
    else:
        raise ConfigParseError(f"unknown delta kind {shown(kind)}")
    return ParamDistribution(parse_value(like, obj["base"]), params)


def _config_to_json(config: Configuration) -> dict[str, str]:
    return dict(zip(config.names, map(format_value, config.values)))


def _check_names(
    found: Iterable[str], names: Iterable[str], what: str, whose: str, item: str = "parameter"
) -> None:
    """Reject ``found`` unless it lists ``names`` in order, naming the first place they differ."""
    for i, pair in enumerate(zip_longest(found, names)):
        if pair[0] != pair[1]:
            got, want = ("nothing" if n is None else shown(n) for n in pair)
            raise ConfigParseError(f"{what} names {got} as {item} {i}, where {whose} is {want}")


def _config_from_json(
    obj: dict[str, str], names: tuple[str, ...], kinds: tuple[LatticeValue, ...]
) -> Configuration:
    """A configuration of exactly ``names``, in that order, ``names[i]`` of kind ``kinds[i]``.

    The tuner reads sampled values by position, so a configuration that
    lacks a parameter or lists them in another order is rejected.
    """
    _check_names(obj, names, "configuration", "the record's")
    return Configuration(names, tuple(map(parse_value, kinds, obj.values())))


def outcome_to_json(outcome: AnalysisOutcome, alarms: list[str] | None) -> dict[str, Any]:
    """``alarms`` is a completed outcome's alarm set, sorted; other outcomes pass None."""
    if isinstance(outcome, Completed):
        return {"status": "completed", "alarms": alarms, "wall_time": outcome.wall_time}
    if isinstance(outcome, TimedOut):
        return {"status": "timed_out", "wall_time": outcome.wall_time}
    return {"status": "crashed", "exit_info": outcome.exit_info}


def _strings(value: Any, field: str) -> tuple[str, ...]:
    """A JSON array of strings, as a tuple; a string or a number is not one."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise ConfigParseError(f"{field} must be an array of strings")
    return tuple(value)


def outcome_from_json(obj: dict[str, Any]) -> AnalysisOutcome:
    status = obj.get("status")
    if status == "completed":
        alarms = frozenset(_strings(obj["alarms"], "alarms"))
        if len(alarms) != len(obj["alarms"]) or sorted(obj["alarms"]) != obj["alarms"]:
            raise ConfigParseError("alarms must be sorted, each listed once")
        return Completed(alarms=alarms, wall_time=_number(obj["wall_time"], "wall_time"))
    if status == "timed_out":
        return TimedOut(wall_time=_number(obj["wall_time"], "wall_time"))
    if status == "crashed":
        if type(obj["exit_info"]) is not str:
            raise ConfigParseError("exit_info must be a string")
        return Crashed(exit_info=obj["exit_info"])
    raise ConfigParseError(f"unknown outcome status {shown(status)}")


def _derived(outcomes: tuple[AnalysisOutcome, ...]) -> dict[str, Any]:
    """A record's fields that follow from its outcomes, in written order, with their JSON types."""
    completed = sum(isinstance(o, Completed) for o in outcomes)
    return {
        "alarm_universe": list(alarm_universe(tuple(outcomes))),
        "completed": completed,
        "eta_c": completed / len(outcomes),
        "eta": scaling_factor(completed, len(outcomes)),
    }


def _record_object(record: IterationRecord, listed: dict[frozenset[str], Any]) -> dict[str, Any]:
    """The record's JSON object; ``listed`` gives each distinct completed set's written alarms."""
    return {
        "schema": SCHEMA_VERSION,
        "index": record.index,
        "sampled_configs": [_config_to_json(c) for c in record.sampled_configs],
        "outcomes": [
            outcome_to_json(o, listed[o.alarms] if isinstance(o, Completed) else None)
            for o in record.outcomes
        ],
        **_derived(record.outcomes),
        "distributions_before": {
            name: distribution_to_json(d) for name, d in record.distributions_before.items()
        },
        "distributions_after": {
            name: distribution_to_json(d) for name, d in record.distributions_after.items()
        },
        "elapsed": record.elapsed,
    }


def record_to_json(record: IterationRecord) -> dict[str, Any]:
    # List each distinct alarm set once, however many hold it, from its row over the sorted ids.
    ids, rows = alarm_sets(tuple(record.outcomes))
    return _record_object(record, {alarms: list(compress(ids, row)) for alarms, row in rows.items()})


def record_from_json(obj: dict[str, Any]) -> IterationRecord:
    schema = obj.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 are not 1
        raise ConfigParseError(f"unsupported trace schema {shown(schema)}")
    before = {n: distribution_from_json(d) for n, d in obj["distributions_before"].items()}
    after = {n: distribution_from_json(d) for n, d in obj["distributions_after"].items()}
    names = tuple(before)
    for name in names:
        check_param_name(name)
    _check_names(after, names, "distributions_after", "the record's")
    kinds = tuple(dist.base for dist in before.values())
    configs = tuple(_config_from_json(c, names, kinds) for c in obj["sampled_configs"])
    outcomes = tuple(outcome_from_json(o) for o in obj["outcomes"])
    if not outcomes:
        raise ConfigParseError("a record needs at least one outcome")
    if len(outcomes) != len(configs):
        raise ConfigParseError(f"{len(outcomes)} outcomes for {len(configs)} sampled configs")
    if type(obj["index"]) is not int:
        raise ConfigParseError(f"index must be an integer, got {shown(obj['index'])}")
    # A record agrees exactly with what its outcomes give, JSON type too: 1 is not 1.0.
    for field, derived in _derived(outcomes).items():
        if type(obj[field]) is not type(derived) or obj[field] != derived:
            raise ConfigParseError(f"{field} is {shown(obj[field])}, not {shown(derived)}")
    for name, old in before.items():  # and each delta is refine_delta's, bit for bit
        new, delta = after[name], refine_delta(old, obj["eta"])
        if not same_kind(old.base, new.base):
            raise ConfigParseError(f"distributions_after changes the lattice of parameter {shown(name)}")
        if new.delta != delta:
            raise ConfigParseError(
                f"distributions_after gives parameter {shown(name)} the delta {shown(new.delta)}, "
                f"not {shown(delta)}"
            )
    return IterationRecord(
        index=obj["index"],
        sampled_configs=configs,
        outcomes=outcomes,
        distributions_before=before,
        distributions_after=after,
        elapsed=_number(obj["elapsed"], "elapsed"),
    )


def write_record(stream: TextIO, record: IterationRecord) -> None:
    """Append one record and flush, keeping partial traces readable.

    The line is ``json.dumps(record_to_json(record))``, byte for byte.
    json.dumps would build one escaped string per alarm occurrence and
    hold them all until the line is joined; here the sorted ids of
    ``alarm_sets`` are escaped once per record, in their order, and each
    distinct alarm set's text is the escaped ids its membership row
    selects. The record's object is built with each completed outcome's
    alarms null, dumped by json.dumps's encoder less its cycle check, and
    the texts are spliced in where ``"alarms": null`` stands. Nothing else is
    written so: a parameter named ``alarms`` holds a string or an object,
    and a string's quotes are escaped.
    """
    ids, rows = alarm_sets(tuple(record.outcomes))
    escaped = tuple(map(encode_basestring_ascii, ids))
    texts = {alarms: ", ".join(compress(escaped, row)) for alarms, row in rows.items()}
    spliced = [texts[o.alarms] for o in record.outcomes if isinstance(o, Completed)]
    chunks = _ENCODER.encode(_record_object(record, dict.fromkeys(rows))).split('"alarms": null')
    parts = [chunks[0]]
    for items, chunk in zip(spliced, chunks[1:], strict=True):
        parts += ('"alarms": [', items, "]", chunk)
    parts.append("\n")
    stream.write("".join(parts))
    stream.flush()


def read_trace(
    text: str, run: tuple[TunerSettings, dict[str, ParamDistribution]] | None = None
) -> list[IterationRecord]:
    """Parse the trace of one run; errors name the first offending record.

    Record N (blank lines are not records) has index N, the parameters of
    record 0 in its order, and record N-1's after as its before. Given the
    run file's ``(settings, initial)``, record 0 starts from ``initial``,
    and each record is one those settings write: no stop rule held before
    it, and it has ``num_sample`` samples and ``settings.refinement``'s bases.
    """
    settings, initial = (None, None) if run is None else run
    records: list[IterationRecord] = []
    remaining = [] if settings is None else [settings.time_budget]  # as tune keeps it
    for line in split_lines(text):
        if not line.strip():
            continue
        try:
            record = record_from_json(json.loads(line, parse_int=read_int))
            if record.index != len(records):
                raise ConfigParseError(f"index {shown(record.index)}, not {len(records)}")
            previous = records[-1].distributions_after if records else initial
            if previous is not None:  # record N continues record N-1, and record 0 the run file
                whose = "the previous record's after" if records else "the run file's"
                before = record.distributions_before
                _check_names(before, previous, "record", "the first record's" if records else whose)
                name = next((n for n in previous if before[n] != previous[n]), None)
                if name is not None:
                    raise ConfigParseError(f"distributions_before are not {whose}: {shown(name)} differs")
            if settings is not None:
                stop = stop_rule(settings, records, remaining)
                if stop is not None:
                    raise ConfigParseError(f"the run stopped by {stop} before it")
                if len(record.outcomes) != settings.num_sample:
                    raise ConfigParseError(
                        f"{len(record.outcomes)} samples, where num_sample is {settings.num_sample}"
                    )
                after = record.distributions_after
                bases = [d.base for d in record.distributions_before.values()]
                matrix = build_result_matrix(record.outcomes, record.sampled_configs)
                for name, base in zip(after, refine_bases(matrix, bases, settings.refinement)):
                    if after[name].base != base:
                        got, want = (shown(format_value(v)) for v in (after[name].base, base))
                        raise ConfigParseError(
                            f"distributions_after gives parameter {shown(name)} the base {got}, "
                            f"not {want} under {shown(settings.refinement)}"
                        )
                remaining.append(remaining[-1] - record.elapsed)
        except _MALFORMED as exc:
            raise ConfigParseError(f"trace record {len(records)} is malformed: {exc}")
        records.append(record)
    return records


def run_to_json(settings: TunerSettings, initial: dict[str, ParamDistribution]) -> dict[str, Any]:
    """The run file's object: what a run starts from, its settings and initial distributions."""
    return {
        "schema": SCHEMA_VERSION,
        "settings": dataclasses.asdict(settings),
        "initial_distributions": {name: distribution_to_json(d) for name, d in initial.items()},
    }


def run_from_json(text: str) -> tuple[TunerSettings, dict[str, ParamDistribution]]:
    """Inverse of :func:`run_to_json`, from its JSON text; it gives every setting, in order."""
    try:
        obj = json.loads(text, parse_int=read_int)
        schema = obj.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise ConfigParseError(f"unsupported schema {shown(schema)}")
        fields = (field.name for field in dataclasses.fields(TunerSettings))
        _check_names(obj["settings"], fields, "settings", "the tuner's", "setting")
        initial = {n: distribution_from_json(d) for n, d in obj["initial_distributions"].items()}
        for name in initial:
            check_param_name(name)
        return TunerSettings(**obj["settings"]), initial
    except (*_MALFORMED, InvalidSettingsError) as exc:
        raise ConfigParseError(f"run file is malformed: {exc}") from None


def result_to_json(result: TuneResult) -> dict[str, Any]:
    best: dict[str, Any] | None = None
    if result.best_sampled is not None:
        best = {
            "config": _config_to_json(result.best_sampled.config),
            "alarm_count": len(result.best_sampled.alarms),
            "alarms": list(result.best_sampled.alarms),
        }
    return {
        "schema": SCHEMA_VERSION,
        "recommended_config": _config_to_json(result.recommended_config),
        "best_sampled": best,
        "final_distributions": {
            name: distribution_to_json(d) for name, d in result.final_distributions.items()
        },
        "iterations": len(result.iteration_trace),
        "wall_time_total": result.wall_time_total,
        "stopped_by": result.stopped_by,
    }
