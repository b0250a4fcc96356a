"""Checks of one ``tune`` call's output against the reference semantics.

Everything here works on the JSON forms the tuner writes: the records of
``trace.ndjson`` and the object of ``result.json``. A failed check raises
:class:`CheckFailed` naming the check, so a caller (or the self-test) can
tell which property broke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import reference as ref


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass(frozen=True)
class RunSettings:
    """The settings one ``tune`` call ran with, as the checks need them."""

    time_budget: float
    num_sample: int
    num_process: int
    iteration_fraction: float
    max_iterations: int
    virtual_clock: bool


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _fail_unless(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def check_run(
    records: list[dict],
    result: dict,
    initial: dict,
    profile: ref.Profile,
    settings: RunSettings,
) -> None:
    """Check a whole run; ``initial`` is the catalog's starting distributions."""
    kinds = ref.kinds_of(initial)
    _fail_unless(len(records) <= settings.max_iterations, "iterations", f"{len(records)} records")
    remaining = settings.time_budget
    expected_before = initial
    best_count = None
    for position, record in enumerate(records):
        where = f"iteration {position}"
        _fail_unless(record["index"] == position, "index", f"{where} has index {record['index']}")
        _fail_unless(
            record["distributions_before"] == expected_before,
            "continuity",
            f"{where} does not start from the previous distributions",
        )
        configs = [ref.parse_config(kinds, c) for c in record["sampled_configs"]]
        bases = {
            name: ref.parse_literal(kinds[name], d["base"])
            for name, d in record["distributions_before"].items()
        }
        _check_samples_dominate(configs, bases, where)
        limit = None
        if settings.virtual_clock:
            limit = ref.deadline(
                remaining, settings.iteration_fraction, settings.num_sample, settings.num_process
            )
        rows = _check_outcomes(record["outcomes"], configs, profile, limit, where)
        counts = [len(alarms) for _, alarms in rows]
        if counts:
            best_count = min(counts) if best_count is None else min(best_count, *counts)
        _check_round(record, rows, kinds, bases, settings.num_sample, where)
        remaining -= record["elapsed"]
        expected_before = record["distributions_after"]

    spent = sum(r["elapsed"] for r in records)
    _fail_unless(spent <= settings.time_budget, "budget", f"spent {spent} of {settings.time_budget}")
    _check_result(result, records, expected_before, best_count)


def _check_samples_dominate(configs: list[dict], bases: dict, where: str) -> None:
    for i, config in enumerate(configs):
        for name, base in bases.items():
            _fail_unless(
                base <= config[name],
                "sample-dominates-base",
                f"{where}, sample {i}: {name} below its base",
            )


def _check_outcomes(outcomes, configs, profile, limit, where):
    """Alarm sets against the profile; timeouts against the deadline.

    Returns ``(configuration, alarm set)`` for each completed analysis.
    """
    _fail_unless(len(outcomes) == len(configs), "outcomes", f"{where}: one outcome per sample")
    rows = []
    for i, (outcome, config) in enumerate(zip(outcomes, configs)):
        status = outcome["status"]
        if limit is not None:
            cost = ref.cost_of(profile, config)
            _fail_unless(
                (status == "timed_out") == (cost > limit),
                "timeout-iff-over-deadline",
                f"{where}, sample {i}: {status} at cost {cost} and deadline {limit}",
            )
            if status == "completed":
                _fail_unless(_close(outcome["wall_time"], cost), "wall-time", f"{where}, sample {i}")
        if status == "completed":
            alarms = frozenset(outcome["alarms"])
            _fail_unless(
                alarms == ref.alarms_of(profile, config),
                "alarms-match-profile",
                f"{where}, sample {i}: alarm set differs from the profile's",
            )
            rows.append((config, alarms))
    return rows


def _check_round(record, rows, kinds, bases, num_sample, where) -> None:
    universe = record["alarm_universe"]
    expected_universe = set().union(*(alarms for _, alarms in rows)) if rows else set()
    _fail_unless(
        len(universe) == len(set(universe)) and set(universe) == expected_universe,
        "alarm-universe",
        f"{where}: universe is not the union of completed alarm sets",
    )
    completed = len(rows)
    _fail_unless(record["completed"] == completed, "completed", f"{where}: completed count")
    _fail_unless(_close(record["eta_c"], completed / num_sample), "eta", f"{where}: eta_c")
    eta = ref.eta(completed, num_sample)
    _fail_unless(_close(record["eta"], eta), "eta", f"{where}: eta {record['eta']} != {eta}")
    for name, after in record["distributions_after"].items():
        before = record["distributions_before"][name]
        _check_delta(after["delta"], ref.scale_delta(before["delta"], eta), f"{where}, {name}")
        new_base = ref.parse_literal(kinds[name], after["base"])
        _fail_unless(bases[name] <= new_base, "bases-rise", f"{where}: {name} base fell")
        expected = ref.refine_base(
            kinds[name], bases[name], universe, [(c[name], alarms) for c, alarms in rows]
        )
        _fail_unless(
            new_base == expected,
            "base-matches-brute-force",
            f"{where}: {name} base {after['base']} differs from the brute-force refinement",
        )


def _check_delta(got: dict, expected: dict, where: str) -> None:
    _fail_unless(got["kind"] == expected["kind"], "delta-update", f"{where}: delta kind changed")
    if got["kind"] == "poisson":
        ok = _close(got["lambda"], expected["lambda"])
    elif got["kind"] == "bernoulli":
        ok = _close(got["q"], expected["q"])
    else:
        ok = len(got["qs"]) == len(expected["qs"]) and all(
            _close(a, b) for a, b in zip(got["qs"], expected["qs"])
        )
    _fail_unless(ok, "delta-update", f"{where}: delta {got} != {expected}")


def _check_result(result, records, final, best_count) -> None:
    _fail_unless(result["iterations"] == len(records), "result", "iteration count")
    recommended = {name: d["base"] for name, d in final.items()}
    _fail_unless(
        result["recommended_config"] == recommended,
        "recommended-is-final-base",
        "recommended configuration is not the final base vector",
    )
    _fail_unless(result["final_distributions"] == final, "result", "final distributions")
    best = result["best_sampled"]
    if best_count is None:
        _fail_unless(best is None, "best-sample", "best sample reported with no completed analysis")
        return
    _fail_unless(
        best is not None and best["alarm_count"] == best_count == len(best["alarms"]),
        "best-sample",
        f"best sample count is not the minimum {best_count} over completed analyses",
    )
    matches = [
        config
        for record in records
        for config, outcome in zip(record["sampled_configs"], record["outcomes"])
        if outcome["status"] == "completed" and sorted(outcome["alarms"]) == best["alarms"]
    ]
    _fail_unless(best["config"] in matches, "best-sample", "best configuration was never analyzed")
