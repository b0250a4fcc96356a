"""Self-test of the benchmark's output checks.

Feeds ``checks.check_run`` the records of a real short run, which must
pass, and fabricated variants of them, each of which must be rejected by
the check named next to it. Also checks that BENCHMARK.json lists what
``run.py`` reports. Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import reference as ref
from run import END_TO_END_UNITS, PER_LAYER, load_package
from workloads import CONVERGENCE_PROFILE, ROOT, WORKLOADS


def _valid_run():
    st = load_package()
    from strategy_tuner import trace

    catalog = st.default_catalog()
    text = CONVERGENCE_PROFILE.read_text(encoding="utf-8")
    settings = st.TunerSettings(time_budget=1e9, num_sample=4, num_process=2, seed=0, max_iterations=4)
    result = st.tune("synthetic", catalog, settings, st.SyntheticAnalyzer(st.parse_profile(text, catalog)))
    records = json.loads(json.dumps([trace.record_to_json(r) for r in result.iteration_trace]))
    result_json = json.loads(json.dumps(trace.result_to_json(result)))
    initial = {n: trace.distribution_to_json(d) for n, d in catalog.initial_distributions().items()}
    profile = ref.parse_profile(text, ref.kinds_of(initial))
    run_settings = checks.RunSettings(
        settings.time_budget, settings.num_sample, settings.num_process,
        settings.iteration_fraction, settings.max_iterations, True,
    )
    return records, result_json, initial, profile, run_settings


def _sample_below_base(records):
    first = records[0]
    base = int(first["distributions_before"]["ilevel"]["base"])
    first["sampled_configs"][0]["ilevel"] = str(base - 1)


def _base_off_brute_force(records):
    last = records[-1]["distributions_after"]["slevel"]
    last["base"] = str(int(last["base"]) + 1)


def _alarm_set_off_profile(records):
    outcome = next(o for o in records[0]["outcomes"] if o["status"] == "completed")
    outcome["alarms"].remove("incompressible-1")


def _timeout_under_deadline(records):
    outcome = records[0]["outcomes"][0]
    records[0]["outcomes"][0] = {"status": "timed_out", "wall_time": outcome["wall_time"]}


CASES = (
    (_sample_below_base, "sample-dominates-base"),
    (_base_off_brute_force, "base-matches-brute-force"),
    (_alarm_set_off_profile, "alarms-match-profile"),
    (_timeout_under_deadline, "timeout-iff-over-deadline"),
)


def _check_manifest() -> None:
    """BENCHMARK.json names the workloads and metrics, with the units, that run.py reports."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {
        "workloads": [w["name"] for w in manifest["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    reported = {
        "workloads": list(WORKLOADS),
        "end_to_end": END_TO_END_UNITS,
        "per_layer": {name: unit for name, (_, unit) in PER_LAYER.items()},
    }
    for key, value in reported.items():
        if listed[key] != value:
            raise SystemExit(f"selftest: BENCHMARK.json {key} differ from what run.py reports")


def main() -> int:
    _check_manifest()
    records, result, initial, profile, settings = _valid_run()
    checks.check_run(records, result, initial, profile, settings)
    for corrupt, expected in CASES:
        bad = copy.deepcopy(records)
        corrupt(bad)
        try:
            checks.check_run(bad, result, initial, profile, settings)
        except checks.CheckFailed as exc:
            if exc.check != expected:
                raise SystemExit(f"selftest: {corrupt.__name__} tripped {exc.check}, not {expected}")
        else:
            raise SystemExit(f"selftest: {corrupt.__name__} was not rejected")
        print(f"selftest: {corrupt.__name__} rejected by {expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
