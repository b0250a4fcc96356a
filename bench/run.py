"""End-to-end benchmark of strategy-tuner.

Run from the repository root:

    python3 bench/run.py                      # every workload, each in its own process
    python3 bench/run.py --trace 1            # the same, traced: per-layer numbers
    python3 bench/run.py --workload converge --seed 0 --seconds 5 --trace 0

One workload run sets up its inputs from ``--seed``, then makes closed-loop
``tune`` calls, one at a time, over the workload's seed set (whole passes
only) until ``--seconds`` have passed. Every call writes ``trace.ndjson``
and the result files as ``strategy-tuner tune`` does, and every output is
checked against the reference semantics in ``reference.py``. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (analyses; a crash is a failure) and ``metrics``, the
end-to-end metrics untraced or the per-layer metrics traced. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import reference as ref
from spans import Tracer, self_times
from workloads import ROOT, WORKLOADS, Workload, write_run_config

SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 15

#: Seconds of ``reference_time()`` at the machine's nominal speed. The
#: machine's speed drifts by up to about a third, in phases of seconds to
#: minutes, so a run is too short to average it out: ``tune_s`` and
#: ``setup_s`` are scaled to the nominal speed by REFERENCE_S over the
#: mean reference time sampled between the run's calls. The mean, not the
#: median: a call lasts through many phases and so takes their mean.
REFERENCE_S = 0.02
_REFERENCE_STEPS = 80000

END_TO_END_UNITS = {
    "setup_s": "s",
    "tune_s": "s",
    "peak_rss_mb": "MB",
    "rec_eliminated": "alarms",
    "best_eliminated": "alarms",
    "rec_cost_s": "s",
}

# Per-layer metric -> (source, unit). Sources: ("ms" | "calls" | "note", span
# name) from the spans, ("count", name) from the call counters, ("record", key)
# from the trace records, ("overhead", None) for the tracing overhead.
PER_LAYER = {
    "distributions.sample_ms": (("ms", "distributions.sample"), "ms"),
    "distributions.sample_calls": (("calls", "distributions.sample"), "count"),
    "distributions.poisson_ms": (("ms", "distributions.poisson"), "ms"),
    "distributions.poisson_lambda_mean": (("note", "distributions.poisson"), "lambda"),
    "distributions.refine_base_ms": (("ms", "distributions.refine_base"), "ms"),
    "distributions.refine_base_calls": (("calls", "distributions.refine_base"), "count"),
    "distributions.base_moves": (("record", "base_moves"), "count"),
    "lattice.meet_calls": (("count", "lattice.meet"), "count"),
    "orchestrator.matrix_ms": (("ms", "orchestrator.matrix"), "ms"),
    "orchestrator.self_ms": (("ms", "orchestrator.tune"), "ms"),
    "orchestrator.iterations": (("record", "iterations"), "count"),
    "orchestrator.analyses": (("record", "attempted"), "count"),
    "rng.split_ms": (("ms", "rng.split"), "ms"),
    "rng.split_calls": (("calls", "rng.split"), "count"),
    "analyzers.run_ms": (("ms", "analyzers.run"), "ms"),
    "analyzers.completed": (("record", "completed"), "count"),
    "analyzers.timed_out": (("record", "timed_out"), "count"),
    "analyzers.repeat_configs": (("record", "repeat_configs"), "count"),
    "subprocess_adapter.run_ms": (("ms", "subprocess_adapter.run"), "ms"),
    "subprocess_adapter.extract_ms": (("ms", "subprocess_adapter.extract"), "ms"),
    "paramspace.render_ms": (("ms", "paramspace.render"), "ms"),
    "trace.write_ms": (("ms", "trace.write"), "ms"),
    "trace.bytes": (("record", "trace_bytes"), "bytes"),
    "tracing.overhead_ms": (("overhead", None), "ms"),
}


def load_package():
    """Import strategy_tuner from this checkout's ``src``, and only from there."""
    package = SRC / "strategy_tuner"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no strategy_tuner sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import strategy_tuner

    if Path(strategy_tuner.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: strategy_tuner was imported from {strategy_tuner.__file__}")
    return strategy_tuner


@dataclasses.dataclass
class Prepared:
    """A workload after set-up: everything a ``tune`` call and its checks need."""

    run: object
    profile: ref.Profile
    initial: dict
    settings: checks.RunSettings
    compare_profile: object | None


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    from strategy_tuner import cli, parse_profile, trace

    config, profile_text = write_run_config(workload, seed, work)
    run = cli.load_run_config(
        argparse.Namespace(
            config=str(config), program=None, profile=None, seed=None, budget=None,
            samples=None, processes=None, max_iterations=None, out=None,
        )
    )
    run.out_dir.mkdir(parents=True, exist_ok=True)
    initial = {
        name: trace.distribution_to_json(d) for name, d in run.catalog.initial_distributions().items()
    }
    virtual = run.profile is not None
    s = run.settings
    return Prepared(
        run=run,
        profile=ref.parse_profile(profile_text, ref.kinds_of(initial)),
        initial=initial,
        settings=checks.RunSettings(
            s.time_budget, s.num_sample, s.num_process, s.iteration_fraction, s.max_iterations, virtual
        ),
        compare_profile=None if virtual else parse_profile(profile_text, run.catalog),
    )


# Span name, then where the wrapped callable lives: module of the package,
# class in it (or None) and attribute. Wrapping a module attribute catches
# the calls made through that module's namespace.
SPANS = (
    ("distributions.sample", "orchestrator", None, "sample_param"),
    ("distributions.poisson", "distributions", None, "sample_poisson"),
    ("distributions.refine_base", "orchestrator", None, "refine_base"),
    ("orchestrator.matrix", "orchestrator", None, "build_result_matrix"),
    ("rng.split", "rng", "RandomStream", "split"),
    ("analyzers.run", "analyzers", "SyntheticAnalyzer", "run"),
    ("subprocess_adapter.run", "subprocess_adapter", "SubprocessAnalyzer", "run"),
    ("subprocess_adapter.extract", "subprocess_adapter", "SubprocessAnalyzer", "extract_alarms"),
    ("paramspace.render", "subprocess_adapter", None, "render_cli_args"),
    ("trace.write", "trace", None, "write_record"),
)


def _owner(module: str, cls: str | None):
    """The package module or class holding a wrapped name; None if it is gone."""
    try:
        owner = importlib.import_module(f"strategy_tuner.{module}")
        return getattr(owner, cls) if cls else owner
    except (ImportError, AttributeError):
        return None


def install_spans(tracer: Tracer) -> None:
    """Wrap the package's functions at the layer boundaries."""
    for name, module, cls, attr in SPANS:
        note = (lambda lam, *a, **k: lam) if name == "distributions.poisson" else None
        tracer.wrap(_owner(module, cls), attr, name, note=note)
    tracer.count(_owner("distributions", None), "meet", "lattice.meet")


def write_results(out: Path, result) -> None:
    """The result files ``strategy-tuner tune`` writes next to the trace."""
    from strategy_tuner import cli, serialize_configuration, trace

    (out / "recommended.conf").write_text(
        serialize_configuration(result.recommended_config), encoding="utf-8"
    )
    if result.best_sampled is not None:
        (out / "best_sampled.conf").write_text(
            serialize_configuration(result.best_sampled.config), encoding="utf-8"
        )
    (out / "result.json").write_text(
        json.dumps(trace.result_to_json(result), indent=2) + "\n", encoding="utf-8"
    )
    (out / "summary.txt").write_text(cli._summary(result), encoding="utf-8")


def tune_once(prep: Prepared, seed: int, tracer: Tracer | None = None):
    """One timed ``tune`` call with its trace and result files.

    Returns the result and the wall time in seconds.
    """
    from strategy_tuner import trace, tune

    run = prep.run
    settings = dataclasses.replace(run.settings, seed=seed)
    analyzer = run.analyzer()
    root = tracer.root("orchestrator.tune") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with (run.out_dir / "trace.ndjson").open("w", encoding="utf-8") as stream, root:
        result = tune(
            run.program_ref(), run.catalog, settings, analyzer,
            on_record=lambda record: trace.write_record(stream, record),
        )
    write_results(run.out_dir, result)
    return result, time.perf_counter() - start


def verify(prep: Prepared, seed: int, result) -> dict:
    """Check one call's outputs; return its quality figures and counts."""
    from strategy_tuner import SyntheticAnalyzer, TunerError, parse_configuration, trace, tune

    out = prep.run.out_dir
    catalog = prep.run.catalog
    text = (out / "trace.ndjson").read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    result_json = json.loads((out / "result.json").read_text(encoding="utf-8"))
    checks.check_run(records, result_json, prep.initial, prep.profile, prep.settings)
    try:
        if trace.read_trace(text) != list(result.iteration_trace):
            raise checks.CheckFailed("trace-readback", "trace.ndjson does not read back to the run")
        recommended = parse_configuration(
            (out / "recommended.conf").read_text(encoding="utf-8"), catalog
        )
    except TunerError as exc:
        raise checks.CheckFailed("readback", f"an output file does not parse: {exc}")
    if recommended != result.recommended_config:
        raise checks.CheckFailed("conf-readback", "recommended.conf does not read back")

    if prep.compare_profile is not None:
        settings = dataclasses.replace(prep.run.settings, seed=seed)
        synthetic = tune("synthetic", catalog, settings, SyntheticAnalyzer(prep.compare_profile))
        if [r.sampled_configs for r in synthetic.iteration_trace] != [
            r.sampled_configs for r in result.iteration_trace
        ] or synthetic.final_distributions != result.final_distributions:
            raise checks.CheckFailed(
                "matches-synthetic", f"seed {seed}: run differs from the synthetic backend's"
            )

    kinds = ref.kinds_of(prep.initial)
    rec = ref.parse_config(kinds, result_json["recommended_config"])
    best = result_json["best_sampled"]
    stats = defaultdict(int)
    seen: set = set()
    for record in records:
        stats["iterations"] += 1
        for config, outcome in zip(record["sampled_configs"], record["outcomes"]):
            key = tuple(sorted(config.items()))
            stats["repeat_configs"] += key in seen
            seen.add(key)
            stats["attempted"] += 1
            stats[outcome["status"]] += 1
        before, after = record["distributions_before"], record["distributions_after"]
        stats["base_moves"] += sum(before[n]["base"] != after[n]["base"] for n in before)
    stats["trace_bytes"] = len(text.encode("utf-8"))
    stats["rec_eliminated"] = ref.eliminated(prep.profile, rec)
    stats["best_eliminated"] = (
        ref.eliminated(prep.profile, ref.parse_config(kinds, best["config"])) if best else 0
    )
    stats["rec_cost_s"] = ref.cost_of(prep.profile, rec)
    return dict(stats)


QUALITY = ("rec_eliminated", "best_eliminated", "rec_cost_s")


class Ledger:
    """Per-call figures of one workload run, with the repeatability check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.quality: dict[int, tuple] = {}

    def add(self, seed: int, stats: dict) -> None:
        self.attempted += stats["attempted"]
        self.failed += stats.get("crashed", 0)
        quality = tuple(stats[k] for k in QUALITY)
        if self.quality.setdefault(seed, quality) != quality:
            raise checks.CheckFailed("repeatable", f"seed {seed}: quality changed between passes")

    def mean(self, key: str) -> float:
        index = QUALITY.index(key)
        return statistics.fmean(q[index] for q in self.quality.values())


def reference_time() -> float:
    """Seconds of a fixed pure-Python loop that uses nothing of the package."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(_REFERENCE_STEPS):
        table[i % 101] = table.get(i % 101, 0) + i * i % 7
    sorted(table.values())
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it could call ``tune``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"bench: set-up probe for {workload} failed (exit {code})")
    return elapsed


def measure(prep: Prepared, workload: Workload, seed: int, seconds: float, ledger: Ledger) -> dict:
    """Untraced passes.

    The set-up probes are spread evenly over the first pass, so that they
    sample the machine at the same times as the calls do. Peak memory is
    read after the first call has written its result files and before any
    check has run, so that it is the program's and not the checker's.
    ``tune_s`` and ``setup_s`` are scaled to the nominal speed (see
    REFERENCE_S); their wall medians are printed on a ``#`` line.
    """
    seeds = workload.seed_set(seed)
    probes_before = Counter(k * len(seeds) // SETUP_PROBES for k in range(SETUP_PROBES))
    times, setup, reference = [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        first_pass = not times
        for i, s in enumerate(seeds):
            if first_pass:
                for _ in range(probes_before[i]):
                    reference.append(reference_time())
                    setup.append(probe_setup(workload.name, seed))
            reference.append(reference_time())
            result, elapsed = tune_once(prep, s)
            times.append(elapsed)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ledger.add(s, verify(prep, s, result))
            del result
    scale = REFERENCE_S / statistics.fmean(reference)
    print(
        f"# wall medians: tune {statistics.median(times):.6g} s, setup {statistics.median(setup):.6g} s;"
        f" reference loop mean {statistics.fmean(reference):.6g} s (nominal {REFERENCE_S} s)"
    )
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "tune_s": statistics.median(times) * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update({key: ledger.mean(key) for key in QUALITY})
    print(f"# {len(times)} tune calls over {len(seeds)} seeds", flush=True)
    for s, quality in ledger.quality.items():
        print(f"# seed {s}: " + ", ".join(f"{k} {v:g}" for k, v in zip(QUALITY, quality)))
    oracle = ref.least_config(prep.profile, ref.kinds_of(prep.initial))
    print(
        f"# oracle: eliminates {ref.eliminated(prep.profile, oracle)} of "
        f"{prep.profile.eliminable} eliminable alarms at cost {ref.cost_of(prep.profile, oracle):g} s"
    )
    return metrics


def layer_figures(tracer: Tracer, stats: dict) -> dict[str, float]:
    """The per-layer figures of one traced call (all but the overhead)."""
    ms = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        if span.note is not None:
            notes[span.name] += span.note
    figures = {}
    for metric, ((source, key), _) in PER_LAYER.items():
        if source == "ms":
            figures[metric] = ms.get(key, 0.0) * 1000.0
        elif source == "calls":
            figures[metric] = calls[key]
        elif source == "note":
            figures[metric] = notes[key] / calls[key] if calls[key] else 0.0
        elif source == "count":
            figures[metric] = tracer.counts.get(key, 0)
        elif source == "record":
            figures[metric] = stats.get(key, 0)
    return figures


def measure_traced(prep: Prepared, workload: Workload, seed: int, seconds: float, ledger: Ledger) -> dict:
    """Pairs of untraced and traced calls over the first half of the seed set.

    Every figure is the mean over the traced calls; the overhead is the
    median traced call minus the median untraced one.
    """
    seeds = workload.seed_set(seed)[: max(1, workload.seeds_per_set // 2)]
    plain, traced, per_call = [], [], []
    absent: set[str] = set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for s in seeds:
            result, elapsed = tune_once(prep, s)
            plain.append(elapsed)
            ledger.add(s, verify(prep, s, result))
            tracer = Tracer()
            install_spans(tracer)
            try:
                result, elapsed = tune_once(prep, s, tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            stats = verify(prep, s, result)
            ledger.add(s, stats)
            absent.update(tracer.absent)
            per_call.append(layer_figures(tracer, stats))
    metrics = {metric: statistics.fmean(f[metric] for f in per_call) for metric in per_call[0]}
    metrics["tracing.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1000.0
    if absent:
        print(f"# absent layers (reported as 0): {', '.join(sorted(absent))}", flush=True)
    print(f"# {len(traced)} traced and {len(plain)} untraced calls over {len(seeds)} seeds", flush=True)
    return metrics


def make_work_dir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    load_package()
    work = make_work_dir()
    ledger = Ledger()
    try:
        prep = prepare(workload, args.seed, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics = measure_traced(prep, workload, args.seed, args.seconds, ledger)
            units = {name: unit for name, (_, unit) in PER_LAYER.items()}
        else:
            metrics = measure(prep, workload, args.seed, args.seconds, ledger)
            units = END_TO_END_UNITS
    except checks.CheckFailed as exc:
        print(f"bench: {workload.name}: check failed: {exc}", file=sys.stderr)
        report = {"correct": False, "attempted": ledger.attempted, "failed": ledger.failed}
        print(json.dumps({**report, "metrics": {}}))
        return 1
    finally:
        remove_work_dir(work)
    for name, value in metrics.items():
        print(f"{workload.name:<11} {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Self-test, then every workload in its own process."""
    import selftest

    selftest.main()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        report = json.loads(lines[-1])
        correct = correct and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        metrics.update({f"{name}.{metric}": v for metric, v in report["metrics"].items()})
    print(f"analyses attempted: {attempted}, failed: {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
