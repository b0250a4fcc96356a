"""Command-line interface.

Commands: tune (run the sample-analyze-refine loop and write run.json,
the trace and the result files), report (the result files again, from
run.json and the trace), dominancy (controlled per-parameter influence
experiments), plot (static charts from a trace), and simulate (the cost
and alarms a synthetic profile gives one configuration, with no deadline).

A flag wins over the config's key, which is still checked. Of the
``tuner.*`` keys, dominancy reads only ``tuner.time_budget`` (the default
for ``--timeout``) and ``tuner.num_process``; it still validates the
others, so one config serves both tune and dominancy.

Exit codes: 0 success, 1 standard output closed by its reader (nothing
is printed), 2 configuration error, 3 analyzer unavailable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .analyzers import (
    Analyzer,
    SyntheticAnalyzer,
    SyntheticProfile,
    parse_profile,
    simulated_cost,
    synthetic_alarms,
)
from .errors import (
    AnalyzerUnavailableError,
    ConfigParseError,
    InvalidSettingsError,
    LatticeMismatchError,
    TunerError,
    shown,
)
from .keytree import Entry, parse_keytree, split_lines
from .lattice import read_amount, read_count, read_int
from .orchestrator import TuneResult, TunerSettings, tune
from .paramspace import (
    Catalog,
    apply_catalog_overrides,
    default_catalog,
    parse_configuration,
    serialize_configuration,
)
from .trace import read_trace, result_to_json, run_from_json, run_to_json, write_record

# Importing this module loads none of dominancy, plots, subprocess_adapter
# and logging: the command or the adapter run that uses one imports it.
if TYPE_CHECKING:
    from .subprocess_adapter import AdapterConfig

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_ANALYZER_UNAVAILABLE = 3


@dataclass
class RunConfig:
    catalog: Catalog
    settings: TunerSettings
    out_dir: Path
    program: str | None = None
    profile: SyntheticProfile | None = None
    adapter: AdapterConfig | None = None

    def analyzer(self) -> Analyzer:
        if self.profile is not None:
            return SyntheticAnalyzer(self.profile)
        assert self.adapter is not None
        from .subprocess_adapter import SubprocessAnalyzer

        return SubprocessAnalyzer(self.adapter, self.catalog)

    def program_ref(self) -> str:
        if self.profile is not None:
            return "synthetic"
        assert self.program is not None
        return self.program


@contextmanager
def _file(doing: str, path: Path | str) -> Iterator[None]:
    """Report an OSError or non-UTF-8 text as one line, ``cannot <doing> '<path>': <reason>``."""
    try:
        yield
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:  # the lines before the bad byte and one in its place
        reason = f"line {len(split_lines(exc.object[:exc.start].decode() + '.'))} is not UTF-8 text"
    else:
        return
    whole = repr(str(path))  # a path is quoted whole unless it is longer than any a person types
    where = whole if len(whole) <= 160 else shown(str(path))
    raise ConfigParseError(f"cannot {doing} {where}: {reason}") from None


def _read_text(path: Path | str, what: str) -> str:
    with _file(f"read {what}", path):
        return Path(path).read_bytes().decode("utf-8")


def _read(cast, raw: str, what: str, line: int | None = None):
    """``raw`` through ``cast``; a ValueError names ``what``, a key or a flag, and ``line``."""
    try:
        return cast(raw)
    except ValueError:
        raise ConfigParseError(f"bad value for {what}: {shown(raw)}", line=line) from None


def _read_key(entries: dict[str, Entry], key: str, cast):
    """The file's value for ``key`` through ``cast``; a ValueError names its line."""
    raw, line, _ = entries[key]
    return _read(cast, raw, repr(key), line)


def _env_names(raw: str) -> tuple[str, ...]:
    names = tuple(filter(None, map(str.strip, raw.split(","))))
    if not names:
        raise ValueError("names no variable")
    return names


# Each TunerSettings field a run config may set, the flag that overrides
# it, and how its text reads; bad values are reported in this order.
_SETTINGS = (
    ("max_iterations", "max_iterations", read_count),
    ("time_budget", "budget", read_amount),
    ("num_sample", "samples", read_count),
    ("num_process", "processes", read_count),
    ("seed", "seed", read_int),
    ("refinement", None, str),
    ("patience", None, lambda raw: None if raw == "none" else read_count(raw)),
)

# Every key a run config may set; any other key is rejected at load time.
RUN_CONFIG_KEYS = frozenset(
    """program profile out catalog
    adapter.command adapter.pattern adapter.env""".split()
    + [f"tuner.{name}" for name, _, _ in _SETTINGS]
)


def _load_settings(entries: dict[str, Entry], args) -> TunerSettings:
    """Each file setting checked on its line, then each flag over it; the budget defaults to 3600 s."""
    given: dict = {"time_budget": 3600.0}
    flags = {}
    for name, flag, cast in _SETTINGS:
        if f"tuner.{name}" in entries:  # a file's value may be None: `tuner.patience = none`
            given[name] = _read_key(entries, f"tuner.{name}", cast)
        text = getattr(args, flag, None) if flag else None
        if text is not None:
            flags[name] = _read(cast, text, "--" + flag.replace("_", "-"))
    try:
        settings = TunerSettings(**given)
    except InvalidSettingsError as exc:  # a default is valid, so the file gave the field
        raise ConfigParseError(str(exc), line=entries[f"tuner.{exc.field}"].line) from None
    return dataclasses.replace(settings, **flags)


def load_run_config(args) -> RunConfig:
    entries = parse_keytree(_read_text(args.config, "config file") if args.config else "")
    for key, entry in entries.items():
        if key not in RUN_CONFIG_KEYS:
            raise ConfigParseError(f"unknown key {shown(key)}", line=entry.line)
    values = {key: entry.value for key, entry in entries.items()}

    catalog = default_catalog()
    catalog_path = values.get("catalog")
    if catalog_path:
        catalog = apply_catalog_overrides(catalog, _read_text(catalog_path, "catalog override"))

    program = getattr(args, "program", None) or values.get("program")
    profile_path = getattr(args, "profile", None) or values.get("profile")
    if bool(program) == bool(profile_path):
        raise ConfigParseError(
            "exactly one analyzer backend required: set 'program' (subprocess) "
            "or 'profile' (synthetic)"
        )

    profile = None
    adapter = None
    if profile_path:
        profile = parse_profile(_read_text(profile_path, "profile"), catalog)
    else:
        from .subprocess_adapter import AdapterConfig

        command = values.get("adapter.command")
        pattern = values.get("adapter.pattern")
        if not command or not pattern:
            raise ConfigParseError(
                "subprocess backend requires 'adapter.command' and 'adapter.pattern'"
            )
        env: tuple[str, ...] = ()  # empty means the whole environment
        if values.get("adapter.env"):
            env = _read_key(entries, "adapter.env", _env_names)
        try:
            adapter = AdapterConfig(command=command, pattern=pattern, env_passthrough=env)
        except (ValueError, re.error) as exc:
            key = "adapter.pattern" if isinstance(exc, re.error) else "adapter.command"
            raise ConfigParseError(
                f"bad value for {key!r}: {exc}", line=entries[key].line
            ) from None

    out = getattr(args, "out", None) or values.get("out") or "tuner-out"
    return RunConfig(catalog, _load_settings(entries, args), Path(out), program, profile, adapter)


def _open_run(run: RunConfig) -> RunConfig:
    """``run``, with an adapter's logging set up and command on PATH, then its out_dir made."""
    if run.adapter is not None:
        import logging  # for the adapter's logger, the package's only one
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        command = run.adapter.words[0].format(program=run.program, args="")  # as it will run
        if shutil.which(command) is None:
            raise AnalyzerUnavailableError(f"adapter command not found: {shown(command)}")
    with _file("write", run.out_dir):
        run.out_dir.mkdir(parents=True, exist_ok=True)
    return run


def _claim(out_dir: Path, *names: str) -> None:
    """Empty each output file: one that cannot be written ends the command before any analysis."""
    for name in names:
        _write(out_dir / name, "")


def _write(path: Path, text: str | None) -> None:
    """Write ``text`` to the output file ``path``; None removes the file."""
    with _file("write", path):
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text, encoding="utf-8")


def cmd_tune(args) -> int:
    run = _open_run(load_run_config(args))
    trace_path = run.out_dir / "trace.ndjson"
    # An analyzer's errors become outcomes, so an OSError here is the trace's.
    with _file("write", trace_path), trace_path.open("w", encoding="utf-8") as stream:
        _claim(run.out_dir, "recommended.conf", "best_sampled.conf", "result.json", "summary.txt")
        run_json = run_to_json(run.settings, run.catalog.initial_distributions())
        _write(run.out_dir / "run.json", json.dumps(run_json, indent=2) + "\n")
        result = tune(
            run.program_ref(),
            run.catalog,
            run.settings,
            run.analyzer(),
            on_record=lambda record: write_record(stream, record),
        )
    _write_results(run.out_dir, result)
    print(f"wrote {trace_path} ({len(result.iteration_trace)} iterations)")
    return EXIT_OK


def cmd_report(args) -> int:
    run = run_from_json(_read_text(args.out / "run.json", "run file"))
    records = read_trace(_read_text(args.out / "trace.ndjson", "trace"), run)
    _write_results(args.out, TuneResult(*run, tuple(records)))
    print(f"wrote the result files of {args.out} ({len(records)} iterations)")
    return EXIT_OK


def _write_results(out_dir: Path, result: TuneResult) -> None:
    """The four result files, each a view of ``result``, as tune and report write them."""
    best = result.best_sampled  # with none, an earlier run's file would contradict result.json
    best_text = None if best is None else serialize_configuration(best.config)
    _write(out_dir / "recommended.conf", serialize_configuration(result.recommended_config))
    _write(out_dir / "best_sampled.conf", best_text)
    _write(out_dir / "result.json", json.dumps(result_to_json(result), indent=2) + "\n")
    _write(out_dir / "summary.txt", _summary(result))


def _summary(result) -> str:
    best = result.best_sampled
    best_alarms = "none (no analysis completed)" if best is None else f"{len(best.alarms)} alarm(s)"
    budget = enumerate(zip(result.remaining, result.deadlines))
    return "\n".join([
        f"iterations:      {len(result.iteration_trace)}",
        f"wall time total: {result.wall_time_total:.3f} s",
        f"stopped by:      {result.stopped_by or 'none: no stop rule held, the run was cut short'}",
        f"best sampled:    {best_alarms}",
        *(f"{f'iteration {i}:':<17}{left:.3f} s left, deadline {d:.3f} s" for i, (left, d) in budget),
        "",
        "recommended configuration:",
        serialize_configuration(result.recommended_config),
    ])


def cmd_dominancy(args) -> int:
    from .dominancy import report_table, report_to_json, run_dominancy

    timeout = None if args.timeout is None else _read(read_amount, args.timeout, "--timeout")
    if timeout == 0:
        raise ConfigParseError("--timeout must be above 0")
    run = load_run_config(args)  # the baselines are read before the output directory is made
    low = parse_configuration(_read_text(args.low, "baseline"), run.catalog)
    high = parse_configuration(_read_text(args.high, "baseline"), run.catalog)
    _open_run(run)
    timeout = timeout or run.settings.time_budget
    _claim(run.out_dir, "dominancy.txt", "dominancy.json")
    report = run_dominancy(
        run.program_ref(), low, high, run.catalog, run.analyzer(), timeout, run.settings.num_process
    )

    table = report_table(report)
    _write(run.out_dir / "dominancy.txt", table)
    _write(run.out_dir / "dominancy.json", json.dumps(report_to_json(report), indent=2) + "\n")
    print(table, end="")
    return EXIT_OK


def cmd_plot(args) -> int:
    from .plots import charts

    records = read_trace(_read_text(args.trace, "trace"))
    if not records:
        raise ConfigParseError("trace is empty")
    out_dir = Path(args.out) if args.out else Path(args.trace).parent / "plots"
    with _file("write", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    texts = charts(records)
    for name, text in texts.items():
        _write(out_dir / name, text)
    print(f"wrote {len(texts)} chart file(s) to {out_dir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    catalog = default_catalog()
    profile = parse_profile(_read_text(args.profile, "profile"), catalog)
    if args.configuration:
        config = parse_configuration(_read_text(args.configuration, "configuration"), catalog)
    else:
        config = catalog.base_configuration()
    cost = simulated_cost(profile, config)
    alarms = synthetic_alarms(profile, config)
    print(f"completed in {cost:.3f} s, {len(alarms)} alarm(s):")
    for alarm in sorted(alarms):
        print(f"  {alarm}")
    return EXIT_OK


@functools.cache  # parse_args leaves a parser as it was, so every main call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategy-tuner",
        description="Adaptive tuner for black-box static analyzer parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="run config file (key = value lines)")
        p.add_argument("--program", help="target program for the subprocess backend")
        p.add_argument("--profile", help="synthetic profile file")
        p.add_argument("--processes", help="parallel analyses")
        p.add_argument("--out", default=None, help="output directory")

    p_tune = sub.add_parser("tune", help="run the sample-analyze-refine loop")
    add_run_flags(p_tune)
    p_tune.add_argument("--seed")
    p_tune.add_argument("--budget", help="time budget in seconds")
    p_tune.add_argument("--samples", help="configurations per iteration")
    p_tune.add_argument("--max-iterations", dest="max_iterations")
    p_tune.set_defaults(func=cmd_tune)

    p_report = sub.add_parser("report", help="write a run's result files again from its trace")
    p_report.add_argument("out", type=Path, help="output directory of a tune run")
    p_report.set_defaults(func=cmd_report)

    p_dom = sub.add_parser("dominancy", help="score per-parameter influence")
    add_run_flags(p_dom)
    p_dom.add_argument("low", help="low-precision baseline configuration file")
    p_dom.add_argument("high", help="high-precision baseline configuration file")
    p_dom.add_argument("--timeout", help="per-analysis timeout")
    p_dom.set_defaults(func=cmd_dominancy)

    p_plot = sub.add_parser("plot", help="emit evolution charts from a trace")
    p_plot.add_argument("trace", help="trace.ndjson path")
    p_plot.add_argument("--out", default=None, help="chart output directory")
    p_plot.set_defaults(func=cmd_plot)

    p_sim = sub.add_parser("simulate", help="print a configuration's simulated cost and alarms")
    p_sim.add_argument("profile", help="synthetic profile file")
    p_sim.add_argument("--configuration", help="configuration file (defaults to catalog bases)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the one place where an error becomes an exit code
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at interpreter exit
        return status
    except BrokenPipeError:  # the reader closed stdout: the exit flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except LatticeMismatchError:
        raise  # a programming bug: keep its traceback
    except TunerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, AnalyzerUnavailableError):
            return EXIT_ANALYZER_UNAVAILABLE
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
