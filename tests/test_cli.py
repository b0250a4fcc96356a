"""Command surface: exit codes, emitted files, and wiring."""

from __future__ import annotations

import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stx

from strategy_tuner import (
    AdapterConfig,
    Configuration,
    IntVal,
    LatticeMismatchError,
    SyntheticAnalyzer,
    TunerSettings,
    default_catalog,
    parse_configuration,
    parse_profile,
    serialize_configuration,
    tune,
)
from strategy_tuner import cli
from strategy_tuner.cli import main
from strategy_tuner.errors import shown
from strategy_tuner.keytree import parse_keytree
from strategy_tuner.trace import read_trace, run_to_json
from test_golden import GOLDEN, SCENARIOS

SAMPLES = Path(__file__).parent.parent / "samples"

PROFILE = SAMPLES / "synthetic_slevel.profile"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def run_python(*argv: str, stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    """A child interpreter with ``argv``, importing this checkout's ``src``.

    Its standard error is captured, and so is its standard output unless
    ``stdout`` names another descriptor.
    """
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


def write_baselines(directory: Path) -> tuple[Path, Path]:
    """A low and a high baseline that differ in slevel only."""
    low = default_catalog().bottom_configuration()
    high = low.replace("slevel", IntVal(104))
    low_path = directory / "low.conf"
    high_path = directory / "high.conf"
    low_path.write_text(serialize_configuration(low), encoding="utf-8")
    high_path.write_text(serialize_configuration(high), encoding="utf-8")
    return low_path, high_path


@pytest.fixture
def analyses(monkeypatch) -> list:
    """The tasks of every synthetic analysis the CLI runs from here on."""
    tasks = []

    class Counting(SyntheticAnalyzer):
        def run(self, task):
            tasks.append(task)
            return super().run(task)

    monkeypatch.setattr(cli, "SyntheticAnalyzer", Counting)
    return tasks


@pytest.fixture(scope="module")
def tuned_dir(tmp_path_factory):
    # a run to its cap: the config turns the patience stop off
    root = tmp_path_factory.mktemp("cli-run")
    out = root / "run"
    conf = root / "run.conf"
    conf.write_text("tuner.patience = none\n", encoding="utf-8")
    status = run_cli(
        "tune",
        "--config",
        str(conf),
        "--profile",
        str(PROFILE),
        "--seed",
        "1",
        "--budget",
        "1000000000",
        "--samples",
        "4",
        "--processes",
        "4",
        "--max-iterations",
        "20",
        "--out",
        str(out),
    )
    assert status == 0
    return out


class TestTune:
    def test_outputs_written(self, tuned_dir):
        assert (tuned_dir / "trace.ndjson").exists()
        assert (tuned_dir / "recommended.conf").exists()
        assert (tuned_dir / "best_sampled.conf").exists()
        assert (tuned_dir / "result.json").exists()
        assert (tuned_dir / "summary.txt").exists()

    def test_recommended_config_parses_and_converged(self, tuned_dir):
        catalog = default_catalog()
        config = parse_configuration(
            (tuned_dir / "recommended.conf").read_text(encoding="utf-8"), catalog
        )
        assert config["slevel"].value >= 104

    def test_result_json_matches_conf(self, tuned_dir):
        result = json.loads((tuned_dir / "result.json").read_text(encoding="utf-8"))
        catalog = default_catalog()
        config = parse_configuration(
            (tuned_dir / "recommended.conf").read_text(encoding="utf-8"), catalog
        )
        assert result["recommended_config"]["slevel"] == str(config["slevel"].value)

    def test_trace_has_one_record_per_iteration(self, tuned_dir):
        lines = (tuned_dir / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        result = json.loads((tuned_dir / "result.json").read_text(encoding="utf-8"))
        assert len(lines) == result["iterations"] == 20

    def test_result_and_summary_name_the_rule_that_ended_the_run(self, tuned_dir, tmp_path):
        result = json.loads((tuned_dir / "result.json").read_text(encoding="utf-8"))
        assert result["stopped_by"] == "max_iterations"
        summary = (tuned_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert "stopped by:      max_iterations" in summary
        # the same run under the default patience ends once its bases stop
        out = tmp_path / "run"
        flags = "--seed 1 --budget 1000000000 --samples 4 --processes 4 --max-iterations 20"
        assert run_cli("tune", "--profile", str(PROFILE), *flags.split(), "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["stopped_by"] == "patience"
        assert result["iterations"] < 20
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert "stopped by:      patience" in summary

    @pytest.mark.parametrize(
        "budget, rule, records",
        [("1e13", "patience", 10), ("1e17", "stalled", 1)],
        ids=["near-hang", "stalled"],
    )
    def test_an_uncapped_run_with_a_huge_budget_ends(self, tmp_path, budget, rule, records):
        # at 1e13 each iteration shrank the budget by a tiny share of
        # itself, and the run wrote 15,657 records in 10 s; patience ends it
        profile = SAMPLES / "convergence.profile"
        conf = tmp_path / "run.conf"
        conf.write_text(f"profile = {profile}\ntuner.time_budget = {budget}\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli("tune", "--config", str(conf), "--out", str(out)) == 0
        lines = (out / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["stopped_by"] == rule
        assert 1 <= len(lines) == result["iterations"] <= records

    def test_config_file_backend(self, tmp_path):
        out = tmp_path / "run"
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"profile = {PROFILE}\n"
            f"out = {out}\n"
            "tuner.time_budget = 1000000000\n"
            "tuner.seed = 1\n"
            "tuner.max_iterations = 3\n",
            encoding="utf-8",
        )
        assert run_cli("tune", "--config", str(conf)) == 0
        assert (out / "trace.ndjson").exists()

    @pytest.mark.parametrize("rule", ["paper", "evidence"])
    def test_refinement_key_reaches_the_tuner(self, tmp_path, rule):
        profile = SAMPLES / "convergence.profile"
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"profile = {profile}\ntuner.time_budget = 1000000000\n"
            f"tuner.max_iterations = 14\ntuner.refinement = {rule}\n",
            encoding="utf-8",
        )
        assert run_cli("tune", "--config", str(conf), "--out", str(tmp_path / "run")) == 0
        catalog = default_catalog()
        analyzer = SyntheticAnalyzer(parse_profile(profile.read_text(encoding="utf-8"), catalog))
        settings = TunerSettings(time_budget=1e9, max_iterations=14, refinement=rule)
        expected = tune("synthetic", catalog, settings, analyzer).recommended_config
        written = (tmp_path / "run" / "recommended.conf").read_text(encoding="utf-8")
        assert written == serialize_configuration(expected)

    def test_missing_program_is_config_error(self, capsys):
        assert run_cli("tune") == 2
        assert "program" in capsys.readouterr().err

    def test_both_backends_is_config_error(self, tmp_path):
        assert (
            run_cli(
                "tune", "--profile", str(PROFILE), "--program", "x.c", "--out", str(tmp_path)
            )
            == 2
        )

    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("", encoding="utf-8")
        status = run_cli(
            "tune",
            "--profile",
            str(PROFILE),
            "--budget",
            "2",
            "--out",
            str(blocker),
        )
        assert status == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(blocker)!r}: ")

    @pytest.mark.parametrize(
        "name",
        [
            "trace.ndjson", "run.json", "recommended.conf", "best_sampled.conf", "result.json",
            "summary.txt",
        ],
    )
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, analyses, name):
        # each ended in an OSError traceback with exit 1, and all but the
        # trace only after the whole budget was spent
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        flags = ("--profile", str(PROFILE), "--max-iterations", "2", "--out", str(out))
        assert run_cli("tune", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out / name)!r}: ")
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert analyses == []
        if name == "trace.ndjson":  # the first file claimed, so no other file was made
            assert [path.name for path in out.iterdir()] == [name]
        (out / name).rmdir()
        assert run_cli("tune", *flags) == 0 and analyses

    @pytest.mark.parametrize("line", ["", "adapter.command = true {args} {program}\n"])
    def test_program_without_adapter_is_config_error(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text("program = x.c\n" + line, encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli("tune", "--config", str(conf), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: subprocess backend requires 'adapter.command' and 'adapter.pattern'\n"
        )
        assert not out.exists()

    def test_subprocess_backend_from_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "program = x.c\n"
            "adapter.command = printf 'w:%s:%s\\n' a b c d\n"
            "adapter.pattern = ^w:(\\w+):(\\w+)$\n"
            "adapter.env = HOME\n"
            "tuner.max_iterations = 2\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run_cli("tune", "--config", str(conf), "--out", str(out)) == 0
        run = cli.load_run_config(cli.build_parser().parse_args(["tune", "--config", str(conf)]))
        assert run.adapter.env_passthrough == ("HOME",)
        assert run.program_ref() == "x.c"
        lines = (out / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for record in map(json.loads, lines):
            assert record["alarm_universe"] == ["a:b", "c:d"]
            assert {tuple(o["alarms"]) for o in record["outcomes"]} == {("a:b", "c:d")}

    @pytest.mark.parametrize("command", ["tune", "dominancy"])
    def test_unknown_adapter_command_exits_3(self, tmp_path, capsys, command):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "program = x.c\n"
            "adapter.command = no-such-analyzer-zzz {args} {program}\n"
            "adapter.pattern = warn:(.*)\n",
            encoding="utf-8",
        )
        baselines = write_baselines(tmp_path) if command == "dominancy" else ()
        out = str(tmp_path / "o")
        assert run_cli(command, "--config", str(conf), "--out", out, *map(str, baselines)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: adapter command not found") and "Traceback" not in err
        assert not Path(out).exists()

    def test_program_as_the_command_runs(self, tmp_path):
        # before: the lookup searched PATH for '{program}' itself and exited 3
        program = tmp_path / "analyzer.sh"
        program.write_text("#!/bin/sh\necho warn:a\n", encoding="utf-8")
        program.chmod(0o755)
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"program = {program}\n"
            "adapter.command = {program} {args}\n"
            "adapter.pattern = warn:(.*)\n"
            "tuner.max_iterations = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("tune", "--config", str(conf), "--out", str(out)) == 0
        record = json.loads((out / "trace.ndjson").read_text(encoding="utf-8"))
        assert record["alarm_universe"] == ["a"]

    def test_programming_bug_keeps_its_traceback(self, tmp_path, monkeypatch):
        # a LatticeMismatchError is a bug in the tool, not a bad input:
        # it is not reported as a configuration error
        def broken_tune(*args, **kwargs):
            raise LatticeMismatchError("meet of int and bool")

        monkeypatch.setattr(cli, "tune", broken_tune)
        with pytest.raises(LatticeMismatchError, match="meet of int and bool"):
            run_cli("tune", "--profile", str(PROFILE), "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("rerun", ["no-iteration", "all-timed-out"])
    def test_rerun_with_no_best_sample_leaves_no_best_sampled_conf(self, tmp_path, rerun):
        # the first run's file stayed behind, beside a result.json whose
        # best sample is null
        out = tmp_path / "run"
        flags = ("--profile", str(PROFILE), "--max-iterations", "2", "--out", str(out))
        assert run_cli("tune", *flags) == 0
        assert (out / "best_sampled.conf").exists()
        if rerun == "no-iteration":
            flags = ("--profile", str(PROFILE), "--max-iterations", "0")
        else:
            slow = tmp_path / "slow.profile"
            text = PROFILE.read_text(encoding="utf-8")
            slow.write_text(text.replace("cost.base = 0.05", "cost.base = 100"), encoding="utf-8")
            flags = ("--profile", str(slow), "--budget", "10", "--max-iterations", "2")
        assert run_cli("tune", *flags, "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["iterations"] == (0 if rerun == "no-iteration" else 2)
        assert result["best_sampled"] is None
        assert not (out / "best_sampled.conf").exists()

    def test_reproducible_trace_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                run_cli(
                    "tune",
                    "--profile",
                    str(PROFILE),
                    "--seed",
                    "7",
                    "--budget",
                    "1000000000",
                    "--max-iterations",
                    "6",
                    "--out",
                    str(out),
                )
                == 0
            )
            outs.append((out / "trace.ndjson").read_bytes())
        assert outs[0] == outs[1]


RESULT_FILES = ("recommended.conf", "best_sampled.conf", "result.json", "summary.txt")


class TestReport:
    """``report`` writes a run's result files from its run file and trace."""

    # Each run's name and the rule that ends it, and the run's tune flags.
    RUNS = {
        ("max_iterations", "max_iterations"): "--profile {profile} --max-iterations 3",
        ("patience", "patience"): "--profile {profile} --samples 3 --processes 2",
        ("no-iteration", "max_iterations"): "--profile {profile} --max-iterations 0",
        ("budget", "budget"): "--config {unpatient} --profile {slow} --budget 10 --processes 4",
        ("stalled", "stalled"): "--config {huge}",
        ("smoke", "patience"): "--config {smoke}",
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory) -> Path:
        """Output directories of tune runs that end by each rule; the slow ones complete nothing."""
        root = tmp_path_factory.mktemp("report")
        slow, unpatient, huge = root / "slow.profile", root / "unpatient.conf", root / "huge.conf"
        text = PROFILE.read_text(encoding="utf-8").replace("cost.base = 0.05", "cost.base = 100")
        slow.write_text(text, encoding="utf-8")
        unpatient.write_text("tuner.patience = none\n", encoding="utf-8")
        huge.write_text(
            f"profile = {SAMPLES / 'convergence.profile'}\ntuner.time_budget = 1e17\n", "utf-8"
        )
        smoke = root / "smoke.conf"  # samples/tune_synthetic.conf, its profile found from anywhere
        text = (SAMPLES / "tune_synthetic.conf").read_text(encoding="utf-8")
        smoke.write_text(text.replace("samples/", f"{SAMPLES}/"), encoding="utf-8")
        for (name, _), flags in self.RUNS.items():
            paths = dict(profile=PROFILE, slow=slow, unpatient=unpatient, huge=huge, smoke=smoke)
            argv = flags.format(**paths).split()
            assert run_cli("tune", *argv, "--out", str(root / name)) == 0
        return root

    @pytest.mark.parametrize("name, rule", list(RUNS))
    def test_report_writes_the_result_files_tune_wrote(self, runs, tmp_path, capsys, name, rule):
        out = tmp_path / name
        shutil.copytree(runs / name, out)
        for file in RESULT_FILES:
            (out / file).unlink(missing_ok=True)
        capsys.readouterr()
        assert run_cli("report", str(out)) == 0
        assert capsys.readouterr().out.startswith(f"wrote the result files of {out} (")
        written = sorted(path.name for path in (runs / name).iterdir())
        assert sorted(path.name for path in out.iterdir()) == written
        for file in written:
            assert (out / file).read_bytes() == (runs / name / file).read_bytes(), file
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["stopped_by"] == rule

    def test_summary_gives_each_iteration_its_budget_and_deadline(self, runs):
        result = json.loads((runs / "budget" / "result.json").read_text(encoding="utf-8"))
        lines = (runs / "budget" / "summary.txt").read_text(encoding="utf-8").splitlines()
        budget = [line for line in lines if line.startswith("iteration ")]
        assert len(budget) == result["iterations"] >= 2
        # 4 samples on 4 workers: one wave, so each deadline is half the budget left
        assert budget[0] == "iteration 0:     10.000 s left, deadline 5.000 s"
        assert budget[1] == "iteration 1:     5.000 s left, deadline 2.500 s"

    @staticmethod
    def _golden_run(out: Path, name: str, **settings) -> list[dict]:
        """``out`` made the run directory of golden scenario ``name``; its trace's records."""
        run = TunerSettings(**{**SCENARIOS[name][1], **settings})
        run_json = run_to_json(run, default_catalog().initial_distributions())
        (out / "run.json").write_text(json.dumps(run_json), encoding="utf-8")
        text = (GOLDEN / f"{name}.ndjson").read_text(encoding="utf-8")
        (out / "trace.ndjson").write_text(text, encoding="utf-8")
        return [json.loads(line) for line in text.splitlines()]

    @pytest.mark.parametrize("name", ["convergence", "mixed", "mixed-evidence"])
    def test_a_cut_trace_names_no_stop_rule(self, tmp_path, capsys, name):
        # a run stopped early, as by Ctrl-C, wrote a prefix of its trace:
        # report gives its results so far, and says no stop rule held
        self._golden_run(tmp_path, name)
        lines = (tmp_path / "trace.ndjson").read_text(encoding="utf-8").splitlines(keepends=True)
        for k in range(len(lines)):
            (tmp_path / "trace.ndjson").write_text("".join(lines[:k]), encoding="utf-8")
            assert run_cli("report", str(tmp_path)) == 0
            result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
            assert result["stopped_by"] is None and result["iterations"] == k
            summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
            assert summary[2] == "stopped by:      none: no stop rule held, the run was cut short"
        capsys.readouterr()

    @staticmethod
    def _edit(run: dict, path: str, value) -> dict:
        """``run`` with the field at the dotted ``path`` set to ``value``, or deleted for None."""
        *parents, last = path.split(".")
        obj = run
        for key in parents:
            obj = obj[key]
        if value is None:
            del obj[last]
        else:
            obj[last] = value
        return run

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("settings.patience", 0, "patience must be an int >= 1 or None, got 0"),
            ("settings.seed", True, "seed must be an int, got True"),
            ("settings.time_budget", "60", "time_budget must be a positive finite number, got '60'"),
            ("settings.refinement", "contrast", "refinement must be 'paper' or 'evidence'"),
            ("settings.patience", None,
             "settings names nothing as setting 6, where the tuner's is 'patience'"),
            ("settings.min_slice", 1.0,
             "settings names 'min_slice' as setting 7, where the tuner's is nothing"),
            ("schema", 2, "unsupported schema 2"),
            ("schema", True, "unsupported schema True"),
            ("schema", None, "unsupported schema None"),
            ("settings", None, "'settings'"),
            ("initial_distributions.slevel.delta.kind", "normal", "unknown delta kind 'normal'"),
            ("initial_distributions.x/y", {"base": "0", "delta": {"kind": "poisson", "lambda": 1}},
             "parameter name 'x/y'"),
        ],
        ids=[
            "patience-0", "seed-bool", "budget-string", "refinement", "missing-setting",
            "extra-setting", "schema-2", "schema-bool", "no-schema", "no-settings", "delta-kind",
            "parameter-name",
        ],
    )
    def test_a_malformed_run_file_names_its_fault(self, runs, tmp_path, capsys, path, value, message):
        out = tmp_path / "run"
        shutil.copytree(runs / "max_iterations", out)
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        (out / "run.json").write_text(json.dumps(self._edit(run, path, value)), encoding="utf-8")
        before = (out / "result.json").read_bytes()
        assert run_cli("report", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: run file is malformed: {message}")
        assert err.count("\n") == 1 and len(err) < 300
        assert (out / "result.json").read_bytes() == before

    @pytest.mark.parametrize(
        "text, line",
        [('{\n  "schema": 1,\n  "settings": {,\n}\n', 3), ("[" * 100_000, None), ("", 1)],
        ids=["syntax", "deep", "empty"],
    )
    def test_a_run_file_that_is_not_json(self, runs, tmp_path, capsys, text, line):
        out = tmp_path / "run"
        shutil.copytree(runs / "max_iterations", out)
        (out / "run.json").write_text(text, encoding="utf-8")
        assert run_cli("report", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run file is malformed: ")
        assert err.count("\n") == 1 and len(err) < 300
        if line is not None:
            assert f": line {line} column " in err

    @pytest.mark.parametrize("missing", ["run.json", "trace.ndjson"])
    def test_a_missing_file(self, runs, tmp_path, capsys, missing):
        out = tmp_path / "run"
        shutil.copytree(runs / "max_iterations", out)
        (out / missing).unlink()
        assert run_cli("report", str(out)) == 2
        what = "run file" if missing == "run.json" else "trace"
        assert capsys.readouterr().err == (
            f"error: cannot read {what} {str(out / missing)!r}: No such file or directory\n"
        )

    def test_an_int_budget_in_the_run_file_gives_a_float_total(self, runs, tmp_path):
        # report wrote "wall_time_total": 0 where tune wrote 0.0
        out = tmp_path / "run"
        shutil.copytree(runs / "no-iteration", out)
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        run["settings"]["time_budget"] = 1_000_000_000
        (out / "run.json").write_text(json.dumps(run), encoding="utf-8")
        assert run_cli("report", str(out)) == 0
        assert '"wall_time_total": 0.0,' in (out / "result.json").read_text(encoding="utf-8")

    @staticmethod
    def _rejected(out: Path, capsys, message: str) -> None:
        """report exits 2 with the one line ``message`` and writes no result file."""
        assert run_cli("report", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(path.name for path in out.iterdir()) == ["run.json", "trace.ndjson"]

    @pytest.mark.parametrize("last", [True, False], ids=["last", "middle"])
    def test_a_base_the_rule_does_not_give(self, tmp_path, capsys, last):
        # report took any base the deltas and the chain allowed: slevel = 5000
        records = self._golden_run(tmp_path, "convergence")
        index = len(records) - 1 if last else 3
        after = records[index]["distributions_after"]["slevel"]
        want, after["base"] = after["base"], "5000"
        if not last:  # the next record starts from the edited one, so the chain holds
            records[index + 1]["distributions_before"]["slevel"]["base"] = "5000"
        lines = "".join(json.dumps(record) + "\n" for record in records)
        (tmp_path / "trace.ndjson").write_text(lines, encoding="utf-8")
        self._rejected(tmp_path, capsys, (
            f"trace record {index} is malformed: distributions_after gives parameter "
            f"'slevel' the base '5000', not {want!r} under 'paper'"
        ))

    @staticmethod
    def _smoke(runs: Path, out: Path) -> list[dict]:
        """``out`` made a copy of the smoke run with no result file; its trace's records."""
        shutil.copytree(runs / "smoke", out)
        for file in RESULT_FILES:
            (out / file).unlink()
        return [json.loads(line) for line in (out / "trace.ndjson").read_text("utf-8").splitlines()]

    @pytest.mark.parametrize(
        "settings, message",
        [
            (
                {"max_iterations": 2, "patience": 1},
                "1 is malformed: the run stopped by patience before it",
            ),
            ({"max_iterations": 1}, "1 is malformed: the run stopped by max_iterations before it"),
            ({"time_budget": 0.2}, "0 is malformed: the run stopped by budget before it"),
            ({"num_sample": 3}, "0 is malformed: 4 samples, where num_sample is 3"),
        ],
        ids=["patience", "max_iterations", "budget", "num_sample"],
    )
    def test_a_trace_its_run_file_could_not_write(self, runs, tmp_path, capsys, settings, message):
        # report read all 6 records of a run whose settings end it sooner, and
        # wrote "iterations: 6" or "-0.050 s left" beside "stopped by: patience",
        # or took 4 configurations a record from a run that samples 3
        out = tmp_path / "run"
        self._smoke(runs, out)
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        run["settings"].update(settings)
        (out / "run.json").write_text(json.dumps(run), encoding="utf-8")
        self._rejected(out, capsys, f"trace record {message}")

    def test_the_first_offending_record_is_named(self, runs, tmp_path, capsys):
        # report checked the bases only after reading every line, so it
        # named the cut record 5 and not record 1, whose base is wrong
        out = tmp_path / "run"
        records = self._smoke(runs, out)
        after = records[1]["distributions_after"]["slevel"]
        want, after["base"] = after["base"], "5000"
        records[2]["distributions_before"]["slevel"]["base"] = "5000"
        lines = [json.dumps(record) for record in records]
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        (out / "trace.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._rejected(out, capsys, (
            f"trace record 1 is malformed: distributions_after gives parameter "
            f"'slevel' the base '5000', not {want!r} under 'paper'"
        ))

    @pytest.mark.parametrize(
        "name, rule, parameter, got, want",
        [
            ("convergence", "evidence", "auto-loop-unroll", "6", "0"),
            ("mixed", "evidence", "split-return", "false", "true"),
            ("mixed-evidence", "paper", "split-return", "true", "false"),
        ],
    )
    def test_a_trace_of_the_other_rule(self, tmp_path, capsys, name, rule, parameter, got, want):
        # report read a trace refined by one rule as a run of the other
        self._golden_run(tmp_path, name, refinement=rule)
        self._rejected(tmp_path, capsys, (
            f"trace record 0 is malformed: distributions_after gives parameter "
            f"{parameter!r} the base {got!r}, not {want!r} under {rule!r}"
        ))

    def test_the_trace_must_start_where_the_run_file_does(self, runs, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(runs / "max_iterations", out)
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        run["initial_distributions"]["slevel"]["delta"]["lambda"] += 1.0
        (out / "run.json").write_text(json.dumps(run), encoding="utf-8")
        assert run_cli("report", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: trace record 0 is malformed: distributions_before are not the run "
            "file's: 'slevel' differs\n"
        )


# Small profiles over one parameter of each kind: each alarm needs one
# value, or nothing can eliminate it.
_REQUIREMENT = stx.one_of(
    stx.integers(1, 60).map(lambda n: f"requires.slevel = {n}"),
    stx.just("requires.split-return = true"),
    stx.integers(1, 31).map(lambda m: f"requires.domains = {m:05b}"),
    stx.just("incompressible = true"),
)


class TestReadBack:
    @given(
        requirements=stx.lists(_REQUIREMENT, min_size=1, max_size=4),
        weight=stx.sampled_from(["0", "0.5", "3"]),
        seed=stx.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_every_file_tune_writes_reads_back(self, requirements, weight, seed):
        catalog = default_catalog()
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            profile = root / "run.profile"
            costs = "cost.base = 0.5\n" + "".join(
                f"cost.weight.{name} = {weight}\n" for name in ("slevel", "domains")
            )
            alarms = "".join(f"alarm.a{i}.{req}\n" for i, req in enumerate(requirements))
            profile.write_text(costs + alarms, encoding="utf-8")
            out = root / "run"
            flags = f"--seed {seed} --budget 60 --max-iterations 6".split()
            assert run_cli("tune", "--profile", str(profile), *flags, "--out", str(out)) == 0
            records = read_trace((out / "trace.ndjson").read_text(encoding="utf-8"))
            result = json.loads((out / "result.json").read_text(encoding="utf-8"))
            assert len(records) == result["iterations"] >= 1
            recommended = parse_configuration(
                (out / "recommended.conf").read_text(encoding="utf-8"), catalog
            )
            after = records[-1].distributions_after
            bases = tuple(after[name].base for name in catalog.names)
            assert recommended == Configuration(catalog.names, bases)
            best = result["best_sampled"]
            assert (out / "best_sampled.conf").exists() == (best is not None)
            if best is not None:
                from_json = "".join(f"{n} = {v}\n" for n, v in best["config"].items())
                assert parse_configuration(
                    (out / "best_sampled.conf").read_text(encoding="utf-8"), catalog
                ) == parse_configuration(from_json, catalog)


# A run config for each backend, as its keys and values.
_BACKENDS = {
    "synthetic": {"profile": str(PROFILE)},
    "subprocess": {
        "program": "x.c",
        "adapter.command": "true {args} {program}",
        "adapter.pattern": "warn:(.*)",
    },
}

# For each run-config key: the backend it is tried with, and a valid
# value that differs from what the key's absence gives.
_NON_DEFAULT = {
    "program": ("subprocess", "y.c"),
    "profile": ("synthetic", str(SAMPLES / "convergence.profile")),
    "out": ("synthetic", "elsewhere"),
    "catalog": ("synthetic", "{tmp_path}/override.catalog"),
    "adapter.command": ("subprocess", "false {args} {program}"),
    "adapter.pattern": ("subprocess", "alarm:(.*)"),
    "adapter.env": ("subprocess", "HOME"),
    "tuner.time_budget": ("synthetic", "60"),
    "tuner.num_sample": ("synthetic", "8"),
    "tuner.num_process": ("synthetic", "2"),
    "tuner.seed": ("synthetic", "7"),
    "tuner.max_iterations": ("synthetic", "5"),
    "tuner.refinement": ("synthetic", "evidence"),
    "tuner.patience": ("synthetic", "none"),
}


def _load_entries(tmp_path: Path, entries: dict[str, str]) -> cli.RunConfig:
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()), "utf-8")
    return cli.load_run_config(cli.build_parser().parse_args(["tune", "--config", str(conf)]))


class TestRejectedValues:
    """Unusable values stop ``tune`` with exit 2 before any analysis runs."""

    def _tune_config(self, tmp_path, text: str) -> int:
        conf = tmp_path / "run.conf"
        conf.write_text(text, encoding="utf-8")
        return run_cli("tune", "--config", str(conf), "--out", str(tmp_path / "out"))

    def test_infinite_catalog_base(self, tmp_path, capsys):
        overrides = tmp_path / "catalog.txt"
        overrides.write_text("slevel.lambda = 7\nslevel.base = inf\n", encoding="utf-8")
        text = f"profile = {PROFILE}\ncatalog = {overrides}\ntuner.max_iterations = 3\n"
        assert self._tune_config(tmp_path, text) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "recommended.conf").exists()

    def test_unknown_catalog_override_field(self, tmp_path, capsys):
        overrides = tmp_path / "catalog.txt"
        overrides.write_text("slevel.lambda = 7\nslevel.colour = x\n", encoding="utf-8")
        assert self._tune_config(tmp_path, f"profile = {PROFILE}\ncatalog = {overrides}\n") == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: unknown override field 'colour'\n"

    def test_infinite_budget_flag(self, tmp_path, capsys):
        status = run_cli(
            "tune", "--profile", str(PROFILE), "--budget", "inf", "--out", str(tmp_path)
        )
        assert status == 2
        assert capsys.readouterr().err == "error: bad value for --budget: 'inf'\n"

    # tuner.min_slice is a constant now, so any value of it is an unknown key
    @pytest.mark.parametrize("key", ["tuner.time_budget", "tuner.min_slice"])
    def test_infinite_settings_key(self, tmp_path, capsys, key):
        text = f"profile = {PROFILE}\ntuner.max_iterations = 2\n{key} = inf\n"
        assert self._tune_config(tmp_path, text) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["contrast", "Evidence", ""])
    def test_unknown_refinement_rule(self, tmp_path, capsys, rule):
        text = f"profile = {PROFILE}\ntuner.max_iterations = 1\ntuner.refinement = {rule}\n"
        assert self._tune_config(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: refinement must be 'paper' or 'evidence'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "tuner.num_samples = 8",
            "tuner.budjet = 5",
            "adapter.comand = foo",
            "tuner.min_slice = 1",
            "tuner.iteration_fraction = 0.5",
            "adapter.grace = 2",
            "adapter.join = :",
        ],
    )
    def test_unknown_key(self, tmp_path, capsys, line):
        text = f"profile = {PROFILE}\ntuner.max_iterations = 1\n{line}\n"
        assert self._tune_config(tmp_path, text) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert err == f"error: line 3: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("other", ["\f", "\v", "\x85", "\u2028"])
    def test_line_numbers_count_only_newlines_and_carriage_returns(self, tmp_path, capsys, other):
        # str.splitlines would end a line at the form feed too, and report line 4
        text = f"profile = {PROFILE}\n{other}\ntuner.max_iterations = x\n"
        assert self._tune_config(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: bad value for 'tuner.max_iterations': 'x'\n"

    @pytest.mark.parametrize("raw", ["0", "-1", "2.5", "None", "off", ""])
    def test_bad_patience(self, tmp_path, capsys, raw):
        text = f"profile = {PROFILE}\ntuner.max_iterations = 2\ntuner.patience = {raw}\n"
        assert self._tune_config(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and "patience" in err
        assert not (tmp_path / "out").exists()

    # 401 digits: an int past a float's range
    HUGE = "1" + "0" * 400

    def _one_error_line(self, capsys, start: str) -> None:
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, field", [("--processes", "num_process"), ("--samples", "num_sample")]
    )
    def test_huge_count_flag(self, tmp_path, capsys, flag, field):
        # before: --processes ended tune in ZeroDivisionError and --samples in
        # OverflowError, each after making the output directory; a count's
        # text has at most 309 digits, so the flag's text is rejected
        out = tmp_path / "out"
        assert run_cli("tune", "--profile", str(PROFILE), flag, self.HUGE, "--out", str(out)) == 2
        self._one_error_line(capsys, f"error: bad value for {flag}: '1000")
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, flag, message",
        [
            ("tuner.num_sample = abc", "--samples 4", "bad value for 'tuner.num_sample': 'abc'"),
            ("tuner.seed = 1.5", "--seed 1", "bad value for 'tuner.seed': '1.5'"),
            ("tuner.num_process = 0", "--processes 2", "num_process must be an int >= 1, got 0"),
        ],
        ids=["samples", "seed", "processes"],
    )
    def test_a_file_value_is_checked_when_a_flag_overrides_it(
        self, tmp_path, capsys, line, flag, message
    ):
        # before: the flag's value was used and the file's never read, so each ran and exited 0
        conf = tmp_path / "run.conf"
        conf.write_text(f"profile = {PROFILE}\n{line}\ntuner.max_iterations = 1\n", "utf-8")
        out = tmp_path / "out"
        assert run_cli("tune", "--config", str(conf), *flag.split(), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    def test_huge_count_settings_key(self, tmp_path, capsys):
        text = f"profile = {PROFILE}\ntuner.max_iterations = 1\ntuner.num_process = {self.HUGE}\n"
        assert self._tune_config(tmp_path, text) == 2
        self._one_error_line(capsys, "error: line 3: bad value for 'tuner.num_process': '1000")
        assert not (tmp_path / "out").exists()

    def test_huge_catalog_base(self, tmp_path, capsys):
        # before: it loaded, and every analysis crashed in OverflowError
        overrides = tmp_path / "catalog.txt"
        overrides.write_text(f"slevel.base = {self.HUGE}\n", encoding="utf-8")
        text = f"profile = {PROFILE}\ncatalog = {overrides}\ntuner.max_iterations = 1\n"
        assert self._tune_config(tmp_path, text) == 2
        self._one_error_line(capsys, "error: line 1: expected a count: ASCII digits")
        assert not (tmp_path / "out").exists()

    def test_huge_profile_requirement(self, tmp_path, capsys):
        # before: it loaded, and every analysis crashed in OverflowError
        profile = tmp_path / "huge.profile"
        profile.write_text(
            f"alarm.a.requires.slevel = 3\nalarm.b.requires.slevel = {self.HUGE}\n",
            encoding="utf-8",
        )
        text = f"profile = {profile}\ntuner.max_iterations = 1\n"
        assert self._tune_config(tmp_path, text) == 2
        self._one_error_line(capsys, "error: line 2: expected a count: ASCII digits")
        assert not (tmp_path / "out").exists()

    def test_huge_base_in_a_trace(self, tmp_path, capsys):
        # the record a run with a huge catalog base wrote: before, plot ended
        # in an OverflowError traceback
        golden = Path(__file__).parent / "data" / "golden" / "convergence.ndjson"
        record = json.loads(golden.read_text(encoding="utf-8").splitlines()[0])
        for field in ("distributions_before", "distributions_after"):
            record[field]["slevel"]["base"] = self.HUGE
        bad = tmp_path / "huge.ndjson"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run_cli("plot", str(bad), "--out", str(tmp_path / "plots")) == 2
        self._one_error_line(capsys, "error: trace record 0 is malformed: expected a count")

    LONG = "x" * 5000
    DIGITS = "1" + "0" * 5000  # 5001 digits

    @pytest.mark.parametrize(
        "config, catalog, profile",
        [
            (f"{LONG} = 1", "", ""),
            (f"a {LONG} = 1", "", ""),
            (f"tuner.seed = {DIGITS}", "", ""),
            (f"tuner.num_sample = {LONG}", "", ""),
            (f"tuner.refinement = {LONG}", "", ""),
            (f"program = x\nadapter.command = {LONG}\nadapter.pattern = a", "", None),
            (f"program = x\nadapter.command = {LONG}{{{LONG}}}\nadapter.pattern = a", "", None),
            ("", f"domains.base = {DIGITS}", ""),
            ("", f"domains.base = {LONG}", ""),
            ("", f"slevel.lambda = {DIGITS}", ""),
            ("", f"slevel.lambda = 2{'0' * 5000}e-4990", ""),
            ("", f"split-return.q = {LONG}", ""),
            ("", f"domains.labels = {LONG},,c,d,e", ""),
            ("", f"{LONG}.flag = x", ""),
            ("", f"slevel.{LONG} = x", ""),
            ("", "", f"cost.base = {DIGITS}"),
            ("", "", f"cost.weight.{LONG} = 1"),
            ("", "", f"alarm.a.incompressible = {LONG}"),
            ("", "", f"alarm.a.requires.slevel = {DIGITS}"),
            ("", "", f"alarm.a.requires.split-return = {LONG}"),
            ("", "", f"{LONG} = 1"),
            ("", "", f"alarm.a.requires.slevel = 3\ntwist.{LONG}.slevel = 3"),
            ("", "", f"alarm.{LONG}.incompressible = true\nalarm.{LONG}.requires.slevel = 3"),
        ],
        ids=[
            "unknown-key", "key-with-space", "seed", "num_sample", "refinement",
            "adapter-command", "adapter-placeholder", "base-digits", "bits", "lambda",
            "lambda-above-cap", "q", "labels", "override-parameter", "override-field", "cost",
            "weight-parameter", "incompressible", "requirement", "boolean", "profile-key",
            "twist-alarm", "incompressible-and-required",
        ],
    )
    def test_an_error_line_abbreviates_outside_text(self, tmp_path, capsys, config, catalog, profile):
        # before: each quoted the key or value in full, over 5000 characters
        if catalog:
            (tmp_path / "x.catalog").write_text(catalog + "\n", encoding="utf-8")
            config += f"\ncatalog = {tmp_path / 'x.catalog'}"
        if profile:
            (tmp_path / "x.profile").write_text(profile + "\n", encoding="utf-8")
        if profile is not None:
            config += f"\nprofile = {tmp_path / 'x.profile' if profile else PROFILE}"
        assert self._tune_config(tmp_path, config + "\n") in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
        assert "set_int_max_str_digits" not in err

    @staticmethod
    def _nul_rejected(capsys, tmp_path, status: int, line: int, column: int, *inputs: str) -> None:
        """One error line naming the NUL's place, and no output beside ``inputs``."""
        assert status == 2
        assert capsys.readouterr().err == (
            f"error: line {line}, column {column}: a NUL character is not allowed\n"
        )
        assert sorted(os.listdir(tmp_path)) == sorted(inputs)

    @pytest.mark.parametrize("key", ["out", "catalog", "profile", "program"])
    def test_a_nul_in_a_run_config_value(self, tmp_path, capsys, monkeypatch, key):
        # before: out, catalog and profile ended in a ValueError traceback
        # (embedded null byte) with exit 1, and with program every analysis
        # crashed on that ValueError, the run exiting 0
        monkeypatch.chdir(tmp_path)  # where the default output directory would go
        value = f"{tmp_path}/a\0b"
        backend = {
            "program": "adapter.command = sh {program}\nadapter.pattern = x\n",
            "profile": "",
        }.get(key, f"profile = {PROFILE}\n")
        text = f"tuner.max_iterations = 1\n{key} = {value}\n{backend}"
        (tmp_path / "run.conf").write_text(text, encoding="utf-8")
        status = run_cli("tune", "--config", "run.conf")
        self._nul_rejected(capsys, tmp_path, status, 2, len(f"{key} = {value}") - 1, "run.conf")

    @pytest.mark.parametrize(
        "site, text, column",
        [
            ("catalog", "slevel.lambda = 7\nslevel.flag = -s\0x\n", 17),
            ("catalog", "slevel.lambda = 7\ndomains.labels = a,b\0,c,d,e\n", 21),
            ("profile", "alarm.a.requires.slevel = 3\n# a comment\0\n", 12),
            ("configuration", "slevel = 3\n\0split-return = true\n", 1),
        ],
        ids=["catalog-flag", "catalog-label", "profile-comment", "configuration"],
    )
    def test_a_nul_in_a_file_names_its_line_and_column(
        self, tmp_path, capsys, monkeypatch, site, text, column
    ):
        # every key-value file goes through one grammar, which rejects a NUL
        # anywhere: a flag or a label holding one would reach the analyzer's
        # command line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input").write_text(text, encoding="utf-8")
        if site == "configuration":
            status = run_cli("simulate", str(PROFILE), "--configuration", "input")
            self._nul_rejected(capsys, tmp_path, status, 2, column, "input")
            return
        profile = "input" if site == "profile" else PROFILE
        config = f"profile = {profile}\ntuner.max_iterations = 1\n"
        if site == "catalog":
            config += "catalog = input\n"
        (tmp_path / "run.conf").write_text(config, encoding="utf-8")
        status = run_cli("tune", "--config", "run.conf")
        self._nul_rejected(capsys, tmp_path, status, 2, column, "input", "run.conf")

    def test_every_setting_is_a_run_config_key(self):
        keys = {f"tuner.{field.name}" for field in dataclasses.fields(TunerSettings)}
        assert keys <= cli.RUN_CONFIG_KEYS

    @pytest.mark.parametrize("key", sorted(cli.RUN_CONFIG_KEYS))
    def test_every_run_config_key_reaches_the_run(self, tmp_path, key):
        # the converse of test_every_setting_is_a_run_config_key: no key is dead
        assert key in _NON_DEFAULT, f"no non-default value to try for {key!r}"
        backend, value = _NON_DEFAULT[key]
        (tmp_path / "override.catalog").write_text("slevel.lambda = 5\n", encoding="utf-8")
        base = _BACKENDS[backend]
        changed = {**base, key: value.replace("{tmp_path}", str(tmp_path))}
        assert _load_entries(tmp_path, changed) != _load_entries(tmp_path, base)

    def test_sample_configs_use_known_keys(self):
        for path in SAMPLES.glob("*.conf"):
            keys = parse_keytree(path.read_text(encoding="utf-8")).keys()
            assert set(keys) <= cli.RUN_CONFIG_KEYS, path.name

    @pytest.mark.parametrize("raw", ["soon", "-1", "inf", "nan"])
    def test_bad_adapter_grace(self, tmp_path, capsys, raw):
        # the reap wait is a constant now, so any value of the key is rejected
        text = (
            "program = x.c\n"
            "adapter.command = true {args} {program}\n"
            "adapter.pattern = warn:(.*)\n"
            f"adapter.grace = {raw}\n"
        )
        assert self._tune_config(tmp_path, text) == 2
        assert capsys.readouterr().err == "error: line 4: unknown key 'adapter.grace'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, reason",
        [
            ('sh -c "echo {args}', "No closing quotation"),
            ("true {prog}", "{prog}"),
            ("true {0} {program}", "{0}"),
        ],
    )
    def test_malformed_adapter_command(self, tmp_path, capsys, command, reason):
        text = (
            "program = x.c\n"
            "adapter.pattern = warn:(.*)\n"
            f"adapter.command = {command}\n"
        )
        assert self._tune_config(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "adapter.command" in err and reason in err
        assert "not found" not in err
        assert not (tmp_path / "out" / "trace.ndjson").exists()

    def test_adapter_env_naming_no_variable(self, tmp_path, capsys):
        # it loaded as no names, which forwards the whole environment
        text = (
            "program = x.c\n"
            "adapter.command = true {args} {program}\n"
            "adapter.pattern = warn:(.*)\n"
            "adapter.env = ,\n"
        )
        assert self._tune_config(tmp_path, text) == 2
        assert capsys.readouterr().err == "error: line 4: bad value for 'adapter.env': ','\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tune", "dominancy"])
    def test_malformed_adapter_pattern(self, tmp_path, capsys, command):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "program = x.c\n"
            "adapter.command = true {args} {program}\n"
            "adapter.pattern = (\n",
            encoding="utf-8",
        )
        baselines = write_baselines(tmp_path) if command == "dominancy" else ()
        out = str(tmp_path / "out")
        status = run_cli(command, "--config", str(conf), "--out", out, *map(str, baselines))
        assert status == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "adapter.pattern" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tune", "dominancy", "simulate"])
    def test_negative_profile_cost(self, tmp_path, capsys, command):
        text = PROFILE.read_text(encoding="utf-8")
        profile = tmp_path / "bad.profile"
        profile.write_text(text.replace("cost.base = 0.05", "cost.base = -1"), encoding="utf-8")
        out = str(tmp_path / "out")
        if command == "simulate":
            argv = ["simulate", str(profile)]
        else:
            # one iteration, so that an accepted negative cost cannot run forever
            extra = write_baselines(tmp_path) if command == "dominancy" else ("--max-iterations", 1)
            argv = [command, "--profile", str(profile), "--out", out, *map(str, extra)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ") and "'-1'" in err
        assert not (tmp_path / "out").exists()


class TestRunConfigDefaults:
    """Values that neither a flag nor the file gives keep their dataclass defaults."""

    def _load(self, tmp_path, text: str, *flags: str) -> cli.RunConfig:
        conf = tmp_path / "run.conf"
        conf.write_text(text, encoding="utf-8")
        return cli.load_run_config(
            cli.build_parser().parse_args(["tune", "--config", str(conf), *flags])
        )

    def test_empty_config(self, tmp_path):
        run = self._load(tmp_path, "", "--profile", str(PROFILE))
        assert run.settings == cli.TunerSettings(time_budget=3600.0)

    @pytest.mark.parametrize("extra", ["", "adapter.env =\n"])
    def test_minimal_adapter(self, tmp_path, extra):
        command, pattern = "true {args} {program}", "warn:(.*)"
        text = f"program = x.c\nadapter.command = {command}\nadapter.pattern = {pattern}\n"
        run = self._load(tmp_path, text + extra)
        assert run.adapter == AdapterConfig(command, pattern)

    def test_adapter_env_names_are_stripped(self, tmp_path):
        # the space kept ' LANG', a name no variable has, so LANG was not forwarded
        command, pattern = "true {args} {program}", "warn:(.*)"
        text = f"program = x.c\nadapter.command = {command}\nadapter.pattern = {pattern}\n"
        run = self._load(tmp_path, text + "adapter.env = HOME, LANG\n")
        assert run.adapter == AdapterConfig(command, pattern, env_passthrough=("HOME", "LANG"))

    def test_flag_wins_over_file(self, tmp_path):
        text = f"profile = {PROFILE}\ntuner.seed = 3\ntuner.refinement = evidence\n"
        run = self._load(tmp_path, text, "--seed", "5")
        assert run.settings == cli.TunerSettings(time_budget=3600.0, seed=5, refinement="evidence")

    def test_a_second_main_call_takes_nothing_from_the_first(self, tmp_path, capsys):
        # every main call in a process parses its arguments with one shared parser
        conf = tmp_path / "run.conf"
        text = f"profile = {PROFILE}\ntuner.seed = 7\ntuner.max_iterations = 1\nout = {tmp_path / 'B'}\n"
        conf.write_text(text, encoding="utf-8")
        assert run_cli("tune", "--config", str(conf), "--seed", "5", "--out", str(tmp_path / "A")) == 0
        assert run_cli("tune", "--config", str(conf)) == 0
        runs = [json.loads((tmp_path / out / "run.json").read_text(encoding="utf-8")) for out in "AB"]
        assert [run["settings"]["seed"] for run in runs] == [5, 7]
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / out / 'trace.ndjson'} (1 iterations)" for out in "AB"
        ]

    @pytest.mark.parametrize("raw, patience", [("none", None), ("1", 1), ("7", 7)])
    def test_patience_key(self, tmp_path, raw, patience):
        # `none` reaches the settings as None, not as the default 3
        run = self._load(tmp_path, f"tuner.patience = {raw}\n", "--profile", str(PROFILE))
        assert run.settings.patience == patience


class TestDominancy:
    def test_report_written(self, tmp_path):
        low, high = write_baselines(tmp_path)
        out = tmp_path / "dom"
        status = run_cli(
            "dominancy",
            "--profile",
            str(PROFILE),
            "--out",
            str(out),
            "--timeout",
            "10",
            str(low),
            str(high),
        )
        assert status == 0
        table = (out / "dominancy.txt").read_text(encoding="utf-8")
        assert "dominant parameter: slevel" in table
        report = json.loads((out / "dominancy.json").read_text(encoding="utf-8"))
        assert len(report["scores"]) == 13
        assert report["dominant"] == "slevel"

    def test_equal_baselines_exit_2(self, tmp_path, capsys):
        low, _ = write_baselines(tmp_path)
        status = run_cli(
            "dominancy",
            "--profile",
            str(PROFILE),
            "--out",
            str(tmp_path / "dom"),
            "--timeout",
            "10",
            str(low),
            str(low),
        )
        assert status == 2
        assert capsys.readouterr().err == "error: baselines do not separate: low=2, high=2\n"

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e400"])
    def test_bad_timeout_exit_2(self, tmp_path, capsys, timeout):
        # inf and 1e400 (inf as a float) ran with no deadline
        low, high = write_baselines(tmp_path)
        status = run_cli(
            "dominancy",
            "--profile",
            str(PROFILE),
            "--out",
            str(tmp_path / "dom"),
            "--timeout",
            timeout,
            str(low),
            str(high),
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "timeout" in err
        assert "Traceback" not in err
        assert not (tmp_path / "dom").exists()

    @pytest.mark.parametrize("name", ["dominancy.txt", "dominancy.json"])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, analyses, name):
        # it ended in an OSError traceback after every analysis had run
        low, high = write_baselines(tmp_path)
        out = tmp_path / "dom"
        (out / name).mkdir(parents=True)
        flags = ("--profile", str(PROFILE), "--timeout", "10", "--out", str(out))
        assert run_cli("dominancy", *flags, str(low), str(high)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out / name)!r}: ")
        assert "Traceback" not in err
        assert analyses == []
        (out / name).rmdir()
        assert run_cli("dominancy", *flags, str(low), str(high)) == 0 and analyses

    def test_timeout_defaults_to_the_config_budget(self, tmp_path, analyses):
        low, high = write_baselines(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(f"profile = {PROFILE}\ntuner.time_budget = 9\n", encoding="utf-8")
        argv = ["dominancy", "--config", str(conf), "--out", str(tmp_path / "dom")]
        assert run_cli(*argv, str(low), str(high)) == 0
        assert analyses and {task.timeout for task in analyses} == {9.0}

    def test_tune_only_keys_change_no_output(self, tmp_path):
        # one config serves tune and dominancy: dominancy validates these keys and reads none
        low, high = write_baselines(tmp_path)
        tune_only = (
            "tuner.seed = 5\ntuner.num_sample = 9\ntuner.refinement = evidence\n"
            "tuner.patience = none\ntuner.max_iterations = 0\n"
        )
        outputs = []
        for name, extra in (("plain", ""), ("tune-only", tune_only)):
            conf = tmp_path / f"{name}.conf"
            conf.write_text(f"profile = {PROFILE}\ntuner.time_budget = 10\n{extra}", "utf-8")
            out = tmp_path / name
            argv = ["dominancy", "--config", str(conf), "--out", str(out), str(low), str(high)]
            assert run_cli(*argv) == 0
            outputs.append([(out / f).read_bytes() for f in ("dominancy.txt", "dominancy.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--samples", "4"), ("--budget", "9")])
    def test_tune_only_flags_rejected(self, tmp_path, capsys, analyses, flag, value):
        # --seed and --samples were read by nothing, and --budget only set
        # --timeout's default, which the config's tuner.time_budget still sets
        low, high = write_baselines(tmp_path)
        argv = ["dominancy", "--profile", str(PROFILE), "--out", str(tmp_path / "dom")]
        with pytest.raises(SystemExit) as info:
            run_cli(*argv, str(low), str(high), flag, value)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert analyses == [] and not (tmp_path / "dom").exists()

    def test_bad_baseline_file_exit_2(self, tmp_path):
        low, high = write_baselines(tmp_path)
        low.write_text("slevel = banana\n", encoding="utf-8")
        status = run_cli(
            "dominancy",
            "--profile",
            str(PROFILE),
            "--out",
            str(tmp_path / "dom"),
            str(low),
            str(high),
        )
        assert status == 2


class TestPlot:
    def test_emits_fourteen_charts(self, tuned_dir, tmp_path):
        out = tmp_path / "plots"
        status = run_cli("plot", str(tuned_dir / "trace.ndjson"), "--out", str(out))
        assert status == 0
        assert len(list(out.iterdir())) == 14

    def test_replot_is_byte_identical(self, tuned_dir, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert run_cli("plot", str(tuned_dir / "trace.ndjson"), "--out", str(out1)) == 0
        assert run_cli("plot", str(tuned_dir / "trace.ndjson"), "--out", str(out2)) == 0
        for path in out1.iterdir():
            assert path.read_bytes() == (out2 / path.name).read_bytes()

    def test_missing_trace_exit_2(self, tmp_path, capsys):
        assert run_cli("plot", str(tmp_path / "nope.ndjson")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace") and "Traceback" not in err

    def test_unwritable_chart_dir_exit_2(self, tuned_dir, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("", encoding="utf-8")
        assert run_cli("plot", str(tuned_dir / "trace.ndjson"), "--out", str(blocker)) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(blocker)!r}: ")

    def test_empty_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "empty.ndjson"
        trace.write_text("", encoding="utf-8")
        assert run_cli("plot", str(trace)) == 2
        assert "empty" in capsys.readouterr().err

    def test_malformed_trace_names_record(self, tuned_dir, tmp_path, capsys):
        good = (tuned_dir / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        wrong_type = json.loads(good[1])
        wrong_type["distributions_before"] = 5
        bad = tmp_path / "bad.ndjson"
        for second in ("{broken", "[]", json.dumps(wrong_type)):
            bad.write_text(good[0] + "\n" + second + "\n", encoding="utf-8")
            assert run_cli("plot", str(bad)) == 2
            assert "trace record 1 is malformed" in capsys.readouterr().err

    def test_record_lacking_an_after_distribution_exit_2(self, tuned_dir, tmp_path, capsys):
        lines = (tuned_dir / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        del first["distributions_after"]["slevel"]
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        assert run_cli("plot", str(bad), "--out", str(tmp_path / "plots")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace record 0 is malformed") and "Traceback" not in err

    @pytest.mark.parametrize(
        "name", ["x\0y", "x/../../escaped", "x y"], ids=["nul", "slash", "space"]
    )
    def test_parameter_name_no_catalog_can_use_exit_2(self, tuned_dir, tmp_path, capsys, name):
        # a NUL crashed plot, and a '/' wrote a chart outside the chart directory
        def renamed(mapping: dict) -> dict:
            return {name if key == "slevel" else key: value for key, value in mapping.items()}

        lines = []
        for line in (tuned_dir / "trace.ndjson").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            for field in ("distributions_before", "distributions_after"):
                record[field] = renamed(record[field])
            record["sampled_configs"] = [renamed(c) for c in record["sampled_configs"]]
            lines.append(json.dumps(record))
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        charts = tmp_path / "deep" / "plots"
        (charts / "param-x").mkdir(parents=True)
        assert run_cli("plot", str(bad), "--out", str(charts)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace record 0 is malformed: parameter name")
        assert "Traceback" not in err
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "bad.ndjson", "deep", "param-x", "plots"
        ]

    def test_number_too_large_for_a_float_exit_2(self, tmp_path, capsys):
        # a 401-digit elapsed ended plot in an OverflowError traceback
        golden = Path(__file__).parent / "data" / "golden" / "mixed.ndjson"
        lines = golden.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        record["elapsed"] = 10**400
        lines[3] = json.dumps(record)
        bad = tmp_path / "huge.ndjson"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("plot", str(bad), "--out", str(tmp_path / "plots")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace record 3 is malformed") and "Traceback" not in err


class TestSimulate:
    def test_prints_alarms_for_base_config(self, capsys):
        status = run_cli("simulate", str(PROFILE))
        assert status == 0
        out = capsys.readouterr().out
        assert "state-split-needed" in out
        assert "true-positive" in out

    def test_configuration_file_suppresses_alarm(self, tmp_path, capsys):
        catalog = default_catalog()
        from strategy_tuner import serialize_configuration

        config = catalog.base_configuration().replace("slevel", IntVal(104))
        path = tmp_path / "tuned.conf"
        path.write_text(serialize_configuration(config), encoding="utf-8")
        status = run_cli("simulate", str(PROFILE), "--configuration", str(path))
        assert status == 0
        out = capsys.readouterr().out
        assert "state-split-needed" not in out
        assert "true-positive" in out

    def test_missing_profile_exit_2(self, tmp_path):
        assert run_cli("simulate", str(tmp_path / "nope.profile")) == 2

    def test_costly_configuration_prints_its_cost_and_alarms(self, tmp_path, capsys):
        # a profile imposes no deadline: 100.05 s of simulated cost still completes
        from strategy_tuner import serialize_configuration

        config = default_catalog().base_configuration().replace("slevel", IntVal(10**9))
        path = tmp_path / "costly.conf"
        path.write_text(serialize_configuration(config), encoding="utf-8")
        assert run_cli("simulate", str(PROFILE), "--configuration", str(path)) == 0
        assert capsys.readouterr().out == "completed in 100.050 s, 1 alarm(s):\n  true-positive\n"

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "5"])
    def test_bad_timeout_exit_2(self, capsys, timeout):
        # simulate has no deadline, so any --timeout fails at argument parsing
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", str(PROFILE), "--timeout", timeout)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --timeout {timeout}" in err
        assert "Traceback" not in err


class TestFiles:
    """Every file a command reads or writes fails with one short error line."""

    MIXED_TRACE = Path(__file__).parent / "data" / "golden" / "mixed.ndjson"

    @staticmethod
    def _reader(site: str, tmp_path: Path, path: Path) -> tuple[list[str], str]:
        """The command reading ``path`` at ``site``, and what its error calls the file."""
        out = str(tmp_path / "out")
        low, high = map(str, write_baselines(tmp_path))
        if site == "catalog":
            conf = tmp_path / "run.conf"
            conf.write_text(f"profile = {PROFILE}\ncatalog = {path}\n", encoding="utf-8")
            return ["tune", "--config", str(conf), "--out", out], "catalog override"
        dominancy = ["dominancy", "--profile", str(PROFILE), "--out", out]
        return {
            "config": (["tune", "--config", str(path), "--out", out], "config file"),
            "tune-profile": (["tune", "--profile", str(path), "--out", out], "profile"),
            "simulate-profile": (["simulate", str(path)], "profile"),
            "low-baseline": (dominancy + [str(path), high], "baseline"),
            "high-baseline": (dominancy + [low, str(path)], "baseline"),
            "configuration": (["simulate", str(PROFILE), "--configuration", str(path)],
                              "configuration"),
            "trace": (["plot", str(path), "--out", out], "trace"),
        }[site]

    READERS = ["config", "catalog", "tune-profile", "simulate-profile", "low-baseline",
               "high-baseline", "configuration", "trace"]

    @pytest.mark.parametrize("site", READERS)
    def test_a_file_not_in_utf8_names_its_line(self, tmp_path, capsys, site):
        # before: each ended in a UnicodeDecodeError traceback with exit 1
        path = tmp_path / "input"
        path.write_bytes(b"# a first line\r\nslevel = \xff\n")
        argv, what = self._reader(site, tmp_path, path)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {what} {str(path)!r}: line 2 is not UTF-8 text\n"
        )

    @pytest.mark.parametrize("site", READERS)
    def test_a_long_input_path_gives_a_short_line(self, tmp_path, capsys, site):
        # before: the path was quoted in full twice, an error line of about 10,100 characters
        path = tmp_path / ("x" * 5000)
        argv, what = self._reader(site, tmp_path, path)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {what} {shown(str(path))}: File name too long\n"
        assert len(err) < 300

    @pytest.mark.parametrize("extra", [0, 1], ids=["160", "161"])
    def test_a_path_is_quoted_whole_up_to_160_characters(self, tmp_path, capsys, extra):
        path = str(tmp_path / "missing")
        path += "x" * (160 + extra - len(repr(path)))
        assert run_cli("simulate", path) == 2
        quoted = shown(path) if extra else repr(path)
        assert len(repr(path)) == 160 + extra and len(quoted) <= 160
        assert capsys.readouterr().err == (
            f"error: cannot read profile {quoted}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command, blocked", [
        ("tune", "trace.ndjson"), ("dominancy", "dominancy.txt"), ("plot", "param-slevel.txt"),
    ])
    @pytest.mark.parametrize("name", ["x" * 5000, "new\nline"], ids=["long", "newline"])
    def test_an_output_path_gives_one_short_line(self, tmp_path, capsys, command, blocked, name):
        # before: a long --out was quoted in full twice, about 10,100
        # characters, and a newline in it split the error line in two
        out = tmp_path / name
        argv = {
            "tune": ["tune", "--profile", str(PROFILE), "--max-iterations", "1"],
            "dominancy": ["dominancy", "--profile", str(PROFILE), "--timeout", "10",
                          *map(str, write_baselines(tmp_path))],
            "plot": ["plot", str(self.MIXED_TRACE)],
        }[command]
        quoted = shown(str(out))  # too long to quote whole, or to name a directory
        if "\n" in name:  # a directory that can be made, holding a file that cannot be written
            (out / blocked).mkdir(parents=True)
            quoted = repr(str(out / blocked))
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {quoted}: ")
        assert err.count("\n") == 1 and len(err) < 300 and "Traceback" not in err

    def test_a_chart_that_cannot_be_written_is_named(self, tmp_path, capsys):
        # before: the error named the chart directory, not the file
        (tmp_path / "plots" / "alarms.txt").mkdir(parents=True)
        assert run_cli("plot", str(self.MIXED_TRACE), "--out", str(tmp_path / "plots")) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {str(tmp_path / 'plots' / 'alarms.txt')!r}: Is a directory\n"
        )

    def test_a_trace_nested_too_deep_is_malformed(self, tmp_path, capsys):
        # before: a RecursionError traceback with exit 1
        path = tmp_path / "deep.ndjson"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        assert run_cli("plot", str(path), "--out", str(tmp_path / "plots")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace record 0 is malformed: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestLogging:
    def test_adapter_warning_is_one_stderr_line(self, tmp_path):
        # the one record the package logs, as the console script prints it
        conf = tmp_path / "run.conf"
        conf.write_text(
            "program = x.c\n"
            "adapter.command = printf 'w:a:b\\nw:c\\n'\n"
            "adapter.pattern = ^w:(\\w+)(?::(\\w+))?$\n"
            "tuner.max_iterations = 1\n"
            "tuner.num_sample = 1\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "out")
        proc = run_python("-m", "strategy_tuner.cli", "tune", "--config", str(conf), "--out", out)
        assert proc.returncode == 0
        assert proc.stderr == (
            "WARNING strategy_tuner.subprocess_adapter: "
            "1 output line(s) matched the alarm pattern incompletely\n"
        )


class TestModuleEntry:
    def test_config_error_exits_2(self, tmp_path):
        # runs cli.entrypoint, the function the console script calls
        out = str(tmp_path / "out")
        proc = run_python("-m", "strategy_tuner.cli", "tune", "--program", "x.c", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_closed_standard_output_exits_1_quietly(self):
        # standard output is a pipe whose read end is closed before the
        # child starts, so its first write fails with EPIPE, with no race
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "strategy_tuner.cli", "simulate", str(PROFILE), stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1

    def test_closed_standard_output_in_process(self, monkeypatch, tmp_path, capsys):
        # the same branch on this interpreter: standard output fails with
        # EPIPE, and its descriptor, a file of the test's, is pointed at the
        # null device so that the exit flush writes nothing
        class ClosedPipe(io.TextIOBase):
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            argv = ["strategy-tuner", "simulate", str(SAMPLES / "convergence.profile")]
            monkeypatch.setattr(sys, "argv", argv)
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            with pytest.raises(SystemExit) as stopped:
                cli.entrypoint()
            os.write(fd, b"flushed")
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert stopped.value.code == cli.EXIT_CLOSED_OUTPUT == 1
        assert path.read_bytes() == b""
        assert capsys.readouterr().err == ""


# Each name the package serves on first use, and the module it comes from.
LAZY_NAMES = {
    "DominancyReport": "dominancy",
    "ParamScore": "dominancy",
    "influence_score": "dominancy",
    "run_dominancy": "dominancy",
    "AdapterConfig": "subprocess_adapter",
    "SubprocessAnalyzer": "subprocess_adapter",
}

# pytest loads concurrent.futures itself, so only a fresh interpreter can
# show what a run loads.
SURFACE_CHILD = """
import importlib, json, sys
from strategy_tuner import cli
status = cli.main(["tune", "--profile", sys.argv[1], "--max-iterations", "2", "--out", sys.argv[2]])
assert status == 0, status
status = cli.main(["simulate", sys.argv[1]])
assert status == 0, status
unused = ["strategy_tuner.dominancy", "strategy_tuner.plots",
          "strategy_tuner.subprocess_adapter", "concurrent.futures", "logging"]
loaded = sorted(set(unused) & set(sys.modules))
import strategy_tuner
listed = dir(strategy_tuner)
names = json.loads(sys.argv[3])
served = {
    name: name in listed and getattr(strategy_tuner, name)
    is getattr(importlib.import_module("strategy_tuner." + module), name)
    for name, module in names.items()
}
print(json.dumps({"loaded": loaded, "served": served}))
"""

# Listing the package's names serves none of them.
DIR_CHILD = """
import json, sys
import strategy_tuner
listed = dir(strategy_tuner)
lazy = ["strategy_tuner.dominancy", "strategy_tuner.subprocess_adapter"]
print(json.dumps({"listed": listed, "loaded": sorted(set(lazy) & set(sys.modules))}))
"""


def test_listing_the_package_loads_no_lazy_module():
    proc = run_python("-c", DIR_CHILD)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(LAZY_NAMES) | {"tune"} <= set(report["listed"])
    assert report["listed"] == sorted(report["listed"])
    assert report["loaded"] == []


def test_synthetic_tune_loads_only_what_it_uses(tmp_path):
    proc = run_python(
        "-c", SURFACE_CHILD, str(PROFILE), str(tmp_path / "out"), json.dumps(LAZY_NAMES)
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["served"] == dict.fromkeys(LAZY_NAMES, True)
