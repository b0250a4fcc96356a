"""Subprocess adapter fixtures: echo, deadline, and exit-code behavior."""

from __future__ import annotations

import logging
import os
import shlex
import signal
import sys
import time

import pytest

from strategy_tuner import (
    INFINITY,
    AdapterConfig,
    AnalysisTask,
    Completed,
    Crashed,
    IntVal,
    SubprocessAnalyzer,
    TimedOut,
    TunerSettings,
    render_cli_args,
    tune,
)
from strategy_tuner.trace import read_trace, write_record


@pytest.fixture
def base_task(catalog):
    return AnalysisTask("prog.c", catalog.base_configuration(), timeout=5.0)


class TestEchoFixtures:
    def test_single_alarm_extracted(self, catalog, base_task):
        adapter = AdapterConfig(command="echo warn:a.c:3:overflow", pattern=r"warn:(.*)")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset({"a.c:3:overflow"})

    def test_multiple_captures_joined(self, catalog, base_task):
        script = "import sys; sys.stdout.write('E a.c 3 overflow\\nE b.c 9 div\\n')"
        adapter = AdapterConfig(
            command=f'{sys.executable} -c "{script}"',
            pattern=r"E (\S+) (\d+) (\S+)",
        )
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset({"a.c:3:overflow", "b.c:9:div"})

    def test_duplicates_deduplicated(self, catalog, base_task):
        script = "print('warn:x'); print('warn:x')"
        adapter = AdapterConfig(
            command=f'{sys.executable} -c "{script}"', pattern=r"warn:(.*)"
        )
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert outcome.alarms == frozenset({"x"})

    def test_no_groups_uses_whole_match(self, catalog, base_task):
        adapter = AdapterConfig(command="echo found overflow here", pattern=r"overflow")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert outcome.alarms == frozenset({"overflow"})

    def test_template_placeholders(self, catalog, base_task):
        adapter = AdapterConfig(command="echo {program} {args}", pattern=r"(prog\.c)")
        analyzer = SubprocessAnalyzer(adapter, catalog)
        argv = analyzer.command_argv(base_task)
        assert argv[0] == "echo"
        assert "prog.c" in argv
        assert "-eva-slevel" in argv
        outcome = analyzer.run(base_task)
        assert outcome.alarms == frozenset({"prog.c"})

    def test_anomalous_lines_counted_not_reported(self, catalog, base_task):
        # second alternative never fills group 1
        script = "print('warn good'); print('oops bad')"
        adapter = AdapterConfig(
            command=f'{sys.executable} -c "{script}"',
            pattern=r"warn (\S+)|oops (\S+)",
        )
        analyzer = SubprocessAnalyzer(adapter, catalog)
        alarms, anomalies = analyzer.extract_alarms("warn good\noops bad\n")
        assert anomalies == 2
        assert alarms == frozenset()

    def test_incomplete_matches_log_one_warning(self, catalog, base_task, caplog):
        script = "print('warn good'); print('oops bad')"
        adapter = AdapterConfig(
            command=f'{sys.executable} -c "{script}"',
            pattern=r"warn (\S+)|oops (\S+)",
        )
        with caplog.at_level(logging.WARNING, logger="strategy_tuner.subprocess_adapter"):
            outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert outcome == Completed(alarms=frozenset(), wall_time=outcome.wall_time)
        assert caplog.record_tuples == [
            (
                "strategy_tuner.subprocess_adapter",
                logging.WARNING,
                "2 output line(s) matched the alarm pattern incompletely",
            )
        ]


class TestTemplate:
    """A template is split once; placeholders are filled in word by word."""

    def _run(self, catalog, command: str, program: str):
        adapter = AdapterConfig(command=command, pattern=r"^(.*)$")
        task = AnalysisTask(program, catalog.base_configuration(), timeout=5.0)
        return SubprocessAnalyzer(adapter, catalog).run(task)

    @pytest.mark.parametrize("program", ["my dir/a.c", "it's.c", 'say "hi".c', "a;b $x.c"])
    def test_program_is_one_word(self, catalog, program):
        outcome = self._run(catalog, "printf '%s\\n' {program}", program)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset({program})

    def test_program_inside_a_word(self, catalog):
        outcome = self._run(catalog, "printf '%s\\n' --file={program}", "my dir/it's.c")
        assert outcome.alarms == frozenset({"--file=my dir/it's.c"})

    def test_args_alone_expand_to_one_word_each(self, catalog, base_task):
        adapter = AdapterConfig(command="echo {args} {program}", pattern=r".*")
        args = render_cli_args(base_task.config, catalog)
        argv = SubprocessAnalyzer(adapter, catalog).command_argv(base_task)
        assert argv == ["echo", *args, "prog.c"]

    def test_args_inside_a_word_are_the_joined_text(self, catalog, base_task):
        adapter = AdapterConfig(command='sh -c "echo {args}" --opts={args}', pattern=r".*")
        joined = shlex.join(render_cli_args(base_task.config, catalog))
        argv = SubprocessAnalyzer(adapter, catalog).command_argv(base_task)
        assert argv == ["sh", "-c", f"echo {joined}", f"--opts={joined}"]

    def test_doubled_braces_are_literal(self, catalog, base_task):
        adapter = AdapterConfig(command="echo {{args}} {{program}}x", pattern=r".*")
        argv = SubprocessAnalyzer(adapter, catalog).command_argv(base_task)
        assert argv == ["echo", "{args}", "{program}x"]

    def test_words_split_once(self):
        adapter = AdapterConfig(command="frama-c -eva '{args}' \"{program}\"", pattern=r".*")
        assert adapter.words == ("frama-c", "-eva", "{args}", "{program}")

    @pytest.mark.parametrize(
        "command",
        [
            'sh -c "echo {args}',  # unbalanced quote
            "frama-c {prog}",  # unknown placeholder
            "frama-c {0}",  # positional placeholders
            "frama-c {}",
            "frama-c {program.upper}",  # attribute and index lookups
            "frama-c {args[0]}",
            "frama-c {program:{width}}",  # a placeholder in a format spec
            "frama-c {program",  # stray braces
            "frama-c program}",
            "   ",  # no words
        ],
    )
    def test_malformed_template_rejected(self, command):
        with pytest.raises(ValueError):
            AdapterConfig(command=command, pattern=r".*")


class TestOutput:
    def test_output_larger_than_a_pipe_buffer(self, catalog, base_task):
        # the command is a format template, so the script has no braces
        script = "import sys; sys.stdout.writelines('warn:alarm-%d\\n' % i for i in range(8000))"
        adapter = AdapterConfig(command=f'{sys.executable} -c "{script}"', pattern=r"warn:(.*)")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset(f"alarm-{i}" for i in range(8000))

    def test_crlf_output_gives_the_same_alarms(self, catalog, base_task):
        # "." matches a carriage return, so a line that kept its \r
        # would report "a\r"; every line end gives the same alarms
        alarms = {}
        for newline in ("\\n", "\\r\\n", "\\r"):
            script = f"import sys; sys.stdout.buffer.write(b'warn:a{newline}warn:b{newline}')"
            adapter = AdapterConfig(command=f'{sys.executable} -c "{script}"', pattern=r"warn:(.*)")
            outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
            assert isinstance(outcome, Completed)
            alarms[newline] = outcome.alarms
        assert alarms["\\n"] == alarms["\\r\\n"] == alarms["\\r"] == frozenset({"a", "b"})

    @pytest.mark.parametrize("other", ["\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_and_carriage_return_end_an_output_line(self, catalog, other):
        # str.splitlines would end the line at the form feed and report "a"
        adapter = AdapterConfig(command="true", pattern=r"^warn:(.*)$")
        analyzer = SubprocessAnalyzer(adapter, catalog)
        assert analyzer.extract_alarms(f"warn:a{other}b\n") == (frozenset({f"a{other}b"}), 0)
        assert analyzer.extract_alarms(f"warn:a\r\nwarn:b\rwarn:c") == (frozenset("abc"), 0)

    def test_undecodable_byte_is_kept_as_a_surrogate_escape(self, catalog, base_task, tmp_path):
        # the \351 bytes are Latin-1 e-acute, which UTF-8 cannot decode
        command = "printf 'caf\\351 in a comment\\nwarn:a\\351\\n'"
        adapter = AdapterConfig(command=command, pattern=r"warn:(.*)")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert outcome == Completed(alarms=frozenset({"a\udce9"}), wall_time=outcome.wall_time)

        settings = TunerSettings(time_budget=60.0, num_sample=2, max_iterations=2)
        with (tmp_path / "trace.ndjson").open("w", encoding="utf-8") as stream:
            result = tune(
                "prog.c", catalog, settings, SubprocessAnalyzer(adapter, catalog),
                on_record=lambda record: write_record(stream, record),
            )
        assert result.best_sampled is not None
        assert result.best_sampled.alarms == ("a\udce9",)
        text = (tmp_path / "trace.ndjson").read_text(encoding="utf-8")
        assert read_trace(text) == list(result.iteration_trace)


class TestDeadline:
    def test_sleeping_child_times_out_within_grace(self, catalog):
        adapter = AdapterConfig(command="sleep 60", pattern=r".*")
        task = AnalysisTask("prog.c", catalog.base_configuration(), timeout=1.0)
        start = time.monotonic()
        outcome = SubprocessAnalyzer(adapter, catalog).run(task)
        elapsed = time.monotonic() - start
        assert isinstance(outcome, TimedOut)
        assert elapsed <= 3.0

    def test_child_closing_output_then_sleeping_times_out(self, catalog):
        # end of output is not the end of the analysis: the exit is awaited
        # under the same deadline
        script = "import os, time; os.close(1); os.close(2); time.sleep(60)"
        adapter = AdapterConfig(command=f'{sys.executable} -c "{script}"', pattern=r".*")
        task = AnalysisTask("prog.c", catalog.base_configuration(), timeout=1.0)
        start = time.monotonic()
        outcome = SubprocessAnalyzer(adapter, catalog).run(task)
        elapsed = time.monotonic() - start
        assert isinstance(outcome, TimedOut)
        assert elapsed <= task.timeout + 1.0  # the killed child is reaped at once

    def test_deadline_beyond_the_longest_select_wait(self, catalog):
        adapter = AdapterConfig(command="echo warn:x", pattern=r"warn:(.*)")
        task = AnalysisTask("prog.c", catalog.base_configuration(), timeout=5e8)
        outcome = SubprocessAnalyzer(adapter, catalog).run(task)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset({"x"})

    def test_fast_child_completes(self, catalog, base_task):
        adapter = AdapterConfig(command="echo ok", pattern=r"nothing-matches")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Completed)
        assert outcome.alarms == frozenset()
        assert outcome.wall_time <= base_task.timeout + 0.5

    @pytest.mark.parametrize("error", [ProcessLookupError, PermissionError])
    def test_kill_group_falls_back_to_the_process(self, monkeypatch, error):
        # a group that is gone, or not ours to signal, leaves the child itself
        signalled = []

        def killpg(pid, sig):
            signalled.append((pid, sig))
            raise error

        class FakeProcess:
            pid = 4242
            killed = 0

            def kill(self):
                self.killed += 1

        monkeypatch.setattr(os, "killpg", killpg)
        proc = FakeProcess()
        SubprocessAnalyzer._kill_group(proc)
        assert signalled == [(4242, signal.SIGKILL)]
        assert proc.killed == 1


class TestCrashes:
    def test_nonzero_exit(self, catalog, base_task):
        adapter = AdapterConfig(command="false", pattern=r".*")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Crashed)
        assert "exit status 1" in outcome.exit_info

    def test_unrenderable_configuration(self, catalog):
        # a configuration no analyzer can run: nothing is spawned
        config = catalog.base_configuration().replace("slevel", IntVal(INFINITY))
        adapter = AdapterConfig(command="definitely-not-a-command-xyz {args}", pattern=r".*")
        outcome = SubprocessAnalyzer(adapter, catalog).run(AnalysisTask("prog.c", config, 5.0))
        assert outcome == Crashed(
            "cannot build command: infinity is not renderable (parameter 'slevel')"
        )

    def test_spawn_failure(self, catalog, base_task):
        adapter = AdapterConfig(command="definitely-not-a-command-xyz", pattern=r".*")
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Crashed)
        assert "spawn failed" in outcome.exit_info


class TestEnvironment:
    def test_passthrough_restricts_env(self, catalog, base_task, monkeypatch):
        monkeypatch.setenv("TUNER_TEST_VISIBLE", "yes")
        monkeypatch.setenv("TUNER_TEST_HIDDEN", "no")
        script = (
            "import os;"
            "print('V', os.environ.get('TUNER_TEST_VISIBLE'));"
            "print('H', os.environ.get('TUNER_TEST_HIDDEN'))"
        )
        adapter = AdapterConfig(
            command=f'{sys.executable} -c "{script}"',
            pattern=r"^([VH] \S+)$",
            env_passthrough=("TUNER_TEST_VISIBLE",),
        )
        outcome = SubprocessAnalyzer(adapter, catalog).run(base_task)
        assert isinstance(outcome, Completed)
        assert "V yes" in outcome.alarms
        assert "H None" in outcome.alarms
