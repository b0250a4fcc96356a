"""Subprocess adapter for real analyzers.

Splits a command template into words once, fills in each analysis's
program and rendered configuration arguments word by word, runs it,
reads its output and reaps it under the wall-clock deadline, kills the
process group once the deadline passes (then reaps it within
``REAP_WAIT``), and extracts alarm identifiers from the output with a
line-wise regular expression. Alarm identity is the join of the
pattern's capture groups, so distinct report lines that normalize to
the same key are deduplicated.
"""

from __future__ import annotations

import contextlib
import locale
import logging
import os
import re
import selectors
import shlex
import signal
import string
import subprocess
import time
from dataclasses import dataclass, field

from .analyzers import AnalysisOutcome, AnalysisTask, Completed, Crashed, TimedOut
from .errors import shown
from .keytree import split_lines
from .paramspace import Catalog, render_cli_args

log = logging.getLogger(__name__)

#: The placeholders a command template may use.
_PLACEHOLDERS = ("program", "args")

#: Longest single wait for output, in seconds; ``select`` rejects waits
#: above 2**31 - 1 milliseconds, which a long deadline can exceed.
_MAX_WAIT = 3600.0

#: How long ``run`` waits, in seconds, to reap a child whose group it killed.
REAP_WAIT = 2.0


@dataclass(frozen=True)
class AdapterConfig:
    """How to invoke one external analyzer.

    ``command`` is a template with ``{program}`` and ``{args}``
    placeholders, split once into ``words`` as a POSIX shell would; a
    malformed template raises ``ValueError`` here. ``pattern`` is
    compiled once into ``regex``, and a malformed one raises
    ``re.error`` here. It is applied to each output line; a match yields
    one alarm whose id is the capture groups joined by ``:`` (the
    whole match if there are no groups). With an empty
    ``env_passthrough`` the child inherits the full environment;
    otherwise only the named variables plus PATH are forwarded.
    """

    command: str
    pattern: str
    env_passthrough: tuple[str, ...] = ()
    words: tuple[str, ...] = field(init=False, repr=False, compare=False)
    regex: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", _split_command(self.command))
        object.__setattr__(self, "regex", re.compile(self.pattern))


def _split_command(command: str) -> tuple[str, ...]:
    """The words of a command template; ValueError if it is malformed.

    A template is malformed if it has an unbalanced quote or no words,
    or if a word has a stray brace or a placeholder other than
    ``{program}`` and ``{args}``.
    """
    words = tuple(shlex.split(command))
    if not words:
        raise ValueError("command has no words")
    for word in words:
        for _, name, _, _ in string.Formatter().parse(word):
            if name is not None and name not in _PLACEHOLDERS:
                raise ValueError(
                    f"placeholder {shown(name)} in {shown(word)} is neither {{program}} nor {{args}}"
                )
        try:
            word.format(program="", args="")
        except (KeyError, IndexError, ValueError) as exc:  # a field in a format spec
            raise ValueError(f"bad placeholder in {shown(word)}: {exc}") from None
    return words


class SubprocessAnalyzer:
    def __init__(self, adapter: AdapterConfig, catalog: Catalog):
        self.adapter = adapter
        self.catalog = catalog

    def command_argv(self, task: AnalysisTask) -> list[str]:
        """The template's words with the placeholders filled in.

        A word that is exactly ``{args}`` becomes the rendered arguments,
        one word each; elsewhere ``{args}`` is their ``shlex.join`` text.
        ``{program}`` always stays inside its word.
        """
        args = render_cli_args(task.config, self.catalog)
        joined = shlex.join(args)
        argv: list[str] = []
        for word in self.adapter.words:
            if word == "{args}":
                argv.extend(args)
            else:
                argv.append(word.format(program=task.program_ref, args=joined))
        return argv

    def _child_env(self) -> dict[str, str] | None:
        names = self.adapter.env_passthrough
        if not names:
            return None
        env = {name: os.environ[name] for name in names if name in os.environ}
        env.setdefault("PATH", os.environ.get("PATH", ""))
        return env

    def run(self, task: AnalysisTask) -> AnalysisOutcome:
        try:
            argv = self.command_argv(task)
        except Exception as exc:
            return Crashed(exit_info=f"cannot build command: {exc}")
        start = time.monotonic()
        deadline = start + task.timeout
        try:
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=self._child_env(),
                start_new_session=True,
            )
        except OSError as exc:
            return Crashed(exit_info=f"spawn failed: {exc}")
        with proc.stdout:
            output = _collect(proc, deadline)
            if output is None:
                self._kill_group(proc)
                with contextlib.suppress(subprocess.TimeoutExpired):  # stuck in the kernel
                    proc.wait(timeout=REAP_WAIT)
                return TimedOut(wall_time=time.monotonic() - start)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            return Crashed(exit_info=f"exit status {proc.returncode}")
        alarms, anomalies = self.extract_alarms(_decode(output))
        if anomalies:
            log.warning("%d output line(s) matched the alarm pattern incompletely", anomalies)
        return Completed(alarms=alarms, wall_time=wall)

    @staticmethod
    def _kill_group(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            proc.kill()

    def extract_alarms(self, output: str) -> tuple[frozenset[str], int]:
        alarms: set[str] = set()
        anomalies = 0
        for line in split_lines(output):
            match = self.adapter.regex.search(line)
            if match is None:
                continue
            groups = match.groups()
            if not groups:
                alarms.add(match.group(0))
            elif any(g is None for g in groups):
                anomalies += 1
            else:
                alarms.add(":".join(groups))
        return frozenset(alarms), anomalies


def _collect(proc: subprocess.Popen, deadline: float) -> bytes | None:
    """The child's output up to end of file, once it has exited; None at the deadline.

    A child usually exits within microseconds of closing its output, so
    the polls for its exit start 50 µs apart and back off to at most 50 ms.
    """
    chunks: list[bytes] = []
    fd = proc.stdout.fileno()
    eof, delay = False, 50e-6
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while not (eof and proc.poll() is not None):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if eof:
                time.sleep(min(delay, remaining))
                delay = min(2 * delay, 0.05)
            elif selector.select(min(remaining, _MAX_WAIT)):
                chunk = os.read(fd, 65536)
                eof = not chunk
                chunks.append(chunk)
    return b"".join(chunks)


def _decode(output: bytes) -> str:
    """Decode in the locale encoding; ``extract_alarms`` ends lines at \\n, \\r\\n and \\r.

    A byte the encoding cannot decode becomes a lone surrogate escape, so
    distinct bytes stay distinct alarm ids and one stray byte fails nothing.
    """
    return output.decode(locale.getpreferredencoding(False), "surrogateescape")
