"""One property over every file the command line reads.

Mutated run configs, profiles, catalog overrides, configuration files,
traces and run files go through ``cli.main``. Whatever the bytes, the
command exits 0, or exits 2 or 3 with exactly one short ``error:`` line on
stderr, and never ends in a traceback. The mutations are byte edits, line
copies and a token alphabet that holds each kind of text a reader once
mishandled: booleans, huge ints, ``_`` in a number, non-ASCII digits,
bytes that are not UTF-8, NUL characters, long names and deep JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as stx

from strategy_tuner import TunerSettings, default_catalog, serialize_configuration
from strategy_tuner.cli import main
from strategy_tuner.trace import run_to_json
from test_golden import GOLDEN, SCENARIOS

PROFILE = GOLDEN / "mixed.profile"

# A tune run reads every input, then analyzes as little as it can.
BOUNDS = ("--max-iterations", "1", "--samples", "2", "--processes", "1")


def _seeds() -> dict[str, bytes]:
    """A valid input of each kind, which the mutations start from."""
    catalog = default_catalog()
    config = (
        f"# a run config\nprofile = {PROFILE}\nout = elsewhere\n"
        "tuner.time_budget = 60\ntuner.num_sample = 4\ntuner.num_process = 2\n"
        "tuner.seed = 7\ntuner.max_iterations = 5\ntuner.refinement = evidence\n"
        "tuner.patience = none\n"
    )
    overrides = (
        "slevel.lambda = 5\nslevel.base = 3\nsplit-return.q = 0.9\n"
        "split-return.true = on\ndomains.labels = a,b,c,d,e\ndomains.q = 0.1,0.2,0.3,0.4,0.5\n"
    )
    trace = (GOLDEN / "mixed.ndjson").read_bytes().splitlines(keepends=True)[:2]
    run = run_to_json(TunerSettings(**SCENARIOS["mixed"][1]), catalog.initial_distributions())
    return {
        "config": config.encode(),
        "profile": PROFILE.read_bytes(),
        "catalog": overrides.encode(),
        "configuration": serialize_configuration(catalog.base_configuration()).encode(),
        "trace": b"".join(trace),
        "run": (json.dumps(run, indent=2) + "\n").encode(),
    }


SEEDS = _seeds()

TOKENS = [
    b"", b"0", b"-1", b"1.5", b"1e400", b"nan", b"inf", b"true", b"null", b"none", b"0_5",
    "４".encode(), "٤".encode(), b"\xff", b"\xc3", b"\0", b"\r", b"\f", b"\n", b" = ",
    b".", b",", b"#", b'"', b"\\", b"\\ud800", b"{}", b"[]", b"[" * 5000, b"1" * 400,
    b"9" * 5001, b"x" * 5000, b"tuner.", b"alarm.", b"twist.", b".requires.", b"slevel",
    b"domains", b"split-return",
]


@stx.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three byte edits or line copies."""
    for _ in range(draw(stx.integers(1, 3))):
        if draw(stx.booleans()):
            lines = data.splitlines(keepends=True) or [b""]
            at = draw(stx.integers(0, len(lines)))
            lines.insert(at, draw(stx.sampled_from(lines)))
            data = b"".join(lines)
        else:
            start = draw(stx.integers(0, len(data)))
            end = draw(stx.integers(start, min(len(data), start + 8)))
            data = data[:start] + draw(stx.sampled_from(TOKENS)) + data[end:]
    return data


CASES = stx.sampled_from(sorted(SEEDS)).flatmap(
    lambda kind: _mutated(SEEDS[kind]).map(lambda data: (kind, data))
)


def _argv(kind: str, data: bytes, root: Path) -> list[str]:
    """Write ``data`` where the command that reads a ``kind`` finds it; that command."""
    out = root / "out"
    path = root / "input"
    if kind == "run":  # report reads the run file beside an unmutated trace
        out.mkdir()
        (out / "trace.ndjson").write_bytes(SEEDS["trace"])
        path = out / "run.json"
    path.write_bytes(data)
    conf = root / "run.conf"
    conf.write_text(f"profile = {PROFILE}\ncatalog = {path}\n", encoding="utf-8")
    return {
        "config": ["tune", "--config", str(path), *BOUNDS, "--out", str(out)],
        "profile": ["tune", "--profile", str(path), *BOUNDS, "--out", str(out)],
        "catalog": ["tune", "--config", str(conf), *BOUNDS, "--out", str(out)],
        "configuration": ["simulate", str(PROFILE), "--configuration", str(path)],
        "trace": ["plot", str(path), "--out", str(out)],
        "run": ["report", str(out)],
    }[kind]


LONG = b'"' + b"s" * 5000 + b'"'


@given(case=CASES)
# a NUL in a config's path ended in a ValueError traceback
@example(case=("config", SEEDS["config"].replace(b"out = elsewhere", b"out = a\0b")))
# a long parameter name in one place of a trace was quoted whole, twice
@example(case=("trace", SEEDS["trace"].replace(b'"slevel"', LONG, 1)))
# a lone surrogate escape in a parameter name ended in a UnicodeEncodeError traceback
@example(case=("trace", SEEDS["trace"].replace(b'"slevel"', b'"s\\ud800"')))
@example(case=("run", SEEDS["run"].replace(b'"slevel"', b'"s\\ud800"')))
# a file's value that a flag overrides was never read, so never checked
@example(case=("config", SEEDS["config"].replace(b"num_sample = 4", b"num_sample = abc")))
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
def test_every_input_exits_0_or_with_one_short_error_line(case):
    kind, data = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        argv = _argv(kind, data, Path(scratch))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
    text = err.getvalue()
    if status != 0:
        assert status in (2, 3), (status, text)
        assert text.startswith("error: ") and text.count("\n") == 1, text
        assert len(text) < 300, text
