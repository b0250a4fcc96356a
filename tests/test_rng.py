"""Determinism and splitting of the random stream."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from strategy_tuner import RandomStream
from strategy_tuner.rng import encode_labels

ROOT = Path(__file__).resolve().parent.parent


def _draws(stream: RandomStream, n: int) -> list[float]:
    draw = stream.generator()
    return [draw() for _ in range(n)]


def test_same_seed_same_sequence():
    a = RandomStream(42)
    b = RandomStream(42)
    assert _draws(a, 10) == _draws(b, 10)


def test_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert _draws(a, 5) != _draws(b, 5)


def test_split_is_deterministic():
    a = RandomStream(7).split("iter", 3, "sample", 1, "param", "slevel")
    b = RandomStream(7).split("iter", 3, "sample", 1, "param", "slevel")
    assert _draws(a, 5) == _draws(b, 5)


def test_sibling_substreams_differ():
    root = RandomStream(7)
    a = root.split("iter", 0, "sample", 0, "param", "slevel")
    b = root.split("iter", 0, "sample", 0, "param", "ilevel")
    c = root.split("iter", 0, "sample", 1, "param", "slevel")
    seq_a = _draws(a, 5)
    seq_b = _draws(b, 5)
    seq_c = _draws(c, 5)
    assert seq_a != seq_b
    assert seq_a != seq_c


def test_split_does_not_disturb_parent():
    root = RandomStream(5)
    before = _draws(root, 2)
    root.split("child")
    root.generator("other-child")
    assert _draws(root, 2) == before == _draws(RandomStream(5), 2)


def test_each_generator_starts_at_the_first_draw():
    stream = RandomStream(5).split("p")
    used = stream.generator()
    first, second = used(), used()
    assert stream.generator()() == first != second


def test_label_types_distinguished():
    # integer 1 and string "1" must address different streams
    a = RandomStream(0).split(1)
    b = RandomStream(0).split("1")
    assert _draws(a, 3) != _draws(b, 3)


def test_draws_in_unit_interval():
    draw = RandomStream(9).generator("x")
    for _ in range(1000):
        u = draw()
        assert 0.0 <= u < 1.0


# Draws captured from the stream implementation that hashed the whole
# path on every split; an incremental key must reproduce them exactly.
def test_root_stream_draws_pinned():
    assert _draws(RandomStream(7), 3) == [
        0.4254510630752716,
        0.5512901665030351,
        0.524689257031257,
    ]


def test_split_stream_draws_pinned():
    stream = RandomStream(7).split("iter", 3, "sample", 1, "param", "slevel")
    assert _draws(stream, 3) == [
        0.5213876165967912,
        0.8915875140815948,
        0.3106537849606229,
    ]


def test_generator_draws_as_the_split_stream():
    sample = RandomStream(7).split("iter", 3, "sample", 1)
    draw = sample.generator("param", "slevel")
    assert [draw() for _ in range(3)] == [
        0.5213876165967912,
        0.8915875140815948,
        0.3106537849606229,
    ]
    # a generator for a child leaves the stream's own draws alone
    assert _draws(sample, 3) == _draws(RandomStream(7).split("iter", 3, "sample", 1), 3)


def test_look_alike_labels_draws_pinned():
    stream = RandomStream(0).split(1, "1")
    assert _draws(stream, 3) == [
        0.24316518328073056,
        0.025362001099558884,
        0.2999960571901342,
    ]


@pytest.mark.parametrize("name", ["slevel", "naïve-précision", "日本", "astral-\U0001F600"])
def test_encoded_labels_draw_as_the_labels(name):
    # the sampler draws under ("param", name), whose encoding encode_labels keeps
    sample = RandomStream(7).split("iter", 3, "sample", 1)
    encoded = encode_labels("param", name)
    expected = _draws(RandomStream(7).split("iter", 3, "sample", 1).split("param", name), 5)
    labelled = sample.generator("param", name)
    assert [labelled() for _ in range(5)] == expected
    assert encoded == encode_labels("param") + encode_labels(name)
    # a name's length prefix counts its UTF-8 bytes, not its characters
    assert encoded.endswith(len(name.encode("utf-8")).to_bytes(4, "big") + name.encode("utf-8"))


def test_chained_splits_equal_one_split():
    root = RandomStream(11)
    chained = root.split("a", 2).split("b")
    direct = root.split("a", 2, "b")
    assert _draws(chained, 5) == _draws(direct, 5)


# pytest and hypothesis import hashlib themselves, so only a fresh
# interpreter can show what the package loads.
FOOTPRINT_CHILD = """
import sys
from strategy_tuner import cli
status = cli.main(["tune", "--profile", sys.argv[1], "--max-iterations", "2", "--out", sys.argv[2]])
assert status == 0, status
print(sorted({"_hashlib", "hashlib"} & set(sys.modules)))
"""


def test_package_does_not_load_openssl(tmp_path):
    # hashlib.blake2b is _blake2.blake2b, but importing hashlib loads libcrypto
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CHILD,
         str(ROOT / "samples" / "synthetic_slevel.profile"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
