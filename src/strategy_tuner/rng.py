"""Deterministic, splittable random streams.

A stream is a key, a root seed plus a path of labels, that splits into
child keys and gives out draws: equal (seed, path) pairs always draw the
same sequence, so a whole tuning run replays from a single seed however
work is scheduled. Each generator is seeded from a 128-bit blake2b key
of its full path, so draws for unrelated labels are independent.

The hash input is the seed's decimal digits, then per label a type tag
(``i`` for an integer, ``s`` for a string), the 4-byte big-endian length
of its UTF-8 text and that text. As the input is a plain concatenation,
a stream holds just the hash state of its path and ``split`` feeds in
only the new labels: ``s.split("a", 2).split("b")`` is
``s.split("a", 2, "b")``, and ``s.generator("a")`` draws as
``s.split("a").generator()``. ``encode_labels(*labels)`` is the labels'
hash input; it keeps its last 1024 answers, so a path drawn under many
times, as the sampler draws under ``("param", name)``, is encoded once.
The generator is ``_random.Random``, the C type under ``random.Random``:
seeded from an int, the two draw the same sequence, but the C type
skips the Python-level ``__init__`` and ``seed``. The hash is
``_blake2``'s, which ``hashlib.blake2b`` names, because ``import
hashlib`` also loads OpenSSL's libcrypto (3.5 MB).
"""

from __future__ import annotations

import _random
from _blake2 import blake2b
from functools import lru_cache
from typing import Callable


# typed: True == 1 as a cache key, but the two encode differently
@lru_cache(maxsize=1024, typed=True)
def encode_labels(*labels: "str | int") -> bytes:
    """The hash input that a path of labels adds to a stream's key."""
    parts = []
    for label in labels:
        payload = str(label).encode("utf-8")
        parts += (b"i" if isinstance(label, int) else b"s", len(payload).to_bytes(4, "big"), payload)
    return b"".join(parts)


class RandomStream:
    """A named, seedable key that splits into child streams and gives out draws."""

    __slots__ = ("_hash",)

    def __init__(self, seed: int):
        self._hash = blake2b(str(int(seed)).encode("ascii"), digest_size=16)

    def split(self, *labels: "str | int") -> "RandomStream":
        """Child stream for the given labels; independent of this one."""
        child = RandomStream.__new__(RandomStream)
        child._hash = _extended(self._hash, encode_labels(*labels))
        return child

    def generator(self, *labels: "str | int") -> Callable[[], float]:
        """Uniform draws in [0, 1) of ``self.split(*labels)``; with no labels, this stream's own."""
        return _seeded(_extended(self._hash, encode_labels(*labels))).random


def _extended(hasher: blake2b, encoded: bytes) -> blake2b:
    """A copy of a stream's hash state with the encoded labels fed in."""
    hasher = hasher.copy()
    hasher.update(encoded)
    return hasher


def _seeded(hasher: blake2b) -> _random.Random:
    """A generator seeded with the 128-bit key of a stream's hash state."""
    return _random.Random(int.from_bytes(hasher.digest(), "big"))
