"""Deterministic, splittable random streams.

A stream is identified by a root seed plus a path of labels. Equal
(seed, path) pairs always produce the same draw sequence, so a whole
tuning run replays from a single seed no matter how work is scheduled.
Substreams for unrelated labels are statistically independent: each
stream seeds its own generator from a 128-bit blake2b key of the full
path.

The key is built incrementally. The hash input is the seed's decimal
digits followed by each label's encoding: a type tag (``i`` for an
integer, ``s`` for a string), the 4-byte big-endian length of the
label's UTF-8 text, then that text. Because the input is a plain
concatenation, a stream keeps the hash state of its own path, and
``split`` copies it and feeds in only the new labels; so
``s.split("a", 2).split("b")`` and ``s.split("a", 2, "b")`` are the
same stream. The generator is seeded on the first draw, so a stream
that is only split never pays for one. It is ``_random.Random``, the C
type that ``random.Random`` subclasses: seeded from an int, the two draw
the same sequence, and the C type skips ``random.Random``'s Python-level
``__init__`` and ``seed``. ``generator`` hands out the draw function of a
child stream without building the child, for a caller that draws from
many children of one stream once each. The hash comes from ``_blake2``,
the module ``hashlib.blake2b`` resolves to, because ``import hashlib``
would also load OpenSSL's libcrypto (3.5 MB of peak memory) for nothing.
"""

from __future__ import annotations

import _random
from _blake2 import blake2b
from functools import lru_cache
from typing import Callable


# typed: True == 1 as a cache key, but the two encode differently
@lru_cache(maxsize=1024, typed=True)
def _encode_label(label: "str | int") -> bytes:
    payload = str(label).encode("utf-8")
    tag = b"i" if isinstance(label, int) else b"s"
    return b"".join((tag, len(payload).to_bytes(4, "big"), payload))


class RandomStream:
    """A named, seedable pseudo-random stream."""

    __slots__ = ("seed", "path", "_hash", "_rng")

    def __init__(self, seed: int):
        seed = int(seed)
        self._extend(seed, (), blake2b(str(seed).encode("ascii"), digest_size=16), ())

    def split(self, *labels: "str | int") -> "RandomStream":
        """Child stream for the given labels; independent of this one."""
        child = RandomStream.__new__(RandomStream)
        child._extend(self.seed, self.path, self._hash.copy(), labels)
        return child

    def _extend(
        self, seed: int, path: tuple, hasher: blake2b, labels: tuple
    ) -> None:
        hasher.update(b"".join(map(_encode_label, labels)))
        self.seed = seed
        self.path = path + labels
        self._hash = hasher
        self._rng: _random.Random | None = None

    def generator(self, *labels: "str | int") -> Callable[[], float]:
        """The ``random`` method of ``self.split(*labels)``, without the stream.

        Its draws are exactly the child stream's; the generator is seeded
        at once.
        """
        hasher = self._hash.copy()
        hasher.update(b"".join(map(_encode_label, labels)))
        return _seeded(hasher).random

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = _seeded(self._hash)
        return rng.random()

    def __repr__(self) -> str:
        suffix = "/".join(str(p) for p in self.path)
        return f"RandomStream(seed={self.seed}, path={suffix!r})"


def _seeded(hasher: blake2b) -> _random.Random:
    """A generator seeded with the 128-bit key of a stream's hash state."""
    return _random.Random(int.from_bytes(hasher.digest(), "big"))
