"""Reference xoshiro256**: the one-step-at-a-time generator that cavlab.rng replaced.

Each draw is one scalar state step on plain Python ints, with the seeding and
the draw methods of cavlab.rng.Rng. The block generator in cavlab.rng must
give the same values, draw for draw.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xBF58476D1CE4E5B9


def _splitmix64(x: int) -> tuple[int, int]:
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


class ScalarRng:
    """xoshiro256** on plain Python ints, one state step per draw."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int, stream: int = 0):
        x = (int(seed) ^ (int(stream) * _STREAM_SALT)) & _MASK
        x, self._s0 = _splitmix64(x)
        x, self._s1 = _splitmix64(x)
        x, self._s2 = _splitmix64(x)
        x, self._s3 = _splitmix64(x)
        if not (self._s0 | self._s1 | self._s2 | self._s3):
            self._s0 = _GOLDEN  # all-zero state is the one invalid xoshiro state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK
        result = (((x << 7 | x >> 57) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s0, self._s1, self._s2 = s0, s1, s2
        self._s3 = (s3 << 45 | s3 >> 19) & _MASK
        return result

    def random(self) -> float:
        return (self.next_u64() >> 11) * 1.1102230246251565e-16

    def randrange(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = (self.next_u64() * (i + 1)) >> 64
            seq[i], seq[j] = seq[j], seq[i]
