"""Deterministic 64-bit PRNG used for every random draw in the project.

xoshiro256** (Blackman & Vigna, arXiv:1805.01407) seeded through splitmix64,
so that a given (seed, stream) pair produces the same bit stream on every
platform and interpreter version. `stream` selects an independent substream
(world spawning and action selection use separate streams so that paired
experiments visit identical worlds).

The stream is generated in numpy blocks. A block runs up to LANES copies of
the state side by side, lane j starting j * steps into the block; `steps`
vectorised steps and one vectorised output scrambler give lanes * steps
values that, read lane by lane, are exactly the next values of the
one-step-at-a-time stream, and the last lane ends where the next block
starts. The lanes are set up from the block's start by jumps: the xoshiro
step is linear over GF(2), so k steps are one 256x256 bit matrix T^k, kept
as a nibble lookup table for each k = 1, 2, 4, ..., and lanes 0 .. 2^i - 1
moved on by T^(steps * 2^i) are lanes 2^i .. 2^(i+1) - 1. A draw is then a
C-level `next` on the block's list of Python ints.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

LANES = 128  # states stepped side by side; a power of two
STEPS = 64   # steps of each lane in a full block; a power of two

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xBF58476D1CE4E5B9
_ROWS = np.arange(0, 1024, 16)[:, None]  # table row of nibble j holding 0


def _splitmix64(x: int) -> tuple[int, int]:
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


def _seed_state(seed: int, stream: int) -> list[int]:
    """The four state words (s0, s1, s2, s3) of a (seed, stream) pair."""
    x = (int(seed) ^ (int(stream) * _STREAM_SALT)) & _MASK
    state = []
    for _ in range(4):
        x, z = _splitmix64(x)
        state.append(z)
    return state if any(state) else [_GOLDEN, 0, 0, 0]  # all-zero is the one invalid xoshiro state


def _advance(s: np.ndarray, steps: int, out: np.ndarray | None = None) -> None:
    """Step every column of the (4, n) uint64 state `s` `steps` times, in place.

    With `out` (n, steps), out[:, k] receives s1 before step k: the word that
    step k's output scrambles.
    """
    s0, s1, s2, s3 = s
    s01, s23, s32 = s[:2], s[2:], s[3:1:-1]
    t = np.empty_like(s0)
    for k in range(steps):
        if out is not None:
            out[:, k] = s1
        np.left_shift(s1, 17, out=t)
        s23 ^= s01  # s2 ^= s0; s3 ^= s1
        s01 ^= s32  # s0 ^= s3; s1 ^= s2
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


def _table(m: np.ndarray) -> np.ndarray:
    """Nibble lookup table of the bit matrix whose row i, of the (256, 4) `m`, is
    the image of state bit i (word i // 64, bit i % 64): row 16j + v of the
    (1024, 4) table is the image of state nibble j holding v."""
    t = np.zeros((64, 16, 4), np.uint64)
    m = m.reshape(64, 4, 4)
    for k in range(4):
        t[:, 1 << k : 2 << k] = t[:, : 1 << k] ^ m[:, k, None]
    return t.reshape(1024, 4)


def _apply(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (n, 4) states `s` multiplied by the matrix of table `t`."""
    b = np.ascontiguousarray(s, "<u8").view(np.uint8).T  # byte j holds bits 8j .. 8j + 7
    nibbles = np.empty((64, len(s)), np.intp)  # nibble j holds bits 4j .. 4j + 3
    np.bitwise_and(b, 15, out=nibbles[0::2])
    np.right_shift(b, 4, out=nibbles[1::2])
    return np.bitwise_xor.reduce(t.take(nibbles + _ROWS, axis=0), axis=0)


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """Tables of T^(2^k) for 2^k < LANES * STEPS, built once, on first use."""
    m = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8").T.copy()  # column i: bit i
    _advance(m, 1)
    m = m.T
    tables = [_table(m)]
    while len(tables) < (LANES * STEPS).bit_length() - 1:
        m = _apply(tables[-1], m)  # T^2k from T^k: row i of T^k, moved on k steps
        tables.append(_table(m))
    for t in tables:
        t.flags.writeable = False
    return tuple(tables)


def _blocks(state: list[int]):
    """Yield the stream as lists of Python ints, `size` draws a block.

    `size` starts at 16 and doubles up to LANES * STEPS, so that a generator
    used for a few draws sets up only small blocks. A block has
    min(size, LANES) lanes of size // n_lanes steps each.
    """
    powers = _powers()
    start = np.array([state], np.uint64)  # (1, 4): the state where the block starts
    size = 16
    while True:
        n_lanes = min(size, LANES)
        steps = size // n_lanes
        lanes = start
        k = steps.bit_length() - 1  # powers[k + i] is T^(steps * 2^i)
        for t in powers[k : k + n_lanes.bit_length() - 1]:  # lane j starts j * steps into the block
            lanes = np.concatenate((lanes, _apply(t, lanes)))
        lanes = lanes.T.copy()
        x = np.empty((n_lanes, steps), np.uint64)
        _advance(lanes, steps, x)
        start = lanes[:, -1:].T  # the last lane ends where the next block starts
        x *= 5  # the ** scrambler: rotl(s1 * 5, 7) * 9
        r = x << 7
        x >>= 57
        x |= r
        x *= 9
        yield x.ravel().tolist()
        size = min(2 * size, LANES * STEPS)


class Rng:
    """xoshiro256** generator; all methods consume a fixed number of draws."""

    __slots__ = ("_next",)

    def __init__(self, seed: int, stream: int = 0):
        self._next = itertools.chain.from_iterable(_blocks(_seed_state(seed, stream))).__next__

    def next_u64(self) -> int:
        return self._next()

    def random(self) -> float:
        """Uniform float64 in [0, 1) from the top 53 bits."""
        return (self._next() >> 11) * 1.1102230246251565e-16

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) via Lemire multiply-shift (bias < n/2^64)."""
        return (self._next() * n) >> 64

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        draw = self._next
        for i in range(len(seq) - 1, 0, -1):
            j = (draw() * (i + 1)) >> 64
            seq[i], seq[j] = seq[j], seq[i]
