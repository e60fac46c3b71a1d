"""Portable, seedable pseudo-random number generator.

Every stochastic choice in this package (perturbation init, synthetic data,
weight init) goes through :class:`Xoshiro256StarStar` so that outputs are
bit-identical across platforms and Python/numpy versions.

Algorithm
---------
State setup uses the splitmix64 sequence of Steele/Lea/Flood seeded with a
64-bit integer; generation uses xoshiro256** by Blackman and Vigna:

    result = rotl64(s1 * 5, 7) * 9
    t  = s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
    s3 = rotl64(s3, 45)

all in 64-bit wrapping arithmetic. Floats in [0, 1) take the top 53 bits:
``(next_u64() >> 11) * 2.0**-53``.

Array fills
-----------
:meth:`Xoshiro256StarStar.fill` draws n values as numpy lanes rather than
one Python step at a time, and returns exactly the bits the scalar stream
would. The transition above uses only xor, shifts and rotations, so it is
linear over GF(2): the state k steps after s is the xor of the states k
steps after each of s's set bits taken alone. With k = isqrt(n), a
(256, 4) jump map (row 64*w + b: bit b of word w stepped k times) carries
the state from one lane start to the next, giving ceil(n/k) lanes spaced k
steps apart along the one stream. Each fill folds the map into a byte
table (entry [v, p]: the xor of the rows for the set bits of value v at
byte p of the little-endian state), so a jump is 32 lookups and one
xor-reduce. All lanes then step together k times, in place on four uint64
rows, through the same output and transition as ``next_u64``; read lane by
lane and cut to n, they are the next n outputs of the stream in order, and
the generator is left at the state n steps on, as if it had drawn them one
by one. Jumping is the scheme of the generators' authors (Blackman and
Vigna, "Scrambled linear pseudorandom number generators", 2018), here with
a jump length chosen per fill. The 256 KB table is built per fill, not
cached, so no table outlives its fill.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, next_state)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent per-item seed from (seed, index).

    Mixes the pair through two splitmix64 steps so neighbouring indices give
    uncorrelated streams. Deterministic and platform-independent.
    """
    mixed = (seed & _MASK64) ^ ((_GOLDEN * ((index & _MASK64) + 1)) & _MASK64)
    out, state = _splitmix64(mixed)
    out, _ = _splitmix64(state ^ out)
    return out


def _step(s):
    """Advance the four Python-int state words `s` one xoshiro256** step in
    place and return the output."""
    result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
    t = (s[1] << 17) & _MASK64
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return result


def _step_lanes(s: np.ndarray, out: np.ndarray) -> None:
    """:func:`_step` on the (4, lanes) uint64 rows `s` in place, output to
    `out`; uint64 arithmetic wraps, so nothing is masked."""
    np.multiply(s[1], 5, out=out)
    out[:] = (out << 7) | (out >> 57)
    out *= 9
    t = s[1] << 17
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[3:1:-1]  # s0 ^= s3, s1 ^= s2
    s[2] ^= t
    s[3] = (s[3] << 45) | (s[3] >> 19)


@functools.lru_cache(maxsize=16)
def _jump_map(k: int) -> np.ndarray:
    """(256, 4) uint64: row 64*w + b is the state k steps after the state
    with only bit b of word w set. Cached per k, so returned read-only."""
    bit = np.arange(256)
    words = np.zeros((4, 256), dtype=np.uint64)
    words[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    out = np.empty(256, dtype=np.uint64)
    for _ in range(k):
        _step_lanes(words, out)
    jump = np.ascontiguousarray(words.T)
    jump.flags.writeable = False
    return jump


def _byte_table(jump: np.ndarray) -> np.ndarray:
    """(256, 32, 4) uint64 from a jump map: entry [v, p] is the xor of its
    rows 8*p + b over the set bits b of v, the jump of byte p's share."""
    rows = np.ascontiguousarray(jump.reshape(32, 8, 4).transpose(1, 0, 2))
    table = np.empty((256, 32, 4), dtype=np.uint64)
    table[0] = 0
    for b in range(8):
        np.bitwise_xor(table[:1 << b], rows[b], out=table[1 << b:2 << b])
    return table


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 seeding."""

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            out, s = _splitmix64(s)
            state.append(out)
        self._s = state

    def next_u64(self) -> int:
        return _step(self._s)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, by rejection-free modulo of a
        53-bit draw (bias < 2**-40 for the ranges used here)."""
        span = high - low + 1
        return low + int(self.random() * span)

    def fill(self, shape) -> np.ndarray:
        """Array of uniform [0, 1) floats in C order: the next n values of
        :meth:`random`, bit for bit, drawn in lanes (see the module notes)."""
        n = int(np.prod(shape))
        if n == 0:
            return np.empty(shape, dtype=np.float64)
        k = math.isqrt(n)
        lanes = -(-n // k)
        table = _byte_table(_jump_map(k))
        starts = np.empty((lanes, 4), dtype="<u8")
        starts[0] = self._s
        byte_pos = np.arange(32)
        for lane in range(1, lanes):
            np.bitwise_xor.reduce(table[starts[lane - 1].view(np.uint8),
                                        byte_pos], axis=0, out=starts[lane])
        words = np.ascontiguousarray(starts.T, dtype=np.uint64)
        draws = np.empty((k, lanes), dtype=np.uint64)
        last_steps = n - (lanes - 1) * k
        for step in range(k):
            _step_lanes(words, draws[step])
            if step + 1 == last_steps:
                self._s = [int(w) for w in words[:, -1]]
        u = draws.T.ravel()[:n]
        return ((u >> 11) * 2.0 ** -53).reshape(shape)

    def fill_uniform(self, shape, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.fill(shape)
