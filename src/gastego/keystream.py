"""All keyed randomness: seed derivation, index permutation, XOR keystream.

Stego files and key files are exchanged between machines, so every keyed
decision comes from one small, fully specified generator rather than a
platform default. The definitions below are normative; test vectors live in
the test suite and README.

Generator (SplitMix64):
    state' = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state'
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Derived draws:
    next_below(n) = floor(next64() * n / 2**64)      (one output per draw, n < 2**32)
    next_below_block(count, n)                       (count next_below(n) draws at once)
    byte stream   = each next64() emitted as 8 bytes, little-endian

Seed mixing:
    mix64(z)      = SplitMix64 output for state z (one step)
    derive_seed(key, purpose, index)
                  = mix64(mix64(key.seed XOR fnv1a64(purpose)) XOR index)
    where fnv1a64 is the 64-bit FNV-1a hash of the purpose string's UTF-8 bytes.

Walk:
    permute_indices(n, key, count)
                  = the first count entries of the keyed Fisher-Yates shuffle
                    of range(n) (see permute_indices), as an int64 array

The XOR keystream is obfuscation keyed by the master seed, not cryptography;
anyone who knows the seed recovers the message by design.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


class SplitMix64:
    """The normative PRNG stream. Deterministic, portable, tiny state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform draw in [0, n) for 1 <= n < 2**32; consumes exactly one output.

        Multiply-shift mapping: floor(u * n / 2**64). The residual bias is
        below 2**-32 per draw, far beneath anything observable here.
        """
        return (self.next64() * n) >> 64

    def next_below_block(self, count: int, n: int) -> np.ndarray:
        """`count` next_below(n) draws as one uint64 array, read at once; the
        stream ends where `count` next_below calls would leave it."""
        draws = _mulhi_small(stream_outputs(self.state, 1, count), n)
        self.state = (self.state + count * GAMMA) & MASK64
        return draws


def mix64(z: int) -> int:
    """One SplitMix64 step applied to state z; the seed-mixing primitive."""
    return SplitMix64(z).next64()


@dataclass(frozen=True)
class MasterKey:
    """The user's secret. Any integer is accepted and reduced mod 2**64."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & MASK64)

    def hex(self) -> str:
        return f"{self.seed:016x}"


def derive_seed(key: MasterKey, purpose: str, index: int | np.ndarray) -> int | np.ndarray:
    """Deterministic 64-bit seed for one (purpose, index) slot under a key.

    Distinct purposes give independent streams; the pipeline uses "encrypt",
    "permute" and "ga" (the latter indexed by sample position). An integer
    ndarray of indices gives a uint64 array: each entry's seed, in one pass.
    Any other index, numpy integer scalars included, is read as a Python int.
    """
    h = mix64(key.seed ^ fnv1a64(purpose.encode("utf-8")))
    if isinstance(index, np.ndarray):
        return _scramble((index.astype(np.uint64) ^ np.uint64(h)) + np.uint64(GAMMA))
    return mix64(h ^ (operator.index(index) & MASK64))


def permute_indices(n: int, key: MasterKey, count: int) -> np.ndarray:
    """The first `count` entries of the keyed Fisher-Yates permutation of
    range(n), as an int64 array; `count` is clamped to 0..n.

    The normative walk is the full shuffle: i = n-1 .. 1, swap position i
    with position next_below(i+1), the stream seeded from
    derive_seed(key, "permute", 0). Only the requested prefix is resolved,
    which changes no output: no step after step p touches position p, and
    what it holds follows from the draws alone. Cost is O(n) vectorized.
    """
    size = max(0, min(count, n))
    draw, nxt = _walk_draws(n, key)
    # entry i is what position draw[i] held just before step i: pre(s) for the
    # next step s > i that drew it, else draw[i]. Group the steps that drew a
    # prefix position by position, in step order: an LSD radix sort on 16-bit
    # digits, since numpy's stable sort of uint16 keys is a radix sort
    steps = np.flatnonzero(draw < size)
    for shift in range(0, max(size - 1, 0).bit_length(), 16):
        steps = steps[np.argsort((draw[steps] >> shift).astype(np.uint16), kind="stable")]
    drawn = draw[steps]
    succ = np.full(len(steps), n, dtype=np.int64)
    same = drawn[1:] == drawn[:-1]
    succ[:-1][same] = steps[1:][same]
    prefix = steps < size
    ends = np.empty(size, dtype=np.int64)
    ends[steps[prefix]] = succ[prefix]
    # pre(s), the value at position s just before step s, is where the chain
    # s, nxt[s], nxt[nxt[s]], ... ends: each link is the step that last wrote s
    active = np.flatnonzero(ends < n)
    while len(active):
        step = nxt[ends[active]]
        going = step < n
        active = active[going]
        ends[active] = step[going]
    return np.where(ends < n, ends, draw[:size])


# steps of the walk whose draws and links are built at a time
_WALK_BLOCK = 1 << 14


@functools.lru_cache(maxsize=1)
def _walk_draws(n: int, key: MasterKey) -> tuple[np.ndarray, np.ndarray]:
    """The walk's draws, draw[i] = step i's next_below(i+1) (draw[0] = 0), and
    nxt[t], the smallest step i > t with draw[i] == t (n if none).

    Both arrays are filled one block of _WALK_BLOCK steps at a time, so no
    temporary is n long. Cached for the latest walk, so a caller that extends
    its prefix in steps builds them once. Both arrays are read-only.
    """
    dtype = np.int32 if n < 2**31 else np.int64
    seed = derive_seed(key, "permute", 0)
    draw = np.empty(n, dtype=dtype)
    nxt = np.full(n, n, dtype=dtype)
    for start in range(0, n, _WALK_BLOCK):
        stop = min(start + _WALK_BLOCK, n)
        steps = np.arange(start, stop, dtype=dtype)
        # step i reads stream output n - i; the closed-form stream makes this
        # identical to stepping a SplitMix64 and calling next_below(i + 1).
        # Position 0, which no step draws for, gets next_below(1) = 0.
        outputs = stream_outputs(seed, n - stop + 1, stop - start)[::-1]
        draw[start:stop] = _mulhi_small(outputs, steps.astype(np.uint64) + np.uint64(1))
        d = draw[start:stop]
        # a step that drew its own position swaps nothing and links nothing
        np.minimum.at(nxt, d, np.where(d == steps, n, steps))
    draw.flags.writeable = False
    nxt.flags.writeable = False
    return draw, nxt


def xor_keystream(data: bytes, key: MasterKey) -> bytes:
    """XOR data with the keyed byte stream; applying it twice is a no-op."""
    words = stream_outputs(derive_seed(key, "encrypt", 0), 1, -(-len(data) // 8))
    ks = np.frombuffer(words.astype("<u8").tobytes(), dtype=np.uint8, count=len(data))
    return (np.frombuffer(data, dtype=np.uint8) ^ ks).tobytes()


# --- vectorized stream access -------------------------------------------------
#
# SplitMix64's state advances by adding GAMMA, so output t of a stream seeded
# with s is scramble(s + t*GAMMA) with t counted from 1. That closed form lets
# batch code read any window of any stream without stepping through it.


def _scramble(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function, applied in place to z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


# The most outputs scrambled in one pass. stream_outputs scrambles many
# streams a block of rows at a time, so that each pass and its temporaries
# (256 KiB) stay in cache: a GA generation's draws for 2,048 streams took
# half the time this way.
_SCRAMBLE_BLOCK = 1 << 15


def stream_outputs(seed: int | np.ndarray, first: int, count: int) -> np.ndarray:
    """Outputs number first..first+count-1 (1-based) of one or many streams.

    `seed` may be a scalar or a uint64 array of shape (S,); the result is
    (count,) or (S, count) respectively.
    """
    ts = np.arange(first, first + count, dtype=np.uint64)
    ts *= np.uint64(GAMMA)
    seeds = np.asarray(seed, dtype=np.uint64)
    if seeds.ndim == 0:
        ts += seeds
        return _scramble(ts)
    step = max(1, _SCRAMBLE_BLOCK // max(count, 1))  # streams per block
    out = np.empty((len(seeds), count), dtype=np.uint64)
    for start in range(0, len(seeds), step):
        block = out[start : start + step]
        np.add(seeds[start : start + step, None], ts, out=block)
        _scramble(block)
    return out


def _mulhi_small(u: np.ndarray, n: np.ndarray | int) -> np.ndarray:
    """floor(u * n / 2**64) for uint64 u and n < 2**32, without 128-bit ints.

    n is a scalar or broadcasts against u's shape.
    """
    n = np.asarray(n, dtype=np.uint64)
    lo = u & np.uint64(0xFFFFFFFF)
    lo *= n
    lo >>= np.uint64(32)
    hi = u >> np.uint64(32)
    hi *= n
    hi += lo
    hi >>= np.uint64(32)
    return hi
