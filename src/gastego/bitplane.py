"""Bit-layer arithmetic on samples.

Conventions used everywhere in this package:

* A sample's *raw* form is its unsigned bit pattern (for 16-bit audio, the
  two's-complement pattern). Bit-layer operations act on raw samples.
* Its *value* is the interpreted number: unsigned for 8-bit, signed for
  16-bit. Distances are measured on values, so an adjustment that crosses
  the sign boundary is scored by audible amplitude error.
* Layer j addresses the bit with place value 2**(j-1); layer 1 is the LSB.
* Payload bits travel in rows of k bits, one row per carrier, ordered lowest
  target layer first. LayerMask.pack turns rows into *packed patterns* (raw
  values with the row's bits at the mask positions) and LayerMask.unpack
  reads rows back; they are the only place that maps bits to layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerMask:
    """The set of bit layers that carry payload within one sample."""

    layers: tuple[int, ...]
    bit_depth: int

    def __post_init__(self):
        if self.bit_depth not in (8, 16):
            raise ValueError(f"bit_depth must be 8 or 16, got {self.bit_depth}")
        layers = tuple(sorted(self.layers))
        if not layers:
            raise ValueError("layer mask must not be empty")
        if len(set(layers)) != len(layers):
            raise ValueError(f"duplicate layers in {layers}")
        if layers[0] < 1 or layers[-1] > self.bit_depth:
            raise ValueError(f"layers {layers} out of range 1..{self.bit_depth}")
        object.__setattr__(self, "layers", layers)

    @property
    def k(self) -> int:
        """Payload bits carried per sample."""
        return len(self.layers)

    @property
    def bits(self) -> int:
        """The mask as an integer (1 at every target position)."""
        return sum(1 << (layer - 1) for layer in self.layers)

    def pack(self, bits) -> np.ndarray:
        """Packed int64 patterns of shape (...) from 0/1 rows of shape (..., k).

        Bit i of a row goes to the mask's i-th lowest layer, and every other
        bit is 0. A single row gives a scalar.
        """
        bits = np.asarray(bits)
        if bits.shape[-1:] != (self.k,):
            raise ValueError(f"bit rows of shape {bits.shape} need length {self.k}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("pattern bits must be 0 or 1")
        return bits.astype(np.int64) @ (np.int64(1) << self._shifts())

    def unpack(self, raw) -> np.ndarray:
        """Bit rows of shape (..., k) at the mask positions of raw samples (...).

        The inverse of pack. No bit above the bit depth is read, so a 16-bit
        sample value, negative in two's complement, reads like its raw form.
        """
        return (np.asarray(raw, dtype=np.int64)[..., None] >> self._shifts()) & 1

    def _shifts(self) -> np.ndarray:
        return np.array(self.layers, dtype=np.int64) - 1


def values_of(raw: np.ndarray, bit_depth: int) -> np.ndarray:
    """Values of raw int64 samples: unsigned at 8-bit, two's complement at 16-bit."""
    if bit_depth == 16:
        return np.where(raw >= 1 << 15, raw - (1 << 16), raw)
    return raw


# --- nearest-valid-value adjustment -------------------------------------------
#
# The adjuster reasons in a "biased" domain where unsigned order equals
# value order: 16-bit raw samples are XORed with 0x8000, 8-bit samples are
# already ordered. Fixing the target bits leaves the free bits, and the
# candidate value is strictly increasing in the free-bit field, so the
# nearest candidates are the floor and ceiling of that monotone map.


def bias_bit(bit_depth: int) -> int:
    """The bit whose XOR maps raw samples to the biased domain: 0x8000 at 16-bit."""
    return 1 << 15 if bit_depth == 16 else 0


def adjust_nearest_packed(samples, mask: LayerMask, pattern_bits) -> np.ndarray:
    """Nearest raw values that carry the packed `pattern_bits` at `mask`.

    `samples` and `pattern_bits` are raw int64 arrays of one shape; returns
    an int64 array of that shape. Each result minimizes
    |value(result) - value(sample)|, and ties go to the smaller value.
    Contract-equivalent to oracle_nearest, which defines optimality by
    exhaustive enumeration.

    Closed form, in the biased domain: h is the highest target bit where
    sample and pattern differ. Candidates that keep the sample's bits above h
    all lie on one side of the sample (above it if the pattern has the 1 at
    h), and the nearest of them sets every free bit below h to 0 (above) or
    1 (below). The nearest candidate on the other side steps the free-bit
    field above h by one, a masked increment or decrement (Warren, Hacker's
    Delight, 2nd ed., sec. 2-1); it does not exist when that field is already
    at its end.
    """
    bd = mask.bit_depth
    bias = bias_bit(bd)
    target = mask.bits
    free = ((1 << bd) - 1) & ~target
    samples = np.asarray(samples, dtype=np.int64)
    pattern_bits = np.asarray(pattern_bits, dtype=np.int64)
    sb = samples ^ bias
    pb = pattern_bits ^ (target & bias)

    low = (sb ^ pb) & target  # smeared below: every bit at or under h
    for shift in (1, 2, 4, 8):
        low = low | (low >> shift)
    up = (pb & (low ^ (low >> 1))) != 0  # the pattern has the 1 at h
    prefix = sb & ~low
    same = prefix | (pb & low) | np.where(up, 0, free & low)

    field = free & ~low  # free bits above h
    stepped = np.where(up, (prefix & field) - 1, (prefix | ~field) + 1) & field
    other = (prefix & target) | stepped | (pb & low) | np.where(up, free & low, 0)
    exists = np.where(up, prefix & field != 0, prefix & field != field)
    # distance ties go to the smaller value: `other` when it lies below
    d_same, d_other = abs(same - sb), abs(other - sb)
    closer = np.where(up, d_other <= d_same, d_other < d_same)
    return np.where(exists & closer, other, same) ^ bias


def oracle_nearest(
    samples: np.ndarray, mask: LayerMask, pattern_bits: np.ndarray
) -> np.ndarray:
    """Ground-truth optima by enumeration: one per (sample, pattern) row.

    `samples` and `pattern_bits` are raw int64 arrays of equal shape (n,).
    Kept deliberately naive and independent of adjust_nearest_packed: every
    value of the bit depth is enumerated once per call, in ascending order;
    the candidates carrying a pattern are filtered once per distinct pattern,
    and every row with that pattern scans all of them (in chunks of rows, to
    bound memory). The first candidate at the minimum distance is the
    smaller value, as the tie rule wants. It is the reference of acceptance
    criterion 3 and of `oracle-check`.
    """
    bd = mask.bit_depth
    lo = -(1 << 15) if bd == 16 else 0
    values = np.arange(lo, lo + (1 << bd), dtype=np.int64)
    raws = values & ((1 << bd) - 1)
    masked = raws & mask.bits
    s_vals = values_of(np.asarray(samples, dtype=np.int64), bd)
    pattern_bits = np.asarray(pattern_bits, dtype=np.int64)

    out = np.empty(len(s_vals), dtype=np.int64)
    for pattern in np.unique(pattern_bits):
        ok = masked == pattern
        cand_vals, cand_raws = values[ok], raws[ok]
        rows = np.flatnonzero(pattern_bits == pattern)
        chunk = max(1, (1 << 20) // len(cand_vals))
        for start in range(0, len(rows), chunk):
            part = rows[start : start + chunk]
            dist = np.abs(cand_vals[None, :] - s_vals[part, None])
            out[part] = cand_raws[np.argmin(dist, axis=1)]
    return out
