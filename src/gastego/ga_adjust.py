"""Per-sample genetic search for a low-distortion carrier value.

One audio sample is the chromosome and each raw bit is a gene. The target
layers are frozen to the payload bits; everything else evolves to minimize
the distance to the original sample. Because the plain altered sample seeds
the first generation and the fittest member (the one elite) survives each
generation unchanged, the result is never worse than plain substitution.

Parent selection is a seeded two-way tournament: draw two members, keep the
fitter (ties to the smaller sample value). Deterministic top-two selection
was tried first and collapses the population onto one attractor, measurably
missing the per-sample optimum; the tournament keeps mid-fitness members
breeding while staying fully reproducible.

Draw discipline (normative; `reference_run_ga` in tests/test_ga_adjust.py is
the one-draw-at-a-time transliteration that pins it): the stream for one run
is SplitMix64(seed). Draws are consumed in this order:

* population init: one draw per random member (population_size - 2 draws),
  each mapped by next_below(2**bit_depth);
* per generation, per offspring pair: four tournament index draws
  (parent one's two candidates, then parent two's), one crossover-decision
  draw, one cut-point draw (consumed even when no crossover happens), then
  one draw per locus (1..bit_depth) for each of the two offspring.

Early exit: a row stops drawing once its best equals the closed-form
optimum, which the caller passes in (`bitplane.adjust_nearest_packed` or
`bitplane.oracle_nearest` of the row). That value is the unique minimum of
the (distance, value) sort key and elitism keeps it, so the row's result is
that optimum; nothing downstream depends on the unread portion of the stream.
Every live row reads its own stream at the same offset, so retiring one row
leaves the draws of the others unchanged.

Representation: a row's population is kept only as its members' sort keys,
(distance << bit_depth) | (value ^ bias_bit), sorted once per generation.
The biased value orders like the sample value, so one integer comparison is
the (distance, value) comparison, the key's low bit_depth bits are the member
itself, and equal keys are equal members: sorting needs no tie rule, and the
tournament between sorted positions i and j is won by position min(i, j).
XOR with bias_bit commutes with crossover and mutation, so members are bred
in that biased form too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitplane import LayerMask, bias_bit
from .keystream import MASK64, _mulhi_small, stream_outputs


@dataclass(frozen=True)
class GaParams:
    population_size: int = 16
    generations: int = 64
    crossover_prob: float = 0.8
    mutation_prob: float = 0.10

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")


def run_ga_batch(
    samples: np.ndarray,
    pattern_bits: np.ndarray,
    mask: LayerMask,
    params: GaParams,
    seeds: np.ndarray,
    optimum: np.ndarray,
) -> np.ndarray:
    """Run many independent GAs in lockstep; returns each row's fittest value.

    `samples` and `pattern_bits` are raw int64 arrays of shape (S,); `seeds`
    is uint64 of shape (S,). All rows share mask and params, which is exactly
    the embedding pipeline's situation. Each row consumes its own stream in
    the normative draw order of the module docstring, so a row's result does
    not depend on the other rows in the batch. Rows retire as soon as their
    best equals `optimum`, each row's closed-form optimum
    (`adjust_nearest_packed(samples, mask, pattern_bits)`), and the live rows
    are compacted.
    """
    S = len(samples)
    if S == 0:
        return np.empty(0, dtype=np.int64)
    bd = mask.bit_depth
    mask_bits = mask.bits
    bias = np.int64(bias_bit(bd))
    low_bits = np.int64((1 << bd) - 1)
    pc_thr = _prob_threshold(params.crossover_prob)
    pm_thr = _prob_threshold(params.mutation_prob)
    P = params.population_size
    need = P - 1  # offspring per generation; the fittest member survives
    pairs = (need + 1) // 2
    draws_per_pair = 6 + 2 * bd
    # the bounds of draws 0..5 of a pair: four tournament picks, the
    # crossover decision (compared, not bounded) and the cut
    bounds = np.array([P, P, P, P, 1, bd - 1], dtype=np.uint64)

    samples = np.asarray(samples, dtype=np.int64)
    pattern_bits = np.asarray(pattern_bits, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    # a row that retires keeps its optimum, so only the rows still live at
    # the end are written
    best = np.array(optimum, dtype=np.int64)

    # members in biased form (module docstring): repair is
    # (b & ~mask_bits) | pattern_b
    orig_b = (samples ^ bias)[:, None]
    pattern_b = (pattern_bits ^ (bias & mask_bits))[:, None]

    def sort_key(biased: np.ndarray, orig_b: np.ndarray) -> np.ndarray:
        # fittest first; distance ties go to the smaller sample value, and
        # the low bd bits are the member itself
        return (np.abs(biased - orig_b) << bd) | biased

    key = np.empty((S, P), dtype=np.int64)
    key[:, :2] = sort_key((orig_b & ~mask_bits) | pattern_b, orig_b)
    if P > 2:
        init = stream_outputs(seeds, 1, P - 2)
        randoms = (init >> np.uint64(64 - bd)).astype(np.int64) ^ bias
        key[:, 2:] = sort_key((randoms & ~mask_bits) | pattern_b, orig_b)
    opt_key = sort_key((best ^ bias)[:, None], orig_b)[:, 0]

    offset = P - 2  # draws consumed so far, per stream
    live = np.arange(S)  # batch row of each live row

    def breed(key: np.ndarray, seeds: np.ndarray, pattern_b: np.ndarray,
              orig_b: np.ndarray, first: int) -> None:
        """Replace all but the fittest of each sorted key row with the keys
        of the offspring bred from draws first.. of every stream.

        A function of its own so that the draw block and the per-pair arrays
        are freed before the next generation draws its block.
        """
        rows = len(key)
        block = stream_outputs(seeds, first, pairs * draws_per_pair)
        block = block.reshape(rows, pairs, draws_per_pair)
        drawn = _mulhi_small(block[:, :, :6], bounds).astype(np.int64)

        # Two tournaments per pair: candidates (0, 1) pick parent one and
        # (2, 3) parent two. The keys are sorted, so the smaller index holds
        # the fitter member, and equal keys are equal members, so it also
        # stands for the first candidate on a tie.
        winners = np.minimum(drawn[:, :, 0:4:2], drawn[:, :, 1:4:2])
        parents = key[np.arange(rows)[:, None, None], winners] & low_bits

        # Single-point crossover: each child keeps its own parent's loci
        # 1..cut and takes the other parent's loci above, so both children
        # flip `swap`, the loci above the cut where the parents differ
        # (cut = 1 + draw 5, and -2 << draw 5 masks the loci above it).
        swap = (parents[:, :, 0] ^ parents[:, :, 1]) & (np.int64(-2) << drawn[:, :, 5])
        if pc_thr <= MASK64:
            swap[block[:, :, 4] >= np.uint64(pc_thr)] = 0

        # One draw per locus per child, eight loci to a word: the multiply
        # gathers each byte's hit into the top byte. Frozen loci are restored
        # afterwards.
        if pm_thr > MASK64:
            flips = low_bits
        else:
            hit = np.ascontiguousarray((block < np.uint64(pm_thr))[:, :, 6:])
            words = hit.view("<u8")
            words *= _GATHER_BYTES
            words >>= np.uint64(56)
            flips = words.astype(np.uint8).view(f"<u{bd // 8}")
        children = parents ^ swap[:, :, None] ^ flips
        # children of pair p sit at 2p and 2p + 1, truncated to `need`
        children = (children.reshape(rows, -1)[:, :need] & ~mask_bits) | pattern_b
        key[:, 1:] = sort_key(children, orig_b)

    for _ in range(params.generations):
        key.sort(axis=1)
        # A row whose best is its optimum keeps it to the end (elitism), so
        # it retires now and the live rows close up.
        keep = key[:, 0] != opt_key
        if not keep.all():
            if not keep.any():
                return best
            live, key, seeds, pattern_b, orig_b, opt_key = (
                a[keep] for a in (live, key, seeds, pattern_b, orig_b, opt_key)
            )
        breed(key, seeds, pattern_b, orig_b, offset + 1)
        offset += pairs * draws_per_pair

    best[live] = (key.min(axis=1) & low_bits) ^ bias
    return best


# Multiplying a word of eight 0/1 bytes (byte i is locus i) by this constant
# moves byte i's bit to bit 56 + i and lets no other product reach the top
# byte, so the top byte holds the eight loci as bits.
_GATHER_BYTES = np.uint64(0x0102040810204080)


def _prob_threshold(prob: float) -> int:
    """Draw u hits the event iff u < threshold; exact for prob 0 and 1."""
    return (1 << 64) if prob >= 1.0 else int(prob * (1 << 64))
