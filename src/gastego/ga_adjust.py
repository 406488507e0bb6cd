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
optimum (`bitplane.adjust_nearest_packed`). That value is the unique minimum
of the (distance, value) sort key and elitism keeps it, so the row's result
is unchanged; nothing downstream depends on the unread portion of the stream.
Every live row reads its own stream at the same offset, so retiring one row
leaves the draws of the others unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitplane import LayerMask, adjust_nearest_packed, bias_bit
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
) -> np.ndarray:
    """Run many independent GAs in lockstep; returns each row's fittest value.

    `samples` and `pattern_bits` are raw int64 arrays of shape (S,); `seeds`
    is uint64 of shape (S,). All rows share mask and params, which is exactly
    the embedding pipeline's situation. Each row consumes its own stream in
    the normative draw order of the module docstring, so a row's result does
    not depend on the other rows in the batch. Rows retire as soon as their
    best equals the closed-form optimum, and the live rows are compacted.
    """
    S = len(samples)
    if S == 0:
        return np.empty(0, dtype=np.int64)
    bd = mask.bit_depth
    mask_bits = mask.bits
    bias = np.int64(bias_bit(bd))
    pc_thr = _prob_threshold(params.crossover_prob)
    pm_thr = _prob_threshold(params.mutation_prob)
    P = params.population_size
    need = P - 1  # offspring per generation; the fittest member survives
    pairs = (need + 1) // 2
    draws_per_pair = 6 + 2 * bd
    locus_weights = np.int64(1) << np.arange(bd, dtype=np.int64)

    samples = np.asarray(samples, dtype=np.int64)
    pattern_bits = np.asarray(pattern_bits, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    repaired = (samples & ~mask_bits) | pattern_bits
    optimum = adjust_nearest_packed(samples, mask, pattern_bits)

    pop = np.empty((S, P), dtype=np.int64)
    pop[:, 0] = repaired
    pop[:, 1] = repaired
    if P > 2:
        init = stream_outputs(seeds, 1, P - 2)
        randoms = (init >> np.uint64(64 - bd)).astype(np.int64)
        pop[:, 2:] = (randoms & ~mask_bits) | pattern_bits[:, None]

    orig_b = (samples ^ bias)[:, None]
    offset = P - 2  # draws consumed so far, per stream
    best = np.empty(S, dtype=np.int64)
    live = np.arange(S)  # batch row of each live row

    def sort_key(values: np.ndarray, orig_b: np.ndarray) -> np.ndarray:
        # fittest first; distance ties go to the smaller sample value
        biased = values ^ bias
        return (np.abs(biased - orig_b) << bd) | biased

    def breed(
        pop: np.ndarray, key: np.ndarray, seeds: np.ndarray,
        pattern_bits: np.ndarray, first: int,
    ) -> np.ndarray:
        """Offspring of one generation from draws first.. of every stream.

        A function of its own so that the draw block and the per-pair arrays
        are freed before the next generation draws its block.
        """
        rows = len(pop)
        block = stream_outputs(seeds, first, pairs * draws_per_pair)
        block = block.reshape(rows, pairs, draws_per_pair)

        # Two tournaments per pair: candidates (0, 1) pick parent one and
        # (2, 3) parent two; the first candidate wins ties.
        picks = _mulhi_small(block[:, :, :4], P).astype(np.int64).reshape(rows, -1)
        picked_key = np.take_along_axis(key, picks, axis=1).reshape(rows, pairs, 2, 2)
        picks = picks.reshape(rows, pairs, 2, 2)
        winners = np.where(
            picked_key[..., 0] <= picked_key[..., 1], picks[..., 0], picks[..., 1]
        )
        parents = np.take_along_axis(pop, winners.reshape(rows, -1), axis=1)
        parents = parents.reshape(rows, pairs, 2)

        # Single-point crossover: each child keeps its own parent's loci
        # 1..cut and takes the other parent's loci above.
        if pc_thr > MASK64:
            do_cross = True
        else:
            do_cross = (block[:, :, 4] < np.uint64(pc_thr))[:, :, None]
        cut = 1 + _mulhi_small(block[:, :, 5], bd - 1).astype(np.int64)
        low = ((np.int64(1) << cut) - 1)[:, :, None]
        crossed = (parents & low) | (parents[:, :, ::-1] & ~low)
        children = np.where(do_cross, crossed, parents)

        # One draw per locus per child; frozen loci are restored afterwards.
        if pm_thr > MASK64:
            flips = np.int64((1 << bd) - 1)
        else:
            hit = (block[:, :, 6:] < np.uint64(pm_thr)).reshape(rows, pairs, 2, bd)
            flips = hit.astype(np.int64) @ locus_weights
        children = ((children ^ flips) & ~mask_bits) | pattern_bits[:, None, None]

        # children of pair p sit at 2p and 2p + 1, then truncate to `need`
        return children.reshape(rows, -1)[:, :need]

    for _ in range(params.generations):
        key = sort_key(pop, orig_b)
        order = np.argsort(key, axis=1)
        pop = np.take_along_axis(pop, order, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        # A row whose best is its optimum keeps it to the end (elitism), so
        # it retires now and the live rows close up.
        done = pop[:, 0] == optimum
        if done.any():
            best[live[done]] = optimum[done]
            keep = ~done
            if not keep.any():
                return best
            live, pop, key, seeds, pattern_bits, orig_b, optimum = (
                a[keep] for a in (live, pop, key, seeds, pattern_bits, orig_b, optimum)
            )
        children = breed(pop, key, seeds, pattern_bits, offset + 1)
        offset += pairs * draws_per_pair
        pop = np.concatenate([pop[:, :1], children], axis=1)

    fittest = sort_key(pop, orig_b).argmin(axis=1)[:, None]
    best[live] = np.take_along_axis(pop, fittest, axis=1)[:, 0]
    return best


def _prob_threshold(prob: float) -> int:
    """Draw u hits the event iff u < threshold; exact for prob 0 and 1."""
    return (1 << 64) if prob >= 1.0 else int(prob * (1 << 64))
