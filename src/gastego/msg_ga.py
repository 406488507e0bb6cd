"""Set-operator genetic algorithm over a message's byte values.

Individuals are fixed-length byte strings drawn from the message's value
range. Fitness counts how many distinct message values an individual covers
(set intersection); mutation re-introduces "scarce" values that the whole
population has lost (set difference against the population's gene union).
The loop breeds the two fittest, inserts both mutated offspring, and discards
the two least fit, keeping the population size constant until one individual
covers every distinct message value.

Two deliberate choices make the scarce-gene machinery actually converge, both
settled empirically (see the repo's test suite for the evidence):

* A scarce gene is substituted at a redundant position of the offspring (a
  duplicate or a non-message value) when one exists, so the re-introduction
  never knocks out a value the offspring already covers.
* Among equal-fitness discard candidates, individuals that are not copies of
  the current best die first, oldest first. The population then collapses
  onto the best lineage between improvements; values pinned in non-breeding
  members return to the scarce pool instead of being sheltered forever, which
  is the only way new material ever reaches the breeding pair.

The population is kept ordered, fittest first with ties in insertion order,
so a generation touches only the two offspring and the two members it kills:
each offspring is inserted after every member of equal fitness, the two kills
come from the least-fit run at the tail, and the best is always the first
member. A flag per member marks the copies of the best, so the kills skip
them without comparing individuals.

Individuals are `bytes`, and the only other population state is a 256-entry
gene-count array, moved once per generation by the offspring less the kills.
Each generation reads the scarce pool from it once; the first offspring's
mutation removes from it the drawn value, its one gene not already counted.

Most generations are steady: the second member is a copy of the best and
the pool is empty. Crossing two equal parents returns them whatever the cut,
and nothing mutates, so both offspring are copies of the best. A steady
generation advances the stream past its cut draw without using it, inserts
the best itself twice behind its equal members, and moves the counts by
twice the best's, kept until the best changes. Generation 0's fitnesses come
from one numpy pass over a one-hot table of each member's values.

This GA stands alone; optionally its winner can be folded into a master key
seed for the embedding pipeline (see derive_key_from_genes).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMessage, UnreachableOptimum
from .keystream import MasterKey, SplitMix64, derive_seed


@dataclass(frozen=True)
class MsgGaParams:
    """Knobs for evolve(). population_size and genes_per_individual default
    to the message length and its distinct-value count respectively."""

    population_size: int | None = None
    genes_per_individual: int | None = None
    max_generations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.population_size is not None and self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.genes_per_individual is not None and self.genes_per_individual < 1:
            raise ValueError("genes_per_individual must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass
class EvolveResult:
    best: tuple[int, ...]
    best_fitness: int
    target_fitness: int
    generations: int
    fitness_history: list[int] = field(repr=False)
    population_sizes: list[int] = field(repr=False)


def init_population(
    message: bytes, size: int, genes: int, rng: SplitMix64
) -> list[bytes]:
    """size individuals of `genes` uniform draws from [min, max] of message.

    Row-major, one rng.next_below(span) per gene, drawn as one block; rng is
    left where those draws leave it.
    """
    low = min(message)
    draws = rng.next_below_block(size * genes, max(message) - low + 1)
    flat = (draws + low).astype(np.uint8).tobytes()
    return [flat[i * genes : (i + 1) * genes] for i in range(size)]


def evolve(message: bytes, params: MsgGaParams = MsgGaParams()) -> EvolveResult:
    """Run the GA until one individual covers every distinct message value.

    Raises UnreachableOptimum up front if individuals are too short to ever
    reach full coverage, and EmptyMessage for a zero-byte message.
    Deterministic for a given (message, params).
    """
    if not message:
        raise EmptyMessage("cannot profile an empty message")
    distinct = frozenset(message)
    target = len(distinct)
    L = params.population_size or max(2, len(message))
    n = params.genes_per_individual or target
    if n < target:
        raise UnreachableOptimum(
            f"{n} genes per individual cannot cover {target} distinct values"
        )

    def gene_counts(genes: bytes) -> np.ndarray:
        return np.bincount(np.frombuffer(genes, np.uint8), minlength=256)

    rng = SplitMix64(derive_seed(MasterKey(params.seed), "msg-ga", 0))
    pop = init_population(message, L, n, rng)
    joined = b"".join(pop)
    wanted = gene_counts(message) > 0
    counts = gene_counts(joined)
    # generation 0's fitnesses from a one-hot held[member, value], a block of
    # at most 4,096 members at a time; neg holds the negated fitnesses
    genes = np.frombuffer(joined, np.uint8).reshape(L, n)
    neg = np.empty(L, np.int64)
    for start in range(0, L, 4096):
        block = genes[start : start + 4096]
        held = np.zeros((len(block), 256), bool)
        held[np.arange(len(block))[:, None], block] = True
        neg[start : start + 4096] = -(held & wanted).sum(axis=1)
    # fittest first, ties in insertion order, so that bisect_right places a
    # newcomer after every equal member
    order = np.argsort(neg, kind="stable")
    pop = [pop[i] for i in order]
    neg = neg[order].tolist()

    def mutate(child: bytes, pool: list[int]) -> bytes:
        # slots: genes that are not a message value held once. A child with
        # none holds every message value, so its parents do and pool is empty.
        genes = np.frombuffer(child, np.uint8)
        slots = np.flatnonzero(~(wanted & (gene_counts(child) == 1))[genes])
        pos = int(slots[rng.next_below(len(slots))])
        gene = pool.pop(rng.next_below(len(pool)))
        return child[:pos] + bytes((gene,)) + child[pos + 1 :]

    # dup[i]: pop[i] is a copy of the best, pop[0]. The best's value changes
    # only when the top fitness rises: equal offspring go behind pop[0], and
    # pop[0] is killed only when every member is a copy of it.
    dup = [ind == pop[0] for ind in pop]
    history = [-neg[0]]
    sizes = [len(pop)]
    generations = 0
    steady_best = None
    while history[-1] < target and generations < params.max_generations:
        generations += 1
        p1, p2 = pop[0], pop[1]
        pool = np.flatnonzero(wanted & (counts == 0)).tolist()
        if dup[1] and not pool:
            # steady: both parents are the best and nothing is scarce, so
            # both children are copies of it, whatever the cut. The cut draw
            # is still read, and the copies go behind every equal member.
            rng.next64()
            if steady_best is not p1:
                steady_best, twice_best = p1, 2 * gene_counts(p1)
            i = bisect_right(neg, neg[0])
            pop[i:i], neg[i:i], dup[i:i] = (p1, p1), (neg[0], neg[0]), (True, True)
            grown = twice_best
        else:
            # target >= 2 here (one distinct value fits every individual from
            # the start), so n >= 2 and there is a cut point
            cut = 1 + rng.next_below(n - 1)
            born = b""
            for child in (p1[:cut] + p2[cut:], p2[:cut] + p1[cut:]):
                if pool:
                    child = mutate(child, pool)
                born += child
                f = -len(distinct.intersection(child))
                i = bisect_right(neg, f)
                pop.insert(i, child)
                neg.insert(i, f)
                dup.insert(i, child == pop[0])
            grown = gene_counts(born)
        if -neg[0] > history[-1]:
            # a new best is an offspring; every older member is less fit, so
            # only the other offspring, second in line, can be a copy of it
            dup = [True, pop[1] == pop[0]] + [False] * (len(pop) - 2)
        dead = b""
        for _ in range(2):
            # the first member of the least-fit run that is not a copy of the
            # best, or the run's first member when every one is a copy
            run = bisect_left(neg, neg[-1])
            try:
                i = dup.index(False, run)
            except ValueError:
                i = run
            dead += pop[i]
            del pop[i], neg[i], dup[i]
        counts += grown - gene_counts(dead)
        history.append(-neg[0])
        sizes.append(len(pop))

    return EvolveResult(tuple(pop[0]), -neg[0], target, generations, history, sizes)


def derive_key_from_genes(genes: tuple[int, ...]) -> MasterKey:
    """Fold an individual's genes into a master key seed, deterministically."""
    acc = 0
    for gene in genes:
        acc = derive_seed(MasterKey(acc), "keygen", gene)
    return MasterKey(acc)
