"""Set-operator genetic algorithm over a message's byte values.

Individuals are fixed-length integer vectors drawn from the message's value
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

This GA stands alone; optionally its winner can be folded into a master key
seed for the embedding pipeline (see derive_key_from_genes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyMessage, UnreachableOptimum
from .keystream import MasterKey, SplitMix64, derive_seed


@dataclass(frozen=True)
class MessageProfile:
    """The message as gene material: its values, their set, and the range."""

    values: tuple[int, ...]
    distinct: frozenset[int]
    min_val: int
    max_val: int


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


Individual = tuple[int, ...]


@dataclass
class EvolveResult:
    best: Individual
    best_fitness: int
    target_fitness: int
    generations: int
    fitness_history: list[int] = field(repr=False)
    population_sizes: list[int] = field(repr=False)


def profile_message(message: bytes) -> MessageProfile:
    """Byte values plus the derived set/range facts; rejects empty input."""
    if not message:
        raise EmptyMessage("cannot profile an empty message")
    values = tuple(message)
    return MessageProfile(values, frozenset(values), min(values), max(values))


def init_population(
    profile: MessageProfile, size: int, genes: int, rng: SplitMix64
) -> list[Individual]:
    """size individuals of `genes` uniform draws from [min_val, max_val]."""
    span = profile.max_val - profile.min_val + 1
    return [
        tuple(profile.min_val + rng.next_below(span) for _ in range(genes))
        for _ in range(size)
    ]


def set_fitness(individual: Individual, profile: MessageProfile) -> int:
    """How many distinct message values the individual contains."""
    return len(profile.distinct & set(individual))


def evolve(message: bytes, params: MsgGaParams = MsgGaParams()) -> EvolveResult:
    """Run the GA until one individual covers every distinct message value.

    Raises UnreachableOptimum up front if individuals are too short to ever
    reach full coverage, and EmptyMessage for a zero-byte message.
    Deterministic for a given (message, params).
    """
    profile = profile_message(message)
    target = len(profile.distinct)
    L = params.population_size or max(2, len(message))
    n = params.genes_per_individual or target
    if n < target:
        raise UnreachableOptimum(
            f"{n} genes per individual cannot cover {target} distinct values"
        )

    rng = SplitMix64(derive_seed(MasterKey(params.seed), "msg-ga", 0))
    pop = init_population(profile, L, n, rng)
    fits = [set_fitness(ind, profile) for ind in pop]
    # Gene counts across the population, kept incrementally so the scarce-set
    # query is O(changes) per generation instead of O(L * n).
    counts: Counter[int] = Counter(g for ind in pop for g in ind)
    missing = {v for v in profile.distinct if counts[v] == 0}

    def note_insert(ind: Individual) -> None:
        for g in ind:
            counts[g] += 1
            missing.discard(g)

    def note_discard(ind: Individual) -> None:
        for g in ind:
            counts[g] -= 1
            if counts[g] == 0 and g in profile.distinct:
                missing.add(g)

    def mutate(child: Individual) -> Individual:
        if not missing:
            return child
        child_counts = Counter(child)
        slots = [
            i
            for i, g in enumerate(child)
            if g not in profile.distinct or child_counts[g] > 1
        ]
        if not slots:
            slots = list(range(n))
        pos = slots[rng.next_below(len(slots))]
        pool = sorted(missing)
        gene = pool[rng.next_below(len(pool))]
        return child[:pos] + (gene,) + child[pos + 1 :]

    history = [max(fits)]
    sizes = [len(pop)]
    generations = 0
    while history[-1] < target and generations < params.max_generations:
        generations += 1
        # stable order: fittest first, insertion order breaks ties
        order = sorted(range(len(pop)), key=lambda i: -fits[i])
        pop = [pop[i] for i in order]
        fits = [fits[i] for i in order]
        p1, p2 = pop[0], pop[1]
        if n > 1:
            cut = 1 + rng.next_below(n - 1)
            o1 = p1[:cut] + p2[cut:]
            o2 = p2[:cut] + p1[cut:]
        else:
            o1, o2 = p1, p2
        # scarce set is re-derived before each offspring's mutation, so the
        # second offspring sees what the first one just re-introduced
        o1 = mutate(o1)
        note_insert(o1)
        o2 = mutate(o2)
        note_insert(o2)
        pop += [o1, o2]
        fits += [set_fitness(o1, profile), set_fitness(o2, profile)]
        best_ind = pop[max(range(len(pop)), key=lambda i: (fits[i], -i))]
        kill = sorted(
            range(len(pop)), key=lambda i: (fits[i], pop[i] == best_ind, i)
        )[:2]
        for i in sorted(kill, reverse=True):
            note_discard(pop[i])
            del pop[i], fits[i]
        history.append(max(fits))
        sizes.append(len(pop))

    best_i = max(range(len(pop)), key=lambda i: (fits[i], -i))
    return EvolveResult(pop[best_i], fits[best_i], target, generations, history, sizes)


def derive_key_from_genes(genes: Individual) -> MasterKey:
    """Fold an individual's genes into a master key seed, deterministically."""
    acc = 0
    for gene in genes:
        acc = derive_seed(MasterKey(acc), "keygen", gene)
    return MasterKey(acc)
