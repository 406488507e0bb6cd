"""Per-sample GA: reference operators, invariants, oracle quality, equivalence
of the production engine with the scalar reference.

run_ga_batch takes lists of rows here as well as arrays; a single case is a
one-row batch, and `ga_batch` hands it each row's closed-form optimum.
"""

import random

import numpy as np
import pytest

from gastego.bitplane import LayerMask, adjust_nearest_packed, oracle_nearest
from gastego import ga_adjust
from gastego.ga_adjust import GaParams, run_ga_batch
from gastego.keystream import SplitMix64


def ga_batch(samples, pattern_bits, mask, params, seeds):
    """run_ga_batch, handed each row's adjust_nearest_packed optimum."""
    optimum = adjust_nearest_packed(samples, mask, pattern_bits)
    return run_ga_batch(samples, pattern_bits, mask, params, seeds, optimum)


# --- scalar reference ----------------------------------------------------------
# A one-draw-at-a-time transliteration of the draw order documented in
# gastego.ga_adjust, kept deliberately naive and apart from the code it checks
# (it reads values and distances its own way). It pins the normative order
# that the vectorized run_ga_batch must reproduce bit-for-bit.


def value(raw, bit_depth):
    """A raw sample's value: unsigned at 8-bit, two's complement at 16-bit."""
    return raw - (1 << 16) if bit_depth == 16 and raw >= 1 << 15 else raw


def distance(a_raw, b_raw, bit_depth):
    return abs(value(a_raw, bit_depth) - value(b_raw, bit_depth))


def prob_threshold(prob):
    """Draw u hits the event iff u < threshold; exact for prob 0 and 1."""
    return (1 << 64) if prob >= 1.0 else int(prob * (1 << 64))


def repair(raw, mask, pattern_bits):
    """Force the frozen loci of a raw value to the packed payload pattern."""
    return (raw & ~mask.bits) | pattern_bits


def fitness(raw, sample, bit_depth):
    """Negated distortion: 0 iff the candidate equals the original sample."""
    return -distance(raw, sample, bit_depth)


def crossover_ints(a, b, cut):
    """Offspring one takes a's loci 1..cut and b's above; two is the mirror."""
    low = (1 << cut) - 1
    return (a & low) | (b & ~low), (b & low) | (a & ~low)


def mutation_flips(bit_depth, threshold, rng):
    """One draw per locus 1..bit_depth; bit set where the draw hits."""
    flips = 0
    for locus in range(bit_depth):
        if rng.next64() < threshold:
            flips |= 1 << locus
    return flips


def reference_run_ga(sample, mask, pattern, params, seed):
    """Fittest raw value plus the best fitness at init and after each generation."""
    bd = mask.bit_depth
    pattern_bits = mask.pack(pattern)
    rng = SplitMix64(seed)
    pc_thr = prob_threshold(params.crossover_prob)
    pm_thr = prob_threshold(params.mutation_prob)
    P = params.population_size

    def sort_key(raw):
        # fittest first; distance ties go to the smaller sample value
        return (distance(raw, sample, bd), value(raw, bd))

    # First generation: the original (repaired so it is a legal carrier), the
    # plain altered sample, then random carriers up to the population size.
    pop = [repair(sample, mask, pattern_bits)] * 2
    pop += [repair(rng.next_below(1 << bd), mask, pattern_bits) for _ in range(P - 2)]

    need = P - 1  # one elite
    pairs = (need + 1) // 2
    history = []

    for _ in range(params.generations):
        pop.sort(key=sort_key)
        best_fit = fitness(pop[0], sample, bd)
        if not history:
            history.append(best_fit)
        if best_fit == 0:
            break
        elites = pop[:1]
        offspring = []
        for _ in range(pairs):
            ca, cb = pop[rng.next_below(P)], pop[rng.next_below(P)]
            p1 = ca if sort_key(ca) <= sort_key(cb) else cb
            ca, cb = pop[rng.next_below(P)], pop[rng.next_below(P)]
            p2 = ca if sort_key(ca) <= sort_key(cb) else cb
            u_cross = rng.next64()
            u_cut = rng.next64()
            if u_cross < pc_thr:
                cut = 1 + ((u_cut * (bd - 1)) >> 64)
                o1, o2 = crossover_ints(p1, p2, cut)
            else:
                o1, o2 = p1, p2
            o1 = repair(o1 ^ mutation_flips(bd, pm_thr, rng), mask, pattern_bits)
            o2 = repair(o2 ^ mutation_flips(bd, pm_thr, rng), mask, pattern_bits)
            offspring += [o1, o2]
        pop = elites + offspring[:need]
        history.append(fitness(min(pop, key=sort_key), sample, bd))

    pop.sort(key=sort_key)
    return pop[0], history


class TestGaParams:
    def test_defaults(self):
        p = GaParams()
        assert p.population_size == 16
        assert p.generations == 64
        assert p.crossover_prob == 0.8
        assert p.mutation_prob == 0.10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=1),
            dict(generations=0),
            dict(crossover_prob=1.5),
            dict(mutation_prob=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GaParams(**kwargs)


class TestChromosomeAndFitness:
    def test_repaired_forces_pattern(self):
        m = LayerMask((5,), 8)
        value = repair(47, m, m.pack((1,)))
        assert value == 63
        assert m.unpack(value).tolist() == [1]

    def test_fitness_worked_examples(self):
        m5 = LayerMask((5,), 8)
        assert fitness(repair(48, m5, m5.pack((1,))), 47, 8) == -1
        m45 = LayerMask((4, 5), 8)
        assert fitness(repair(63, m45, m45.pack((1, 1))), 39, 8) == -24

    def test_fitness_zero_iff_equal(self):
        m = LayerMask((3,), 8)
        assert fitness(repair(100, m, 100 & m.bits), 100, 8) == 0
        assert fitness(101, 100, 8) < 0


class TestCrossover:
    def test_identical_parents_identical_offspring(self):
        assert crossover_ints(170, 170, 4) == (170, 170)

    def test_hand_worked_tail_swap(self):
        o1, o2 = crossover_ints(0b0000_0001, 0b1111_1111, 4)
        assert o1 == 0b1111_0001
        assert o2 == 0b0000_1111

    def test_offspring_always_carry_pattern(self):
        rnd = random.Random(4)
        for _ in range(500):
            bd = rnd.choice((8, 16))
            k = rnd.randint(1, 3)
            m = LayerMask(tuple(rnd.sample(range(1, bd + 1), k)), bd)
            pattern = tuple(rnd.randint(0, 1) for _ in range(k))
            a = repair(rnd.randrange(1 << bd), m, m.pack(pattern))
            b = repair(rnd.randrange(1 << bd), m, m.pack(pattern))
            cut = rnd.randint(1, bd - 1)
            for child in crossover_ints(a, b, cut):
                assert tuple(m.unpack(child)) == pattern


class TestMutate:
    def test_prob_zero_is_identity(self):
        assert mutation_flips(8, prob_threshold(0.0), SplitMix64(1)) == 0

    def test_prob_one_flips_everything_but_frozen(self):
        m = LayerMask((1,), 8)
        flips = mutation_flips(8, prob_threshold(1.0), SplitMix64(7))
        assert flips == 0b1111_1111
        assert repair(0b0000_0001 ^ flips, m, m.pack((1,))) == 0b1111_1111

    def test_frozen_loci_never_change(self):
        rnd = random.Random(5)
        m = LayerMask((2, 7), 16)
        for _ in range(300):
            pattern_bits = m.pack((rnd.randint(0, 1), rnd.randint(0, 1)))
            value = repair(rnd.randrange(1 << 16), m, pattern_bits)
            flips = mutation_flips(16, prob_threshold(0.5), SplitMix64(rnd.getrandbits(64)))
            assert repair(value ^ flips, m, pattern_bits) & m.bits == pattern_bits

    def test_flip_rate_statistics(self):
        # 10,000 trials at prob 0.05: per-locus frequency within [0.03, 0.07]
        rng = SplitMix64(12345)
        flips = [0] * 8
        trials = 10_000
        for _ in range(trials):
            out = mutation_flips(8, prob_threshold(0.05), rng)
            for locus in range(1, 8):
                flips[locus] += (out >> locus) & 1
        for locus in range(1, 8):
            assert 0.03 <= flips[locus] / trials <= 0.07


class TestRunGa:
    def test_pinned_example_finds_unique_optimum(self):
        m = LayerMask((5,), 8)
        assert ga_batch([47], [m.pack((1,))], m, GaParams(), [42]).tolist() == [48]

    def test_identity_when_pattern_matches(self):
        rnd = random.Random(6)
        for _ in range(50):
            bd = rnd.choice((8, 16))
            k = rnd.randint(1, 2)
            m = LayerMask(tuple(rnd.sample(range(1, bd + 1), k)), bd)
            s = rnd.randrange(1 << bd)
            seed = rnd.getrandbits(64)
            got = ga_batch([s], [s & m.bits], m, GaParams(), [seed])
            assert got.tolist() == [s]

    def test_deterministic(self):
        m = LayerMask((3, 6), 16)
        bits = m.pack((1, 0))
        a = ga_batch([12345, 12345], [bits, bits], m, GaParams(), [777, 777])
        b = ga_batch([12345], [bits], m, GaParams(), [777])
        assert a.tolist() == 2 * b.tolist()

    def test_output_validity_never_worse_and_quality(self):
        rnd = random.Random(7)
        optimal = 0
        trials = 300
        for _ in range(trials):
            k = rnd.randint(1, 3)
            m = LayerMask(tuple(rnd.sample(range(1, 9), k)), 8)
            s = rnd.randrange(256)
            pattern = tuple(rnd.randint(0, 1) for _ in range(k))
            bits = m.pack(pattern)
            seed = rnd.getrandbits(64)
            [got] = ga_batch([s], [bits], m, GaParams(), [seed]).tolist()
            assert tuple(m.unpack(got)) == pattern
            d = distance(got, s, 8)
            assert d <= distance(repair(s, m, bits), s, 8)
            [best] = oracle_nearest([s], m, [bits]).tolist()
            optimal += d == distance(best, s, 8)
        assert optimal / trials >= 0.97  # acceptance suite runs the full bar

    def test_best_fitness_monotone_and_population_constant(self):
        rnd = random.Random(8)
        m = LayerMask((5,), 8)
        samples, seeds, bests = [], [], []
        for _ in range(40):
            s = rnd.randrange(256)
            seed = rnd.getrandbits(64)
            best, history = reference_run_ga(s, m, (1,), GaParams(), seed)
            assert all(a <= b for a, b in zip(history, history[1:]))
            samples.append(s)
            seeds.append(seed)
            bests.append(best)
        bits = [m.pack((1,))] * len(samples)
        assert ga_batch(samples, bits, m, GaParams(), seeds).tolist() == bests

    def test_small_population_edge(self):
        # population 2 leaves no room for random members
        m = LayerMask((5,), 8)
        [got] = ga_batch([47], [m.pack((1,))], m, GaParams(population_size=2), [1])
        assert m.unpack(int(got)).tolist() == [1]


class TestBatchEquivalence:
    PARAM_GRID = [
        GaParams(),
        GaParams(population_size=2, generations=3),
        GaParams(population_size=5, generations=10, crossover_prob=0.0,
                 mutation_prob=1.0),
        GaParams(population_size=16, generations=8, crossover_prob=1.0,
                 mutation_prob=0.0),
        GaParams(population_size=7, generations=5),
    ]

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_single_rows_match_scalar(self, params):
        rnd = random.Random(9)
        for _ in range(25):
            bd = rnd.choice((8, 16))
            k = rnd.randint(1, 3)
            m = LayerMask(tuple(rnd.sample(range(1, bd + 1), k)), bd)
            s = rnd.randrange(1 << bd)
            pattern = tuple(rnd.randint(0, 1) for _ in range(k))
            seed = rnd.getrandbits(64)
            scalar, _history = reference_run_ga(s, m, pattern, params, seed)
            batch = ga_batch(
                np.array([s], dtype=np.int64),
                np.array([m.pack(pattern)], dtype=np.int64),
                m,
                params,
                np.array([seed], dtype=np.uint64),
            )
            assert scalar == int(batch[0])

    def test_wide_batch_matches_scalar(self):
        rnd = random.Random(10)
        m = LayerMask((1, 9), 16)
        S = 200
        samples = np.array([rnd.randrange(1 << 16) for _ in range(S)], dtype=np.int64)
        pats = np.array(
            [m.pack((rnd.randint(0, 1), rnd.randint(0, 1))) for _ in range(S)],
            dtype=np.int64,
        )
        seeds = np.array([rnd.getrandbits(64) for _ in range(S)], dtype=np.uint64)
        batch = ga_batch(samples, pats, m, GaParams(), seeds)
        for i in range(S):
            scalar, _history = reference_run_ga(
                int(samples[i]), m, m.unpack(int(pats[i])), GaParams(), int(seeds[i])
            )
            assert int(batch[i]) == scalar

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("population_size", [2, 3, 16])
    @pytest.mark.parametrize("clones", [False, True])
    def test_wide_batch_with_duplicate_members(self, bit_depth, population_size, clones):
        # The population is kept as its sorted keys, and equal keys are equal
        # members. Duplicates come from the two repaired seeds of every row,
        # from rows whose pattern already matches the sample and, without
        # crossover or mutation, from children that clone their parents.
        rnd = random.Random(12 + bit_depth + population_size)
        m = LayerMask((1, bit_depth // 2 + 1), bit_depth)
        params = GaParams(
            population_size=population_size,
            generations=12,
            crossover_prob=0.0 if clones else 0.8,
            mutation_prob=0.0 if clones else 0.1,
        )
        S = 40
        samples = np.array([rnd.randrange(1 << bit_depth) for _ in range(S)], dtype=np.int64)
        pats = np.array(
            [m.pack((rnd.randint(0, 1), rnd.randint(0, 1))) for _ in range(S)],
            dtype=np.int64,
        )
        pats[::4] = samples[::4] & m.bits
        seeds = np.array([rnd.getrandbits(64) for _ in range(S)], dtype=np.uint64)
        batch = ga_batch(samples, pats, m, params, seeds)
        for i in range(S):
            scalar, _history = reference_run_ga(
                int(samples[i]), m, m.unpack(int(pats[i])), params, int(seeds[i])
            )
            assert int(batch[i]) == scalar

    def test_rows_stop_drawing_at_their_optimum(self, monkeypatch):
        # on layer 5 of 8-bit samples most rows reach the closed-form optimum
        # within a few generations; a retired row draws nothing more
        rnd = random.Random(11)
        m = LayerMask((5,), 8)
        params = GaParams()
        S = 120
        samples = np.array([rnd.randrange(256) for _ in range(S)], dtype=np.int64)
        pats = np.array([m.pack((rnd.randint(0, 1),)) for _ in range(S)], dtype=np.int64)
        seeds = np.array([rnd.getrandbits(64) for _ in range(S)], dtype=np.uint64)
        rows_drawn = []
        real = ga_adjust.stream_outputs

        def counting(seeds, first, count):
            if first != 1:  # draw 1 starts the population, not a generation
                rows_drawn.append(len(seeds))
            return real(seeds, first, count)

        monkeypatch.setattr(ga_adjust, "stream_outputs", counting)
        batch = ga_batch(samples, pats, m, params, seeds)
        assert sum(rows_drawn) < S * params.generations // 4
        for i in range(S):
            scalar, _history = reference_run_ga(
                int(samples[i]), m, m.unpack(int(pats[i])), params, int(seeds[i])
            )
            assert int(batch[i]) == scalar

    def test_empty_batch(self):
        out = ga_batch(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            LayerMask((1,), 8),
            GaParams(),
            np.empty(0, dtype=np.uint64),
        )
        assert len(out) == 0
