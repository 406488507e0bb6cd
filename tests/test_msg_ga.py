"""Message-level GA: set-operator fitness, scarce genes, convergence."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from gastego.errors import EmptyMessage, UnreachableOptimum
from gastego.keystream import MasterKey, SplitMix64, derive_seed
from gastego.msg_ga import (
    EvolveResult,
    MsgGaParams,
    derive_key_from_genes,
    evolve,
    init_population,
)


def reference_evolve(message, params=MsgGaParams()):
    """The message GA one step at a time: the naive reference for evolve.

    It draws every initial gene with its own next_below, re-sorts the
    population each generation (fittest first, ties in insertion order),
    counts genes in a Counter and picks the best and the two members to kill
    by scanning the whole population. evolve must agree with it in every
    output field.
    """
    if not message:
        raise EmptyMessage("cannot profile an empty message")
    distinct = set(message)
    target = len(distinct)
    L = params.population_size or max(2, len(message))
    n = params.genes_per_individual or target
    if n < target:
        raise UnreachableOptimum(f"{n} genes cannot cover {target} values")

    def fitness(ind):
        return len(set(ind) & distinct)

    rng = SplitMix64(derive_seed(MasterKey(params.seed), "msg-ga", 0))
    low, span = min(message), max(message) - min(message) + 1
    pop = [tuple(low + rng.next_below(span) for _ in range(n)) for _ in range(L)]
    fits = [fitness(ind) for ind in pop]
    counts = Counter(g for ind in pop for g in ind)
    missing = {v for v in distinct if counts[v] == 0}

    def note_insert(ind):
        for g in ind:
            counts[g] += 1
            missing.discard(g)

    def note_discard(ind):
        for g in ind:
            counts[g] -= 1
            if counts[g] == 0 and g in distinct:
                missing.add(g)

    def mutate(child):
        """child with one scarce gene put in, and that gene (None if none)."""
        if not missing:
            return child, None
        child_counts = Counter(child)
        slots = [
            i
            for i, g in enumerate(child)
            if g not in distinct or child_counts[g] > 1
        ]
        # evolve relies on this: a child holding every message value exactly
        # once has parents holding them all, so nothing is missing
        assert slots, (child, missing)
        pos = slots[rng.next_below(len(slots))]
        pool = sorted(missing)
        gene = pool[rng.next_below(len(pool))]
        return child[:pos] + (gene,) + child[pos + 1 :], gene

    history = [max(fits)]
    sizes = [len(pop)]
    generations = 0
    while history[-1] < target and generations < params.max_generations:
        generations += 1
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
        o1, gene = mutate(o1)
        before = set(missing)
        note_insert(o1)
        # evolve relies on this too: the first offspring takes out of the
        # missing values only the gene it drew, so the second offspring's
        # pool is the generation's pool less that gene
        assert before - missing == ({gene} if before else set()), (o1, before)
        o2, _ = mutate(o2)
        note_insert(o2)
        pop += [o1, o2]
        fits += [fitness(o1), fitness(o2)]
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


def outputs(res):
    return (res.best, res.best_fitness, res.target_fitness, res.generations,
            res.fitness_history, res.population_sizes)


@pytest.fixture
def next_below_calls(monkeypatch):
    """A one-item list that counts SplitMix64.next_below calls; tests reset it."""
    calls = [0]
    draw = SplitMix64.next_below

    def counting(self, n):
        calls[0] += 1
        return draw(self, n)

    monkeypatch.setattr(SplitMix64, "next_below", counting)
    return calls


class TestInitPopulation:
    def test_degenerate_range(self):
        pop = init_population(b"AAAA", 4, 3, SplitMix64(1))
        assert pop == [b"AAA"] * 4

    def test_size_and_bounds(self):
        rnd = random.Random(2)
        for _ in range(100):
            msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(2, 30)))
            pop = init_population(msg, 9, 5, SplitMix64(rnd.getrandbits(64)))
            assert len(pop) == 9
            assert all(len(ind) == 5 for ind in pop)
            assert all(min(msg) <= g <= max(msg) for ind in pop for g in ind)


    @pytest.mark.parametrize("message", [
        b"AAAA",
        bytes(range(256)),
        b"0123456789:;<=>?@xyz",
    ], ids=["span1", "span256", "span75"])
    def test_matches_one_draw_per_gene(self, message):
        # same individuals as one next_below per gene, row-major, and the
        # stream left where that loop leaves it, so later draws stay in step
        low, span = min(message), max(message) - min(message) + 1
        for seed, size, genes in [(0, 2, 1), (7, 5, 3), (2**64 - 1, 13, 40)]:
            rng, scalar = SplitMix64(seed), SplitMix64(seed)
            pop = init_population(message, size, genes, rng)
            expected = [
                bytes(low + scalar.next_below(span) for _ in range(genes))
                for _ in range(size)
            ]
            assert pop == expected
            assert all(type(ind) is bytes for ind in pop)
            assert rng.state == scalar.state
            assert rng.next64() == scalar.next64()


class TestEvolve:
    def test_uniform_message_is_optimal_at_generation_zero(self):
        res = evolve(b"AAAA")
        assert res.best_fitness == 1 == res.target_fitness
        assert res.generations == 0

    def test_tiny_space_converges(self):
        res = evolve(b"AB", MsgGaParams(population_size=2, genes_per_individual=2,
                                        max_generations=1000, seed=0))
        assert res.best_fitness == 2
        assert res.generations <= 1000

    def test_population_size_constant(self):
        res = evolve(b"the quick brown fox", MsgGaParams(seed=5))
        assert len(set(res.population_sizes)) == 1

    def test_best_fitness_monotone(self):
        rnd = random.Random(6)
        for _ in range(25):
            msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(1, 32)))
            res = evolve(msg, MsgGaParams(seed=rnd.getrandbits(64)))
            hist = res.fitness_history
            assert all(a <= b for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        a = evolve(b"determinism!", MsgGaParams(seed=99))
        b = evolve(b"determinism!", MsgGaParams(seed=99))
        assert (a.best, a.generations, a.fitness_history) == (
            b.best, b.generations, b.fitness_history
        )

    def test_unreachable_optimum_reported_before_running(self):
        with pytest.raises(UnreachableOptimum):
            evolve(b"AB", MsgGaParams(genes_per_individual=1))

    def test_empty_message(self):
        with pytest.raises(EmptyMessage):
            evolve(b"")

    def test_single_byte_message(self):
        res = evolve(b"Z")
        assert res.best == (90,)
        assert res.best_fitness == 1

    def test_best_individual_is_in_range(self):
        rnd = random.Random(7)
        for _ in range(25):
            msg = bytes(rnd.randrange(30, 200) for _ in range(rnd.randint(2, 40)))
            res = evolve(msg, MsgGaParams(seed=rnd.getrandbits(64)))
            assert all(min(msg) <= g <= max(msg) for g in res.best)


class TestReferenceEvolve:
    """evolve against the naive reference_evolve on many small cases."""

    def cases(self):
        rnd = random.Random(13)
        for k in range(240):
            kind = k % 6
            if kind == 0:    # the smallest population
                msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(2, 12)))
                params = MsgGaParams(population_size=2, seed=rnd.getrandbits(64))
            elif kind == 1:  # one gene: only a one-valued message allows it
                msg = bytes([rnd.randrange(256)]) * rnd.randint(1, 6)
                params = MsgGaParams(genes_per_individual=1,
                                     population_size=rnd.choice([None, 2, 5]),
                                     seed=rnd.getrandbits(64))
            elif kind == 2:  # more genes than distinct values
                msg = bytes(rnd.randrange(40, 60) for _ in range(rnd.randint(2, 24)))
                params = MsgGaParams(
                    genes_per_individual=len(set(msg)) + rnd.randint(1, 30),
                    population_size=rnd.choice([None, 3, 8]),
                    seed=rnd.getrandbits(64),
                )
            elif kind == 3:  # cut off by max_generations
                msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(20, 40)))
                params = MsgGaParams(max_generations=rnd.randint(1, 8),
                                     seed=rnd.getrandbits(64))
            else:            # defaults, narrow and full byte ranges
                hi = rnd.choice([2, 16, 256])
                msg = bytes(rnd.randrange(hi) for _ in range(rnd.randint(1, 40)))
                params = MsgGaParams(seed=rnd.getrandbits(64))
            yield msg, params

    def test_agrees_with_reference(self):
        seen = Counter()
        for msg, params in self.cases():
            ref = reference_evolve(msg, params)
            assert outputs(evolve(msg, params)) == outputs(ref), (msg, params)
            seen["pop2"] += params.population_size == 2 and ref.generations > 0
            seen["one gene"] += params.genes_per_individual == 1
            seen["extra genes"] += (
                (params.genes_per_individual or 0) > ref.target_fitness
                and ref.generations > 0
            )
            seen["cut off"] += ref.best_fitness < ref.target_fitness
        # every kind of case was exercised, not merely generated
        assert min(seen.values()) >= 10, seen

    def test_agrees_with_reference_on_steady_runs(self, next_below_calls):
        # A generation is steady when pop[1] is a copy of the best and no
        # message value is missing; most generations of a long run are.
        # reference_evolve draws every initial gene and every cut, so evolve
        # makes one next_below call fewer than it per steady generation, past
        # the reference's L * n initial draws.
        rnd = random.Random(41)
        cases = [(rnd.randbytes(rnd.randint(150, 600)), MsgGaParams(seed=rnd.getrandbits(64)))
                 for _ in range(4)]
        # three members rarely hold every value: this run takes one steady
        # generation of its 87
        cases.append((rnd.randbytes(rnd.randint(150, 600)),
                      MsgGaParams(population_size=3, seed=rnd.getrandbits(64))))
        cap = 91
        capped = MsgGaParams(max_generations=cap, seed=rnd.getrandbits(64))
        cases.append((rnd.randbytes(rnd.randint(150, 600)), capped))

        def calls(run, msg, params):
            next_below_calls[0] = 0
            res = run(msg, params)
            return res, next_below_calls[0]

        for msg, params in cases:
            ref, ref_calls = calls(reference_evolve, msg, params)
            res, evolve_calls = calls(evolve, msg, params)
            assert outputs(res) == outputs(ref), (msg, params)
            initial = (params.population_size or len(msg)) * ref.target_fitness
            assert evolve_calls < ref_calls - initial, (msg, params)

        # the capped run stops inside a steady run: generations cap and
        # cap + 1 make no next_below call
        msg = cases[-1][0]
        assert len({calls(evolve, msg, dataclasses.replace(capped, max_generations=g))[1]
                    for g in (cap - 1, cap, cap + 1)}) == 1
        assert calls(evolve, msg, capped)[0].best_fitness < len(set(msg))

    def test_one_gene_cases_stop_at_generation_zero(self):
        # one gene covers one distinct value only, so the message has a
        # single value, every initial gene is that value and the generation
        # loop (with its one-gene crossover branch) never runs
        for msg, params in self.cases():
            if params.genes_per_individual == 1:
                res = evolve(msg, params)
                assert res.generations == 0 and res.best == (msg[0],)


class TestGoldenEvolve:
    """evolve's outputs for fixed inputs, pinned before any rewrite of it.

    Each case is a message of random.Random(n).randbytes(n) and its params;
    the pins are the best individual (as bytes, since genes are byte values),
    the generation count, a digest of the best-fitness history, and the
    master key derive_key_from_genes folds the best individual into.
    """

    CASES = [
        (1, MsgGaParams(), "22", 0, "6b86b273ff34fce1", "a71e0e7ceed9442f"),
        (64, MsgGaParams(),
         "c61fb418df34b1690fd4d8e59ceb67569640d66f503ca129231904ecde9f637a"
         "cdfca679ee44892741090b82014e8680d2f69d6293e926af",
         109, "905d1cae45283da8", "27fb1aa0515409aa"),
        (512, MsgGaParams(),
         "77a7c96a142b32d717c21d4aa2760c678d56c4551a0fb19c62f33bc3ae7e5d84"
         "43008261712f354653f730d1b0b6164eb5c638f2c5f521f8f6e445079d7b70df"
         "7858ce97dc75f974e2bffc12b9229833aaeba9e56b0a5273cfd2916d0ba1885b"
         "66100504b49219fa01dd34e8e34d8f39372ac83124d5b22ce1c754799a20a8b8"
         "ff7afe9b81e026ea1b579015a41ccbbbb725e92d3665ba0edbcd299f5cad60e6"
         "1828724c50ed8e2e23ac5994d803d3dafb3f3e09476302449e99d6b3fdbd93d0"
         "4b6ff0a6d485411f481311a3d9693dafa57f6e6c405e27f1805fc13c7dc0bce7"
         "cc8a",
         1066, "cf11435ce3b2df61", "0591545497482989"),
        (1024, MsgGaParams(),
         "ae5f05737263b9e2878c50eed484bdeb1f56022cc1067e767fc98280a1fab812"
         "79b41ccc01b3d53641d2719566bf6e8b596cf9f35a7491cf331b1a8fdc1df1d6"
         "5e6bf50fef2e434e9add602f9ef45c7852045570e1f8bbfe5820fd3ee849c80c"
         "a3ab9822cade9f4a079762cde983b1be7b30383754a25b8675ad42926dd353c4"
         "2419f29d0bdad92b236f3c6493a961bcf6fb0a96a0e7c0b0c3ce1610f7d19426"
         "85afdf18898800d7c62ae5b647ea03814b68d045c7ac8a3ad8087d7c32517a99"
         "ec9b77ffbacbb7e31767a8ed0d2531b5b2a5aac2658ee4114d1e3be05d6929c5"
         "4046350e273f283d484ca6db8d13909c143421574f0915fc44e6a7f0",
         2066, "35b26df27de58e0a", "101ad7d626e1efff"),
        (200, MsgGaParams(population_size=40, genes_per_individual=160,
                          max_generations=3000, seed=7),
         "044c3189911e3eb83a87acc88309336f41b3a696f7a3c62e02e2b7b42c66613b"
         "0dccf3df55585f4711bc264d2579631c0830079de8fe0c84653650106821d5f8"
         "d95798c4da7b2a437564395e0bdc3f223472ae8519ef27a06dbda5a89e958f7a"
         "70e4caa1462d4b39b15b940003af76c5d728c7cd177f6a1f54a41bd018ebf03d"
         "ea7cf2ce596974b52914065de624aa15624416c9b978236d2b52ad48bb67bf4a",
         96, "c08a386338a0b0f0", "aa45a35cd9c1a6e8"),
        # the heavy tail: 7,913 generations, against a median of 1,057 over
        # seeds 0-399 for the same message
        (512, MsgGaParams(seed=175),
         "9c589b9de8a954983d2c4e5eaf0197106c2f1823d246db3973bb20d8df99a627"
         "59f980f51476aa5cb54d71da1726604804bad988ad331b7d4cdc8a43c1d13bdd"
         "12c22493919a69f390c02b84857ec3eae7ac813550c85270fcfb6b7be5e60516"
         "a2a1cb6e72a5287f3fe4365f0347a7c47afd31d5f82d2966fa56f040b39407d7"
         "823eb855ced0c957f7215da332bd309f38f1e278bc0074b6e9114a0fcf2e8e53"
         "61c6e15bd3e3ccf6f2e0370a15ff67ae9eb71aeb09928f6ab16f41b0b24b4402"
         "cd6545c7a8d41dbf3c0bd62a1cedb9637562136d7919a48d250e77b422fec50c"
         "1f34",
         7913, "4d153f90356dc2f5", "dff9e7f93b3dc18a"),
        # more genes than distinct values (253), so every mutation has a
        # duplicate or non-message slot to fill; the generation cap stops
        # the run at fitness 221
        (1280, MsgGaParams(genes_per_individual=290, max_generations=700, seed=3),
         "53bc92ed972ba3ad19bb3bd84ea9460cac10375cd616a4eb339f7923b97f7797"
         "3944f33994dde20089f08ac4496b278adc36e3434c718cf90c70e59b74cec6ca"
         "652e9a74ec1cd1f2753f8dd25c312869614529db9bbad26638fb426334befd5c"
         "d776ea6d01240e984cf2f340c5b24472fce0c8efbf86d81e951b7cea146c60a6"
         "805141a36413a5d9a160ef9d5cb0df18ead2f1116ce508040286e6d011f30d82"
         "1ee4ab9d1f63545010bf680f3aa8146f22a72c022ca09ee7918f90251246967d"
         "15aeb381e8c074c96a34a5873c400a1fa95a39aa8655b2b1d4e19e217fa2eeb7"
         "48bdd11db8265f88f6787b4b28690697b5274f78f68e3eccf61af4a73dab30e4"
         "32f8decae911c774562d8262674d59a253d34a465209588bb817f7fecbce96ff"
         "691e",
         700, "3cb7a838ee65bbda", "e3b1e9784442b0ec"),
    ]

    @pytest.mark.parametrize(
        "n, params, best, generations, history, key", CASES,
        ids=["1B", "64B", "512B", "1KiB", "200B-custom", "512B-seed175",
             "1280B-capped"],
    )
    def test_pinned(self, n, params, best, generations, history, key):
        res = evolve(random.Random(n).randbytes(n), params)
        assert type(res.best) is tuple
        assert all(type(gene) is int for gene in res.best)
        assert bytes(res.best).hex() == best
        assert res.generations == generations
        text = ",".join(map(str, res.fitness_history)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == history
        assert derive_key_from_genes(res.best).hex() == key

    def test_steady_generations_read_no_cut_draw(self, next_below_calls):
        # every generation that is not steady draws its cut with next_below;
        # a steady one reads its cut off the stream without a call, and most
        # of this run's generations are steady. The pins above fix where the
        # stream ends.
        res = evolve(random.Random(512).randbytes(512))
        assert res.generations == 1066
        assert next_below_calls[0] < res.generations // 2


class TestDeriveKeyFromGenes:
    def test_deterministic_and_order_sensitive(self):
        assert derive_key_from_genes((1, 2, 3)) == derive_key_from_genes((1, 2, 3))
        assert derive_key_from_genes((1, 2, 3)) != derive_key_from_genes((3, 2, 1))
