"""Message-level GA: set-operator fitness, scarce genes, convergence."""

import hashlib
import random

import pytest

from gastego.errors import EmptyMessage, UnreachableOptimum
from gastego.keystream import SplitMix64
from gastego.msg_ga import (
    MsgGaParams,
    derive_key_from_genes,
    evolve,
    init_population,
    profile_message,
    set_fitness,
)


class TestProfileMessage:
    def test_two_distinct(self):
        p = profile_message(b"AB")
        assert p.values == (65, 66)
        assert p.distinct == {65, 66}
        assert (p.min_val, p.max_val) == (65, 66)

    def test_repeats_collapse_in_set(self):
        p = profile_message(b"AAA")
        assert p.values == (65, 65, 65)
        assert p.distinct == {65}

    def test_min_max_recomputed_property(self):
        rnd = random.Random(1)
        for _ in range(200):
            msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(1, 40)))
            p = profile_message(msg)
            assert p.min_val == min(msg)
            assert p.max_val == max(msg)
            assert p.distinct == set(msg)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMessage):
            profile_message(b"")


class TestInitPopulation:
    def test_degenerate_range(self):
        p = profile_message(b"AAAA")
        pop = init_population(p, 4, 3, SplitMix64(1))
        assert all(ind == (65, 65, 65) for ind in pop)

    def test_size_and_bounds(self):
        rnd = random.Random(2)
        for _ in range(100):
            msg = bytes(rnd.randrange(256) for _ in range(rnd.randint(2, 30)))
            p = profile_message(msg)
            pop = init_population(p, 9, 5, SplitMix64(rnd.getrandbits(64)))
            assert len(pop) == 9
            assert all(len(ind) == 5 for ind in pop)
            assert all(p.min_val <= g <= p.max_val for ind in pop for g in ind)


class TestSetFitness:
    def test_full_coverage(self):
        assert set_fitness((65, 66), profile_message(b"AB")) == 2

    def test_duplicates_count_once(self):
        assert set_fitness((65, 65), profile_message(b"AB")) == 1

    def test_disjoint(self):
        assert set_fitness((1, 2, 3), profile_message(b"A")) == 0


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
            p = profile_message(msg)
            res = evolve(msg, MsgGaParams(seed=rnd.getrandbits(64)))
            assert all(p.min_val <= g <= p.max_val for g in res.best)


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
    ]

    @pytest.mark.parametrize(
        "n, params, best, generations, history, key", CASES,
        ids=["1B", "64B", "512B", "1KiB", "200B-custom"],
    )
    def test_pinned(self, n, params, best, generations, history, key):
        res = evolve(random.Random(n).randbytes(n), params)
        assert bytes(res.best).hex() == best
        assert res.generations == generations
        text = ",".join(map(str, res.fitness_history)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == history
        assert derive_key_from_genes(res.best).hex() == key


class TestDeriveKeyFromGenes:
    def test_deterministic_and_order_sensitive(self):
        assert derive_key_from_genes((1, 2, 3)) == derive_key_from_genes((1, 2, 3))
        assert derive_key_from_genes((1, 2, 3)) != derive_key_from_genes((3, 2, 1))
