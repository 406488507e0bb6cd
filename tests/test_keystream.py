"""Keyed randomness: golden vectors, statistical behavior, batch equivalence."""

import hashlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gastego.keystream import (
    GAMMA,
    MASK64,
    MasterKey,
    SplitMix64,
    _WALK_BLOCK,
    _mulhi_small,
    _walk_draws,
    derive_seed,
    fnv1a64,
    mix64,
    permute_indices,
    stream_outputs,
    xor_keystream,
)


def reference_splitmix64(seed):
    """Independent transliteration of the reference C code; yields outputs."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_permute_indices(n, key):
    """The full Fisher-Yates walk, one Python swap per step: the reference
    that permute_indices' prefix resolution must reproduce."""
    out = list(range(n))
    if n < 2:
        return out
    draws = stream_outputs(derive_seed(key, "permute", 0), 1, n - 1)
    js = _mulhi_small(draws, np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    for i, j in zip(range(n - 1, 0, -1), js):
        out[i], out[j] = out[j], out[i]
    return out


def reference_walk_draws(n, key):
    """draw and nxt one step at a time: draw[i] is step i's next_below(i + 1)
    for i = n-1 .. 1 (draw[0] = 0), and nxt[t] is the smallest step i > t
    that drew t (n if none)."""
    rng = SplitMix64(derive_seed(key, "permute", 0))
    draw = [0] * n
    for i in range(n - 1, 0, -1):
        draw[i] = rng.next_below(i + 1)
    first = {}
    for i in range(1, n):
        if draw[i] != i:
            first.setdefault(draw[i], i)
    return draw, [first.get(t, n) for t in range(n)]


class TestSplitMix64:
    def test_published_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4
        assert rng.next64() == 0x06C45D188009454F

    def test_published_vectors_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert rng.next64() == 6457827717110365317
        assert rng.next64() == 3203168211198807973

    def test_matches_reference_transliteration(self):
        rnd = random.Random(1)
        for _ in range(50):
            seed = rnd.getrandbits(64)
            rng = SplitMix64(seed)
            ref = reference_splitmix64(seed)
            assert [rng.next64() for _ in range(20)] == [next(ref) for _ in range(20)]

    def test_next_below_range_and_value(self):
        rng = SplitMix64(99)
        for n in (1, 2, 7, 255, 65536, 2**32 - 1):
            probe = SplitMix64(rng.state)
            expected = (probe.next64() * n) >> 64
            got = SplitMix64(rng.state).next_below(n)
            assert got == expected
            assert 0 <= got < n
            # a block of draws gives the same values and leaves the stream,
            # whose state wraps past 2**64 here, in step
            for count in (0, 1, 40):
                block, scalar = SplitMix64(rng.state), SplitMix64(rng.state)
                draws = block.next_below_block(count, n).tolist()
                assert draws == [scalar.next_below(n) for _ in range(count)]
                assert block.state == scalar.state
            rng.next64()

    def test_stream_outputs_closed_form(self):
        rng = SplitMix64(424242)
        seq = [rng.next64() for _ in range(40)]
        assert stream_outputs(424242, 1, 40).tolist() == seq
        assert stream_outputs(424242, 11, 5).tolist() == seq[10:15]

    def test_stream_outputs_many_seeds(self):
        seeds = np.array([0, 1, 2**63, MASK64], dtype=np.uint64)
        block = stream_outputs(seeds, 3, 4)
        for row, seed in enumerate(seeds):
            rng = SplitMix64(int(seed))
            rng.next64(), rng.next64()
            assert block[row].tolist() == [rng.next64() for _ in range(4)]

    def test_stream_outputs_many_seeds_in_blocks(self):
        # more streams than one scramble block holds: scrambled a block of
        # streams at a time, the last block partial
        rnd = random.Random(3)
        seeds = np.array([rnd.getrandbits(64) for _ in range(700)], dtype=np.uint64)
        block = stream_outputs(seeds, 9, 300)
        assert block.shape == (700, 300)
        for row in (0, 1, 108, 109, 350, 699):
            assert block[row].tolist() == stream_outputs(int(seeds[row]), 9, 300).tolist()


@given(st.integers(0, MASK64), st.integers(1, 2**32 - 1))
@settings(max_examples=300)
def test_mulhi_small_matches_bigint(u, n):
    got = _mulhi_small(np.array([u], dtype=np.uint64), n)
    assert int(got[0]) == (u * n) >> 64


def test_mulhi_small_one_bound_per_column():
    rnd = random.Random(4)
    bounds = [16, 16, 3, 1, 15, 2**32 - 1]
    u = [[rnd.getrandbits(64) for _ in bounds] for _ in range(50)] + [[MASK64] * 6]
    got = _mulhi_small(np.array(u, dtype=np.uint64), np.array(bounds, dtype=np.uint64))
    assert got.tolist() == [[(x * n) >> 64 for x, n in zip(row, bounds)] for row in u]


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


class TestDeriveSeed:
    def test_golden_values(self):
        assert derive_seed(MasterKey(0), "permute", 0) == 0x0E5C79FAC43999B3
        assert derive_seed(MasterKey(0), "encrypt", 0) == 0x0CB33AE04ABEFB69
        assert derive_seed(MasterKey(0), "ga", 7) == 0x6045D46EB7AB6E34
        assert derive_seed(MasterKey(123456789), "ga", 1) == 0x4BB37486F0FA95E8

    def test_deterministic(self):
        k = MasterKey(987654321)
        assert derive_seed(k, "ga", 5) == derive_seed(k, "ga", 5)

    def test_purpose_separation_no_collisions(self):
        rnd = random.Random(7)
        for _ in range(10_000):
            k = MasterKey(rnd.getrandbits(64))
            assert derive_seed(k, "permute", 0) != derive_seed(k, "encrypt", 0)

    def test_bit_avalanche(self):
        rnd = random.Random(3)
        flips = 0
        trials = 2000
        for _ in range(trials):
            seed = rnd.getrandbits(64)
            bit = 1 << rnd.randrange(64)
            a = derive_seed(MasterKey(seed), "ga", 1)
            b = derive_seed(MasterKey(seed ^ bit), "ga", 1)
            flips += bin(a ^ b).count("1")
        mean = flips / trials
        assert 24 <= mean <= 40

    @pytest.mark.parametrize("purpose", ["ga", "permute"])
    def test_array_indices_match_scalar_calls(self, purpose):
        k = MasterKey(0x1234)
        for idxs in (
            np.array([0, 1, 2**32 + 7, -1], dtype=np.int64),
            np.array([2**63, 2**64 - 1], dtype=np.uint64),
        ):
            got = derive_seed(k, purpose, idxs)
            assert got.dtype == np.uint64
            assert got.tolist() == [derive_seed(k, purpose, int(i)) for i in idxs]
        empty = derive_seed(k, purpose, np.array([], dtype=np.int64))
        assert empty.dtype == np.uint64 and empty.shape == (0,)

    def test_numpy_scalar_index_reads_as_int(self):
        k = MasterKey(0x1234)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index in (np.int64(5), np.int64(-1), np.uint64(2**64 - 1)):
                got = derive_seed(k, "ga", index)
                assert type(got) is int
                assert got == derive_seed(k, "ga", int(index))

    def test_masterkey_reduces_mod_2_64(self):
        assert MasterKey(-1).seed == MASK64
        assert MasterKey(2**64 + 5).seed == 5
        assert MasterKey(0).hex() == "0" * 16


class TestPermuteIndices:
    def test_empty_and_single(self):
        # the general walk handles n = 0 and 1; count is clamped to 0..n
        for n in (0, 1):
            for count in (-3, 0, 1, 2, 5):
                out = permute_indices(n, MasterKey(1), count)
                assert out.dtype == np.int64
                assert out.tolist() == list(range(max(0, min(count, n))))

    def test_golden(self):
        assert permute_indices(8, MasterKey(42), 8).tolist() == [0, 6, 4, 1, 2, 3, 7, 5]
        assert permute_indices(16, MasterKey(0), 16).tolist() == [
            1, 5, 3, 14, 9, 12, 13, 4, 7, 11, 15, 8, 0, 10, 2, 6,
        ]

    @given(st.integers(0, 400), st.integers(0, MASK64))
    @settings(max_examples=100)
    def test_bijection(self, n, seed):
        assert sorted(permute_indices(n, MasterKey(seed), n).tolist()) == list(range(n))

    def test_matches_stepwise_fisher_yates(self):
        rnd = random.Random(8)
        for _ in range(30):
            n = rnd.randrange(0, 300)
            key = MasterKey(rnd.getrandbits(64))
            out = list(range(n))
            rng = SplitMix64(derive_seed(key, "permute", 0))
            for i in range(n - 1, 0, -1):
                j = rng.next_below(i + 1)
                out[i], out[j] = out[j], out[i]
            assert permute_indices(n, key, n).tolist() == out

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000, 100_000])
    def test_prefix_matches_reference_walk(self, n):
        rnd = random.Random(n)
        for _ in range(3 if n == 100_000 else 20):
            key = MasterKey(rnd.getrandbits(64))
            full = reference_permute_indices(n, key)
            assert permute_indices(n, key, n).tolist() == full
            # around the walk's block boundary, one count in between, counts
            # outside 0..n, which are clamped, and both sides of 2**16, where
            # the prefix's radix sort takes a second 16-bit digit
            b, mid = _WALK_BLOCK, key.seed % (n + 1)
            for count in {-1, 0, 1, 2, max(n - 1, 0), n, n + 5, b - 1, b, b + 1, mid,
                          2**16 - 1, 2**16, 2**16 + 1}:
                out = permute_indices(n, key, count)
                assert out.dtype == np.int64
                assert out.tolist() == full[: max(count, 0)]

    @pytest.mark.parametrize(
        "n", [2, 3, _WALK_BLOCK - 1, _WALK_BLOCK, _WALK_BLOCK + 1, 2 * _WALK_BLOCK + 1])
    def test_walk_draws_match_reference(self, n):
        key = MasterKey(random.Random(n).getrandbits(64))
        draw, nxt = _walk_draws(n, key)
        ref_draw, ref_nxt = reference_walk_draws(n, key)
        assert draw.tolist() == ref_draw
        assert nxt.tolist() == ref_nxt

    @pytest.mark.parametrize("seed, head, digest", [
        (0, [471470, 649572, 895830, 601016, 239572, 991431, 524452, 7267,
             865585, 951006, 157603, 757104, 549891, 625292, 405499, 358316],
         "5c502765fbc917b8045e83418219b243a1b34473beb3f399e4d1ae8115ae9c99"),
        (0x5EEDF00DCAFED00D,
         [470664, 68384, 3210, 127727, 268803, 118567, 359049, 371210,
          490692, 478895, 679692, 848313, 394153, 165628, 47219, 203912],
         "a82200803cf9e608a48dd5bc2ca5b863414dec2b5495515efc27d9272af9d6e0"),
    ])
    def test_golden_million_sample_prefix(self, seed, head, digest):
        prefix = permute_indices(1_000_000, MasterKey(seed), 4096).tolist()
        assert prefix[:16] == head
        assert hashlib.sha256(",".join(map(str, prefix)).encode()).hexdigest() == digest

    @given(st.integers(0, 400), st.integers(0, MASK64), st.integers(-5, 410))
    @settings(max_examples=200)
    def test_prefix_property(self, n, seed, count):
        key = MasterKey(seed)
        out = permute_indices(n, key, count)
        assert out.tolist() == reference_permute_indices(n, key)[: max(count, 0)]

    def test_same_key_same_permutation(self):
        a, b = (permute_indices(1000, MasterKey(5), 1000) for _ in range(2))
        assert (a == b).all()

    def test_distinct_keys_disagree_widely(self):
        rnd = random.Random(9)
        for _ in range(5):
            a_key, b_key = rnd.getrandbits(64), rnd.getrandbits(64)
            if a_key == b_key:
                continue
            a = permute_indices(1024, MasterKey(a_key), 1024)
            b = permute_indices(1024, MasterKey(b_key), 1024)
            assert (a != b).sum() >= 1000


class TestXorKeystream:
    def test_golden(self):
        assert xor_keystream(bytes(16), MasterKey(0)).hex() == (
            "3a77b4204c85053fa9ee06ce11ce183f"
        )
        assert xor_keystream(bytes(16), MasterKey(2**64 - 1)).hex() == (
            "21f2080839fcfd1f2f96ba860c7eea6a"
        )

    @given(st.binary(max_size=512), st.integers(0, MASK64))
    @settings(max_examples=150)
    def test_involution_and_length(self, data, seed):
        key = MasterKey(seed)
        out = xor_keystream(data, key)
        assert len(out) == len(data)
        assert xor_keystream(out, key) == data

    def test_empty(self):
        assert xor_keystream(b"", MasterKey(1)) == b""

    def test_bytes_are_next64_little_endian(self):
        # the README's normative byte stream: each next64() of the "encrypt"
        # stream emitted as 8 little-endian bytes, cut at the data's length
        key = MasterKey(0xC0FFEE)
        for length in (1, 7, 8, 9, 20):
            rng = SplitMix64(derive_seed(key, "encrypt", 0))
            stream = b"".join(rng.next64().to_bytes(8, "little") for _ in range(3))
            assert xor_keystream(bytes(length), key) == stream[:length]

    def test_keystream_byte_uniformity_chi_square(self):
        # 1 MB of zeros exposes the raw keystream; chi-square against a
        # uniform byte distribution, df=255, alpha=0.001 -> critical 330.52
        data = xor_keystream(bytes(1 << 20), MasterKey(20260810))
        counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
        expected = len(data) / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 330.52


def test_mix64_is_one_splitmix_step():
    for z in (0, 1, GAMMA, MASK64):
        assert mix64(z) == SplitMix64(z).next64()
