"""Bit-layer ops: the worked adjustment examples, oracle agreement, properties."""

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gastego.bitplane import (
    LayerMask,
    adjust_nearest,
    adjust_nearest_packed,
    alter,
    distance,
    oracle_nearest,
    oracle_nearest_bulk,
    sample_value,
)


def random_case(rnd, bit_depth, max_k=3):
    k = rnd.randint(1, max_k)
    layers = tuple(rnd.sample(range(1, bit_depth + 1), k))
    mask = LayerMask(layers, bit_depth)
    sample = rnd.randrange(1 << bit_depth)
    pattern = tuple(rnd.randint(0, 1) for _ in range(k))
    return mask, sample, pattern


class TestLayerMask:
    def test_normalizes_and_exposes_bits(self):
        m = LayerMask((5, 1), 8)
        assert m.layers == (1, 5)
        assert m.k == 2
        assert m.bits == 0b0001_0001

    def test_pack_unpack_lowest_layer_first(self):
        m = LayerMask((4, 5), 8)
        assert m.pack((1, 0)) == 0b0000_1000
        assert m.unpack(0b0001_0000) == (0, 1)

    @pytest.mark.parametrize(
        "layers,bit_depth",
        [((), 8), ((0,), 8), ((9,), 8), ((17,), 16), ((3, 3), 8), ((1,), 12)],
    )
    def test_rejects_bad_masks(self, layers, bit_depth):
        with pytest.raises(ValueError):
            LayerMask(layers, bit_depth)


class TestValueConventions:
    def test_signed_16_bit(self):
        assert sample_value(0xFFFF, 16) == -1
        assert sample_value(0x8000, 16) == -32768
        assert sample_value(0x7FFF, 16) == 32767

    def test_unsigned_8_bit(self):
        assert sample_value(255, 8) == 255

    def test_distance_is_on_values(self):
        # raw 0x0000 and 0xFFFF are numeric neighbors at 16 bit
        assert distance(0x0000, 0xFFFF, 16) == 1
        assert distance(47, 63, 8) == 16


class TestReadBits:
    def test_layer5_of_47(self):
        assert LayerMask((5,), 8).unpack(47) == (0,)

    def test_zero_sample_reads_zero(self):
        for layers in ((1,), (3, 7), (1, 8)):
            assert LayerMask(layers, 8).unpack(0) == (0,) * len(layers)

    def test_roundtrip_with_alter_exhaustive_small(self):
        for k in (1, 2):
            for layers in combinations(range(1, 9), k):
                m = LayerMask(layers, 8)
                for pattern in product((0, 1), repeat=k):
                    for s in range(256):
                        assert m.unpack(alter(s, m, pattern)) == pattern


class TestAlter:
    def test_worked_example_single_layer(self):
        m = LayerMask((5,), 8)
        assert alter(47, m, (1,)) == 63
        assert distance(63, 47, 8) == 16

    def test_worked_example_double_layer(self):
        m = LayerMask((4, 5), 8)
        assert alter(39, m, (1, 1)) == 63
        assert distance(63, 39, 8) == 24

    @given(st.integers(0, 255))
    @settings(max_examples=100)
    def test_identity_when_bits_match(self, s):
        m = LayerMask((2, 6), 8)
        assert alter(s, m, m.unpack(s)) == s


class TestAdjustNearest:
    def test_worked_example_single_layer(self):
        assert adjust_nearest(47, LayerMask((5,), 8), (1,)) == 48

    def test_worked_example_double_layer(self):
        assert adjust_nearest(39, LayerMask((4, 5), 8), (1, 1)) == 31

    def test_identity_when_bits_match(self):
        m = LayerMask((3,), 8)
        for s in range(256):
            assert adjust_nearest(s, m, m.unpack(s)) == s

    def test_tie_breaks_to_smaller_value(self):
        # 7 and 9 are both distance 1 from 8 with an odd LSB
        assert adjust_nearest(8, LayerMask((1,), 8), (1,)) == 7

    def test_crosses_sign_boundary_by_value(self):
        # nearest sample with the sign layer set to 1 is -1 (raw 0xFFFF)
        assert adjust_nearest(0, LayerMask((16,), 16), (1,)) == 0xFFFF

    def test_full_mask_returns_pattern(self):
        m = LayerMask(tuple(range(1, 9)), 8)
        pattern = (1, 0, 1, 0, 0, 1, 1, 0)
        assert adjust_nearest(200, m, pattern) == m.pack(pattern)

    def test_single_layer_bound(self):
        rnd = random.Random(5)
        for _ in range(2000):
            bd = rnd.choice((8, 16))
            j = rnd.randint(1, bd)
            m = LayerMask((j,), bd)
            s = rnd.randrange(1 << bd)
            p = (rnd.randint(0, 1),)
            assert distance(adjust_nearest(s, m, p), s, bd) <= 1 << (j - 1)

    def test_dominates_alter_and_carries_pattern(self):
        rnd = random.Random(6)
        for _ in range(3000):
            bd = rnd.choice((8, 16))
            mask, s, pattern = random_case(rnd, bd)
            adjusted = adjust_nearest(s, mask, pattern)
            assert mask.unpack(adjusted) == pattern
            assert distance(adjusted, s, bd) <= distance(alter(s, mask, pattern), s, bd)


class TestOracleAgreement:
    def test_oracle_worked_examples(self):
        assert oracle_nearest(47, LayerMask((5,), 8), (1,)) == 48
        assert oracle_nearest(0, LayerMask((1,), 8), (0,)) == 0

    def test_exhaustive_8bit_triple_layer_sample(self):
        # single/double layers are swept exhaustively in the acceptance suite;
        # here a full sweep of a few triple-layer masks
        for layers in ((1, 2, 3), (2, 5, 8), (4, 6, 7)):
            m = LayerMask(layers, 8)
            for pattern in product((0, 1), repeat=3):
                for s in range(256):
                    assert adjust_nearest(s, m, pattern) == oracle_nearest(s, m, pattern)

    def test_random_16bit_against_scalar_oracle(self):
        rnd = random.Random(7)
        for _ in range(40):
            mask, s, pattern = random_case(rnd, 16, max_k=4)
            assert adjust_nearest(s, mask, pattern) == oracle_nearest(s, mask, pattern)

    def test_bulk_oracle_matches_scalar_oracle(self):
        rnd = random.Random(8)
        for _ in range(10):
            k = rnd.randint(1, 3)
            mask = LayerMask(tuple(rnd.sample(range(1, 17), k)), 16)
            samples = np.array([rnd.randrange(1 << 16) for _ in range(25)], dtype=np.int64)
            pats = np.array(
                [mask.pack(tuple(rnd.randint(0, 1) for _ in range(k))) for _ in range(25)],
                dtype=np.int64,
            )
            bulk = oracle_nearest_bulk(samples, mask, pats)
            for i in range(25):
                assert int(bulk[i]) == oracle_nearest(
                    int(samples[i]), mask, mask.unpack(int(pats[i]))
                )

    def test_determinism(self):
        m = LayerMask((2, 7), 16)
        assert adjust_nearest(30000, m, (1, 0)) == adjust_nearest(30000, m, (1, 0))


class TestArrayNearest:
    """One adjust_nearest_packed call over many rows equals oracle_nearest per row."""

    def test_exhaustive_8bit_up_to_three_layers(self):
        checked = 0
        for k in (1, 2, 3):
            for layers in combinations(range(1, 9), k):
                m = LayerMask(layers, 8)
                patterns = list(product((0, 1), repeat=k))
                samples = np.tile(np.arange(256, dtype=np.int64), len(patterns))
                pats = np.repeat([m.pack(p) for p in patterns], 256)
                got = adjust_nearest_packed(samples, m, pats)
                assert got.shape == samples.shape
                for i, s in enumerate(samples.tolist()):
                    pattern = patterns[i // 256]
                    assert got[i] == oracle_nearest(s, m, pattern), (s, layers, pattern)
                    checked += 1
        assert checked == 256 * (8 * 2 + 28 * 4 + 56 * 8)

    @pytest.mark.parametrize("layers", [
        (1,), (16,), (1, 16), (3, 9, 14), (2, 5, 11, 15), tuple(range(1, 17)),
    ])
    def test_random_16bit_rows(self, layers):
        rnd = random.Random(repr(layers))
        m = LayerMask(layers, 16)
        # the sign boundary and the ends of the range, then random samples
        edges = [0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 0, 1]
        samples = edges + [rnd.randrange(1 << 16) for _ in range(33)]
        pats = [m.pack(tuple(rnd.randint(0, 1) for _ in range(m.k))) for _ in samples]
        # every fourth row already carries its pattern
        pats[::4] = [s & m.bits for s in samples[::4]]
        got = adjust_nearest_packed(
            np.array(samples, dtype=np.int64), m, np.array(pats, dtype=np.int64)
        )
        for s, p, value in zip(samples, pats, got.tolist()):
            assert value == oracle_nearest(s, m, m.unpack(p)), (s, layers, p)
        assert (got[::4] == samples[::4]).all()

    def test_scalar_arguments_give_an_int(self):
        m = LayerMask((4, 5), 8)
        got = adjust_nearest_packed(39, m, m.pack((1, 1)))
        assert type(got) is int and got == 31
