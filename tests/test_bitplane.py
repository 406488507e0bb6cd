"""Bit-layer ops: the worked adjustment examples, oracle agreement, properties.

The array functions take lists of rows here as well as arrays; a worked
example is a one-row case.
"""

import functools
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gastego import pipeline
from gastego.bitplane import (
    LayerMask,
    adjust_nearest_packed,
    oracle_nearest,
    values_of,
)
from gastego.keystream import MasterKey


# --- naive reference -------------------------------------------------------------
# The definition of the optimum, kept deliberately naive and independent of
# gastego: bitplane.oracle_nearest and adjust_nearest_packed are both checked
# against it.


def value(raw, bit_depth):
    """A raw sample's value: unsigned at 8-bit, two's complement at 16-bit."""
    return raw - (1 << 16) if bit_depth == 16 and raw >= 1 << 15 else raw


def distance(a_raw, b_raw, bit_depth):
    return abs(value(a_raw, bit_depth) - value(b_raw, bit_depth))


@functools.lru_cache(maxsize=8)
def carriers(bit_depth, mask_bits, pattern_bits):
    """(value, raw) of every raw value that carries the pattern, by value."""
    raws = [v for v in range(1 << bit_depth) if v & mask_bits == pattern_bits]
    return sorted((value(v, bit_depth), v) for v in raws)


def naive_nearest(sample, mask, pattern_bits):
    """Enumerate every raw value of the bit depth, keep those that carry the
    packed pattern, and take the nearest by value, the smaller on a tie."""
    s_val = value(sample, mask.bit_depth)
    # min keeps the first of equal keys, and the carriers ascend by value
    nearest = min(carriers(mask.bit_depth, mask.bits, pattern_bits),
                  key=lambda c: abs(c[0] - s_val))
    return nearest[1]


def plain(samples, mask, pattern_bits):
    """The `plain` engine's carriers: bit substitution and nothing else."""
    config = pipeline.EmbedConfig(mask=mask, key=MasterKey(0), mode="plain")
    samples = np.asarray(samples, dtype=np.int64)
    pats = np.asarray(pattern_bits, dtype=np.int64)
    return pipeline._closed_form(config, samples, pats).tolist()


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
        assert m.unpack(0b0001_0000).tolist() == [0, 1]
        # rows of shape (..., k) pack to patterns of shape (...), and back
        rows = np.array([[[0, 0], [1, 0]], [[0, 1], [1, 1]]])
        assert m.pack(rows).tolist() == [[0, 0b1000], [0b1_0000, 0b1_1000]]
        assert (m.unpack(m.pack(rows)) == rows).all()

    @pytest.mark.parametrize("row", [(1,), (1, 0, 1), (2, 0), (0, -1), (0.5, 1)])
    def test_pack_rejects_bad_rows(self, row):
        m = LayerMask((4, 5), 8)
        with pytest.raises(ValueError):
            m.pack(row)
        with pytest.raises(ValueError):
            m.pack(np.array([(1, 1), row, (0, 1)] if len(row) == 2 else [row, row]))

    def test_unpack_reads_16_bit_values_like_raw(self):
        # extract unpacks sample values: two's complement below bit 16 is the
        # raw pattern, so a negative value reads like its raw form
        values = np.arange(-(1 << 15), 1 << 15, dtype=np.int64)
        for layers in ((1,), (16,), (1, 16), (3, 9, 14), tuple(range(1, 17))):
            m = LayerMask(layers, 16)
            assert (m.unpack(values) == m.unpack(values & 0xFFFF)).all()
        every = LayerMask(tuple(range(1, 17)), 16)
        raws = np.arange(1 << 16, dtype=np.int64)
        assert (every.pack(every.unpack(raws)) == raws).all()
        assert (every.pack(every.unpack(values)) == values & 0xFFFF).all()

    @pytest.mark.parametrize(
        "layers,bit_depth",
        [((), 8), ((0,), 8), ((9,), 8), ((17,), 16), ((3, 3), 8), ((1,), 12)],
    )
    def test_rejects_bad_masks(self, layers, bit_depth):
        with pytest.raises(ValueError):
            LayerMask(layers, bit_depth)


class TestValueConventions:
    def test_signed_16_bit(self):
        raws = np.array([0xFFFF, 0x8000, 0x7FFF], dtype=np.int64)
        assert values_of(raws, 16).tolist() == [-1, -32768, 32767]
        every = np.arange(1 << 16, dtype=np.int64)
        assert values_of(every, 16).tolist() == [value(r, 16) for r in range(1 << 16)]

    def test_unsigned_8_bit(self):
        every = np.arange(256, dtype=np.int64)
        assert values_of(every, 8).tolist() == list(range(256))

    def test_distance_is_on_values(self):
        # raw 0x0000 and 0xFFFF are numeric neighbors at 16 bit
        raws = np.array([0x0000, 0xFFFF], dtype=np.int64)
        assert np.ptp(values_of(raws, 16)) == 1
        assert np.ptp(values_of(np.array([47, 63], dtype=np.int64), 8)) == 16


class TestReadBits:
    def test_layer5_of_47(self):
        assert LayerMask((5,), 8).unpack(47).tolist() == [0]

    def test_zero_sample_reads_zero(self):
        for layers in ((1,), (3, 7), (1, 8)):
            assert LayerMask(layers, 8).unpack(0).tolist() == [0] * len(layers)

    def test_roundtrip_with_alter_exhaustive_small(self):
        samples = list(range(256))
        for k in (1, 2):
            for layers in combinations(range(1, 9), k):
                m = LayerMask(layers, 8)
                for pattern in product((0, 1), repeat=k):
                    substituted = plain(samples, m, [m.pack(pattern)] * 256)
                    assert (m.unpack(substituted) == pattern).all()


class TestAlter:
    """Plain substitution, as the `plain` engine does it."""

    def test_worked_example_single_layer(self):
        m = LayerMask((5,), 8)
        assert plain([47], m, [m.pack((1,))]) == [63]
        assert distance(63, 47, 8) == 16

    def test_worked_example_double_layer(self):
        m = LayerMask((4, 5), 8)
        assert plain([39], m, [m.pack((1, 1))]) == [63]
        assert distance(63, 39, 8) == 24

    @given(st.integers(0, 255))
    @settings(max_examples=100)
    def test_identity_when_bits_match(self, s):
        m = LayerMask((2, 6), 8)
        assert plain([s], m, [s & m.bits]) == [s]


class TestAdjustNearest:
    def test_worked_example_single_layer(self):
        m = LayerMask((5,), 8)
        assert adjust_nearest_packed([47], m, [m.pack((1,))]).tolist() == [48]

    def test_worked_example_double_layer(self):
        m = LayerMask((4, 5), 8)
        assert adjust_nearest_packed([39], m, [m.pack((1, 1))]).tolist() == [31]

    def test_identity_when_bits_match(self):
        m = LayerMask((3,), 8)
        samples = np.arange(256, dtype=np.int64)
        assert (adjust_nearest_packed(samples, m, samples & m.bits) == samples).all()

    def test_tie_breaks_to_smaller_value(self):
        # 7 and 9 are both distance 1 from 8 with an odd LSB
        assert adjust_nearest_packed([8], LayerMask((1,), 8), [1]).tolist() == [7]

    def test_crosses_sign_boundary_by_value(self):
        # nearest sample with the sign layer set to 1 is -1 (raw 0xFFFF)
        m = LayerMask((16,), 16)
        assert adjust_nearest_packed([0], m, [m.bits]).tolist() == [0xFFFF]

    def test_full_mask_returns_pattern(self):
        m = LayerMask(tuple(range(1, 9)), 8)
        bits = m.pack((1, 0, 1, 0, 0, 1, 1, 0))
        assert adjust_nearest_packed([200], m, [bits]).tolist() == [bits]

    def test_single_layer_bound(self):
        rnd = random.Random(5)
        for _ in range(2000):
            bd = rnd.choice((8, 16))
            j = rnd.randint(1, bd)
            m = LayerMask((j,), bd)
            s = rnd.randrange(1 << bd)
            bits = m.pack((rnd.randint(0, 1),))
            [got] = adjust_nearest_packed([s], m, [bits]).tolist()
            assert distance(got, s, bd) <= 1 << (j - 1)

    def test_dominates_alter_and_carries_pattern(self):
        rnd = random.Random(6)
        for _ in range(3000):
            bd = rnd.choice((8, 16))
            mask, s, pattern = random_case(rnd, bd)
            bits = mask.pack(pattern)
            [adjusted] = adjust_nearest_packed([s], mask, [bits]).tolist()
            [substituted] = plain([s], mask, [bits])
            assert tuple(mask.unpack(adjusted)) == pattern
            assert distance(adjusted, s, bd) <= distance(substituted, s, bd)


class TestOracleAgreement:
    def test_oracle_worked_examples(self):
        m5 = LayerMask((5,), 8)
        assert oracle_nearest([47], m5, [m5.pack((1,))]).tolist() == [48]
        assert oracle_nearest([0], LayerMask((1,), 8), [0]).tolist() == [0]

    def test_random_16bit_against_scalar_oracle(self):
        rnd = random.Random(7)
        for _ in range(40):
            mask, s, pattern = random_case(rnd, 16, max_k=4)
            bits = mask.pack(pattern)
            got = adjust_nearest_packed([s], mask, [bits]).tolist()
            assert got == [naive_nearest(s, mask, bits)]

    def test_bulk_oracle_matches_scalar_oracle(self):
        rnd = random.Random(8)
        for _ in range(10):
            k = rnd.randint(1, 3)
            mask = LayerMask(tuple(rnd.sample(range(1, 17), k)), 16)
            samples = [rnd.randrange(1 << 16) for _ in range(25)]
            pats = [
                mask.pack(tuple(rnd.randint(0, 1) for _ in range(k))) for _ in range(25)
            ]
            assert oracle_nearest(samples, mask, pats).tolist() == [
                naive_nearest(s, mask, p) for s, p in zip(samples, pats)
            ]

    def test_determinism(self):
        m = LayerMask((2, 7), 16)
        bits = m.pack((1, 0))
        first = adjust_nearest_packed([30000, 30000], m, [bits, bits])
        assert first[0] == first[1]
        assert (adjust_nearest_packed([30000, 30000], m, [bits, bits]) == first).all()


class TestArrayNearest:
    """One adjust_nearest_packed call over many rows: the naive optimum per row."""

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
                want = oracle_nearest(samples, m, pats)
                for i, (s, p) in enumerate(zip(samples.tolist(), pats.tolist())):
                    assert got[i] == naive_nearest(s, m, p), (s, layers, p)
                    assert want[i] == got[i]
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
        got = adjust_nearest_packed(samples, m, pats)
        for s, p, v in zip(samples, pats, got.tolist()):
            assert v == naive_nearest(s, m, p), (s, layers, p)
        assert (got[::4] == samples[::4]).all()
