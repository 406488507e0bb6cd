"""Acceptance gate: every shipped guarantee at its full scale.

Each test prints one PASS line with the measured numbers so a plain
`pytest tests/test_acceptance.py -v -s` doubles as a release report.
"""

import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from gastego.bitplane import LayerMask, adjust_nearest_packed, oracle_nearest
from gastego.errors import StegoError
from gastego.ga_adjust import GaParams, run_ga_batch
from gastego.keystream import MasterKey
from gastego.msg_ga import MsgGaParams, evolve
from gastego.pipeline import EmbedConfig, embed, extract
from gastego.wav_io import AudioBuffer, parse_wav, write_wav


def random_cover(rnd, n, bit_depth, channels=1):
    lo, hi = (0, 255) if bit_depth == 8 else (-32768, 32767)
    n -= n % channels
    return AudioBuffer(
        [rnd.randint(lo, hi) for _ in range(n)], bit_depth, 44100, channels
    )


def distance(a_raw, b_raw, bit_depth):
    """|value(a) - value(b)|, values two's complement at 16-bit."""
    def value(raw):
        return raw - (1 << 16) if bit_depth == 16 and raw >= 1 << 15 else raw

    return abs(value(a_raw) - value(b_raw))


def substitute(sample, mask, pattern):
    """Plain substitution of the pattern into the target layers."""
    return (sample & ~mask.bits) | mask.pack(pattern)


def random_mask(rnd, bit_depth, max_k=3):
    k = rnd.randint(1, max_k)
    return LayerMask(tuple(rnd.sample(range(1, bit_depth + 1), k)), bit_depth)


def test_criterion_1_worked_single_layer_adjustment():
    """Layer 5 of sample 47: substitution costs 16, adjustment costs 1."""
    mask = LayerMask((5,), 8)
    plain = substitute(47, mask, (1,))
    [adjusted] = adjust_nearest_packed([47], mask, [mask.pack((1,))]).tolist()
    assert plain == 63 and distance(plain, 47, 8) == 16
    assert adjusted == 48 and distance(adjusted, 47, 8) == 1
    print("PASS criterion 1: substitute(47,{5},1)=63 (d=16), adjust=48 (d=1)")


def test_criterion_2_worked_double_layer_adjustment():
    """Layers 4&5 of sample 39: substitution costs 24, adjustment costs 8."""
    mask = LayerMask((4, 5), 8)
    plain = substitute(39, mask, (1, 1))
    [adjusted] = adjust_nearest_packed([39], mask, [mask.pack((1, 1))]).tolist()
    assert plain == 63 and distance(plain, 39, 8) == 24
    assert adjusted == 31 and distance(adjusted, 39, 8) == 8
    print("PASS criterion 2: substitute(39,{4,5},11)=63 (d=24), adjust=31 (d=8)")


def test_criterion_3_oracle_equivalence():
    """adjust_nearest_packed equals brute-force enumeration wherever it is checked."""
    checked = 0
    for k in (1, 2):
        for layers in combinations(range(1, 9), k):
            mask = LayerMask(layers, 8)
            for pattern in product((0, 1), repeat=k):
                samples = np.arange(256, dtype=np.int64)
                pats = np.full(256, mask.pack(pattern), dtype=np.int64)
                got = adjust_nearest_packed(samples, mask, pats)
                wrong = np.flatnonzero(got != oracle_nearest(samples, mask, pats))
                assert len(wrong) == 0, (int(samples[wrong[0]]), layers, pattern)
                checked += len(samples)
    assert checked == 256 * (8 * 2 + 28 * 4)

    rnd = random.Random(20260301)
    cases16 = 0
    target = 100_000
    while cases16 < target:
        mask = random_mask(rnd, 16, max_k=4)
        chunk = min(2500, target - cases16)
        samples = np.array(
            [rnd.randrange(1 << 16) for _ in range(chunk)], dtype=np.int64
        )
        pats = np.array(
            [
                mask.pack(tuple(rnd.randint(0, 1) for _ in range(mask.k)))
                for _ in range(chunk)
            ],
            dtype=np.int64,
        )
        got = adjust_nearest_packed(samples, mask, pats)
        wrong = np.flatnonzero(got != oracle_nearest(samples, mask, pats))
        assert len(wrong) == 0, (
            int(samples[wrong[0]]), mask.layers, int(pats[wrong[0]])
        )
        cases16 += chunk
    print(
        f"PASS criterion 3: nearest==oracle on {checked} exhaustive 8-bit and "
        f"{cases16} random 16-bit cases (100%)"
    )


def test_criterion_4_ga_optimality_and_never_worse():
    """Default-parameter GA: >=99% oracle-distance matches, never above plain."""
    rnd = random.Random(5)
    trials = 1000
    optimal = 0
    worse = 0
    for _ in range(trials):
        mask = random_mask(rnd, 8)
        s = rnd.randrange(256)
        pattern = tuple(rnd.randint(0, 1) for _ in range(mask.k))
        bits = mask.pack(pattern)
        seed = rnd.getrandbits(64)
        [best] = oracle_nearest([s], mask, [bits]).tolist()
        [got] = run_ga_batch([s], [bits], mask, GaParams(), [seed], [best]).tolist()
        assert tuple(mask.unpack(got)) == pattern
        d = distance(got, s, 8)
        optimal += d == distance(best, s, 8)
        worse += d > distance(substitute(s, mask, pattern), s, 8)
    assert worse == 0
    assert optimal / trials >= 0.99
    print(
        f"PASS criterion 4: GA optimal on {optimal}/{trials} "
        f"({100 * optimal / trials:.1f}%), worse than plain on 0"
    )


def test_criterion_5_round_trip_randomized():
    """extract(embed(...)) is byte-exact over 1000 randomized configurations."""
    rnd = random.Random(777)
    trials = 1000
    saw_layer1 = saw_top = saw_empty = 0
    mode_counts = {"plain": 0, "nearest": 0, "ga": 0}
    for t in range(trials):
        bit_depth = rnd.choice((8, 16))
        mode = ("plain", "nearest", "ga")[t % 3]
        n = int(math.exp(rnd.uniform(math.log(64), math.log(100_000))))
        channels = rnd.choice((1, 2))
        cover = random_cover(rnd, n, bit_depth, channels)
        mask = random_mask(rnd, bit_depth)
        cap_bytes = len(cover.samples) * mask.k // 8
        msg_len = rnd.randint(0, min(1024, cap_bytes))
        message = bytes(rnd.randrange(256) for _ in range(msg_len))
        config = EmbedConfig(
            mask=mask, key=MasterKey(rnd.getrandbits(64)), mode=mode
        )
        stego, key, report = embed(cover, message, config)
        assert extract(stego, key) == message, (t, mode, bit_depth, n, msg_len)
        assert report.samples_skipped == 0
        saw_layer1 += 1 in mask.layers
        saw_top += bit_depth in mask.layers
        saw_empty += msg_len == 0
        mode_counts[mode] += 1
    assert saw_layer1 > 50 and saw_top > 50  # mask coverage across the suite
    print(
        f"PASS criterion 5: {trials}/{trials} byte-exact round trips "
        f"(modes {mode_counts}, layer-1 masks {saw_layer1}, top-layer {saw_top}, "
        f"empty messages {saw_empty})"
    )


def test_criterion_6_dominance_and_snr_ordering():
    """Per-trial orderings: nearest/ga never noisier than plain, SNR reversed."""
    rnd = random.Random(31415)
    trials = 250
    for t in range(trials):
        bit_depth = rnd.choice((8, 16))
        cover = random_cover(rnd, rnd.randint(256, 8192), bit_depth)
        mask = random_mask(rnd, bit_depth)
        cap_bytes = len(cover.samples) * mask.k // 8
        message = bytes(rnd.randrange(256) for _ in range(rnd.randint(1, min(128, cap_bytes))))
        key = MasterKey(rnd.getrandbits(64))
        stats = {}
        for mode in ("plain", "nearest", "ga"):
            stego, skey, report = embed(
                cover, message, EmbedConfig(mask=mask, key=key, mode=mode)
            )
            assert extract(stego, skey) == message
            devs = [abs(s - c) for s, c in zip(stego.samples, cover.samples)]
            stats[mode] = (max(devs), sum(d * d for d in devs), report.snr_db)
        for mode in ("nearest", "ga"):
            assert stats[mode][0] <= stats["plain"][0], (t, mode, stats)
            assert stats[mode][1] <= stats["plain"][1], (t, mode, stats)
            assert stats[mode][2] >= stats["plain"][2], (t, mode, stats)
    print(f"PASS criterion 6: dominance and SNR ordering held on {trials}/{trials} trials")


def test_criterion_7_verification_threshold_contract():
    """Finite thresholds bound every used sample; skips never break extraction."""
    rnd = random.Random(2718)
    trials = 60
    with_skips = 0
    for t in range(trials):
        bit_depth = rnd.choice((8, 16))
        mode = ("plain", "nearest", "ga")[t % 3]
        # adversarial cover: two interleaved plateaus so some samples adjust
        # cheaply and others cannot stay under the threshold
        if bit_depth == 8:
            a, b = 47, 40
            mask = LayerMask((5,), 8)
            threshold = rnd.choice((5, 8))
        else:
            a, b = 12000, 11000
            mask = LayerMask((12,), 16)
            threshold = rnd.choice((700, 1500))
        n = rnd.randint(400, 1200)
        cover = AudioBuffer(
            [a if rnd.random() < 0.5 else b for _ in range(n)], bit_depth, 8000, 1
        )
        msg_len = rnd.randint(1, 8)
        message = bytes(rnd.randrange(256) for _ in range(msg_len))
        config = EmbedConfig(
            mask=mask, key=MasterKey(rnd.getrandbits(64)), mode=mode,
            threshold=threshold,
        )
        try:
            stego, key, report = embed(cover, message, config)
        except StegoError:
            continue  # some adversarial draws legitimately exhaust capacity
        devs = [abs(s - c) for s, c in zip(stego.samples, cover.samples)]
        assert max(devs) <= threshold, (t, mode)
        assert report.max_deviation <= threshold
        assert report.samples_skipped == len(key.skipped_indices)
        for idx in key.skipped_indices:
            assert stego.samples[idx] == cover.samples[idx]
        assert extract(stego, key) == message, (t, mode)
        with_skips += report.samples_skipped > 0
    assert with_skips >= trials // 3  # the covers really do force rejections
    print(
        f"PASS criterion 7: threshold contract held; {with_skips} trials "
        f"had forced rejections, all extractions byte-exact"
    )


def test_criterion_8_msg_ga_convergence():
    """100 random messages: full coverage within 10^4 generations in >=95%."""
    rnd = random.Random(11)
    runs = 100
    converged = 0
    monotone = True
    constant = True
    worst = 0
    for _ in range(runs):
        length = rnd.randint(1, 64)
        message = bytes(rnd.randrange(256) for _ in range(length))
        res = evolve(message, MsgGaParams(seed=rnd.getrandbits(64)))
        converged += res.best_fitness == res.target_fitness
        worst = max(worst, res.generations)
        hist = res.fitness_history
        monotone &= all(x <= y for x, y in zip(hist, hist[1:]))
        constant &= len(set(res.population_sizes)) == 1
    assert converged / runs >= 0.95
    assert monotone and constant
    print(
        f"PASS criterion 8: {converged}/{runs} converged (worst {worst} "
        f"generations), population constant, fitness monotone"
    )


def test_criterion_9_wav_fidelity_and_fuzz():
    """Bit-exact container round trips plus a crash-free parser under fuzz."""
    rnd = random.Random(4321)
    cases = 0
    for bit_depth in (8, 16):
        for channels in (1, 2):
            for frames in (0, 1, 333, 20001):
                buf = random_cover(rnd, frames * channels, bit_depth, channels)
                data = write_wav(buf)
                again = parse_wav(data)
                assert again == buf
                assert write_wav(again) == data
                cases += 1

    blobs = 0
    base = write_wav(random_cover(rnd, 60, 16, 1))
    for _ in range(5000):
        if rnd.random() < 0.5:
            blob = bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 150)))
        else:
            mutated = bytearray(base)
            for _ in range(rnd.randint(1, 5)):
                if mutated and rnd.random() < 0.7:
                    mutated[rnd.randrange(len(mutated))] = rnd.randrange(256)
                elif mutated:
                    del mutated[rnd.randrange(len(mutated)) :]
            blob = bytes(mutated)
        try:
            parse_wav(blob)
        except StegoError:
            pass
        blobs += 1
    print(
        f"PASS criterion 9: {cases} corpus files round-tripped bit-exactly, "
        f"{blobs} fuzz inputs handled without a crash"
    )
