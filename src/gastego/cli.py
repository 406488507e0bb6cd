"""Command-line front end.

Subcommands: embed, extract, inspect, keygen-ga, oracle-check.
Exit codes are stable: 0 success, 1 I/O or parse failure, 2 capacity or
configuration problem or memory exhaustion, 3 key/stego mismatch, 4
optimality contract violation found by oracle-check. All randomness is
seeded (--seed, default 0); --random-seed opts into a fresh key from the OS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import combinations, product

import numpy as np

from . import bitplane, ga_adjust, msg_ga, pipeline, wav_io
from .bitplane import LayerMask
from .errors import (
    BitDepthMismatch,
    CapacityExhaustedBySkips,
    EmptyMessage,
    InsufficientCapacity,
    KeyMismatch,
    KeyParseError,
    OversizeOutput,
    SnrNotDefined,
    StegoError,
    UnreachableOptimum,
)
from .ga_adjust import GaParams
from .keystream import MasterKey, SplitMix64, derive_seed

_CONFIG_ERRORS = (
    InsufficientCapacity,
    CapacityExhaustedBySkips,
    BitDepthMismatch,
    UnreachableOptimum,
    EmptyMessage,
    OversizeOutput,
    SnrNotDefined,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StegoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gastego",
        description="Hide and recover messages in the bit layers of PCM WAV audio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="hide a message file in a cover WAV")
    p.add_argument("--cover", required=True, help="cover WAV path")
    p.add_argument("--message", required=True, help="message file (raw bytes)")
    p.add_argument("--out", required=True, help="stego WAV output path")
    p.add_argument("--key-out", required=True, help="key file output path")
    p.add_argument("--layers", default="1", help="comma-separated bit layers, default 1")
    p.add_argument("--seed", default="0", help="master key seed (int, 0x.. ok)")
    p.add_argument("--random-seed", action="store_true", help="use a fresh OS-random seed")
    p.add_argument(
        "--seed-from-message-ga",
        action="store_true",
        help="derive the master key from the message GA's best individual",
    )
    p.add_argument("--mode", default="ga", choices=pipeline.MODES)
    p.add_argument("--threshold", default="inf", help='max per-sample deviation, int or "inf"')
    p.add_argument("--ga-pop", type=int, default=GaParams.population_size)
    p.add_argument("--ga-gens", type=int, default=GaParams.generations)
    p.add_argument("--ga-pc", type=float, default=GaParams.crossover_prob)
    p.add_argument("--ga-pm", type=float, default=GaParams.mutation_prob)
    p.add_argument("--report", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a message from a stego WAV")
    p.add_argument("--stego", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("inspect", help="show WAV format facts and capacity")
    p.add_argument("--wav", required=True)
    p.add_argument("--layers", default="1")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("keygen-ga", help="evolve key material from a message file")
    p.add_argument("--message", required=True)
    p.add_argument("--pop", type=int, help="population size (default: message length)")
    p.add_argument("--genes", type=int, help="genes per individual (default: distinct values)")
    p.add_argument("--max-gens", type=int, default=10_000)
    p.add_argument("--seed", default="0")
    p.add_argument("--emit-master-key", action="store_true")
    p.set_defaults(func=cmd_keygen_ga)

    p = sub.add_parser("oracle-check", help="self-check adjusters against brute force")
    p.add_argument("--samples", type=int, default=300, help="random GA cases (0 skips)")
    p.add_argument("--bit-depth", type=int, default=8, choices=(8, 16))
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _parse_seed(args) -> MasterKey:
    if getattr(args, "random_seed", False):
        import secrets  # imported here, since only --random-seed needs it
        return MasterKey(secrets.randbits(64))
    return MasterKey(int(args.seed, 0))


def _parse_layers(text: str, bit_depth: int) -> LayerMask:
    layers = tuple(int(x) for x in text.split(","))
    return LayerMask(layers, bit_depth)


def cmd_embed(args) -> int:
    cover = wav_io.parse_wav(_read(args.cover))
    message = _read(args.message)
    if args.seed_from_message_ga:
        result = msg_ga.evolve(message, msg_ga.MsgGaParams(seed=int(args.seed, 0)))
        key = msg_ga.derive_key_from_genes(result.best)
    else:
        key = _parse_seed(args)
    config = pipeline.EmbedConfig(
        mask=_parse_layers(args.layers, cover.bit_depth),
        key=key,
        mode=args.mode,
        threshold=pipeline.parse_threshold(args.threshold),
        ga_params=GaParams(
            population_size=args.ga_pop,
            generations=args.ga_gens,
            crossover_prob=args.ga_pc,
            mutation_prob=args.ga_pm,
        ),
    )
    stego, stego_key, report = pipeline.embed(cover, message, config)
    _write(args.out, wav_io.write_wav(stego))
    _write(args.key_out, pipeline.format_key_file(stego_key).encode())
    fields = dataclasses.asdict(report)
    for name, value in fields.items():
        print(f"{name}: {value}")
    if args.report:
        if math.isinf(report.snr_db):
            fields["snr_db"] = None  # JSON has no infinity
        _write(args.report, json.dumps(fields, indent=2).encode() + b"\n")
    return 0


def cmd_extract(args) -> int:
    stego = wav_io.parse_wav(_read(args.stego))
    try:
        text = _read(args.key).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeyParseError(f"key file is not UTF-8 text: {exc}") from exc
    key = pipeline.parse_key_file(text)
    message = pipeline.extract(stego, key)
    _write(args.out, message)
    print(f"recovered {len(message)} bytes")
    return 0


def cmd_inspect(args) -> int:
    buf = wav_io.parse_wav(_read(args.wav))
    mask = _parse_layers(args.layers, buf.bit_depth)
    cap = pipeline.capacity_bits(buf, mask)
    print(f"bit_depth: {buf.bit_depth}")
    print(f"sample_rate: {buf.sample_rate}")
    print(f"channels: {buf.channels}")
    print(f"samples: {len(buf.samples)}")
    if buf.sample_rate:
        print(f"duration_s: {buf.frame_count / buf.sample_rate:.3f}")
    print(f"layers: {','.join(str(l) for l in mask.layers)}")
    print(f"capacity_bits: {cap}")
    print(f"capacity_bytes: {cap // 8}")
    return 0


def cmd_keygen_ga(args) -> int:
    message = _read(args.message)
    params = msg_ga.MsgGaParams(
        population_size=args.pop,
        genes_per_individual=args.genes,
        max_generations=args.max_gens,
        seed=int(args.seed, 0),
    )
    result = msg_ga.evolve(message, params)
    print(f"best: {','.join(str(g) for g in result.best)}")
    print(f"fitness: {result.best_fitness}")
    print(f"distinct_values: {result.target_fitness}")
    print(f"generations: {result.generations}")
    if args.emit_master_key:
        print(f"master_key: {msg_ga.derive_key_from_genes(result.best).hex()}")
    if result.best_fitness < result.target_fitness:
        print(
            f"error: the message GA stopped at fitness {result.best_fitness} of "
            f"{result.target_fitness} after generation {result.generations}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_oracle_check(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    rng = SplitMix64(derive_seed(MasterKey(int(args.seed, 0)), "oracle-check", 0))

    # closed-form adjuster vs enumeration: exhaustive at 8-bit over every
    # mask of one or two layers, sampled at 16-bit from cases drawn in sequence
    cases8 = {}
    for k in (1, 2):
        for layers in combinations(range(1, 9), k):
            mask = LayerMask(layers, 8)
            patterns = mask.pack(list(product((0, 1), repeat=k)))
            samples = np.tile(np.arange(256), len(patterns))
            cases8[mask] = (samples, np.repeat(patterns, 256))
    rows16: dict[LayerMask, list[tuple[int, int]]] = {}
    for _ in range(2000):
        mask, s, pattern = _draw_case(rng, 16)
        rows16.setdefault(mask, []).append((s, pattern))
    cases16 = {mask: np.array(rows, dtype=np.int64).T for mask, rows in rows16.items()}
    violated = False
    for bd, cases in ((8, cases8), (16, cases16)):
        total, mismatches = _nearest_mismatches(cases)
        print(f"nearest {bd}-bit: {total - mismatches}/{total} "
              f"({100.0 * (total - mismatches) / total:.2f}% match)")
        violated |= mismatches > 0
    if violated:
        print("nearest adjuster violates its optimality contract", file=sys.stderr)
        return 4

    # GA vs oracle distance on random cases at the requested bit depth
    if args.samples > 0:
        bd = args.bit_depth
        hits = 0
        never_worse = True
        cases: dict[LayerMask, list[tuple[int, int, int]]] = {}
        for _ in range(args.samples):
            mask, s, pattern = _draw_case(rng, bd)
            cases.setdefault(mask, []).append((s, pattern, rng.next64()))
        for mask, rows in cases.items():
            samples, patterns = np.array([row[:2] for row in rows], dtype=np.int64).T
            seeds = np.array([row[2] for row in rows], dtype=np.uint64)
            optimum = bitplane.oracle_nearest(samples, mask, patterns)
            s_vals = bitplane.values_of(samples, bd)
            d_got, d_opt, d_plain = (
                np.abs(bitplane.values_of(raw, bd) - s_vals)
                for raw in (
                    ga_adjust.run_ga_batch(
                        samples, patterns, mask, GaParams(), seeds, optimum
                    ),
                    optimum,
                    (samples & ~mask.bits) | patterns,
                )
            )
            hits += int((d_got == d_opt).sum())
            never_worse &= bool((d_got <= d_plain).all())
        rate = 100.0 * hits / args.samples
        print(f"ga {bd}-bit: {hits}/{args.samples} optimal ({rate:.2f}%), "
              f"never worse than plain: {never_worse}")
        if rate < 99.0 or not never_worse:
            print("ga engine below its optimality bar", file=sys.stderr)
            return 4
    else:
        print("ga: skipped (--samples 0)")
    return 0


def _draw_layers(rng: SplitMix64, k: int, bit_depth: int) -> tuple[int, ...]:
    layers: list[int] = []
    while len(layers) < k:
        layer = 1 + rng.next_below(bit_depth)
        if layer not in layers:
            layers.append(layer)
    return tuple(layers)


def _draw_case(rng: SplitMix64, bit_depth: int) -> tuple[LayerMask, int, int]:
    """One random (mask, raw sample, packed pattern) case of 1 to 3 layers.

    Draws k, the k layers, the sample, then the k pattern bits.
    """
    k = 1 + rng.next_below(3)
    mask = LayerMask(_draw_layers(rng, k, bit_depth), bit_depth)
    s = rng.next_below(1 << bit_depth)
    return mask, s, mask.pack(tuple(rng.next_below(2) for _ in range(k)))


def _nearest_mismatches(cases: dict) -> tuple[int, int]:
    """Check adjust_nearest_packed against the enumeration oracle.

    `cases` maps each mask to its raw samples and packed patterns, two int64
    arrays of one length; each mask costs one call of each. Returns (cases,
    mismatches).
    """
    total = mismatches = 0
    for mask, (samples, patterns) in cases.items():
        got = bitplane.adjust_nearest_packed(samples, mask, patterns)
        want = bitplane.oracle_nearest(samples, mask, patterns)
        mismatches += int((got != want).sum())
        total += len(samples)
    return total, mismatches


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


if __name__ == "__main__":
    sys.exit(main())
