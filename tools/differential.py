"""Differential check: the working tree's gastego against a git revision's.

    python tools/differential.py --rev REV [--cases N] [--seed S]

Extracts `src/` at REV with `git archive`, then runs the same seeded cases
through that tree and through the working tree's `src/`, each in its own
worker process. An embed case draws a mode, one to three layers, a bit
depth, a threshold, GA parameters, a cover of 300 to 20,000 samples and a
message that sometimes fills or overflows the cover. About one case in ten
takes a cover of 20,000 to 300,000 samples instead, so that the permutation
walk spans many of its 16,384-step blocks, with a message under 1 KiB that
fits. The check compares,
case by case: the stego WAV bytes, the key file text, the report fields, the
bytes extracted from the written WAV and key text, and the error type and
text of a case that fails. It also compares `keygen-ga` stdout, stderr and
exit code on 40 messages, about four in five of 1 to 512 bytes and the rest
of 1 to 4 KiB. Each draws its bytes from a run of 2, 16, 64 or 256
consecutive values, which starts above 0 in about half of the shorter runs,
and takes the default or a drawn `--pop`, `--genes` (above the message's
distinct count) and `--max-gens`. Two more cases fail before the GA runs: an
empty message, and a `--genes` below the message's distinct count. Last, it
compares `oracle-check` stdout, stderr and exit code on 8 drawn seeds, half
at each bit depth, each with a `--samples` of 0, 1, 30 or 100. Then it
compares a digest of `permute_indices(n, key, count)` for 6 walks of 65,537
to 1,000,000 samples, each at counts 2**16 - 1, 2**16, 2**16 + 1, one count
up to n and n itself, so the prefix spans both 16-bit digits of its sort.
Last come 30 rejection-heavy embed cases, ten per mode: four to six layers
at either bit depth, a uniform or sine cover of 50,000 to 200,000 samples, a
message of up to 4 KiB and a threshold just under the mask's optimum bound,
so that many carriers are rejected and the patterns fall on both sides of
`pipeline.TABLE_MAX_PATTERNS`. Then come 20 `keygen-ga` cases on long runs,
whose generations are mostly steady (the best's copy second in line and no
message value missing): a random message of 256 B to 2 KiB, with the
default flags or a `--max-gens` of 1 to 3,000. For these it also compares
digests of `evolve`'s `fitness_history` and `population_sizes`. The walk,
rejection-heavy and steady cases are drawn after all the others, which keep
their draws.

Prints the count of each outcome and the first mismatching case, and exits 1
on any mismatch (2 when the comparison cannot run). It needs the repository's git history, so it is a tool, not
a test.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THRESHOLDS = [math.inf, 0, 1, 2, 3, 5, 17, 300]
KEYGEN_CASES = 40
ORACLE_CASES = 8
WALK_CASES = 6
HEAVY_CASES = 30
STEADY_CASES = 20


# --- cases ---------------------------------------------------------------------


def embed_cases(rnd: random.Random, count: int) -> list[dict]:
    cases = []
    for _ in range(count):
        depth = rnd.choice([8, 16])
        layers = sorted(rnd.sample(range(1, depth + 1), rnd.randint(1, 3)))
        mode = rnd.choice(["plain", "nearest", "ga"])
        channels = rnd.choice([1, 2])
        large = rnd.random() < 0.1
        n = rnd.randint(*(20_000, 300_000) if large else (300, 20_000)) // channels * channels
        capacity = n * len(layers) // 8
        # ga runs one GA per carrier, so its messages stay smaller; a large
        # cover's message stays under 1 KiB, which its capacity always exceeds
        cap = min(capacity, 600 if mode == "ga" else 1023 if large else capacity)
        size = rnd.choices([
            rnd.randint(1, max(1, cap // 20)),  # a short message
            rnd.randint(1, max(1, cap)),  # anything up to the cap
            max(1, cap - rnd.randint(0, 3)),  # full: rejections may run it out
            capacity + rnd.randint(1, 8),  # does not fit at all
        ], weights=[4, 4, 1, 0 if large else 1])[0]
        ga = {"population_size": 16, "generations": 64,
              "crossover_prob": 0.8, "mutation_prob": 0.1}
        if rnd.random() < 0.3:
            ga = {"population_size": rnd.choice([2, 3, 8, 16]),
                  "generations": rnd.choice([1, 8, 64]),
                  "crossover_prob": rnd.choice([0.0, 0.5, 1.0]),
                  "mutation_prob": rnd.choice([0.0, 0.05, 0.5])}
        cases.append({
            "bit_depth": depth,
            "layers": layers,
            "mode": mode,
            "threshold": rnd.choice(THRESHOLDS),
            "ga": ga,
            "key": rnd.getrandbits(64),
            "cover": rnd.choices(["uniform", "quiet", "sine", "constant"],
                                 weights=[4, 2, 3, 1])[0],
            "samples": n,
            "channels": channels,
            "cover_seed": rnd.getrandbits(32),
            "message_len": size,
            "message_seed": rnd.getrandbits(32),
        })
    return cases


def keygen_cases(rnd: random.Random, count: int) -> list[dict]:
    def case(size: int, alphabet: int, extra_genes: int | None) -> dict:
        return {
            "size": size,
            "alphabet": alphabet,
            # the message's values are [low, low + alphabet), so its minimum,
            # the offset of every initial gene, is not always 0
            "low": rnd.choice([0, rnd.randint(1, 256 - alphabet)]) if alphabet < 256 else 0,
            "message_seed": rnd.getrandbits(32),
            "seed": hex(rnd.getrandbits(64)),
            "emit_master_key": rnd.random() < 0.5,
            # None keeps a flag's default; extra_genes is added to the
            # message's distinct count
            "pop": rnd.choice([None, 2, 3, 8]),
            "extra_genes": extra_genes,
            "max_gens": rnd.choice([None, rnd.randint(1, 50)]),
        }

    cases = [
        case(rnd.choices([rnd.randint(1, 512), rnd.randint(1024, 4096)], weights=[4, 1])[0],
             rnd.choice([2, 16, 64, 256]), rnd.choice([None, rnd.randint(1, 40)]))
        for _ in range(count)
    ]
    # the two errors keygen-ga reports before the GA runs: an empty message,
    # and fewer genes than a 64-byte message's (about 16) distinct values
    return cases + [case(0, 16, None), case(64, 16, -rnd.randint(1, 8))]


def oracle_cases(rnd: random.Random, count: int) -> list[dict]:
    return [{"seed": hex(rnd.getrandbits(64)), "bit_depth": (8, 16)[i % 2],
             "samples": rnd.choice([0, 1, 30, 100])} for i in range(count)]


def walk_cases(rnd: random.Random, count: int) -> list[dict]:
    cases = []
    for _ in range(count):
        n = rnd.randint(2**16 + 1, 1_000_000)
        cases.append({"samples": n, "key": rnd.getrandbits(64),
                      "counts": [2**16 - 1, 2**16, 2**16 + 1, rnd.randint(0, n), n]})
    return cases


def optimum_bound(layers: list[int], depth: int) -> int:
    """Half the widest gap between consecutive values that carry one
    pattern, counting the step past the top of the range: the nearest value
    of a sample away from the range's ends is never farther."""
    free = [b for b in range(depth) if b + 1 not in layers] + [depth]
    return max((1 << b) - sum(1 << c for c in free if c < b) for b in free) // 2


def heavy_cases(rnd: random.Random, count: int) -> list[dict]:
    cases = []
    for i in range(count):
        depth = rnd.choice([8, 16])
        layers = sorted(rnd.sample(range(1, depth + 1), rnd.randint(4, 6)))
        bound = optimum_bound(layers, depth)
        cases.append({
            "bit_depth": depth,
            "layers": layers,
            "mode": ("plain", "nearest", "ga")[i % 3],
            "threshold": bound - rnd.randint(1, max(1, bound // 4)),
            "ga": {"population_size": 16, "generations": 64,
                   "crossover_prob": 0.8, "mutation_prob": 0.1},
            "key": rnd.getrandbits(64),
            "cover": rnd.choice(["uniform", "sine"]),
            "samples": rnd.randint(50_000, 200_000),
            "channels": 1,
            "cover_seed": rnd.getrandbits(32),
            "message_len": rnd.randint(1, 4096),
            "message_seed": rnd.getrandbits(32),
        })
    return cases


def steady_cases(rnd: random.Random, count: int) -> list[dict]:
    return [{
        "size": rnd.randint(256, 2048),
        "alphabet": 256,
        "low": 0,
        "message_seed": rnd.getrandbits(32),
        "seed": hex(rnd.getrandbits(64)),
        "emit_master_key": True,
        "pop": None,
        "extra_genes": None,
        "max_gens": rnd.choice([None, rnd.randint(1, 3000)]),
    } for _ in range(count)]


# --- worker: runs the cases against one source tree ------------------------------


def _cover(case: dict, np):
    rng = np.random.default_rng(case["cover_seed"])
    n = case["samples"]
    lo, hi = (0, 255) if case["bit_depth"] == 8 else (-32768, 32767)
    mid = (lo + hi + 1) // 2
    kind = case["cover"]
    if kind == "uniform":
        return rng.integers(lo, hi + 1, n)
    if kind == "quiet":
        return np.clip(mid + rng.integers(-3, 4, n), lo, hi)
    if kind == "sine":
        wave = mid + (hi - mid) * 0.6 * np.sin(np.arange(n) * 0.05)
        return np.clip(np.rint(wave).astype(np.int64) + rng.integers(-2, 3, n), lo, hi)
    return np.full(n, mid if rng.random() < 0.5 else lo, dtype=np.int64)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _error(stage: str, exc: Exception) -> dict:
    return {"outcome": f"{stage} {type(exc).__name__}", "error": str(exc)}


def run_embed_case(case: dict, g, np) -> dict:
    cover = g.AudioBuffer(_cover(case, np), case["bit_depth"], 8000, case["channels"])
    message = np.random.default_rng(case["message_seed"]).integers(
        0, 256, case["message_len"], dtype=np.uint8).tobytes()
    try:
        config = g.EmbedConfig(
            mask=g.LayerMask(tuple(case["layers"]), case["bit_depth"]),
            key=g.MasterKey(case["key"]),
            mode=case["mode"],
            threshold=case["threshold"],
            ga_params=g.GaParams(**case["ga"]),
        )
        stego, key, report = g.embed(cover, message, config)
        wav = g.write_wav(stego)
        text = g.format_key_file(key)
    except Exception as exc:  # the error itself is the output compared
        return _error("embed", exc)
    try:
        recovered = g.extract(g.parse_wav(wav), g.parse_key_file(text))
    except Exception as exc:
        return _error("extract", exc)
    return {
        "outcome": "ok" if recovered == message else "extract differs from message",
        "wav": _digest(wav),
        "key": text,
        "report": dataclasses.asdict(report),
        "extract": _digest(recovered),
    }


def run_keygen_case(case: dict, main, np, scratch: Path) -> dict:
    rng = np.random.default_rng(case["message_seed"])
    path = scratch / "message.bin"
    low = case["low"]
    message = rng.integers(low, low + case["alphabet"], case["size"], dtype=np.uint8).tobytes()
    path.write_bytes(message)
    argv = ["keygen-ga", "--message", str(path), "--seed", case["seed"]]
    genes = None if case["extra_genes"] is None else len(set(message)) + case["extra_genes"]
    for flag, value in (("--pop", case["pop"]), ("--genes", genes),
                        ("--max-gens", case["max_gens"])):
        if value is not None:
            argv += [flag, str(value)]
    if case["emit_master_key"]:
        argv.append("--emit-master-key")
    return _run_cli(main, argv)


def run_steady_case(case: dict, main, g, np, scratch: Path) -> dict:
    result = run_keygen_case(case, main, np, scratch)
    params = g.MsgGaParams(seed=int(case["seed"], 16))
    if case["max_gens"] is not None:
        params = dataclasses.replace(params, max_generations=case["max_gens"])
    res = g.evolve((scratch / "message.bin").read_bytes(), params)
    result["fitness_history"] = _digest(json.dumps(res.fitness_history).encode())
    result["population_sizes"] = _digest(json.dumps(res.population_sizes).encode())
    return result


def run_oracle_case(case: dict, main) -> dict:
    return _run_cli(main, ["oracle-check", "--seed", case["seed"], "--bit-depth",
                           str(case["bit_depth"]), "--samples", str(case["samples"])])


def run_walk_case(case: dict, g) -> dict:
    key = g.MasterKey(case["key"])
    return {"outcome": "ok", "digests": [
        _digest(g.keystream.permute_indices(case["samples"], key, c).astype("<i8").tobytes())
        for c in case["counts"]]}


def _run_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"outcome": f"exit {code}", "stdout": out.getvalue(), "stderr": err.getvalue()}


def worker(src: str, cases_path: str, out_path: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import gastego as g
    from gastego.cli import main

    if not Path(g.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported gastego from {g.__file__}, not from {src}")
    cases = json.loads(Path(cases_path).read_text())
    with tempfile.TemporaryDirectory() as scratch:
        results = {
            "embed": [run_embed_case(c, g, np) for c in cases["embed"]],
            "keygen": [run_keygen_case(c, main, np, Path(scratch)) for c in cases["keygen"]],
            "oracle": [run_oracle_case(c, main) for c in cases["oracle"]],
            "walk": [run_walk_case(c, g) for c in cases["walk"]],
            "heavy": [run_embed_case(c, g, np) for c in cases["heavy"]],
            "steady": [run_steady_case(c, main, g, np, Path(scratch)) for c in cases["steady"]],
        }
    Path(out_path).write_text(json.dumps(results))


# --- comparison --------------------------------------------------------------------


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _extract_src(rev: str, dest: Path) -> None:
    archive = tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev, "src")))
    with archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def _differing_fields(a: dict, b: dict) -> list[str]:
    return [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def _show(value, limit: int = 400) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision to compare against")
    parser.add_argument("--cases", type=int, default=1000, help="embed/extract cases")
    parser.add_argument("--seed", type=int, default=0, help="seed of the case draw")
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be >= 0")

    try:
        commit = _git("rev-parse", "--short", f"{args.rev}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    rnd = random.Random(args.seed)
    cases = {"embed": embed_cases(rnd, args.cases), "keygen": keygen_cases(rnd, KEYGEN_CASES),
             "oracle": oracle_cases(rnd, ORACLE_CASES), "walk": walk_cases(rnd, WALK_CASES),
             "heavy": heavy_cases(rnd, HEAVY_CASES), "steady": steady_cases(rnd, STEADY_CASES)}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _extract_src(commit, tmp / "rev")
        (tmp / "cases.json").write_text(json.dumps(cases))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        trees = {commit: tmp / "rev" / "src", "working tree": ROOT / "src"}
        procs = {
            name: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(src),
                 str(tmp / "cases.json"), str(tmp / f"{i}.json")],
                env=env,
            )
            for i, (name, src) in enumerate(trees.items())
        }
        try:
            for name, proc in procs.items():
                if proc.wait():
                    print(f"error: the worker for {name} exited with {proc.returncode}",
                          file=sys.stderr)
                    return 2
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        rev_out, new_out = (json.loads((tmp / f"{i}.json").read_text()) for i in range(2))

    print(f"differential: working tree against {commit}, seed {args.seed}, "
          f"{time.perf_counter() - start:.0f} s")
    mismatches = []
    for kind in cases:
        outcomes = Counter()
        for i, (old, new) in enumerate(zip(rev_out[kind], new_out[kind])):
            outcomes[new["outcome"]] += 1
            if old != new:
                mismatches.append((kind, i, old, new))
        print(f"{kind} cases: {len(new_out[kind])}")
        for outcome, count in sorted(outcomes.items()):
            print(f"  {outcome}: {count}")
    print(f"mismatches: {len(mismatches)}")
    if mismatches:
        kind, i, old, new = mismatches[0]
        print(f"first mismatch: {kind} case {i}: {json.dumps(cases[kind][i])}")
        for field in _differing_fields(old, new):
            print(f"  {field}: {commit} {_show(old.get(field))}")
            print(f"  {field}: working tree {_show(new.get(field))}")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())
