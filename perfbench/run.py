"""Benchmark of the gastego command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gastego checkout. Each timed operation is one CLI
command (embed per mode, extract, keygen-ga) run through gastego.cli.main in
a fresh worker interpreter, one at a time, with the timer inside the worker.
Operations are interleaved in rounds, and every call slot of a round gets
its own inputs from (workload, seed, round, slot), so one run sees many
inputs and the reported median does not hang on one draw. Rounds start
until the next one would end past --seconds. Every output is checked
(checks.py), and the last stdout line is one JSON object: correct,
attempted, failed and the metrics.

Times are host-calibrated: each call's wall time is scaled by the speed of a
fixed probe the worker runs around it, because a shared virtual machine's
speed can drift by 25% and more between runs (perfbench/README.md). Raw
wall times are printed and kept as well.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run with
the layer wrappers of layertrace.py installed in every worker; it reports
the per-layer metrics and writes all spans to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 4  # SNRs come from rounds 0..3, which every run has
DEADLINE_S = 170.0  # a run must end within 180 s
MB = 1e6
# Every time is put on a common host speed: multiplied by this over the mean
# of the worker's probe times (worker.probe, run just before and after the
# call). It is about the probe's median on the machine of the README's
# reference figures, so figures read as seconds there.
PROBE_REFERENCE_S = 0.014

END_TO_END = {
    "setup_s": "s",
    "embed_plain_s": "s",
    "embed_nearest_s": "s",
    "embed_ga_s": "s",
    "extract_s": "s",
    "keygen_s": "s",
    "peak_heap_mb": "MB",
    "snr_nearest_db": "dB",
    "snr_ga_db": "dB",
}
MODES = ("plain", "nearest", "ga")
PER_LAYER = {
    "wav_io.parse_s": "s",
    "wav_io.write_s": "s",
    "wav_io.parse_peak_mb": "MB",
    "keystream.permute_s": "s",
    "keystream.xor_s": "s",
    "keystream.derive_seed_calls": "count",
    **{f"pipeline.embed_self_s.{m}": "s" for m in MODES},
    "pipeline.extract_self_s": "s",
    "pipeline.snr_s": "s",
    **{f"pipeline.rejections.{m}": "count" for m in MODES},
    "pipeline.engine_rows.nearest": "count",
    "pipeline.engine_rows.ga": "count",
    "pipeline.row_yield.nearest": "ratio",
    "pipeline.row_yield.ga": "ratio",
    "bitplane.nearest_s": "s",
    "ga_adjust.batch_s": "s",
    "ga_adjust.batch_calls": "count",
    "ga_adjust.row_generations": "count",
    "ga_adjust.suboptimal_samples": "count",
    "msg_ga.evolve_s": "s",
    "msg_ga.generations": "count",
    "cli.self_s.embed": "s",
    "cli.self_s.extract": "s",
    "trace.overhead_s": "s",
}


class OpFailed(Exception):
    """A CLI command exited non-zero, or its worker died."""


class Bench:
    def __init__(self, workload: inputs.Workload, seed: int, trace: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.setups: list[float] = []
        self.snr: dict[str, list[float]] = {"nearest": [], "ga": []}
        self.peaks: list[int] = []
        self.parse_peaks: list[int] = []
        self.first_output: dict[tuple[str, int], bytes] = {}  # this round's first outputs
        self.counts: dict[str, float] = {}  # from round 0 only, so they repeat exactly
        self.traced: dict[str, list] = {}  # op -> (trace, speed) of each traced call
        self.requests: list[dict] = []

    # --- running one CLI command ------------------------------------------

    def call(self, argv: list[str], trace=False, parse_heap=False) -> dict:
        spec = {"src": "src", "argv": argv, "trace": trace, "parse_heap": parse_heap}
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        timeout = max(5.0, DEADLINE_S - (time.perf_counter() - self.started))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, env=env,
            )
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{argv[0]} timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            raise OpFailed(f"{argv[0]} worker exited {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["wall_s"] = time.perf_counter() - t0
        result["speed"] = PROBE_REFERENCE_S / statistics.mean(sum(p) for p in result["probe_s"])
        if result["code"] != 0:
            raise OpFailed(f"{argv[0]} exited {result['code']}: {proc.stderr[-500:]}")
        return result

    # --- one round's files and commands -------------------------------------

    def prepare(self, round_no: int) -> dict:
        """Inputs of one round: slot 0 with cover, message and key for the
        embeds, and one more message and key per further keygen-ga call."""
        d = self.work / f"round{round_no}"
        shutil.rmtree(d, ignore_errors=True)
        slots = []
        for rep in range(max(1, self.w.keygen_calls)):
            inp = inputs.make_inputs(self.w, self.seed, round_no, rep, rep == 0)
            slot = {"dir": d / f"rep{rep}", "inp": inp, "cover": None}
            slot["dir"].mkdir(parents=True)
            (slot["dir"] / "message.bin").write_bytes(inp.message)
            if inp.cover is not None:
                inputs.write_cover(slot["dir"] / "cover.wav", self.w, inp.cover)
                slot["cover"] = checks.read_wav(slot["dir"] / "cover.wav")
            slots.append(slot)
        self.first_output = {}
        return {"round": round_no, "dir": d, "slots": slots, "stegos": {}}

    def argv(self, rnd: dict, op: str, rep: int) -> list[str]:
        if op == "extract":  # every timed extract reads slot 0's ga embed
            return extract_argv(rnd["slots"][0]["dir"], "ga")
        d, key = rnd["slots"][rep]["dir"], hex(rnd["slots"][rep]["inp"].key)
        if op == "keygen":
            return ["keygen-ga", "--message", str(d / "message.bin"), "--seed", key,
                    "--emit-master-key"]
        argv = ["embed", "--cover", str(d / "cover.wav"), "--message",
                str(d / "message.bin"), "--out", str(d / f"{op}.wav"),
                "--key-out", str(d / f"{op}.key"), "--mode", op,
                "--layers", ",".join(map(str, self.w.layers)), "--seed", key]
        if self.w.threshold is not None:
            argv += ["--threshold", str(self.w.threshold)]
        return argv

    def run_op(self, rnd: dict, op: str, rep=0, trace=False, parse_heap=False, timed=True):
        """Run and check one command; returns the worker result, or None if it failed."""
        if timed:
            self.attempted += 1
        try:
            result = self.call(self.argv(rnd, op, rep), trace, parse_heap)
        except OpFailed as exc:
            if timed:
                self.failed += 1
            self.problems.append(f"round {rnd['round']} {op}: {exc}")
            return None
        try:
            found = self.check(rnd, op, rep, result["stdout"])
        except checks.CheckError as exc:
            self.check_failures += 1
            self.problems.append(f"round {rnd['round']} {op}: check failed: {exc}")
            found = {}
        if timed and op in self.snr and "snr_db" in found and rnd["round"] < MIN_ROUNDS:
            self.snr[op].append(found["snr_db"])
        if rnd["round"] == 0 and rep == 0 and timed:
            self.note_counts(op, found, result)
        self.requests.append({"round": rnd["round"], "op": op, "rep": rep, "timed": timed,
                              **result})
        return result

    def check(self, rnd: dict, op: str, rep: int, stdout: str) -> dict:
        slot = rnd["slots"][0 if op == "extract" else rep]
        d, inp = slot["dir"], slot["inp"]
        if op == "extract":
            recovered = (d / "recovered.bin").read_bytes()
            checks.check_recovered(inp.message, recovered)
            self.same_as_before((op, 0), recovered)  # every repeat reads the same files
            return {}
        if op == "keygen":
            generations = checks.check_keygen(inp.message, stdout)
            self.same_as_before((op, rep), stdout.encode())
            return {"generations": generations}
        stego_bytes = (d / f"{op}.wav").read_bytes()
        key_text = (d / f"{op}.key").read_text()
        stego = rnd["stegos"][op] = checks.read_wav(d / f"{op}.wav")
        found = checks.check_embed(
            op, slot["cover"], stego, key_text, stdout,
            self.w.mask_bits, self.w.threshold, self.w.groups,
        )
        self.same_as_before((op, rep), stego_bytes + key_text.encode())
        return found

    def same_as_before(self, call: tuple[str, int], output: bytes) -> None:
        """Outputs of the same command on the same inputs must be identical:
        round 0 against the warm-up, extract repeats against the first."""
        first = self.first_output.setdefault(call, output)
        checks.check_identical(first, output, f"the {call[0]} output")

    # --- the run --------------------------------------------------------------

    def warm_up(self, rnd: dict) -> None:
        """Untimed first call of every command on round 0's inputs. The embeds
        and the extract give peak_heap_mb (and, when tracing, the parse peak).
        The plain and nearest embeds are extracted too, so every mode's
        payload is proven on round 0, whose outputs must equal these."""
        for op in ("ga", "plain", "nearest", "extract", "keygen"):
            result = self.run_op(rnd, op, trace=self.trace, parse_heap=self.trace, timed=False)
            if result is None or op == "keygen":
                continue
            self.peaks.append(result["peak_bytes"])
            for span in result.get("trace", {}).get("spans", []):
                if span[2] == "wav_io.parse_wav" and "peak_bytes" in span[5]:
                    self.parse_peaks.append(span[5]["peak_bytes"])
        d, message = rnd["slots"][0]["dir"], rnd["slots"][0]["inp"].message
        for mode in ("plain", "nearest"):
            try:
                self.call(extract_argv(d, mode))
                checks.check_recovered(message, (d / f"recovered-{mode}.bin").read_bytes())
            except (OpFailed, checks.CheckError) as exc:  # no timed call repeats it
                self.check_failures += 1
                self.problems.append(f"warm-up extract of {mode}: check failed: {exc}")

    def round_ops(self) -> list[tuple[str, int]]:
        """(command, repeat) pairs of one round, repeats interleaved. The one
        ga embed comes first because extract reads it."""
        calls = {"plain": 1, "extract": self.w.extract_calls, "nearest": 1,
                 "keygen": self.w.keygen_calls}
        return [("ga", 0)] + [
            (op, i) for i in range(max(calls.values()))
            for op in calls if i < calls[op]
        ]

    def one_round(self, rnd: dict) -> None:
        for op, rep in self.round_ops():
            result = self.run_op(rnd, op, rep, trace=self.trace)
            if result is None:
                continue
            speed = result["speed"]
            self.setups.append(result["setup_s"] * speed)
            self.times.setdefault(op, []).append(result["call_s"] * speed)
            if self.trace:
                self.traced.setdefault(op, []).append((result["trace"], speed))
        if self.w.threshold is None and len(rnd["stegos"]) == len(MODES):
            try:
                checks.check_same_payload(rnd["stegos"], self.w.mask_bits)
            except checks.CheckError as exc:
                self.check_failures += 1
                self.problems.append(f"round {rnd['round']}: check failed: {exc}")

    def note_counts(self, op: str, found: dict, result: dict) -> None:
        c = self.counts
        if op in MODES and "rejections" in found:
            c[f"pipeline.rejections.{op}"] = found["rejections"]
        if op == "ga" and "suboptimal" in found:
            c["ga_adjust.suboptimal_samples"] = found["suboptimal"]
        if op == "keygen" and "generations" in found:
            c["msg_ga.generations"] = found["generations"]
        trace = result.get("trace")
        if trace is None:
            return
        present = lambda name: name not in trace["missing"]  # noqa: E731
        if op == "nearest" and present("bitplane.adjust_nearest_packed"):
            c["pipeline.engine_rows.nearest"] = sum(
                s[2] == "bitplane.adjust_nearest_packed" for s in trace["spans"])
        if op == "ga" and present("ga_adjust.run_ga_batch"):
            batches = [s for s in trace["spans"] if s[2] == "ga_adjust.run_ga_batch"]
            c["pipeline.engine_rows.ga"] = sum(s[5]["rows"] for s in batches)
            c["ga_adjust.batch_calls"] = len(batches)
        if op == "ga" and present("keystream.derive_seed"):
            c["keystream.derive_seed_calls"] = trace["counts"].get("keystream.derive_seed", 0)
        if op == "ga" and present("ga_adjust.stream_outputs"):
            c["ga_adjust.row_generations"] = trace["counts"].get("ga_adjust.row_generations", 0)
        for mode in ("nearest", "ga"):
            rows = c.get(f"pipeline.engine_rows.{mode}")
            if rows:
                c[f"pipeline.row_yield.{mode}"] = self.w.groups / rows

    def run(self, seconds: float) -> None:
        rnd = self.prepare(0)
        self.warm_up(rnd)
        loop_start = time.perf_counter()
        round_no = 0
        while True:
            self.one_round(rnd)
            shutil.rmtree(rnd["dir"], ignore_errors=True)
            round_no += 1
            elapsed = time.perf_counter() - loop_start
            per_round = elapsed / round_no
            if round_no >= MIN_ROUNDS and elapsed + per_round > seconds:
                break
            if time.perf_counter() - self.started + 2 * per_round > DEADLINE_S:
                break
            rnd = self.prepare(round_no)
        self.rounds = round_no

    # --- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        med = lambda xs: statistics.median(xs) if xs else None  # noqa: E731
        values = {
            "setup_s": med(self.setups),
            **{f"embed_{m}_s": med(self.times.get(m, [])) for m in MODES},
            "extract_s": med(self.times.get("extract", [])),
            "keygen_s": med(self.times.get("keygen", [])),
            "peak_heap_mb": max(self.peaks) / MB if self.peaks else None,
            "snr_nearest_db": med(self.snr["nearest"]),
            "snr_ga_db": med(self.snr["ga"]),
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    def per_layer(self) -> dict:
        def per_call(ops, name, self_time=False):
            """Median over traced calls of ops of the time in spans called name."""
            vals = []
            for op in ops:
                for trace, speed in self.traced.get(op, []):
                    if name in trace["missing"]:
                        return None
                    vals.append(_span_time(trace["spans"], name, self_time) * speed)
            return statistics.median(vals) if vals else None

        embeds = MODES
        values = {
            "wav_io.parse_s": per_call(embeds + ("extract",), "wav_io.parse_wav"),
            "wav_io.write_s": per_call(embeds, "wav_io.write_wav"),
            "wav_io.parse_peak_mb": max(self.parse_peaks) / MB if self.parse_peaks else None,
            "keystream.permute_s": per_call(embeds + ("extract",), "keystream.permute_indices"),
            "keystream.xor_s": per_call(embeds + ("extract",), "keystream.xor_keystream"),
            **{f"pipeline.embed_self_s.{m}": per_call((m,), "pipeline.embed", True)
               for m in MODES},
            "pipeline.extract_self_s": per_call(("extract",), "pipeline.extract", True),
            "pipeline.snr_s": per_call(embeds, "pipeline.snr_db"),
            "bitplane.nearest_s": per_call(("nearest",), "bitplane.adjust_nearest_packed"),
            "ga_adjust.batch_s": per_call(("ga",), "ga_adjust.run_ga_batch"),
            "msg_ga.evolve_s": per_call(("keygen",), "msg_ga.evolve"),
            "cli.self_s.embed": per_call(embeds, "cli.main", True),
            "cli.self_s.extract": per_call(("extract",), "cli.main", True),
            # the most wrapper time a traced command carries: per command,
            # the median estimate over its calls; the largest of those
            "trace.overhead_s": max(
                (statistics.median(t["overhead_s"] * speed for t, speed in calls)
                 for calls in self.traced.values()), default=None),
        }
        values.update(self.counts)
        return {k: {"value": values.get(k), "unit": u} for k, u in PER_LAYER.items()}


def extract_argv(d: Path, mode: str) -> list[str]:
    """extract of the mode's stego file in slot directory d."""
    out = "recovered.bin" if mode == "ga" else f"recovered-{mode}.bin"
    return ["extract", "--stego", str(d / f"{mode}.wav"), "--key", str(d / f"{mode}.key"),
            "--out", str(d / out)]


def _span_time(spans: list, name: str, self_time: bool) -> float:
    """Summed duration (or self time: minus direct children) of spans called name."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    total = 0.0
    for s in spans:
        if s[2] != name:
            continue
        total += dur[s[0]]
        if self_time:
            total -= sum(dur[c[0]] for c in spans if c[1] == s[0])
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/gastego/cli.py").is_file():
        print("error: run from the root of a gastego checkout (no src/gastego/cli.py)",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(inputs.WORKLOADS[args.workload], args.seed, bool(args.trace), work)
    try:
        bench.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": bench.rounds,
        "metrics": metrics, "problems": bench.problems, "requests": bench.requests,
    }))
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {shown:>12s} {m['unit']}")
    timed = [r for r in bench.requests if r["timed"]]
    raw = {op: statistics.median(r["call_s"] for r in timed if r["op"] == op)
           for op in sorted({r["op"] for r in timed})}
    print("raw wall-clock medians (s): "
          + ", ".join(f"{op} {t:.4g}" for op, t in raw.items())
          + f"; median probe speed {statistics.median(r['speed'] for r in timed):.3f}")
    print(f"rounds {bench.rounds}, attempted {bench.attempted}, failed {bench.failed}")
    print(json.dumps({
        "correct": bench.check_failures == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
