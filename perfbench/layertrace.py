"""Span and count wrappers installed on the module attributes through which
gastego calls each layer.

Spans carry an id and their parent's id and are kept in memory; the worker
returns them with its result. A target that no longer exists is listed as
missing and its metrics are reported as missing, so renamed internals do not
fail a run. The time the wrappers add to a call is estimated from their cost
per call, timed on a no-op in the same process after the traced call.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc

# (module, attribute, span name, kind). "span" records a timed span; "count"
# only counts calls, for functions called once per sample where a span would
# cost more than the call.
TARGETS = (
    ("gastego.cli", "main", "cli.main", "span"),
    ("gastego.wav_io", "parse_wav", "wav_io.parse_wav", "span"),
    ("gastego.wav_io", "write_wav", "wav_io.write_wav", "span"),
    ("gastego.pipeline", "embed", "pipeline.embed", "span"),
    ("gastego.pipeline", "extract", "pipeline.extract", "span"),
    ("gastego.pipeline", "snr_db", "pipeline.snr_db", "span"),
    ("gastego.pipeline", "permute_indices", "keystream.permute_indices", "span"),
    ("gastego.pipeline", "xor_keystream", "keystream.xor_keystream", "span"),
    ("gastego.pipeline", "derive_seed", "keystream.derive_seed", "count"),
    ("gastego.pipeline", "run_ga_batch", "ga_adjust.run_ga_batch", "span"),
    ("gastego.bitplane", "adjust_nearest_packed", "bitplane.adjust_nearest_packed", "span"),
    ("gastego.ga_adjust", "stream_outputs", "ga_adjust.stream_outputs", "count"),
    ("gastego.msg_ga", "evolve", "msg_ga.evolve", "span"),
)


class Tracer:
    def __init__(self, parse_heap: bool = False):
        # parse_heap: run tracemalloc during each parse_wav call and record its
        # peak. It slows the parse about tenfold, so it is kept to untimed calls.
        self.parse_heap = parse_heap
        self.spans: list[list] = []  # [id, parent id, name, start, end, extra]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                self.missing.append(name)
                continue
            wrap = self._span if kind == "span" else self._count
            setattr(module, attr, wrap(name, target))

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            extra = {}
            if name == "ga_adjust.run_ga_batch":
                extra["rows"] = len(args[0])
            watch_heap = name == "wav_io.parse_wav" and self.parse_heap
            if watch_heap:
                tracemalloc.start()
            rec = [len(self.spans), self.stack[-1] if self.stack else None, name,
                   time.perf_counter(), None, extra]
            self.spans.append(rec)
            self.stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
                if watch_heap:
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            # generation draw blocks of run_ga_batch: one row per active GA;
            # the population-init block is draw number 1 and is left out
            first = args[1] if len(args) > 1 else kwargs.get("first")
            if name == "ga_adjust.stream_outputs" and first != 1:
                rows = getattr(args[0], "shape", ())
                counts["ga_adjust.row_generations"] = (
                    counts.get("ga_adjust.row_generations", 0) + (rows[0] if rows else 1)
                )
            return fn(*args, **kwargs)

        return wrapper

    def overhead_s(self, calls: int = 2000, repeats: int = 3) -> float:
        """Estimated time the wrappers added: recorded spans and counted calls,
        each times the best-of-repeats cost of its wrapper around a no-op."""
        def noop():
            return None

        def cost(fn):
            best = float("inf")
            for _ in range(repeats):
                t = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - t)
            return best / calls

        bench = Tracer()
        base = cost(noop)
        span_cost = cost(bench._span("noop", noop)) - base
        count_cost = cost(bench._count("noop", noop)) - base
        counted = sum(self.counts.get(name, 0) for _, _, name, kind in TARGETS
                      if kind == "count")
        return max(0.0, len(self.spans) * span_cost + counted * count_cost)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing,
                "overhead_s": self.overhead_s()}
