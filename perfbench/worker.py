"""Run one gastego CLI command in this fresh interpreter and time it.

    python3 perfbench/worker.py '{"src": "src", "argv": [...], "trace": false,
                                  "parse_heap": false}'

"trace" installs the layer wrappers of layertrace.py; "parse_heap" (with
"trace") also records the tracemalloc peak of each parse_wav call.

Prints one JSON object: the import time of gastego (numpy included), the
wall time of the one `gastego.cli.main` call, its exit code and stdout, the
times of a fixed probe run just before and just after the call, the peak
resident memory of the process, and, when asked, the layer trace.

Peak memory is the process's resident high-water mark (getrusage ru_maxrss)
after the call, interpreter and numpy included, as a user's process would
peak. tracemalloc would give the Python heap alone, but it made a 1M-sample
embed 10x slower and a threshold_retry ga embed 6x slower, more than a run
can spend on set-up.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def probe() -> list[float]:
    """Time two fixed pieces of work, about 7 ms each on the reference
    machine: interpreter steps, and numpy sorts and gathers on an array the
    size of a GA population."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    t1 = time.perf_counter()
    pop = np.arange(2048 * 16, dtype=np.int64).reshape(2048, 16)
    for _ in range(10):
        key = (pop * 0x9E37) & 0xFFFFF
        pop = np.take_along_axis(pop, np.argsort(key, axis=1), axis=1) ^ (key >> 3)
    return [t1 - t0, time.perf_counter() - t1]


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import gastego
    import gastego.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(gastego.__file__).startswith(src + os.sep):
        raise SystemExit(f"gastego imported from {gastego.__file__}, not from {src}")

    tracer = None
    if spec.get("trace"):
        import layertrace

        tracer = layertrace.Tracer(parse_heap=spec.get("parse_heap", False))
        tracer.install()
    probe_before = probe()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t = time.perf_counter()
        code = gastego.cli.main(spec["argv"])
        call_s = time.perf_counter() - t
    probe_after = probe()
    result = {
        "setup_s": setup_s, "call_s": call_s, "code": code, "stdout": out.getvalue(),
        "probe_s": [probe_before, probe_after],
        # Linux reports KiB
        "peak_bytes": 1024 * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
