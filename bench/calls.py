"""Child process of the benchmark: makes one workload's `psem` calls.

    python3 bench/calls.py SPEC.json

It imports ``psem.cli`` from the spec's source directory, makes one warm-up
call, then repeats the call until the spec's seconds have passed, checking
the outputs of every call. A fixed reference kernel runs before the first
timed call and after every call, so each call's time can be set against the
speed of the host around it (see ``reference_kernel``). With ``trace`` set
it alternates untraced and traced calls, so both timings come from the same
process. It writes each call's wall time, the mean time of the kernels on
either side of it, operation counts, problems and, for traced calls, layer
metrics to the spec's result file, with the process's peak resident memory.
Inputs are generated by the parent, so the peak covers only the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def reference_kernel() -> float:
    """Run a fixed piece of work that uses no psem code; return its wall time.

    The measuring host's CPU speed drifts by tens of percent over seconds to
    minutes, and psem's calls slow down with it. The kernel mixes what those
    calls spend their time on (interpreted Python, dict and list work, numpy
    calls on small arrays), so its time tracks the host's speed for them.
    """
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(400_000):
        total += i * i
        seen[i & 255] = total
    a = np.arange(64.0)
    for _ in range(20_000):
        a = np.sqrt(a * a + 1.0)
    b, acc = np.arange(8.0), 0.0
    for i in range(6_000):
        acc += float((np.exp(-b * 0.01) + i).sum()) / (1 + i)
        acc += sum([x * 2 for x in range(20)])
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import psem.cli
    if not Path(psem.cli.__file__).resolve().is_relative_to(spec["src"]):
        raise RuntimeError(f"psem imported from {psem.cli.__file__}, "
                           f"not from {spec['src']}")
    import tracer
    import workloads

    reference = (json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
                 if spec["workload"] == "analyze_demo" else None)
    root_span = f"cli.{spec['command']}"
    tr = tracer.Tracer()
    calls = []

    def one(traced: bool) -> dict:
        shutil.rmtree(spec["out"], ignore_errors=True)
        tr.op += 1
        if traced:
            tr.spans.clear()      # keep only the current call's spans
            tr.install()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if traced:
                    code = tr.run(root_span, psem.cli.main, spec["argv"])
                else:
                    code = psem.cli.main(spec["argv"])
            if code != 0:
                error = f"psem exited with code {code}"
        except Exception:
            error = traceback.format_exc(limit=4)
        finally:
            elapsed = time.perf_counter() - start
            tr.restore()
        if error is None:
            try:
                failed, problems = workloads.check(spec, reference)
            except Exception:
                error = "output check raised:\n" + traceback.format_exc(limit=4)
        if error is not None:
            failed, problems = spec["ops"], [error]
        call = {"s": elapsed, "traced": traced, "ops": spec["ops"],
                "failed": failed, "problems": problems}
        if traced:
            call["layers"] = tracer.layer_metrics(tr.spans, tr.op)
        return call

    calls.append(dict(one(traced=False), warmup=True))
    deadline = time.perf_counter() + spec["seconds"]
    reference_kernel()      # warm-up
    before = reference_kernel()
    while True:     # with trace, alternate and make at least one of each
        calls.append(one(traced=spec["trace"] and len(calls) % 2 == 0))
        after = reference_kernel()
        calls[-1]["ref_s"] = (before + after) / 2
        before = after
        if time.perf_counter() >= deadline and (not spec["trace"] or len(calls) > 2):
            break
    if spec["trace"]:
        tracer.write_spans(tr.spans, spec["spans"])
    Path(spec["result"]).write_text(json.dumps({
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
