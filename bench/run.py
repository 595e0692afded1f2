"""Benchmark of `psem analyze` and `psem simulate`, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload analyze_demo --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py``. The run writes the
workload's inputs into ``.bench_work/`` of the checkout, times a fresh
interpreter's ``import psem.cli`` several times (``setup_s``, untraced runs
only), and makes the workload's calls in a child process (``calls.py``)
that imports psem from ``src/`` and does nothing else, so its peak memory
is the workload's. Call times are scaled by the speed of the host at the
time of each call, measured with a fixed reference kernel (``calls.py``);
so is each fresh interpreter's import for ``setup_s``.
With ``--trace 1`` the child alternates untraced calls
with calls traced by ``tracer.py``, and the run reports per-layer metrics
plus the tracing overhead instead; the last traced call's spans go to
``.bench_out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every call passed its output checks; a checkout without
``src/psem`` is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze_demo", "analyze_large", "simulate_b", "simulate_c")
SETUP_REPEATS = 11
# The nominal reference-kernel time: norm_call_s is a call's time on a host
# where the kernel takes this long.
REF_KERNEL_S = 0.1

# Children run single-threaded, with psem taken from this checkout only.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                 OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = {          # name: unit
    "setup_s": "s",
    "norm_call_s": "s",
    "norm_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"share": "share", "calls": "count", "cells": "count",
                   "failed": "count", "per_s": "1/s", "us_per_row": "us",
                   "ms_per_call": "ms", "ms_per_replicate": "ms"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def measure_setup(reference_kernel) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters importing psem.cli (one untimed
    import first, so byte-code compilation is not counted): as measured, and
    scaled by the reference kernel timed before and after each import.

    No timeout: with one, the wait polls and rounds times up to 50 ms."""
    wall, norm = [], []
    before = 0.0
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import psem.cli"], env=CHILD_ENV,
                       cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = reference_kernel()
        if i:
            wall.append(elapsed)
            norm.append(elapsed * REF_KERNEL_S / ((before + after) / 2))
        before = after
    return wall, norm


def run_calls(spec: dict, work: Path) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec["result"] = str(result_path)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "calls.py"), str(spec_path)],
                   env=CHILD_ENV, cwd=ROOT, check=True, timeout=spec["seconds"] + 100)
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"


def scaled(call) -> float:
    """A call's time on a host where the reference kernel takes REF_KERNEL_S."""
    return call["s"] * REF_KERNEL_S / call["ref_s"]


def end_to_end(calls, setup, setup_wall, peak_rss_mb) -> dict[str, float]:
    timed = [c for c in calls if not c.get("warmup")]
    times = [c["s"] for c in timed]
    kernel = [c["ref_s"] for c in timed]
    norm = [scaled(c) for c in timed]
    call_s = statistics.median(norm)
    print(f"norm_call_s {quartiles(norm)}; wall call_s {quartiles(times)}; "
          f"reference kernel_s {quartiles(kernel)}; setup_s {quartiles(setup)}; "
          f"wall setup_s {quartiles(setup_wall)}")
    return {"setup_s": statistics.median(setup), "norm_call_s": call_s,
            "norm_ops_per_s": calls[0]["ops"] / call_s,
            "peak_rss_mb": peak_rss_mb}


def per_layer(calls) -> dict[str, float]:
    timed = [c for c in calls if not c.get("warmup")]
    traced = [c for c in timed if c["traced"]]
    plain = [scaled(c) for c in timed if not c["traced"]]
    with_trace = [scaled(c) for c in traced]
    print(f"scaled call times: untraced {quartiles(plain)}; "
          f"traced {quartiles(with_trace)}")
    out = {}
    for name in traced[0]["layers"]:
        values = [c["layers"][name] for c in traced]
        out[name] = (statistics.median_low(values) if layer_unit(name) == "count"
                     else statistics.median(values))
    out["trace.overhead_share"] = (statistics.median(with_trace)
                                   / statistics.median(plain) - 1)
    out["failed_share"] = (sum(c["failed"] for c in calls)
                           / sum(c["ops"] for c in calls))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psem" / "__init__.py").is_file():
        print(f"error: no psem sources at {SRC / 'psem'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from calls import reference_kernel

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".bench_work"))
    try:
        spec = workloads.prepare(args.workload, args.seed, work)
        spec.update(src=str(SRC), seconds=args.seconds, trace=bool(args.trace))
        if args.trace:
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            spec["spans"] = str(ROOT / ".bench_out"
                                / f"{args.workload}.spans.jsonl")
        setup_wall, setup = ([], []) if args.trace else measure_setup(
            reference_kernel)
        result = run_calls(spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = result["calls"]
    problems = [p for c in calls for p in c["problems"]]
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        values = per_layer(calls)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(calls, setup, setup_wall, result["peak_rss_mb"])
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["ops"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
