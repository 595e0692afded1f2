"""Fast self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks that every workload runs and passes its output checks, that the
tracer restores every function it wraps and yields non-negative self
times, that a perturbed demo reference is caught while a perturbation
inside the tolerance is not, that the analyze_large oracle agrees with
psem's own enumeration of the design, that BENCHMARK.json names the
metrics the benchmark prints, and that the benchmark fails in a directory
without psem's sources. Exits non-zero on any failure.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import psem.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from psem.simulate import GeneratorConfig, oracle_estimands  # noqa: E402

TINY = {"analyze_large": {"rows": 4000}, "simulate_b": {"replicates": 20},
        "simulate_c": {"replicates": 10}}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def traced_call(spec) -> tuple[int, tracer.Tracer]:
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in tracer.WRAPPED}
    tr = tracer.Tracer()
    tr.op = 1
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.run(f"cli.{spec['command']}", psem.cli.main, spec["argv"])
    finally:
        tr.restore()
    restored = all(getattr(importlib.import_module(m), a) is f
                   for (m, a), f in originals.items())
    expect(restored, f"{spec['workload']}: tracer restored all "
                     f"{len(originals)} wrapped functions")
    return code, tr


def check_workload(name: str, work: Path) -> tuple[dict, dict]:
    spec = workloads.prepare(name, 3, work, **TINY.get(name, {}))
    code, tr = traced_call(spec)
    expect(code == 0, f"{name}: psem exited with {code}")
    failed, problems = workloads.check(spec)
    expect(not problems and failed == 0,
           f"{name}: outputs pass their checks {problems}")
    own = tracer.self_times(tr.spans)
    expect(len(own) > 1 and min(own) >= 0.0,
           f"{name}: {len(own)} spans, all self times >= 0")
    layers = tracer.layer_metrics(tr.spans, 1)
    expect(layers["core.fit.failed"] == 0, f"{name}: no failed fits")
    return spec, layers


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        specs, layers = {}, {}
        for name in run.WORKLOADS:
            (work / name).mkdir()
            specs[name], layers[name] = check_workload(name, work / name)

        spec = specs["analyze_demo"]
        results = json.loads((Path(spec["out"]) / "results.json").read_text())
        reference = json.loads(workloads.REFERENCE.read_text())
        for factor, caught in ((1 + 1e-5, True), (1 + 1e-8, False)):
            bad = copy.deepcopy(reference)
            bad["ses"]["risk1_10"] *= factor
            bad["ignorance"]["scale=1"]["mu"][0] *= factor
            problems = workloads.check_demo(results, bad)
            expect(bool(problems) == caught and (not caught or len(problems) == 2),
                   f"reference scaled by {factor}: caught={caught}")

        oracle = oracle_estimands(GeneratorConfig(
            design="B", n=2, a=workloads.RISK_NEG, b=workloads.RISK_POS))
        expect(all(abs(oracle[k] - v) < 1e-12
                   for k, v in workloads.oracle_b().items()),
               "analyze_large oracle matches psem.simulate.oracle_estimands")

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        printed_layers = set(layers["analyze_demo"]) | {
            "trace.overhead_share", "failed_share"}
        expect({m["name"] for m in declared["end_to_end"]} == set(run.END_TO_END)
               and {m["name"] for m in declared["per_layer"]} == printed_layers
               and all(m["unit"] == run.layer_unit(m["name"])
                       for m in declared["per_layer"])
               and {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS),
               "BENCHMARK.json names the printed workloads, metrics and units")

        bare = work / "bare"
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "simulate_b",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "benchmark without psem sources exits non-zero, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
