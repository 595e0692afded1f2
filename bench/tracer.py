"""Outside-in span tracer for psem.

The tracer records spans without changing psem: it replaces each traced
function by a wrapper in the module namespace where its caller looks it up
(``psem.cli.fit_scenario``, ``psem.sensitivity.fit_scenario``, ...), and
puts every original back on ``restore``. A span is
``[name, start, end, parent, op, failed, note]``: ``parent`` is the index
of the enclosing span (-1 for none), ``op`` the id of the benchmarked call
the span belongs to, and ``note`` a small value taken from the call's
arguments or result where a layer metric needs one. Spans stay in memory;
``layer_metrics`` reduces them and ``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _fit_name(args, kwargs):
    with_cov = kwargs.get("with_cov", args[2] if len(args) > 2 else True)
    return "core.fit_cov" if with_cov else "core.fit_point"


def _point_key(point):
    return tuple(sorted(point.as_dict().items()))


# (module, attribute, span name or callable naming the span, note taker).
# A function is wrapped once in each namespace its callers use.
WRAPPED = [
    ("psem.cli", "load_csv", "records.load_csv", lambda a, k, r: len(r)),
    ("psem.cli", "summarize", "records.summarize", None),
    ("psem.cli", "fit_missingness", "weights.fit_missingness", None),
    ("psem.simulate", "fit_missingness", "weights.fit_missingness", None),
    ("psem.tables", "from_records", "tables.from_records", None),
    ("psem.tables", "from_arrays", "tables.from_arrays", None),
    ("psem.cli", "check_assumptions", "core.check_assumptions", None),
    ("psem.cli", "fit_scenario", _fit_name, None),
    ("psem.sensitivity", "fit_scenario", _fit_name, None),
    ("psem.simulate", "fit_scenario", _fit_name, None),
    ("psem.cli", "cep", "core.cep", None),
    ("psem.sensitivity", "cep", "core.cep", None),
    ("psem.simulate", "cep", "core.cep", None),
    ("psem.core", "delta_method", "estimating.delta_method", None),
    ("psem.core", "solve_logit_mixture", "mathutil.solve_logit_mixture", None),
    ("psem.cli", "sweep", "sensitivity.sweep",
     lambda a, k, r: (id(r), len(r.cells))),
    ("psem.cli", "interval_for", "sensitivity.interval_for",
     lambda a, k, r: (id(a[0]), _point_key(r.point_lower),
                      _point_key(r.point_upper))),
    ("psem.simulate", "eui", "sensitivity.eui", None),
    ("psem.cli", "run_study", "simulate.run_study",
     lambda a, k, r: (sum(row.replicates + row.failures for row in r.rows),
                      sum(row.failures for row in r.rows))),
]


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, note in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.op, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, note):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                self._close(span)
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result
        return wrapper

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` under a root span ``name``."""
        return self._wrap(fn, name, None)(*args)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, op: int) -> dict[str, float]:
    """Per-layer metrics of one benchmarked call (spans with id ``op``)."""
    idx = [i for i, s in enumerate(spans) if s[4] == op]
    own = self_times(spans)
    total, self_s = defaultdict(float), defaultdict(float)
    calls, failed = defaultdict(int), defaultdict(int)
    for i in idx:
        name = spans[i][0]
        total[name] += spans[i][2] - spans[i][1]
        self_s[name] += own[i]
        calls[name] += 1
        failed[name] += spans[i][5]

    def notes(name):
        return [spans[i][6] for i in idx
                if spans[i][0] == name and spans[i][6] is not None]

    def per(amount, count, scale=1.0):
        return amount / count * scale if count else 0.0

    rows = sum(notes("records.load_csv"))
    cells = sum(n for _, n in notes("sensitivity.sweep"))
    replicates = sum(n for n, _ in notes("simulate.run_study"))

    # distinct Gamma points holding some target's extreme, per sweep, over
    # the covariance fits the sweeps made
    sweeps, sweep_of_grid = set(), {}
    useful: dict[int, set] = defaultdict(set)
    for i in idx:
        name, note = spans[i][0], spans[i][6]
        if name == "sensitivity.sweep" and note is not None:
            sweeps.add(i)
            sweep_of_grid[note[0]] = i
        elif (name == "sensitivity.interval_for" and note is not None
              and note[0] in sweep_of_grid):
            useful[sweep_of_grid[note[0]]].update(note[1:])
    sweep_cov_fits = sum(1 for i in idx if spans[i][0] == "core.fit_cov"
                         and spans[i][3] in sweeps)

    return {
        "records.load_csv.s": total["records.load_csv"],
        "records.load_csv.us_per_row": per(total["records.load_csv"], rows, 1e6),
        "records.summarize.s": total["records.summarize"],
        "tables.from_records.s": total["tables.from_records"],
        "tables.from_arrays.s": total["tables.from_arrays"],
        "weights.fit_missingness.self_s": self_s["weights.fit_missingness"],
        "core.check_assumptions.s": total["core.check_assumptions"],
        "core.fit_cov.calls": calls["core.fit_cov"],
        "core.fit_cov.s": total["core.fit_cov"],
        "core.fit_cov.ms_per_call":
            per(total["core.fit_cov"], calls["core.fit_cov"], 1e3),
        "core.fit_point.calls": calls["core.fit_point"],
        "core.fit_point.s": total["core.fit_point"],
        "core.fit_point.ms_per_call":
            per(total["core.fit_point"], calls["core.fit_point"], 1e3),
        "core.fit.failed": failed["core.fit_cov"] + failed["core.fit_point"],
        "core.cep.calls": calls["core.cep"],
        "core.cep.self_s": self_s["core.cep"],
        "estimating.delta_method.calls": calls["estimating.delta_method"],
        "estimating.delta_method.s": total["estimating.delta_method"],
        "mathutil.solve_logit_mixture.calls": calls["mathutil.solve_logit_mixture"],
        "mathutil.solve_logit_mixture.s": total["mathutil.solve_logit_mixture"],
        "sensitivity.sweep.cells": cells,
        "sensitivity.sweep.s": total["sensitivity.sweep"],
        "sensitivity.sweep.self_s": self_s["sensitivity.sweep"],
        "sensitivity.sweep.cells_per_s": per(cells, total["sensitivity.sweep"]),
        "sensitivity.cov_fit_useful_share":
            per(sum(len(p) for p in useful.values()), sweep_cov_fits),
        "sensitivity.interval_for.s": total["sensitivity.interval_for"],
        "simulate.ms_per_replicate":
            per(total["simulate.run_study"], replicates, 1e3),
        "simulate.self_s": self_s["simulate.run_study"],
        "simulate.replicates_failed":
            sum(f for _, f in notes("simulate.run_study")),
        "cli.analyze.self_s": self_s["cli.analyze"],
        "cli.simulate.self_s": self_s["cli.simulate"],
    }


def write_spans(spans, path) -> None:
    """Write spans as JSON lines with their self time."""
    own = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (s, t) in enumerate(zip(spans, own)):
            fh.write(json.dumps({"id": i, "name": s[0], "start": s[1],
                                 "end": s[2], "parent": s[3], "op": s[4],
                                 "failed": s[5], "self_s": t}) + "\n")
