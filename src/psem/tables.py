"""Aggregated cell representation of a dataset.

Every estimator in this package depends on the data only through the
contingency cells (z, y_tau, marker state, y) and the per-cell sampling
weight, so datasets are collapsed to at most 32 cells up front. This keeps
replicated simulation fits cheap while leaving the estimating-function
algebra identical to a per-record formulation (cells carry frequency
counts).

Marker state codes: 0 negative, 1 positive, 2 undefined (early event),
3 missing (not measured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import DataError
from .records import Marker, ObservedRecord, parse_row, read_rows

S_NEG, S_POS, S_UNDEF, S_MISS = 0, 1, 2, 3

_MARKER_CODE = {
    Marker.NEGATIVE: S_NEG,
    Marker.POSITIVE: S_POS,
    Marker.UNDEFINED: S_UNDEF,
    Marker.MISSING: S_MISS,
}


@dataclass
class CellTable:
    z: np.ndarray          # arm per cell
    yt: np.ndarray         # early-event indicator per cell
    s: np.ndarray          # marker state code per cell
    y: np.ndarray          # final outcome per cell
    count: np.ndarray      # frequency of the cell (float), (..., cells)
    pi: np.ndarray = field(default=None)   # sampling probability (NaN if n/a)
    w: np.ndarray = field(default=None)    # 1/pi where defined, else 1.0

    def __post_init__(self):
        if self.pi is None:
            self.pi = np.full(self.z.shape, np.nan)
        if self.w is None:
            self.w = np.ones(self.z.shape)

    @property
    def n(self) -> float:
        return float(self.count.sum())


def cell_code(z, yt, s, y):
    return ((z * 2 + yt) * 4 + s) * 2 + y


def from_records(records) -> CellTable:
    codes = []
    for r in records:
        if not isinstance(r, ObservedRecord):
            raise DataError(f"expected ObservedRecord, got {type(r).__name__}")
        codes.append(cell_code(r.z, r.y_tau, _MARKER_CODE[r.marker], r.y))
    return _from_codes(np.array(codes, dtype=np.int64))


def read_cells(path, schema: dict[str, str] | None = None) -> CellTable:
    """``from_records(load_csv(path, schema))`` without the record list: each distinct
    (z, y_tau, marker, y, measured) token tuple is parsed once, or every row if w_ exist."""
    def codes(layout, rows):
        key_of, cache, out = itemgetter(*layout.key), {}, []
        for i, row in rows:
            code = cache.get(key := key_of(row))
            if code is None or layout.covariates:
                r = parse_row(layout, i, row)
                code = cache[key] = cell_code(r.z, r.y_tau, _MARKER_CODE[r.marker], r.y)
            out.append(code)
        return np.array(out, dtype=np.int64)
    return _from_codes(read_rows(path, schema, codes))


def from_arrays(z, yt, s, y) -> CellTable:
    """Aggregate parallel integer arrays (marker state already coded)."""
    z, yt, s, y = (np.asarray(a, dtype=np.int64) for a in (z, yt, s, y))
    return _from_codes(cell_code(z, yt, s, y))


def from_counts(count, c=np.arange(32)) -> CellTable:
    """Cells ``c`` (default: all 32, in ``cell_code`` order) with tallies
    ``count`` (..., len(c)), zeros allowed; a leading axis holds replicates."""
    return CellTable(z=c // 16, yt=c // 8 % 2, s=c // 2 % 4, y=c % 2,
                     count=np.asarray(count, dtype=float))


def _from_codes(code) -> CellTable:
    """One row per occupied cell, in ascending ``cell_code`` order."""
    tallies = np.bincount(code, minlength=32)
    c = np.flatnonzero(tallies)
    if not c.size:
        raise DataError("empty dataset")
    return from_counts(tallies[c], c)


@dataclass(frozen=True)
class ArmSummary:
    n: int = 0
    early_events: int = 0
    final_events: int = 0
    marker_measured: int = 0
    measured_cases: int = 0           # measured survivors with y = 1
    measured_controls: int = 0        # measured survivors with y = 0
    positive_cases: int = 0
    positive_controls: int = 0


@dataclass(frozen=True)
class DatasetSummary:
    arms: dict[int, ArmSummary] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return sum(a.n for a in self.arms.values())


def summarize(data) -> DatasetSummary:
    """Per-arm tallies of records, or of their CellTable."""
    c = data if isinstance(data, CellTable) else from_records(data)
    meas = (c.yt == 0) & (c.s <= S_POS)
    pos, case, control = meas & (c.s == S_POS), c.y == 1, c.y == 0
    masks = {"n": True, "early_events": c.yt == 1, "final_events": case,
             "marker_measured": meas, "measured_cases": meas & case,
             "measured_controls": meas & control, "positive_cases": pos & case,
             "positive_controls": pos & control}
    return DatasetSummary(arms={z: ArmSummary(**{
        k: int(c.count[(c.z == z) & m].sum()) for k, m in masks.items()})
        for z in (0, 1)})
