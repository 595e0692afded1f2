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

import csv
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import DataError
from .records import Marker, ObservedRecord, load_csv, parse_row, read_rows

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
    """``from_records(load_csv(path, schema))`` without the record list.

    The rows are screened a block at a time by C-level passes: widths, id
    hashes, a count of each (z, y_tau, marker, y, measured) token tuple, and
    the w_ tokens through ``float``. Each distinct tuple is parsed once. A
    row the screen cannot vouch for, or two ids of equal hash, sends the file
    down the record path, which reports its first fault exactly."""
    screened = read_rows(path, schema, _screen)
    if screened is None:
        return from_records(load_csv(path, schema))
    return _from_codes(*screened)


# Rows per screened block: fewer than the 700 allocations that start a gen-0 GC pass.
_BLOCK = 512
_id_hash = hash     # the id digest of the duplicate screen; a test swaps in a colliding one


def _screen(layout, rows):
    """Each distinct token tuple's cell code and row count, or None for a
    file with a wrong-width row, a tuple ``parse_row`` rejects, a w_ token
    ``float`` rejects, a csv or decoding error, or two ids of equal hash."""
    width, id_of, key_of = len(layout.header), itemgetter(layout.id), itemgetter(*layout.key)
    tally, code, hashes = Counter(), {}, []
    try:
        for block in iter(lambda: list(islice(rows, _BLOCK)), []):
            if set(map(len, block)) != {width}:
                return None
            hashes.append(np.fromiter(map(_id_hash, map(str.strip, map(id_of, block))),
                                      np.int64, len(block)))
            tally.update(map(key_of, block))
            for j in layout.covariates:
                deque(map(float, filter(None, map(itemgetter(j), block))), maxlen=0)
            if len(tally) > len(code):
                for row in block:
                    if (key := key_of(row)) not in code:
                        r = parse_row(layout, 0, row)   # a fault: the record path names its row
                        code[key] = cell_code(r.z, r.y_tau, _MARKER_CODE[r.marker], r.y)
    except (csv.Error, ValueError, DataError):  # ValueError: float's, or a UnicodeDecodeError
        return None
    h = np.concatenate([np.empty(0, np.int64), *hashes])
    h.sort()
    if (h[1:] == h[:-1]).any():
        return None
    return (np.fromiter(map(code.get, tally), np.int64, len(tally)),
            np.fromiter(tally.values(), np.int64, len(tally)))


def from_arrays(z, yt, s, y) -> CellTable:
    """Aggregate parallel integer arrays (marker state already coded)."""
    z, yt, s, y = (np.asarray(a, dtype=np.int64) for a in (z, yt, s, y))
    return _from_codes(cell_code(z, yt, s, y))


def from_counts(count, c=np.arange(32)) -> CellTable:
    """Cells ``c`` (default: all 32, in ``cell_code`` order) with tallies
    ``count`` (..., len(c)), zeros allowed; a leading axis holds replicates."""
    return CellTable(z=c // 16, yt=c // 8 % 2, s=c // 2 % 4, y=c % 2,
                     count=np.asarray(count, dtype=float))


def _from_codes(code, count=None) -> CellTable:
    """One row per occupied cell, in ascending ``cell_code`` order; ``count``
    gives each code's rows, one each by default."""
    tallies = np.bincount(code, count, minlength=32)
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
