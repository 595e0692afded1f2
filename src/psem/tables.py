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
import io
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .records import Marker, ObservedRecord, columns, layout, load_csv, parse_row

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

    The file is read as bytes, a pipe's all at once: the header line, then
    chunks of whole lines screened by numpy passes (line ends, commas and field
    sizes, one count per tuple of one-byte key tokens, each parsed once, ids
    keyed by their bytes, w_ tokens through ``float``). A file the screen cannot
    vouch for goes down the record path, which reports its first fault exactly."""
    names, data = columns(schema), None
    try:
        with open(path, "rb") as fh:
            if not os.path.isfile(path):
                fh = io.BytesIO(data := fh.read())      # a pipe can be read only once
            screened = _screen(fh, path, names)
    except OSError:
        screened = None
    if screened is not None:
        return _from_codes(*screened)
    text = None if data is None else io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline="")
    return from_records(load_csv(path, schema, text))


_CHUNK = 1 << 16    # bytes read at a time, then the rest of their last line
# bytes ``str.strip`` may remove (ASCII whitespace) or that begin or end a non-ASCII char
_EDGE = np.array([b > 127 or chr(b).isspace() for b in range(256)])
_FOLD = np.uint64(0x9E3779B97F4A7C15)    # odd: folds an id's 8-byte words into one key
_LOW_BYTES = np.array([2**(8 * n) - 1 for n in range(9)], np.uint64)  # a word's low n bytes


def _chunks(fh):
    """The binary file's bytes in runs of whole lines: ``_CHUNK`` bytes and the
    rest of the line they end in. A last line without a newline gets one."""
    while block := fh.read(_CHUNK) + fh.readline():
        yield block if block.endswith(b"\n") else block + b"\n"


def _fields(a, width, limit):
    """Each nonblank line's field bounds and field sizes ``(f, size)``, field j
    being bytes ``f[:, j] + 1`` to ``f[:, j + 1]``, ``size[:, j]`` bytes long;
    or None if a CR is not part of a CRLF line end, a line has a wrong comma
    count or a field is over ``limit`` bytes."""
    nl, cm = np.flatnonzero(a == 10), np.flatnonzero(a == 44)
    cr = a[nl - 1] == 13                # CRLF line ends (a[-1] is a newline)
    end, start = nl - cr, np.concatenate(([0], nl[:-1] + 1))
    line = end > start                  # blank lines are skipped; they hold no commas
    rows = np.count_nonzero(line)
    if np.count_nonzero(a == 13) != cr.sum() or len(cm) != (width - 1) * rows:
        return None
    f = np.empty((rows, width + 1), np.int64, order="F")   # columns contiguous
    f[:, 0], f[:, -1] = start[line] - 1, end[line]
    f[:, 1:-1] = cm.reshape(rows, width - 1)
    size = np.diff(f) - 1   # all >= 0: each comma in its own line, so width - 1 in each
    return None if size.min(initial=0) < 0 or size.max(initial=0) > limit else (f, size)


def _column(a, f, j):
    """The str tokens of field j of each line."""
    lo, hi = f[:, j] + 1, f[:, j + 1]
    ends = np.cumsum(hi - lo + 1)       # each field and the byte after it
    step = np.ones(ends[-1], np.int64)
    step[0], step[ends[:-1]] = lo[0], lo[1:] - hi[:-1]
    out = a[np.cumsum(step)]
    out[ends - 1] = 10
    return out.tobytes().decode().split("\n")[:-1]


def _id_keys(chunk, f, j):
    """One uint64 key per line for its id, field j, after ``str.strip``. An id
    of up to 8 bytes is its own key, its bytes zero-padded (ids hold no NUL);
    a longer one folds its 8-byte words with ``_FOLD`` by Horner's rule. Equal
    ids have equal keys, and only an id over 8 bytes can share a key with another."""
    a = np.frombuffer(chunk, np.uint8)
    lo, hi = f[:, j] + 1, f[:, j + 1].copy()    # f[:, j + 1] also bounds field j + 1
    for r in np.flatnonzero(_EDGE.take(a.take(lo)) | _EDGE.take(a.take(hi - 1))).tolist():
        s = chunk[lo[r]:hi[r]].decode()     # ids strip may change, and empty ones by a newline
        lo[r] = hi[r] - len(s.lstrip().encode())
        hi[r] = lo[r] + len(s.strip().encode())
    word_at = np.ndarray(len(a) + 1, "<u8", chunk + bytes(8), strides=(1,))  # word at each byte
    n = hi - lo
    key = word_at.take(lo) & _LOW_BYTES.take(np.minimum(n, 8))
    for w in range(1, (int(n.max(initial=0)) + 7) // 8):     # word w of the longer ids
        r = np.flatnonzero(n > 8 * w)
        word = word_at.take(lo[r] + 8 * w) & _LOW_BYTES.take(np.minimum(n[r] - 8 * w, 8))
        key[r] = key[r] * _FOLD + word
    return key


def _screen(fh, path, names):
    """The 32 cell codes and their row counts from the binary handle ``fh``, or
    None for a header line ``layout`` rejects, or with a quote, a NUL or a CR
    outside a CRLF line end, text that is not UTF-8, a field over csv's size
    limit, a wrong comma count, a key token over 1 byte, a tuple ``parse_row``
    rejects, a w_ token ``float`` rejects, or two ids of equal key."""
    limit, code, tally, keys = csv.field_size_limit(), {}, np.zeros(32), []
    try:
        line = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        header = line.decode().split(",")
        if any(c in line for c in b'"\0\r') or max(map(len, header)) > limit:
            return None
        lay = layout(path, header, names)
        width, key = len(header), np.array(lay.key)
        for chunk in _chunks(fh):
            chunk.isascii() or chunk.decode()   # a UnicodeDecodeError if not UTF-8
            a = np.frombuffer(chunk, np.uint8)
            if b'"' in chunk or b"\0" in chunk or (bounds := _fields(a, width, limit)) is None:
                return None
            f, size = bounds
            if not len(f):                      # blank lines only
                continue
            n = size[:, key]                    # key token lengths
            if n.max() > 1:
                return None
            tok = (a[f[:, key] + 1] * n) @ (1 << 8 * np.arange(len(key)))  # key bytes
            kinds, count = np.unique(tok, return_counts=True)
            for k in kinds.tolist():
                if k not in code:           # parsed at its first line
                    r = np.argmax(tok == k)
                    rec = parse_row(lay, 0, chunk[f[r, 0] + 1:f[r, -1]].decode().split(","))
                    code[k] = cell_code(rec.z, rec.y_tau, _MARKER_CODE[rec.marker], rec.y)
            tally += np.bincount([code[k] for k in kinds.tolist()], count, minlength=32)
            keys.append(_id_keys(chunk, f, lay.id))
            for j in lay.covariates:
                deque(map(float, filter(None, _column(a, f, j))), maxlen=0)
    except (ValueError, DataError):     # ValueError: float's, or a UnicodeDecodeError
        return None
    keys = np.concatenate([np.empty(0, np.uint64), *keys])   # frees the chunks' keys
    keys.sort()
    return None if (keys[1:] == keys[:-1]).any() else (np.arange(32), tally)


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
    """Per-arm tallies of records, or of their CellTable of one dataset (a
    ``ValueError`` for a batch of B > 1 replicates)."""
    c = data if isinstance(data, CellTable) else from_records(data)
    if c.count.size != c.z.size:
        raise ValueError(f"summarize reads one dataset, not a table of "
                         f"{c.count.size // c.z.size} replicates")
    meas = (c.yt == 0) & (c.s <= S_POS)
    pos, case, control = meas & (c.s == S_POS), c.y == 1, c.y == 0
    masks = {"n": True, "early_events": c.yt == 1, "final_events": case,
             "marker_measured": meas, "measured_cases": meas & case,
             "measured_controls": meas & control, "positive_cases": pos & case,
             "positive_controls": pos & control}
    return DatasetSummary(arms={z: ArmSummary(**{
        k: int(c.count[..., (c.z == z) & m].sum()) for k, m in masks.items()})
        for z in (0, 1)})
