"""Observed trial records: CSV ingestion and validation.

A record holds one participant's observed data: arm ``z``, early-event
indicator ``y_tau`` (clinical event by the marker measurement time), the
tri-state biomarker ``marker``, the marker-measured indicator ``measured``,
the final binary outcome ``y``, and optional baseline covariates ``w``.

Two kinds of marker missingness are kept distinct and must not be conflated:

* ``Marker.UNDEFINED`` - the marker does not exist because the participant
  had an early event (``y_tau = 1``); written as a literal ``*`` in CSV.
* ``Marker.MISSING``   - the marker exists but was not measured under the
  two-phase sampling design (``measured = 0``); written as an empty cell.
"""

from __future__ import annotations

import csv
import enum
from collections import namedtuple
from dataclasses import dataclass

from .errors import DataError

DEFAULT_SCHEMA = {
    "id": "id",
    "z": "z",
    "y_tau": "y_tau",
    "marker": "s_star",
    "y": "y",
    "measured": "r",
}

COVARIATE_PREFIX = "w_"


class Marker(enum.Enum):
    NEGATIVE = 0
    POSITIVE = 1
    UNDEFINED = "*"
    MISSING = "."


_MARKER_TOKEN = {Marker.NEGATIVE: "0", Marker.POSITIVE: "1",
                 Marker.UNDEFINED: "*", Marker.MISSING: ""}
_TOKEN_MARKER = {token: m for m, token in _MARKER_TOKEN.items()}


@dataclass(frozen=True, slots=True)
class ObservedRecord:
    id: str
    z: int
    y_tau: int
    marker: Marker
    y: int
    measured: int = 1
    w: tuple[float, ...] = ()

    def validate(self) -> None:
        if self.z not in (0, 1):
            raise DataError(f"record {self.id!r}: z must be 0 or 1, got {self.z}")
        if self.y_tau not in (0, 1):
            raise DataError(f"record {self.id!r}: y_tau must be 0 or 1")
        if self.y not in (0, 1):
            raise DataError(f"record {self.id!r}: y must be 0 or 1")
        if self.measured not in (0, 1):
            raise DataError(f"record {self.id!r}: measured must be 0 or 1")
        if self.y_tau == 1:
            if self.marker is not Marker.UNDEFINED:
                raise DataError(
                    f"record {self.id!r}: early event implies an undefined marker "
                    f"('*'), got {self.marker}")
            if self.y != 1:
                raise DataError(
                    f"record {self.id!r}: early event implies final outcome 1")
            if self.measured != 1:
                raise DataError(
                    f"record {self.id!r}: early-event records carry measured=1 "
                    "(there is nothing to sample)")
        else:
            if self.measured == 0 and self.marker is not Marker.MISSING:
                raise DataError(
                    f"record {self.id!r}: measured=0 requires the missing marker tag")
            if self.measured == 1 and self.marker not in (Marker.NEGATIVE, Marker.POSITIVE):
                raise DataError(
                    f"record {self.id!r}: measured survivor needs marker 0 or 1, "
                    f"got {self.marker}")


def _parse_marker(token: str) -> Marker:
    try:
        return _TOKEN_MARKER[token.strip()]
    except KeyError:
        raise DataError(f"unreadable marker value {token.strip()!r} "
                        "(expected 0, 1, '*' or empty)") from None


def _parse_binary(token: str, column: str) -> int:
    token = token.strip()
    if token not in ("0", "1"):
        raise DataError(f"column {column!r} must be 0 or 1, got {token!r}")
    return int(token)


def _parse_covariate(token: str, column: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"covariate column {column!r} must be numeric, "
                        f"got {token!r}") from None


def load_csv(path, schema: dict[str, str] | None = None, text=None) -> list[ObservedRecord]:
    """Load records from a headered CSV file, enforcing all record invariants.

    ``schema`` maps logical names (id, z, y_tau, marker, y, measured) to the
    file's column names; defaults are id, z, y_tau, s_star, y, r. Columns
    prefixed ``w_`` are parsed as baseline covariates. Row order is preserved
    and duplicate ids are rejected; an unreadable or non-UTF-8 file is a DataError.
    ``text``, a text stream of the file (say, a pipe's bytes already read), is read in its place.
    """
    names = columns(schema)
    try:
        with text or open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lay = layout(path, next(reader, None), names)
            return [parse_row(lay, i, r) for i, r in _rows(lay, filter(None, reader))]
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read the file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


# the file's path and header, and the column indices of the id, of z, y_tau,
# marker, y (and measured when present), and of the w_ covariates
_Layout = namedtuple("_Layout", "path header id key covariates")


def columns(schema) -> dict[str, str]:
    """The file's column of each logical name: ``schema`` over the defaults."""
    names = {**DEFAULT_SCHEMA, **(schema or {})}
    if len(names) > len(DEFAULT_SCHEMA):
        raise DataError(f"unknown schema keys: {sorted(set(names) - set(DEFAULT_SCHEMA))}")
    return names


def layout(path, header: list[str] | None, names: dict[str, str]) -> _Layout:
    """The checked layout of the file's ``header`` row (None: the file is empty),
    a leading UTF-8 byte-order mark (U+FEFF) dropped from its first name."""
    if header is None:
        raise DataError(f"{path}: empty file (a header row is required)")
    header = [name.removeprefix("\ufeff") for name in header[:1]] + header[1:]
    missing = [c for k, c in names.items() if k != "measured" and c not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column names {repeated}")
    col = {c: j for j, c in enumerate(header)}
    return _Layout(path, header, col[names["id"]], tuple(
        col[names[k]] for k in ("z", "y_tau", "marker", "y", "measured") if names[k] in col),
        tuple(j for j, c in enumerate(header) if c.startswith(COVARIATE_PREFIX)))


def _rows(layout, rows):
    """The checked data rows as ``(row number, fields)``. The header is row 1;
    blank lines are skipped and not numbered."""
    width, seen = len(layout.header), set()
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise DataError(f"{layout.path}: row {i}: row has " + (
                f"fewer fields than the header; no value for {layout.header[len(row):]}"
                if len(row) < width else f"more fields than the header ({len(row)} > {width})"))
        yield i, row
        # checked once the caller has parsed the row: its own errors come first
        rid = row[layout.id].strip()
        if rid in seen:
            raise DataError(f"{layout.path}: row {i}: duplicate id {rid!r}")
        seen.add(rid)


def parse_row(layout, i: int, row: list[str]) -> ObservedRecord:
    """The validated record in data row ``i``; its errors name the row."""
    head = layout.header
    jz, jt, jm, jy, *jr = layout.key
    try:
        marker = _parse_marker(row[jm])
        measured = (_parse_binary(row[jr[0]], head[jr[0]]) if jr
                    else int(marker is not Marker.MISSING))
        rec = ObservedRecord(
            row[layout.id].strip(), _parse_binary(row[jz], head[jz]),
            _parse_binary(row[jt], head[jt]), marker,
            _parse_binary(row[jy], head[jy]), measured,
            tuple(_parse_covariate(row[j], head[j])
                  for j in layout.covariates if row[j] != ""))
        rec.validate()
    except DataError as exc:
        raise DataError(f"{layout.path}: row {i}: {exc}") from None
    return rec


def write_csv(records, path, schema: dict[str, str] | None = None) -> None:
    """Write records in the same format load_csv reads with ``schema`` (round-trip exact)."""
    n_cov = max((len(r.w) for r in records), default=0)
    cov_cols = [f"{COVARIATE_PREFIX}{k + 1}" for k in range(n_cov)]
    header = [*columns(schema).values(), *cov_cols]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = [r.id, r.z, r.y_tau, _MARKER_TOKEN[r.marker], r.y, r.measured]
            row += [repr(v) for v in r.w]
            row += [""] * (n_cov - len(r.w))
            writer.writerow(row)
