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


def load_csv(path, schema: dict[str, str] | None = None) -> list[ObservedRecord]:
    """Load records from a headered CSV file, enforcing all record invariants.

    ``schema`` maps logical names (id, z, y_tau, marker, y, measured) to the
    file's column names; defaults are id, z, y_tau, s_star, y, r. Columns
    prefixed ``w_`` are parsed as baseline covariates. Row order is preserved
    and duplicate ids are rejected.
    """
    names = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise DataError(f"unknown schema keys: {sorted(unknown)}")
        names.update(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (a header row is required)")
        missing = [c for k, c in names.items() if k != "measured" and c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        has_measured = names["measured"] in reader.fieldnames
        covariate_cols = [c for c in reader.fieldnames if c.startswith(COVARIATE_PREFIX)]
        records: list[ObservedRecord] = []
        seen: set[str] = set()
        for i, row in enumerate(reader, start=2):
            try:
                if None in row.values():
                    short = [c for c, v in row.items() if v is None]
                    raise DataError(f"row has fewer fields than the header; "
                                    f"no value for {short}")
                marker = _parse_marker(row[names["marker"]])
                if has_measured:
                    measured = _parse_binary(row[names["measured"]], names["measured"])
                else:
                    measured = 0 if marker is Marker.MISSING else 1
                rec = ObservedRecord(
                    id=row[names["id"]].strip(),
                    z=_parse_binary(row[names["z"]], names["z"]),
                    y_tau=_parse_binary(row[names["y_tau"]], names["y_tau"]),
                    marker=marker,
                    y=_parse_binary(row[names["y"]], names["y"]),
                    measured=measured,
                    w=tuple(_parse_covariate(row[c], c) for c in covariate_cols
                            if row[c] != ""),
                )
                rec.validate()
            except DataError as exc:
                raise DataError(f"{path}: row {i}: {exc}") from None
            if rec.id in seen:
                raise DataError(f"{path}: row {i}: duplicate id {rec.id!r}")
            seen.add(rec.id)
            records.append(rec)
    return records


def write_csv(records, path, schema: dict[str, str] | None = None) -> None:
    """Write records in the same format load_csv reads (round-trip exact)."""
    names = dict(DEFAULT_SCHEMA)
    if schema:
        names.update(schema)
    n_cov = max((len(r.w) for r in records), default=0)
    cov_cols = [f"{COVARIATE_PREFIX}{k + 1}" for k in range(n_cov)]
    header = [names["id"], names["z"], names["y_tau"], names["marker"],
              names["y"], names["measured"]] + cov_cols
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = [r.id, r.z, r.y_tau, _MARKER_TOKEN[r.marker], r.y, r.measured]
            row += [repr(v) for v in r.w]
            row += [""] * (n_cov - len(r.w))
            writer.writerow(row)
