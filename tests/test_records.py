import dataclasses
import importlib.util
import io
import itertools
import os
import random
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psem import demo, tables
from psem.errors import DataError
from psem.records import DEFAULT_SCHEMA, Marker, ObservedRecord, load_csv, write_csv
from psem.tables import ArmSummary, summarize

from conftest import make_records


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "id,z,y_tau,y,r,s_star\n"


def test_load_basic_row(tmp_path):
    path = _write(tmp_path, HEADER + "p1,1,0,0,1,1\n")
    (rec,) = load_csv(path)
    assert rec.z == 1 and rec.y_tau == 0 and rec.y == 0
    assert rec.marker is Marker.POSITIVE and rec.measured == 1


def test_load_early_event_row(tmp_path):
    path = _write(tmp_path, HEADER + "p2,0,1,1,1,*\n")
    (rec,) = load_csv(path)
    assert rec.y_tau == 1 and rec.y == 1 and rec.marker is Marker.UNDEFINED


def test_load_four_row_fixture_and_summary(tmp_path):
    rows = ["p3,1,0,1,1,0", "p4,1,0,0,1,1", "p5,0,0,0,1,0", "p6,0,1,1,1,*"]
    path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
    records = load_csv(path)
    assert len(records) == 4
    assert [r.id for r in records] == ["p3", "p4", "p5", "p6"]  # order kept
    summary = summarize(records)
    # one active-arm case (y=1, survivor) with a negative marker
    assert summary.arms[1].measured_cases == 1
    assert summary.arms[1].positive_cases == 0


def test_load_missing_marker_cell(tmp_path):
    path = _write(tmp_path, HEADER + "p1,1,0,0,0,\n")
    (rec,) = load_csv(path)
    assert rec.marker is Marker.MISSING and rec.measured == 0


def test_load_rejects_bad_z(tmp_path):
    path = _write(tmp_path, HEADER + "p1,2,0,0,1,1\n")
    with pytest.raises(DataError, match="row 2") as err:
        load_csv(path)
    assert str(err.value).count("row 2") == 1


def test_load_rejects_early_event_with_marker_value(tmp_path):
    path = _write(tmp_path, HEADER + "p1,1,1,1,1,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_load_rejects_truncated_row(tmp_path):
    path = _write(tmp_path, HEADER + "p1,1,0,0,1,1\np2,1\n")
    with pytest.raises(DataError, match=r"row 3: row has fewer fields .*'y_tau'"):
        load_csv(path)


def test_load_rejects_non_numeric_covariate(tmp_path):
    path = _write(tmp_path, "id,z,y_tau,y,r,s_star,w_1\n"
                  "p1,1,0,0,1,1,0.5\np2,1,0,0,1,1,abc\n")
    with pytest.raises(DataError, match=r"row 3: covariate column 'w_1' .*'abc'"):
        load_csv(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = _write(tmp_path, HEADER + "p1,1,0,0,1,1\np1,0,0,0,1,0\n")
    with pytest.raises(DataError, match="duplicate id"):
        load_csv(path)


def test_load_rejects_missing_columns(tmp_path):
    path = _write(tmp_path, "id,z\np1,1\n")
    with pytest.raises(DataError, match="missing required columns"):
        load_csv(path)


def test_load_empty_file(tmp_path):
    with pytest.raises(DataError, match="empty file"):
        load_csv(_write(tmp_path, ""))


def test_schema_mapping(tmp_path):
    path = _write(tmp_path, "pid,arm,early,outcome,samp,mk\nx,1,0,1,1,0\n")
    (rec,) = load_csv(path, schema={"id": "pid", "z": "arm", "y_tau": "early",
                                    "y": "outcome", "measured": "samp",
                                    "marker": "mk"})
    assert rec.id == "x" and rec.marker is Marker.NEGATIVE


def test_covariate_columns(tmp_path):
    path = _write(tmp_path, "id,z,y_tau,y,r,s_star,w_age,w_bmi\np1,1,0,0,1,1,31.5,22.0\n")
    (rec,) = load_csv(path)
    assert rec.w == (31.5, 22.0)


def test_round_trip_exact(tmp_path):
    records = make_records([
        (3, 1, 0, 1, 1), (2, 1, 1, "*", 1), (4, 0, 0, None, 0),
        (1, 0, 0, 0, 1), (2, 1, 0, 0, 0),
    ])
    path = tmp_path / "out.csv"
    write_csv(records, path)
    assert load_csv(path) == records


def test_write_csv_checks_its_schema_as_load_csv_does(tmp_path):
    records = make_records([(2, 1, 0, 1, 1), (1, 0, 0, None, 0)])
    path = tmp_path / "out.csv"
    schema = {"marker": "s", "measured": "sampled"}
    write_csv(records, path, schema)
    assert load_csv(path, schema) == records
    for call in (lambda: write_csv(records, tmp_path / "bogus.csv", {"bogus": "q"}),
                 lambda: load_csv(path, {"bogus": "q"})):
        with pytest.raises(DataError, match=r"^unknown schema keys: \['bogus'\]$"):
            call()
    assert not (tmp_path / "bogus.csv").exists()


def test_summarize_counts_demo_shape():
    from psem.demo import synthetic_trial
    summary = summarize(synthetic_trial())
    arm1 = summary.arms[1]
    assert arm1.n == 1251 and arm1.early_events == 14
    assert arm1.measured_controls == 125 and arm1.positive_controls == 70
    assert arm1.measured_cases == 25 and arm1.positive_cases == 5
    assert summary.arms[0].n == 1245


def test_summarize_all_control():
    records = make_records([(5, 0, 0, 0, 0), (2, 0, 0, 0, 1)])
    summary = summarize(records)
    assert summary.arms[1].n == 0 and summary.arms[1].final_events == 0
    assert summary.arms[0].n == 7 and summary.arms[0].final_events == 2


def test_summarize_ten_record_fixture():
    records = make_records([
        (2, 1, 1, "*", 1), (1, 1, 0, 1, 1), (2, 1, 0, 0, 0),
        (1, 0, 1, "*", 1), (2, 0, 0, 0, 1), (2, 0, 0, None, 0),
    ])
    summary = summarize(records)
    assert summary.n == 10
    assert summary.arms[1].early_events == 2 and summary.arms[1].final_events == 3
    assert summary.arms[1].marker_measured == 3
    assert summary.arms[0].marker_measured == 2
    assert summary.arms[0].measured_cases == 2 and summary.arms[0].positive_cases == 0


def test_summarize_permutation_invariant():
    records = make_records([
        (4, 1, 0, 1, 1), (3, 0, 0, 0, 0), (2, 1, 1, "*", 1), (5, 0, 0, None, 0),
    ])
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert summarize(records) == summarize(shuffled)


def test_summarize_empty_errors():
    with pytest.raises(DataError):
        summarize([])


# (y_tau, marker, measured) of each valid record kind; early events have y = 1
_KINDS = {"early": (1, Marker.UNDEFINED, 1), "neg": (0, Marker.NEGATIVE, 1),
          "pos": (0, Marker.POSITIVE, 1), "missing": (0, Marker.MISSING, 0)}


def _reference_summary(records):
    """Per-record tally loop, the reference for the cell-mask summarize."""
    arms = {}
    for z in (0, 1):
        arm = [r for r in records if r.z == z]
        meas = [r for r in arm if r.y_tau == 0 and r.measured == 1]
        pos = [r for r in meas if r.marker is Marker.POSITIVE]
        arms[z] = ArmSummary(
            n=len(arm), early_events=sum(r.y_tau for r in arm),
            final_events=sum(r.y for r in arm), marker_measured=len(meas),
            measured_cases=sum(r.y for r in meas),
            measured_controls=sum(1 - r.y for r in meas),
            positive_cases=sum(r.y for r in pos),
            positive_controls=sum(1 - r.y for r in pos))
    return arms


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(_KINDS)),
                          st.integers(0, 1)), min_size=1, max_size=60))
def test_from_records_matches_from_arrays_and_summary(rows):
    records = []
    for i, (z, kind, y) in enumerate(rows):
        y_tau, marker, measured = _KINDS[kind]
        records.append(ObservedRecord(id=str(i), z=z, y_tau=y_tau, marker=marker,
                                      y=y | y_tau, measured=measured))
        records[-1].validate()
    cells = tables.from_records(records)
    columns = zip(*[(r.z, r.y_tau, tables._MARKER_CODE[r.marker], r.y)
                    for r in records])
    arrays = tables.from_arrays(*map(np.array, columns))
    for name, dtype in (("z", np.int64), ("yt", np.int64), ("s", np.int64),
                        ("y", np.int64), ("count", np.float64)):
        assert getattr(cells, name).dtype == getattr(arrays, name).dtype == dtype
        np.testing.assert_array_equal(getattr(cells, name), getattr(arrays, name))
    codes = tables.cell_code(cells.z, cells.yt, cells.s, cells.y)
    assert np.all(np.diff(codes) > 0) and cells.n == len(records)
    summary = summarize(records)
    assert summary == summarize(cells)
    assert summary.arms == _reference_summary(records)
    assert all(type(v) is int for a in summary.arms.values()
               for v in dataclasses.astuple(a))


@pytest.mark.parametrize("corrupt", [
    dict(y_tau=1, marker=Marker.POSITIVE, y=1, measured=1),   # early + marker
    dict(y_tau=1, marker=Marker.UNDEFINED, y=0, measured=1),  # early + y=0
    dict(y_tau=0, marker=Marker.MISSING, y=0, measured=1),    # measured + missing
    dict(y_tau=0, marker=Marker.UNDEFINED, y=0, measured=1),  # undefined survivor
    dict(y_tau=0, marker=Marker.POSITIVE, y=0, measured=0),   # unmeasured + value
    dict(y_tau=1, marker=Marker.UNDEFINED, y=1, measured=0),  # early + unmeasured
])
def test_validation_rejects_invariant_violations(corrupt):
    rec = ObservedRecord(id="x", z=0, **corrupt)
    with pytest.raises(DataError):
        rec.validate()


def test_validation_random_corruptions():
    rng = random.Random(11)
    base = dict(z=1, y_tau=0, marker=Marker.NEGATIVE, y=0, measured=1)
    fields = ["z", "y_tau", "y", "measured"]
    rejected = 0
    for trial in range(200):
        kw = dict(base)
        kw[rng.choice(fields)] = rng.choice([-1, 2, 5])
        try:
            ObservedRecord(id=f"t{trial}", **kw).validate()
        except DataError:
            rejected += 1
    assert rejected == 200


def test_default_schema_names():
    assert DEFAULT_SCHEMA["marker"] == "s_star" and DEFAULT_SCHEMA["measured"] == "r"


# ---------------------------------------------------------------------------
# tables.read_cells, the cells-first loader, against the record path


def test_load_rejects_repeated_column(tmp_path):
    path = _write(tmp_path, "id,z,y_tau,s_star,y,r,z\np1,1,0,1,0,1,0\n")
    with pytest.raises(DataError, match=r"repeated column names \['z'\]"):
        load_csv(path)


def test_load_rejects_wide_row(tmp_path):
    path = _write(tmp_path, "id,z,y_tau,s_star,y,r\np1,1,0,1,0,1,9,9\n")
    with pytest.raises(DataError, match=r"row 2: row has more fields than the header"):
        load_csv(path)


_WIDE = "id,z,y_tau,y,r,s_star,w_1\n"
_INGEST_ERRORS = {
    "bad_z": HEADER + "p1,2,0,0,1,1\n",
    "bad_z_after_valid_rows": HEADER + "p0,1,0,0,1,1\n\np1,2,0,0,1,1\np2,2,0,0,1,1\n",
    "early_with_marker": HEADER + "p1,1,1,1,1,1\n",
    "bad_marker": HEADER + "p1,1,0,0,1,x\n",
    "bad_measured": HEADER + "p1,1,0,0,7,1\n",
    "truncated": HEADER + "p1,1,0,0,1,1\np2,1\n",
    "wide": HEADER + "p1,1,0,0,1,1\np2,1,0,1,0,1,9,9\n",
    "bad_covariate": _WIDE + "p1,1,0,0,1,1,0.5\np2,1,0,0,1,1,abc\n",
    "duplicate_id": HEADER + "p1,1,0,0,1,1\np1,0,0,0,1,0\n",
    "duplicate_padded_id": HEADER + "p1,1,0,0,1,1\n p1 ,1,0,0,1,1\n",
    "duplicate_and_invalid": HEADER + "p1,1,0,0,1,1\np1,1,1,0,1,1\n",
    "missing_columns": "id,z\np1,1\n",
    "repeated_column": "id,z,y_tau,s_star,y,r,z\np1,1,0,1,0,1,0\n",
    "blank_first_line": "\n" + HEADER + "p1,1,0,0,1,1\n",
    "empty_file": "",
    "header_only": HEADER,
    "blank_lines_only": HEADER + "\n\n",
    "field_over_csv_limit": HEADER + "p1,1,0,0,1,1\n" + "p" * 140_000 + ",1,0,0,1,1\n",
    "header_over_csv_limit": HEADER.rstrip() + "," + "x" * 140_000 + "\np1,1,0,0,1,1,0\n",
    "quoted_covariate_in_header": HEADER.rstrip() + ',"w_1"\np1,1,0,0,1,1,abc\n',
}


def _error_text(load):
    with pytest.raises(DataError) as err:
        load()
    return str(err.value)


@pytest.mark.parametrize("case", sorted(_INGEST_ERRORS))
def test_both_loaders_raise_the_same_error(tmp_path, case):
    path = _write(tmp_path, _INGEST_ERRORS[case])
    assert (_error_text(lambda: tables.read_cells(path))
            == _error_text(lambda: tables.from_records(load_csv(path))))


def test_row_errors_come_before_its_duplicate_id(tmp_path):
    path = _write(tmp_path, _INGEST_ERRORS["duplicate_and_invalid"])
    with pytest.raises(DataError, match="row 3: record 'p1': early event implies"):
        tables.read_cells(path)


@pytest.mark.parametrize("case", ["absent", "latin1", "latin1_unread_column", "unknown_schema_key"])
def test_both_loaders_raise_the_same_file_error(tmp_path, case):
    path = tmp_path / "data.csv"
    if case == "latin1":
        path.write_bytes((HEADER + "r\xe91,1,0,0,1,1\n").encode("latin-1"))
    elif case == "latin1_unread_column":       # a column no check parses
        path.write_bytes((HEADER.rstrip() + ",note\np1,1,0,0,1,1,\np2,1,0,0,1,1,caf\xe9\n")
                         .encode("latin-1"))
    schema = {"arm": "z"} if case == "unknown_schema_key" else None
    assert (_error_text(lambda: tables.read_cells(path, schema))
            == _error_text(lambda: tables.from_records(load_csv(path, schema))))


_REMAPPED = {"id": "pid", "z": "arm", "y_tau": "early", "marker": "mk",
             "y": "outcome", "measured": "samp"}
_TOKENS = {Marker.NEGATIVE: "0", Marker.POSITIVE: "1", Marker.UNDEFINED: "*",
           Marker.MISSING: ""}


@st.composite
def _csv_files(draw):
    """A valid trial CSV: optional r column, 0-2 w_ columns, default or
    remapped names in any order, blank lines and space-padded tokens."""
    has_r, n_cov, remap = draw(st.booleans()), draw(st.integers(0, 2)), draw(st.booleans())
    names = dict(_REMAPPED if remap else DEFAULT_SCHEMA)
    keys = [k for k in names if has_r or k != "measured"]
    columns = draw(st.permutations(keys + [f"w_{j}" for j in range(n_cov)]))
    pad = st.sampled_from(["", " ", "  "])
    lines = [",".join(names.get(c, c) for c in columns)]
    rows = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(_KINDS)),
                                   st.integers(0, 1)), min_size=1, max_size=40))
    for i, (z, kind, y) in enumerate(rows):
        y_tau, marker, measured = _KINDS[kind]
        value = {"id": f"p{i}", "z": z, "y_tau": y_tau, "marker": _TOKENS[marker],
                 "y": y | y_tau, "measured": measured}
        for j in range(n_cov):
            value[f"w_{j}"] = draw(st.sampled_from(["", "0.5", "-3", "1e3"]))
        lines.append(",".join(
            "" if value[c] == "" and c.startswith("w_")   # a blank covariate
            else draw(pad) + str(value[c]) + draw(pad) for c in columns))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n", (_REMAPPED if remap else None)


@settings(max_examples=150, deadline=None)
@given(_csv_files())
def test_read_cells_matches_record_path(tmp_path_factory, drawn):
    text, schema = drawn
    path = _write(tmp_path_factory.mktemp("csv"), text)
    cells = tables.read_cells(path, schema)
    ref = tables.from_records(load_csv(path, schema))
    for name in ("z", "yt", "s", "y", "count", "pi", "w"):
        got, want = getattr(cells, name), getattr(ref, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_read_cells_parses_each_distinct_token_tuple_once(tmp_path, monkeypatch):
    rng = random.Random(3)
    kinds = [(z, y_tau, _TOKENS[marker], y | y_tau, measured)
             for z in (0, 1) for y in (0, 1)
             for y_tau, marker, measured in _KINDS.values()]
    rows = [rng.choice(kinds) for _ in range(10_000)]
    path = _write(tmp_path, "id,z,y_tau,s_star,y,r\n" + "".join(
        f"p{i},{z},{t},{m},{y},{r}\n" for i, (z, t, m, y, r) in enumerate(rows)))
    calls = []
    real = tables.parse_row
    monkeypatch.setattr(tables, "parse_row",
                        lambda *args: calls.append(1) or real(*args))
    cells = tables.read_cells(path)
    assert 0 < len(calls) <= len(set(rows))
    assert cells.n == 10_000
    np.testing.assert_array_equal(cells.count,
                                  tables.from_records(load_csv(path)).count)


def _cells_or_error(load):
    try:
        return load()
    except DataError as exc:
        return str(exc)


def _assert_same_cells(got, want):
    for name in ("z", "yt", "s", "y", "count", "pi", "w"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _trial_rows(n, seed):
    """``n`` valid rows of an ``_WIDE`` file as field lists, ids p0, p1, ..."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        y_tau, marker, measured = _KINDS[rng.choice(sorted(_KINDS))]
        rows.append([f"p{i}", str(rng.randint(0, 1)), str(y_tau), str(rng.randint(0, 1) | y_tau),
                     str(measured), _TOKENS[marker], rng.choice(["", "0.5", "-3"])])
    return rows


def _inject(row, kind, other_id):
    """Put a fault of ``kind`` into ``row``; a duplicate copies ``other_id``."""
    if kind == "width":
        row.append("9")
    elif kind == "truncated":
        row[3] += "\n"          # a short line, then a line of the rest
    elif kind == "bad_token":
        row[1] = "2"
    elif kind == "quoted_bad_token":
        row[1] = '"2"'
    elif kind == "lone_cr":
        row[2] += "\r0"
    elif kind == "bad_covariate":
        row[6] = "abc"
    elif kind == "duplicate_id":
        row[0] = other_id
    elif kind == "padded_duplicate_id":
        row[0] = f" {other_id} "
    elif kind == "not_utf8":
        row[0] += "\xe9"       # written as one latin-1 byte
    elif kind == "over_csv_limit":
        row[0] = "p" * 140_000


_FAULT_KINDS = ["width", "truncated", "bad_token", "quoted_bad_token", "lone_cr",
                "bad_covariate", "duplicate_id", "padded_duplicate_id", "not_utf8",
                "over_csv_limit"]


def _chunk_edges(rows, chunk):
    """The data rows that end one of the screen's chunks of ``chunk`` bytes, and
    their neighbours: the rows at the edges of the chunks."""
    body = io.BytesIO("".join(",".join(r) + "\n" for r in rows).encode())
    with mock.patch.object(tables, "_CHUNK", chunk):
        ends = np.cumsum([c.count(b"\n") for c in tables._chunks(body)]) - 1
    return sorted({int(k) + d for k in ends for d in (-1, 0, 1)} & set(range(len(rows))))


@st.composite
def _faulty_files(draw):
    """(n, seed, chunk, faults) for n rows read in chunks of ``chunk`` bytes: up to
    two (kind, data row, row whose id a duplicate copies), the rows drawn often at
    the edges of the chunks."""
    n, seed, chunk = draw(st.integers(1, 400)), draw(st.integers(0, 2**16)), draw(st.integers(32, 256))
    at = st.integers(0, n - 1)
    if edges := _chunk_edges(_trial_rows(n, seed), chunk):
        at |= st.sampled_from(edges)
    faults = draw(st.lists(st.tuples(st.sampled_from(_FAULT_KINDS), at, at), max_size=2))
    return n, seed, chunk, faults


@settings(max_examples=60, deadline=None)
@given(_faulty_files())
@example((600, 1, 64, [("duplicate_id", 520, 3)]))           # first copy many chunks earlier
@example((1_500, 2, 64, [("padded_duplicate_id", 1_400, 511)]))
@example((1_500, 3, 64, [("bad_covariate", 512, 0), ("width", 511, 0)]))
@example((1_200, 4, 64, [("not_utf8", 1_100, 0), ("bad_token", 600, 0)]))
@example((900, 5, 64, [("over_csv_limit", 700, 0), ("bad_token", 600, 0)]))
@example((700, 6, 64, []))
@example((300, 7, 1 << 16, [("duplicate_id", 299, 0)]))       # one chunk at the default size
@example((50, 8, 32, [("lone_cr", 10, 0), ("quoted_bad_token", 40, 0)]))
@example((50, 9, 32, [("truncated", 49, 0)]))
def test_read_cells_reports_faults_across_block_edges(tmp_path_factory, drawn):
    """Files read in chunks of 32-256 bytes, most lines shorter than a chunk and
    some longer, with faults drawn often in the lines at the chunks' edges."""
    n, seed, chunk, faults = drawn
    rows = _trial_rows(n, seed)
    for kind, k, first in faults:
        _inject(rows[k], kind, rows[first][0])
    text = _WIDE + "".join(",".join(r) + "\n" for r in rows)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("latin-1"))
    want = _cells_or_error(lambda: tables.from_records(load_csv(path)))
    with mock.patch.object(tables, "_CHUNK", chunk):
        got = _cells_or_error(lambda: tables.read_cells(path))
    if any("duplicate" not in kind or k != first for kind, k, first in faults):
        assert isinstance(want, str)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_cells(got, want)


@st.composite
def _byte_files(draw):
    """(data, slow): a valid trial CSV as UTF-8 bytes with LF, CRLF or mixed line
    ends, blank lines, padded ids, non-ASCII ids, 0-2 w_ columns and maybe no
    final newline; ``slow`` when a key token is padded or a data line got a
    quoted field or a lone CR, which the byte screen leaves to the record path."""
    ends = draw(st.sampled_from([("\n",), ("\r\n",), ("\n", "\r\n")]))    # LF, CRLF or mixed
    n_cov = draw(st.integers(0, 2))
    columns = draw(st.permutations(list(DEFAULT_SCHEMA.values()) + [f"w_{j}" for j in range(n_cov)]))
    pad = st.sampled_from(["", " ", "  "])
    key_pad = pad if draw(st.integers(0, 3)) == 0 else st.just("")   # padded key tokens
    lines = [",".join(columns)]
    rows = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(_KINDS)),
                                   st.integers(0, 1)), min_size=1, max_size=30))
    for i, (z, kind, y) in enumerate(rows):
        y_tau, marker, measured = _KINDS[kind]
        value = {"id": f"p{i}" + draw(st.sampled_from(["", "é", "日本", "ü "])), "z": z,
                 "y_tau": y_tau, "s_star": _TOKENS[marker], "y": y | y_tau, "r": measured}
        fields = [draw(st.sampled_from(["", "0.5", "-3", "1e3"])) if c.startswith("w_")
                  else draw(pad) + value[c] + draw(pad) if c == "id"
                  else draw(key_pad) + str(value[c]) + draw(key_pad) for c in columns]
        if draw(st.integers(0, 9)) == 0:
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = f'"{fields[j]}"'
        lines.append(",".join(fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")        # no final newline
    if draw(st.integers(0, 4)) == 0:        # a CR not followed by LF, after the header
        j = draw(st.sampled_from([k for k in range(len(lines[0]), len(text))
                                  if text[k] not in "\r\n"]))
        text = text[:j] + "\r" + text[j:]
    data = text.encode("utf-8")
    padded = any(len(field.strip('"')) > 1 for line in lines[1:] for c, field in
                 zip(columns, line.split(",")) if c in ("z", "y_tau", "s_star", "y", "r"))
    return data, padded or b'"' in data or data.count(b"\r") != data.count(b"\r\n")


@settings(max_examples=150, deadline=None)
@given(_byte_files(), st.integers(32, 256))
@example((b"id,z,y_tau,s_star,y,r\np0,0,1,*,1,1\n\n", False), 12)    # a last chunk of one blank line
def test_byte_screen_matches_record_path_in_small_chunks(tmp_path_factory, drawn, chunk):
    data, slow = drawn
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    want = _cells_or_error(lambda: tables.from_records(load_csv(path)))
    with mock.patch.object(tables, "_CHUNK", chunk), \
            mock.patch.object(tables, "load_csv", wraps=load_csv) as walk:
        got = _cells_or_error(lambda: tables.read_cells(path))
    assert walk.called == slow
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_cells(got, want)


def test_bench_inputs_never_take_the_record_path(tmp_path, monkeypatch):
    """The benchmark's inputs are read by the byte screen alone: an LF file drawn
    like the analyze_large CSV (about 6 chunks) and the CRLF demo CSV that
    ``write_csv`` writes."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    large, trial = tmp_path / "large.csv", tmp_path / "demo.csv"
    workloads.write_large_csv(large, 1, 20_000)
    write_csv(demo.synthetic_trial(), trial)
    assert b"\r" not in large.read_bytes() and b"\r\n" in trial.read_bytes()
    want = {path: tables.from_records(load_csv(path)) for path in (large, trial)}
    monkeypatch.setattr(tables, "load_csv", lambda *a: pytest.fail("took the record path"))
    for path, cells in want.items():
        _assert_same_cells(tables.read_cells(path), cells)


@pytest.mark.parametrize("case", ["clean", "quoted", "bad_token"])
def test_read_cells_reads_a_pipe_once(tmp_path, case):
    """A file given through a named pipe, as by ``psem diagnose <(gen)``, is
    read once and gives the cells or the error that the same regular file
    gives, through the byte screen when it is clean. The file is larger than
    a 64 KiB pipe buffer."""
    rows = _trial_rows(5_000, 11)
    rows[4_000][1] = {"clean": "1", "quoted": '"1"', "bad_token": "2"}[case]
    text = _WIDE + "".join(",".join(r) + "\n" for r in rows)
    regular, pipe = _write(tmp_path, text), tmp_path / "pipe.csv"
    want = _cells_or_error(lambda: tables.read_cells(regular))
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(_cells_or_error(
        lambda: tables.read_cells(pipe))), daemon=True)
    with mock.patch.object(tables, "load_csv", wraps=load_csv) as walk:
        reader.start()
        pipe.write_text(text, encoding="utf-8")     # opens once the reader has; closes at the end
        reader.join(30)
    assert not reader.is_alive() and len(text) > 2**16
    assert walk.called == (case != "clean")     # a clean pipe is read by the byte screen
    if case == "bad_token":
        assert got[0] == want.replace(str(regular), str(pipe))
    else:
        _assert_same_cells(got[0], want)


@pytest.mark.parametrize("case", ["screen", "quoted", "pipe", "quoted_header",
                                  "quoted_header_pipe"])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, case):
    """A file that starts with a UTF-8 byte-order mark gives the cells of the
    same file without it: through the byte screen, through the record path
    (a quoted id, or a quoted first header name right after the mark) and
    through a named pipe."""
    rows = _trial_rows(200, 5)
    if case == "quoted":
        rows[100][0] = '"p100"'
    header = '"id"' + _WIDE[2:] if case.startswith("quoted_header") else _WIDE
    text = header + "".join(",".join(r) + "\n" for r in rows)
    want = tables.read_cells(_write(tmp_path, text))
    path = tmp_path / "bom.csv"
    if case.endswith("pipe"):
        os.mkfifo(path)
        threading.Thread(target=lambda: path.write_text("\ufeff" + text, encoding="utf-8"),
                         daemon=True).start()   # opens once the reader has
    else:
        path.write_text("\ufeff" + text, encoding="utf-8")
    with mock.patch.object(tables, "load_csv", wraps=load_csv) as walk:
        got = tables.read_cells(path)
    assert walk.called == case.startswith("quoted")
    _assert_same_cells(got, want)


def test_equal_id_hashes_go_down_the_record_path(tmp_path, monkeypatch):
    """Ids are screened by key: with every key equal, distinct ids still
    give the screen's cells and a repeated id the record path's error."""
    rows = _trial_rows(1_200, 7)
    clean = _write(tmp_path, _WIDE + "".join(",".join(r) + "\n" for r in rows))
    rows[900][0] = rows[100][0]
    repeated = _write(tmp_path, _WIDE + "".join(",".join(r) + "\n" for r in rows), "rep.csv")
    want = tables.from_records(load_csv(clean))
    walks = []
    monkeypatch.setattr(tables, "load_csv", lambda *a: walks.append(1) or load_csv(*a))
    _assert_same_cells(tables.read_cells(clean), want)
    assert not walks
    monkeypatch.setattr(tables, "_id_keys", lambda chunk, f, j: np.zeros(len(f), np.uint64))
    _assert_same_cells(tables.read_cells(clean), want)
    assert walks
    assert (_error_text(lambda: tables.read_cells(repeated))
            == f"{repeated}: row 902: duplicate id 'p100'")


_ID_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                           "\x85", "\xa0", "\u2028", "\u3000", " \xa0\x0b"])


@st.composite
def _padded_ids(draw):
    """(text, ids, id column): a valid file whose ids are 0-24 byte cores, some
    with accented letters at their ends, padded with ASCII or non-ASCII
    whitespace, often repeated; LF or CRLF line ends, the id first or last."""
    accent = st.sampled_from(["", "é", "ü", "ß"])
    pool = draw(st.lists(st.builds(lambda a, core, b: a + core + b,
                                   accent, st.text("ab9-", max_size=24), accent),
                         min_size=1, max_size=12))
    ids = [draw(_ID_PAD) + draw(st.sampled_from(pool)) + draw(_ID_PAD)
           for _ in range(draw(st.integers(1, 20)))]
    last, end = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"0,0,0,1,1,{rid}" if last else f"{rid},0,0,0,1,1" for rid in ids]
    header = "z,y_tau,y,r,s_star,id" if last else HEADER.rstrip()
    return "".join(line + end for line in [header, *lines]), ids, 5 if last else 0


@settings(max_examples=200, deadline=None)
@given(_padded_ids(), st.integers(32, 256))
@example((HEADER + " \xa0p1\x1c,0,0,0,1,1\np1,0,0,0,1,1\n", [" \xa0p1\x1c", "p1"], 0), 64)
def test_id_keys_match_the_record_path(tmp_path_factory, drawn, chunk):
    """Ids are keyed by their bytes after ``str.strip``: padded, non-ASCII and
    whitespace-only ids give the record path's cells, or its error for a padded
    duplicate, and stripped ids of up to 8 bytes never share a key."""
    text, ids, j = drawn
    path = _write(tmp_path_factory.mktemp("csv"), text)
    want = _cells_or_error(lambda: tables.from_records(load_csv(path)))
    with mock.patch.object(tables, "_CHUNK", chunk), \
            mock.patch.object(tables, "load_csv", wraps=load_csv) as walk:
        got = _cells_or_error(lambda: tables.read_cells(path))
    stripped = [rid.strip() for rid in ids]
    assert walk.called == (len(set(stripped)) < len(stripped))
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_cells(got, want)
    body = text.encode()[text.encode().index(b"\n") + 1:]
    f = tables._fields(np.frombuffer(body, np.uint8), 6, 1 << 17)[0]
    keys = tables._id_keys(body, f, j).tolist()
    for (s, k), (t, m) in itertools.combinations(zip(stripped, keys), 2):
        if s == t or max(len(s.encode()), len(t.encode())) <= 8:
            assert (k == m) == (s == t), (s, t)


def _split_fields(data, width, limit):
    """``_fields``'s ``(bounds, sizes)`` as lists, line by line, or None."""
    if data.count(b"\r") != data.count(b"\r\n"):
        return None
    bounds, sizes, start = [], [], 0
    for raw in data.split(b"\n")[:-1]:
        if line := raw.removesuffix(b"\r"):
            fields = line.split(b",")
            if len(fields) != width or max(map(len, fields)) > limit:
                return None
            bounds.append(list(itertools.accumulate((len(x) + 1 for x in fields), initial=start - 1)))
            sizes.append([len(x) for x in fields])
        start += len(raw) + 1
    return bounds, sizes


@st.composite
def _field_lines(draw):
    """(data, width, limit): lines of 0-10 byte fields, most with ``width`` of
    them, blank lines among them, each ended by LF, CRLF or a lone CR (an LF
    is added at the end if missing), with a ``limit`` of 1-8 bytes."""
    width, limit = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    field = st.text("aé", max_size=5)
    data = ""
    for _ in range(draw(st.integers(0, 12))):
        count = draw(st.sampled_from([width] * 4 + [max(width - 1, 1), width + 1, 0]))
        data += ",".join(draw(field) for _ in range(count)) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (data if data.endswith("\n") else data + "\n").encode(), width, limit


@settings(max_examples=300, deadline=None)
@given(_field_lines())
@example((b"a,b\n\nab,\r\n", 2, 2))
@example((b"a,,b\nab\n", 2, 8))        # right comma total, wrong count per line
def test_fields_match_a_per_line_split(drawn):
    """``_fields`` checks the comma total and that every field size is >= 0,
    which is each line's own comma count, and gives a per-line split's bounds
    and sizes."""
    data, width, limit = drawn
    want = _split_fields(data, width, limit)
    got = tables._fields(np.frombuffer(data, np.uint8), width, limit)
    if want is None:
        assert got is None
    else:
        assert got is not None and [x.tolist() for x in got] == list(want)


def _documented_key(rid):
    """README's id key: the bytes of an id up to 8 bytes, zero-padded; else
    its 8-byte words w_0 .. w_{m-1}, folded as sum w_i _FOLD^(m-1-i) mod 2^64."""
    data = rid.encode()
    words = [int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8)]
    return sum(w * int(tables._FOLD) ** (len(words) - 1 - i)
               for i, w in enumerate(words)) % 2**64


@pytest.mark.parametrize("last", [False, True])
def test_id_keys_follow_their_definition(last):
    """Stripped ids of 0, 1, 8, 9, 16, 17 and 40 bytes, ASCII and UTF-8, some
    padded, keyed in one chunk, the id first or last on its line."""
    ids = ["a" * n for n in (0, 1, 8, 9, 16, 17, 40)]
    ids += ["é" * (n // 2) + "b" * (n % 2) for n in (1, 8, 9, 16, 17, 40)]
    ids += ["日本" + "x" * (n - 6) for n in (8, 9, 16, 17, 40)]
    padded = [(" " if k % 3 == 1 else "") + rid + ("\u3000" if k % 3 == 2 else "")
              for k, rid in enumerate(ids)]
    body = "".join(f"0,0,0,1,1,{rid}\n" if last else f"{rid},0,0,0,1,1\n"
                   for rid in padded).encode()
    f, _ = tables._fields(np.frombuffer(body, np.uint8), 6, 1 << 17)
    keys = tables._id_keys(body, f, 5 if last else 0).tolist()
    assert {len(rid.encode()) for rid in ids} == {0, 1, 8, 9, 16, 17, 40}
    assert keys == [_documented_key(rid) for rid in ids]


def test_read_cells_memory_does_not_grow_with_the_ids(tmp_path):
    """Before the block screen, a set of every id string made the peak about
    21.6 MB at 200k rows (about 11 MB at 100k)."""
    path = _write(tmp_path, "id,z,y_tau,s_star,y,r\n" + "".join(
        f"participant-{i:09d},{i % 2},0,{i % 3 % 2},{i % 5 % 2},1\n" for i in range(100_000)))
    tracemalloc.start()
    try:
        cells = tables.read_cells(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.n == 100_000
    assert peak < 6e6
