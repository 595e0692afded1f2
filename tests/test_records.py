import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psem import tables
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
