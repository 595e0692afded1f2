"""The benchmark tracer wraps psem functions by (module, attribute) name;
a rename or an unbound import would break traced runs silently."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
WRAPPED = _tracer.WRAPPED


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in WRAPPED],
                         ids=[f"{m}.{a}" for m, a, *_ in WRAPPED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_notes_read_a_real_analysis(tmp_path, worked_blocks):
    """A traced ``psem analyze`` yields the layer metrics that read the sweep
    and interval results, and restoring puts every original back."""
    from psem.cli import main
    from psem.records import write_csv

    from conftest import make_records

    data, out = tmp_path / "worked.csv", tmp_path / "out"
    write_csv(make_records(worked_blocks), data)
    cfg = tmp_path / "analysis.ini"
    cfg.write_text(f"[data]\npath = {data}\n[scenario]\nname = B\n"
                   f"[sensitivity]\nscales = 0, 0.5\ngrid_points = 3\n"
                   f"[output]\ndir = {out}\n", encoding="utf-8")
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in WRAPPED}
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert tracer.run("cli.analyze", main, ["analyze", "--config", str(cfg)]) == 0
    finally:
        tracer.restore()
    metrics = _tracer.layer_metrics(tracer.spans, tracer.op)
    # analyze sweeps its regions together through sensitivity.sweeps, which the
    # tracer does not wrap: it sees no psem.cli.sweep call, so the count reads 0
    # (test_cli's test_analyze_sweeps_its_regions_in_one_point_pass counts its 1 + 3 points)
    assert metrics["sensitivity.sweep.cells"] == 0
    # the sweep fits its extremes through fit_ceps, which the tracer does not
    # wrap: it sees no sweep covariance fit, so the share reads 0
    assert metrics["sensitivity.cov_fit_useful_share"] == 0
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
