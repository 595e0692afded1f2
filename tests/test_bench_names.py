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
