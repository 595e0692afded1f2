"""Every name a psem module imports is read in that module. The one exception
is a binding that ``bench/tracer.py`` patches in the module's namespace: its
import line carries ``# noqa: F401`` and the tracer's ``WRAPPED`` names it."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "psem").glob("*.py") if p.name != "__init__.py")

_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)


def unused_imports(path: Path) -> list[tuple[str, bool]]:
    """(name, noqa) of each name that ``path`` imports and never reads; noqa
    is whether the import statement's lines carry ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                out.append((name, noqa))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_read_or_kept_for_the_tracer(path):
    wrapped = {attr for module, attr, *_ in _tracer.WRAPPED if module == f"psem.{path.stem}"}
    unused = unused_imports(path)
    assert [name for name, noqa in unused if not noqa] == []
    assert [name for name, _ in unused if name not in wrapped] == []


def test_the_unread_imports_are_the_tracer_bindings():
    """The bindings kept only for the tracer, all of them: what goes once the
    benchmark reads spans that psem records itself."""
    kept = {f"{p.stem}.{name}" for p in MODULES for name, _ in unused_imports(p)}
    assert kept == {"cli.cep", "cli.fit_scenario", "cli.load_csv", "cli.interval_for",
                    "cli.sweep", "sensitivity.cep", "sensitivity.fit_scenario",
                    "simulate.cep", "simulate.fit_scenario", "simulate.eui"}
