"""Every name a psem module imports is read in that module. The one exception
is a binding that ``bench/tracer.py`` patches in the module's namespace: its
import line carries ``# noqa: F401`` and the tracer's ``WRAPPED`` names it.
Every local name a psem function assigns is read, by it or by a function
nested in it, unless the name starts with "_"."""
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dead_locals(path: Path) -> list[str]:
    """"function.name" of each local that a function of ``path`` assigns in its
    own body (nested functions and classes have theirs) and that neither it
    nor a function nested in it reads; names starting with "_" are exempt."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        stored = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Nonlocal):
                read.update(node.names)
        out += [f"{fn.name}.{name}" for name in sorted(stored - read) if not name.startswith("_")]
    return out


@pytest.mark.parametrize("path", MODULES + [ROOT / "src" / "psem" / "__init__.py"],
                         ids=[p.stem for p in MODULES] + ["__init__"])
def test_every_assigned_local_is_read(path):
    assert dead_locals(path) == []
