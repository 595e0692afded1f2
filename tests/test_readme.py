"""The README's Python examples run as written, and the attributes it names exist."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import psem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    _, observed = psem.generate(psem.GeneratorConfig(
        design="B", n=2000, a=0.3, b=0.5, nu=0.25, seed=1))
    psem.write_csv(observed, tmp_path / "trial.csv")
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def psem_owners() -> dict:
    """The package, its modules and the classes they define, by name."""
    owners = {"psem": psem}
    for info in pkgutil.iter_modules(psem.__path__):
        owners[info.name] = module = importlib.import_module(f"psem.{info.name}")
        owners.update((name, cls) for name, cls in vars(module).items()
                      if inspect.isclass(cls) and cls.__module__.startswith("psem."))
    return owners


def test_readme_attribute_references_resolve():
    # `Owner.attr` where Owner is a psem module or class; a function owner
    # (`intervals.csv`) or any other name (`np.equal`) is not checked
    owners = psem_owners()
    refs = set(re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    checked = [(o, a) for o, a in sorted(refs) if o in owners]
    missing = [f"{o}.{a}" for o, a in checked if not hasattr(owners[o], a) and not (
        dataclasses.is_dataclass(owners[o])
        and a in {f.name for f in dataclasses.fields(owners[o])})]
    assert len(checked) >= 15     # the scan finds the references
    assert missing == []


def test_readme_batching_numbers_match_the_code():
    # the study block, covariance stack and sweep pass bounds that README quotes
    from psem import core, sensitivity, simulate
    text = " ".join(README.read_text(encoding="utf-8").split())     # lines joined

    def quoted(pattern):
        return [int(g.replace(",", "")) for g in re.search(pattern, text).groups()]

    block, per_point, grid = quoted(r"blocks of (\d+), or of (\d+) × (\d+) / G")
    assert (block, per_point * grid) == (simulate.BLOCK, simulate.BLOCK_POINTS)
    assert quoted(r"more than ([\d,]+) \(replicate, point\) pairs") == [simulate.BLOCK_POINTS]
    assert quoted(r"at most (\d+) fits \(`core\.FIT_CHUNK`\)") == [core.FIT_CHUNK]
    assert quoted(r"`MAX_GRID_CELLS` \(([\d,]+)\)") == [sensitivity.MAX_GRID_CELLS]
