"""The README's Python examples run as written."""

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
