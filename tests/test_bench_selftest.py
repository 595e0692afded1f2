"""The benchmark's self-test passes: every workload runs at tiny sizes and its
outputs pass the benchmark's own checks."""
import subprocess
import sys
from pathlib import Path


def test_bench_selftest_passes():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout
