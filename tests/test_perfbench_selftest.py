"""The benchmark's own self-test: tiny workloads through ``perfbench/run.py``
and its scan gate, which forces ``ssm._SCAN_VECTOR_BUDGET`` to both extremes.
A change to the scan's signature or budget constant that breaks the
benchmark fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # the tests' warning rule (pyproject.toml) does not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: ok" in proc.stdout
