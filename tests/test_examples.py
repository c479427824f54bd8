"""Every script under ``examples/`` runs from a clean directory and prints
what it exists to show."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Each example's output must show a detection verdict, or, for the
#: overhead study, the geomean row of its overhead table.
DETECTS = ("buffer_overflow_bounds.py", "custom_allocator_instrumentation.py",
           "quickstart.py", "use_after_free_attack.py")
TABLES = ("spec_overhead_study.py",)


@pytest.mark.parametrize(
    "name", sorted(path.name for path in (ROOT / "examples").glob("*.py")))
def test_example_runs_and_reports(name, tmp_path):
    assert name in DETECTS + TABLES, f"{name}: no expected output declared"
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if name in DETECTS:
        assert "DETECT" in done.stdout, done.stdout
    else:
        assert any(line.startswith("geo.mean")
                   for line in done.stdout.splitlines()), done.stdout
