"""Every demo script runs to completion."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, ROOT / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(run_python, demo):
    proc = run_python(str(demo), cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
