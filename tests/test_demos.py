"""Smoke test: each quick demo script runs to completion.

05_plasma_and_charpoly.py (about 17 s) is left out for its run time;
01-04 and 06 take about 7 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(ROOT.glob("demos/0[1-46]_*.py"))


@pytest.mark.parametrize("script", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
