"""Every walkthrough in demos/ runs to completion (the timing-only benchmark
demo, 06, is left to the benchmark)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
