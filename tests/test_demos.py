"""Smoke test: every narrative demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script, tmp_path, child_env):
    # a temporary working directory: cone_gallery.py writes its SVG there
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
