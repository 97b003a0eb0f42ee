"""Every script under demos/ runs to completion against the library.

Each one is copied into its own temporary directory first, since demo 04
writes its plot next to the script, and run as a fresh process with the
source tree on the import path.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(copy)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
