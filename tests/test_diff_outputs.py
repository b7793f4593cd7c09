"""Smoke test of tools/diff_outputs.py: the working tree against itself."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_diff_outputs_runs_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diff_outputs.py"), "--parent", str(ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    m = re.fullmatch(r"(\d+) commands, outputs equal\n", proc.stdout)
    assert m and int(m[1]) > 500, proc.stdout
