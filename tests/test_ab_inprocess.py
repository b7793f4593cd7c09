"""Smoke test of tools/ab_inprocess.py: one round of the working tree against
itself on every in-process workload."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_inprocess_runs_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--parent", str(ROOT),
         "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" seed ")[0] for line in lines] == [
        "epistemic-256", "dynamic-words", "prove-nested"]
    for line in lines:
        m = re.search(r": (\d+) ops, outputs equal; median per-op ratio \d+\.\d{3}, "
                      r"change faster on (\d+) of (\d+); per-op medians \d+\.\d{2} ms change, "
                      r"\d+\.\d{2} ms parent; p90 of per-op medians \d+\.\d{2} ms change, "
                      r"\d+\.\d{2} ms parent$", line)
        assert m and int(m[1]) > 0 and int(m[3]) == int(m[1]) and int(m[2]) <= int(m[1]), line
