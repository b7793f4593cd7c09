"""Smoke test of tools/ab_inprocess.py: one round of the working tree against
itself on every in-process workload, and its comparison of outputs."""

from __future__ import annotations

import json
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


def test_outputs_are_compared_byte_for_byte():
    # timings may differ; any other byte is a different output, also where
    # the JSON parses to the same value, as a drift of the --json writer would
    if str(ROOT / "tools") not in sys.path:
        sys.path.append(str(ROOT / "tools"))
    from ab_inprocess import comparable

    report = {"verdicts": [], "exit_code": 0, "timings": {"parse": 0.001}}
    out = json.dumps(report, indent=2, sort_keys=True) + "\n"
    retimed = json.dumps({**report, "timings": {"parse": 0.25}}, indent=2, sort_keys=True) + "\n"
    assert comparable(0, out) == comparable(0, retimed)
    assert comparable(0, out) != comparable(1, out)
    for drift in (json.dumps(report, indent=1, sort_keys=True) + "\n",
                  json.dumps(report, indent=2) + "\n", out.rstrip("\n")):
        assert json.loads(drift) == report
        assert comparable(0, out) != comparable(0, drift)
