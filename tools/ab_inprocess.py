"""Same-process A/B timing of the in-process benchmark workloads.

    python3 tools/ab_inprocess.py --parent REV|DIR [--workload W ...]
                                  [--seed N ...] [--rounds R]

Run it from the root of a source checkout. It imports the checkout's
`src/adjointkit` as `adjointkit`, and the parent tree's as the package
`adjointkit_parent` in the same interpreter; nothing in `src/` imports
`adjointkit` by absolute name, so each copy imports only its own modules.
--parent is a git revision, extracted with `git archive` into a temporary
directory, or the root of another checkout.

For each workload and seed it builds the ops with perfbench/run.py's
`build_ops`, runs each op once on both sides as a warm-up, then R rounds of
every op on both sides, the side that goes first alternating from op to op
and round to round. It checks that both sides return the same exit code and
the same stdout, byte for byte once the timings are elided by
tools/diff_outputs.py's TIMINGS pattern, and prints the median
over the ops of each op's ratio of median times (change / parent), the
number of ops on which the change was faster, and each side's median and
90th percentile (nearest rank, as perfbench/run.py takes it) of the per-op
median times. A ratio below 1 favours the change. The median ratio follows
the most common kind of op; the 90th percentile shows a slow minority,
such as the explicit-order ops of epistemic-256, one op in four. Both sides share the host's drift, so a ratio is steadier than two
separate benchmark runs; it is still a measurement of this host only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("epistemic-256", "dynamic-words", "prove-nested")


def load_package(name: str, src: Path):
    """Import the adjointkit package under src as the top-level package name."""
    init = src / "adjointkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def parent_source(parent: str, scratch: Path) -> Path:
    """The src/ directory of the parent: a checkout root, or a git revision
    extracted into scratch."""
    if Path(parent).is_dir():
        return Path(parent).resolve() / "src"
    archive = subprocess.run(["git", "archive", "--format=tar", parent, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch / "src"


def run_op(cli, argv):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue()


def comparable(code, out):
    """An op's exit code and stdout with the timings elided."""
    from diff_outputs import TIMINGS  # diff_outputs imports this module

    return code, TIMINGS.sub("timings elided", out)


def compare(change, parent, ops, rounds):
    """Per-op (change median, parent median), after checking the outputs."""
    for op in ops:
        _, code, out = run_op(change, op.argv)
        _, parent_code, parent_out = run_op(parent, op.argv)
        if comparable(code, out) != comparable(parent_code, parent_out):
            raise SystemExit(f"outputs differ on {op.name}: {' '.join(op.argv)}")
    times = [([], []) for _ in ops]
    for r in range(rounds):
        for i, op in enumerate(ops):
            sides = ((change, times[i][0]), (parent, times[i][1]))
            for cli, acc in sides if (r + i) % 2 == 0 else reversed(sides):
                acc.append(run_op(cli, op.argv)[0])
    return [(statistics.median(c), statistics.median(p)) for c, p in times]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision or checkout root")
    ap.add_argument("--workload", nargs="+", choices=IN_PROCESS, default=list(IN_PROCESS))
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import run as perfbench

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        change = importlib.import_module("adjointkit.cli")
        if Path(change.__file__).resolve().parent != (ROOT / "src" / "adjointkit").resolve():
            raise SystemExit(f"imported adjointkit from {change.__file__}, not {ROOT / 'src'}")
        parent = load_package("adjointkit_parent", parent_source(args.parent, tmp / "parent"))
        for workload in args.workload:
            for seed in args.seed:
                workdir = tmp / f"{workload}-{seed}"
                workdir.mkdir()
                ops = perfbench.build_ops(workload, seed, workdir)
                medians = compare(change, parent, ops, args.rounds)
                ratios = [c / p for c, p in medians]
                won = sum(r < 1 for r in ratios)
                ours, theirs = [c for c, _ in medians], [p for _, p in medians]
                print(f"{workload} seed {seed}: {len(ops)} ops, outputs equal; "
                      f"median per-op ratio {statistics.median(ratios):.3f}, "
                      f"change faster on {won} of {len(ops)}; per-op medians "
                      f"{1000 * statistics.median(ours):.2f} ms change, "
                      f"{1000 * statistics.median(theirs):.2f} ms parent; p90 of per-op medians "
                      f"{1000 * perfbench.percentile(ours, 0.9):.2f} ms change, "
                      f"{1000 * perfbench.percentile(theirs, 0.9):.2f} ms parent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
