"""Compare the CLI output of this tree and a parent tree on one command list.

    python3 tools/diff_outputs.py --parent REV|DIR

Run it from the root of a source checkout. Both trees are imported in one
interpreter, as tools/ab_inprocess.py does it (--parent is a git revision
or the root of another checkout), and every command of the list below runs
once in process on each. A command's outcome is its exit code, its stdout
with the timings dropped, and its stderr. The tool prints "outputs equal"
and exits 0, or lists the first commands whose outcomes differ and exits 1.

The list:
  - `run`, `run --json` and `validate` of each shipped scenario, under each
    flag set of FLAG_SETS;
  - `prove`, text and --json, of every prove query of a shipped scenario;
  - `tables`, text and --json, of every agent's and action's maps named in
    a shipped scenario (an error where the scenario has no model);
  - `run --json` and `validate --non-paranoid` of every scenario that
    perfbench/run.py's `build_ops` generates for SEEDS of each in-process
    workload;
  - `run`, `run --json` and `validate` of every parse, resolution and build
    error repro in tests/error_repros.json, and of MUTATIONS one-byte
    mutations of each shipped scenario (a byte deleted, inserted or
    replaced, drawn from MUTATION_BYTES by a generator seeded per scenario).
Shipped scenarios run from their directory, by file name.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from ab_inprocess import IN_PROCESS, ROOT, load_package, parent_source

SHIPPED = ROOT / "src" / "adjointkit" / "scenarios"
FLAG_SETS = ([], ["--non-paranoid"], ["--strict-facts"], ["--full-lattice-axioms"],
             ["--word-bound", "1"], ["--word-bound", "10"])
SEEDS = (5, 7)
REPROS = ROOT / "tests" / "error_repros.json"
MUTATIONS = 50
# the grammar's characters, whitespace and a comment sign; no digit, so no
# mutation raises a proof depth
MUTATION_BYTES = "abfiKCH()[]~\\/|=-<>:,#_' \n"
MAX_LISTED = 5

TIMINGS = re.compile(r'(?m)"timings": \{[^{}]*\}|^  timings: .*$')


def command_list(workdir: Path) -> list[list[str]]:
    """Every command, as argv; the generated scenarios are written to workdir."""
    import run as perfbench

    commands = []
    for path in sorted(SHIPPED.glob("*.scn")):
        name, text = path.name, path.read_text(encoding="utf-8")
        for flags in FLAG_SETS:
            commands += [["run", name, *flags], ["run", name, "--json", *flags],
                         ["validate", name, *flags]]
        for qid in re.findall(r"(?m)^query (\S+) prove ", text):
            commands += [["prove", name, qid], ["prove", name, qid, "--json"]]
        maps = [f"{head}[{who}]" for who in re.findall(r"(?m)^agent (\S+)", text)
                for head in ("f", "fi")]
        maps += [f"{head}[{a}]" for a in re.findall(r"(?m)^action (\S+)", text)
                 for head in ("upd", "after")]
        for m in maps:
            commands += [["tables", name, m], ["tables", name, m, "--json"]]
    checks = [(r["id"], "\n".join(r["lines"]) + "\n")
              for r in json.loads(REPROS.read_text(encoding="utf-8"))]
    for path in sorted(SHIPPED.glob("*.scn")):
        checks += [(f"{path.stem}-{k}", text) for k, text in
                   enumerate(mutations(path.read_text(encoding="utf-8"), path.name))]
    check_dir = workdir / "checks"
    check_dir.mkdir()
    for name, text in checks:
        path = check_dir / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        commands += [["run", str(path)], ["run", str(path), "--json"], ["validate", str(path)]]
    for workload in IN_PROCESS:
        for seed in SEEDS:
            seed_dir = workdir / f"{workload}-{seed}"
            seed_dir.mkdir()
            for op in perfbench.build_ops(workload, seed, seed_dir):
                path = op.argv[1]
                commands += [["run", path, "--json"], ["validate", path, "--non-paranoid"]]
    return commands


def mutations(text: str, seed: str) -> list[str]:
    """MUTATIONS copies of text, each with one byte deleted, inserted or
    replaced."""
    rng = random.Random(seed)
    out = []
    for _ in range(MUTATIONS):
        at, byte = rng.randrange(len(text)), rng.choice(MUTATION_BYTES)
        head, tail = text[:at], text[at:]
        out.append(rng.choice((head + tail[1:], head + byte + tail, head + byte + tail[1:])))
    return out


def outcome(cli, argv):
    """(exit code, stdout without timings, stderr) of one in-process call;
    an exception that escapes main counts as its own outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return code, TIMINGS.sub("timings elided", out.getvalue()), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision or checkout root")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        change = importlib.import_module("adjointkit.cli")
        if Path(change.__file__).resolve().parent != (ROOT / "src" / "adjointkit").resolve():
            raise SystemExit(f"imported adjointkit from {change.__file__}, not {ROOT / 'src'}")
        parent = load_package("adjointkit_parent", parent_source(args.parent, tmp / "parent"))
        commands = command_list(tmp)
        cwd = os.getcwd()
        os.chdir(SHIPPED)
        try:
            differ = []
            for argv in commands:
                ours, theirs = outcome(change, argv), outcome(parent, argv)
                if ours != theirs:
                    parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                        ours, theirs) if a != b]
                    differ.append((argv, parts))
        finally:
            os.chdir(cwd)
    if not differ:
        print(f"{len(commands)} commands, outputs equal")
        return 0
    print(f"{len(commands)} commands, outputs differ on {len(differ)}; the first:")
    for argv, parts in differ[:MAX_LISTED]:
        print(f"  {' '.join(argv)}: {', '.join(parts)} differ")
    return 1


if __name__ == "__main__":
    sys.exit(main())
