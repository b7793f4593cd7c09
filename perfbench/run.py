"""adjoint-kit benchmark: four workloads, oracle-checked, with a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/`. Workloads (all closed loops with one client, ops one at a time):

  cli-shipped    a fresh `python -m adjointkit.cli` process per op, on the
                 shipped scenarios; the seed only orders the commands
  epistemic-256  in-process `run` on generated static models: 8-world
                 powersets and, one in four, a product of two 12-chains
  dynamic-words  in-process `run` on generated product-update models,
                 with a validate-axioms query
  prove-nested   in-process `run` on generated symbolic scenarios whose
                 prove goals are read off a product-update model

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Every verdict is checked against the oracle (`oracle.py`) or, for the
shipped scenarios, the expected table below. See README.md for the notes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = SRC / "adjointkit" / "scenarios"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cli-shipped", "epistemic-256", "dynamic-words", "prove-nested")
MIN_OPS = 100          # so that ten ops lie beyond p90
MAX_STRETCH = 1.35     # a run may outlast --seconds only to reach MIN_OPS
OP_LIMIT_S = 20.0      # per-op time limit; an op over it fails
SETUP_REPEATS = 3
INTERPRETER_RUNS = 5

# Expected results of the shipped commands, written by hand: exit code and
# the verdict ids, each of which must come back ok.
SHIPPED_RUNS = {
    "broken-miracle.scn": (2, ()),
    "coin-honest.scn": (0, ("q1", "q2", "q3", "e1", "e2", "e3",
                            "q4", "q5", "q6", "p1", "p2", "p3", "ax")),
    "coin-lying-model.scn": (0, ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "ax")),
    "coin-lying.scn": (0, ("q1", "q2", "q3")),
    "muddy-3-lying.scn": (0, ("L1", "L2", "L3", "L4", "L5", "ax")),
    "muddy-3.scn": (0, ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "val", "ax")),
}
MUDDY_VAL = "{w011,w111}"   # K[C1](m2 /\ m3) on muddy-3
MANDATORY_AXIOMS = (
    "no-miracle", "fact-stability-forward", "adjunctions", "kernel[a]", "kernel[abar]",
    "compose-associative", "unit-law", "compose-distributes-over-union",
    "act-unit", "act-join-law", "act-composition", "lifted-no-miracle",
)
ORACLE_SELF_CHECK = ("muddy-3.scn", "muddy-3-lying.scn", "coin-lying-model.scn")


class OpTimeout(BaseException):
    """Raised by the alarm when an in-process op runs over OP_LIMIT_S."""


@dataclass
class Op:
    name: str
    argv: list
    check: object   # (exit code, stdout) -> (error or None, goals, proved)


# -- checks -------------------------------------------------------------------

def _check_shipped_run(scn):
    want_code, want_ids = SHIPPED_RUNS[scn]

    def check(code, out):
        report = json.loads(out)
        ids = tuple(v["id"] for v in report["verdicts"])
        if code != want_code or report["exit_code"] != want_code:
            return f"exit {code}, expected {want_code}", 0, 0
        if ids != want_ids:
            return f"verdicts {ids}, expected {want_ids}", 0, 0
        bad = [v["id"] for v in report["verdicts"] if not v["ok"]]
        if bad:
            return f"verdicts not ok: {bad}", 0, 0
        if scn == "broken-miracle.scn" and not report["build_error"].startswith("NoMiracleViolation"):
            return "expected a no-miracle build error", 0, 0
        if scn == "muddy-3.scn":
            val = next(v for v in report["verdicts"] if v["id"] == "val")
            if val["element"] != MUDDY_VAL:
                return f"val = {val['element']}, expected {MUDDY_VAL}", 0, 0
        goals = [v for v in report["verdicts"] if v["kind"] == "prove"]
        return None, len(goals), len(goals)
    return check


def _check_shipped_prove(code, out):
    if code != 0 or "query q3 [prove]: ok -- proved" not in out:
        return f"exit {code}; q3 not proved", 1, 0
    return None, 1, 1


def _check_shipped_validate(code, out):
    status = {}
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("axiom ") and "(optional)" not in line:
            name, rest = line[len("axiom "):].split(": ", 1)
            status[name] = rest.split(" ")[0]
    want = {name: "ok" for name in MANDATORY_AXIOMS}
    for agent in "ABC":
        for law in ("lift-join-preserving", "unit-inclusion", "compose-lax"):
            want[f"{law}[{agent}]"] = "ok"
    if code != 0 or status != want:
        return f"exit {code}; mandatory axioms {status}", 0, 0
    return None, 0, 0


def _check_case(case):
    def check(code, out):
        report = json.loads(out)
        verdicts = {v["id"]: v for v in report["verdicts"]}
        want = sorted([*case.checks, *case.axioms, *case.goals])
        if sorted(verdicts) != want:
            return f"verdict ids {sorted(verdicts)}, expected {want}", 0, 0
        for qid, expect in case.checks.items():
            v = verdicts[qid]
            got = v["detail"].rsplit(": ", 1)[-1].split(" ")[0]
            if got != expect or not v["ok"]:
                return f"{case.name} {qid}: program says {got}, oracle says {expect}", 0, 0
        for qid, expect in case.axioms.items():
            if verdicts[qid]["ok"] != expect:
                return f"{case.name} {qid}: axioms {verdicts[qid]['detail']}", 0, 0
        proved = 0
        for qid, (lhs, rhs, _) in case.goals.items():
            v = verdicts[qid]
            if v["ok"]:
                if not case.model.entails(lhs, rhs):
                    return f"{case.name} {qid}: proved, but false in the model", 0, 0
                proved += 1
            elif not v["detail"].startswith("not proved"):
                return f"{case.name} {qid}: {v['detail']}", 0, 0
        want_code = 0 if all(v["ok"] for v in verdicts.values()) else 1
        if code != want_code or report["exit_code"] != want_code:
            # exit 2 on a generated scenario: a generator bug or a program defect
            return f"{case.name}: exit {code}, expected {want_code}", 0, 0
        return None, len(case.goals), proved
    return check


# -- workloads ------------------------------------------------------------------

def _write_cases(cases, workdir):
    ops = []
    for case in cases:
        path = workdir / f"{case.name}.scn"
        path.write_text(case.text, encoding="utf-8")
        ops.append(Op(case.name, ["run", str(path), "--json"], _check_case(case)))
    return ops


def build_ops(workload, seed, workdir):
    rng = random.Random(seed)
    if workload == "cli-shipped":
        ops = [Op(f"run {scn}", ["run", "--json", scn], _check_shipped_run(scn))
               for scn in SHIPPED_RUNS]
        ops.append(Op("prove q3", ["prove", "coin-lying.scn", "q3", "--no-kernel-shortcut"],
                      _check_shipped_prove))
        ops.append(Op("validate", ["validate", "coin-lying-model.scn"], _check_shipped_validate))
        rng.shuffle(ops)
        return ops
    cases = {"epistemic-256": gen.epistemic_cases, "dynamic-words": gen.dynamic_cases,
             "prove-nested": gen.prove_cases}[workload](rng)
    return _write_cases(cases, workdir)


# -- running ops ------------------------------------------------------------------

def _alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs ops in this process (cli.main) or as CLI child processes."""

    def __init__(self, workload):
        self.subprocess = workload == "cli-shipped"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.import_s = 0.0
        if not self.subprocess:
            t0 = time.perf_counter()
            import adjointkit.cli as cli
            self.import_s = time.perf_counter() - t0
            if Path(cli.__file__).resolve().parent != (SRC / "adjointkit").resolve():
                raise RuntimeError(f"imported adjointkit from {cli.__file__}, not {SRC}")
            self.cli = cli
            signal.signal(signal.SIGALRM, _alarm)

    def run(self, op, trace_out=None):
        """(seconds, exit code or None, stdout, error or None)"""
        if self.subprocess:
            return self._run_child(op, trace_out)
        buf = io.StringIO()
        code, err = None, None
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op.argv)
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            seconds, err = time.perf_counter() - t0, f"over the {OP_LIMIT_S} s limit"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds, err = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
            signal.setitimer(signal.ITIMER_REAL, 0)
        return seconds, code, buf.getvalue(), err

    def _run_child(self, op, trace_out):
        if trace_out is None:
            cmd = [sys.executable, "-m", "adjointkit.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *op.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=SHIPPED, env=self.env, capture_output=True,
                                  text=True, timeout=OP_LIMIT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, "", f"over the {OP_LIMIT_S} s limit"
        seconds = time.perf_counter() - t0
        err = None if proc.returncode in (0, 1, 2) else proc.stderr.strip()[-300:]
        return seconds, proc.returncode, proc.stdout, err


def verify(op, code, out, err):
    """(error or None, goals attempted, goals proved)"""
    if err is not None:
        return f"{op.name}: {err}", 0, 0
    try:
        return op.check(code, out)
    except (ValueError, KeyError, StopIteration) as exc:
        return f"{op.name}: unreadable output ({type(exc).__name__}: {exc})", 0, 0


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.goals = self.proved = 0
        self.errors = []

    def add(self, op, code, out, err):
        error, goals, proved = verify(op, code, out, err)
        self.attempted += 1
        self.goals += goals
        self.proved += proved
        if error is not None:
            self.failed += 1
            self.errors.append(error)


# -- set-up ---------------------------------------------------------------------

def setup(workload, seed, workdir):
    """Imports, oracle self-check, input generation and one warm-up op.
    Returns (runner, ops, seconds taken)."""
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload)
    oracle.self_check([SHIPPED / name for name in ORACLE_SELF_CHECK])
    ops = build_ops(workload, seed, workdir)
    seconds, code, out, err = runner.run(ops[0])
    error, _, _ = verify(ops[0], code, out, err)
    if error is not None:
        print(f"warm-up op failed: {error}", file=sys.stderr)
    return runner, ops, time.perf_counter() - start


def probe_setup(workload, seed):
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- the untraced run: end-to-end metrics ----------------------------------------

def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(runner, ops, seconds):
    tally, latencies = Tally(), []
    start = time.perf_counter()
    deadline, cap = start + seconds, start + seconds * MAX_STRETCH
    while True:
        now = time.perf_counter()
        if now >= cap or (now >= deadline and len(latencies) >= MIN_OPS):
            break
        op = ops[len(latencies) % len(ops)]
        elapsed, code, out, err = runner.run(op)
        latencies.append(elapsed)
        tally.add(op, code, out, err)
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if runner.subprocess else resource.RUSAGE_SELF
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "throughput_ops_per_s": (len(latencies) / wall, "1/s"),
        "proved_ratio": (tally.proved / tally.goals if tally.goals else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "samples": (len(latencies), "count"),
        "samples_beyond_p90": (len(latencies) - math.ceil(0.9 * len(latencies)), "count"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "goals_attempted": (tally.goals, "count"),
    }
    return tally, metrics, extra


# -- the traced run: per-layer metrics ---------------------------------------------

SELF_TIME_METRICS = {
    "cli.main_s": "cli.main",
    "scenario.parse_s": "scenario.parse",
    "scenario.instantiate_s": "scenario.instantiate",
    "lattice.build_s": "lattice.build",
    "maps.generators_s": "maps.generators",
    "maps.right_adjoint_s": "maps.right_adjoint",
    "maps.verify_adjunction_s": "maps.verify_adjunction",
    "maps.fixpoint_s": "maps.fixpoint",
    "epistemic.build_mama_s": "epistemic.build_mama",
    "epistemic.coclosure_s": "epistemic.coclosure",
    "dynamics.build_s": "dynamics.build",
    "dynamics.no_miracle_s": "dynamics.no_miracle",
    "dynamics.fact_stability_s": "dynamics.fact_stability",
    "dynamics.kernel_s": "dynamics.kernel",
    "quantale.view_build_s": "quantale.view_build",
    "quantale.system_check_s": "quantale.system_check",
    "quantale.laws_s": "quantale.laws",
    "semantics.eval_s": "semantics.eval",
    "derivation.prove_s": "derivation.prove",
    "derivation.render_s": "derivation.render",
}
COUNT_METRICS = (
    "lattice.builds", "lattice.elements", "maps.right_adjoint_calls", "maps.fixpoint_calls",
    "epistemic.coclosure_calls", "dynamics.no_miracle_calls", "quantale.system_check_calls",
    "quantale.laws_calls", "quantale.act_calls", "semantics.eval_calls",
    "semantics.entails_calls", "derivation.prove_calls", "derivation.apply_rule_calls",
    "derivation.distinct_goals",
)


def _interpreter_s():
    runs = []
    for _ in range(INTERPRETER_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def _traced_op(rec, runner, op, op_id, workdir):
    rec.begin_op(op_id)
    if runner.subprocess:
        out_path = workdir / f"spans-{op_id}.json"
        result = runner.run(op, trace_out=out_path)
        if out_path.exists():
            rec.merge(json.loads(out_path.read_text(encoding="utf-8")), op_id)
            out_path.unlink()
    else:
        result = runner.run(op)
    rec.end_op()
    return result


def traced_run(runner, ops, seconds, workload, seed, workdir):
    """Alternate one untraced and one traced pass over all ops while
    another pair fits in --seconds. Every traced pass does the same work,
    so the per-op counts repeat exactly for a seed."""
    tally, rec = Tally(), spans.Recorder()
    interpreter_s = _interpreter_s()
    plain_s = traced_s = 0.0
    walls = {}
    start, pairs = time.perf_counter(), 0
    while True:
        for op in ops:
            elapsed, code, out, err = runner.run(op)
            plain_s += elapsed
            tally.add(op, code, out, err)
        undo = [] if runner.subprocess else spans.install(rec)
        try:
            for op in ops:
                op_id = len(walls)
                elapsed, code, out, err = _traced_op(rec, runner, op, op_id, workdir)
                walls[op_id] = elapsed
                traced_s += elapsed
                tally.add(op, code, out, err)
        finally:
            spans.uninstall(undo)
        pairs += 1
        spent = time.perf_counter() - start
        if spent + spent / pairs > seconds:
            break

    probe = {}
    if workload == "prove-nested":
        # the O2 goal alone, at depth 12, as one more traced op
        (op,) = _write_cases([gen.coin_lying_case()], workdir)
        undo = spans.install(rec)
        try:
            result = _traced_op(rec, runner, op, -1, workdir)
        finally:
            spans.uninstall(undo)
        tally.add(op, *result[1:])
        probe = {key: value for (op_id, key), value in rec.counts.items() if op_id == -1}

    n = len(walls)
    own, counts = Counter(), Counter()
    for (op_id, name), value in rec.self_times().items():
        if op_id in walls:
            own[name] += value
    for (op_id, key), value in rec.counts.items():
        if op_id in walls:
            counts[key] += value
    covered = rec.top_level_s()
    calls = counts["derivation.apply_rule_calls"]

    metrics = {
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (own["cli.import"] / n if runner.subprocess else runner.import_s, "s"),
    }
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = (own[span] / n, "s")
    for key in COUNT_METRICS:
        metrics[key] = (counts[key] / n, "count")
    metrics["derivation.repeat_ratio"] = (
        1 - counts["derivation.distinct_pairs"] / calls if calls else 0.0, "ratio")
    metrics["derivation.rule_hit_ratio"] = (
        counts["derivation.rule_hits"] / calls if calls else 0.0, "ratio")
    metrics["derivation.o2_apply_rule_calls"] = (probe.get("derivation.apply_rule_calls", 0), "count")
    metrics["derivation.o2_distinct_goals"] = (probe.get("derivation.distinct_goals", 0), "count")
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    metrics["trace.untraced_s"] = (sum(walls[k] - covered[k] for k in walls) / n, "s")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    rec.write(trace_path, [{"op": k, "name": ops[k % len(ops)].name, "wall_s": walls[k]}
                           for k in sorted(walls)])
    extra = {"traced_ops": (n, "count"), "failed_ratio": (tally.failed / tally.attempted, "ratio")}
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return tally, metrics, extra


# -- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "adjointkit" / "cli.py").is_file():
        print(f"error: no adjointkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the benchmark runs at the default caps
    os.environ.pop("ADJOINT_KIT_MAX_LATTICE", None)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, ops, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            gc.collect()
            tally, metrics, extra = traced_run(runner, ops, args.seconds, args.workload,
                                               args.seed, workdir)
        else:
            setups = [setup_s] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS - 1)]
            gc.collect()
            tally, metrics, extra = timed_run(runner, ops, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in tally.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
