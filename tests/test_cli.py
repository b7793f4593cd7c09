"""CLI behavior: verdicts, exit codes, output parity between modes."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import adjointkit
from adjointkit import cli, derivation, dynamics, maps, quantale
from adjointkit.cli import main
from adjointkit.derivation import KERNEL_DISCHARGE, ORDER_AXIOM, ProofNode
from adjointkit import terms as T
from adjointkit.terms import parse_entailment
from conftest import ERROR_REPROS, built_models, perfbench_module, repro_text, scenario_texts


def fixture_path(name: str) -> str:
    return str(resources.files("adjointkit") / "scenarios" / name)


def test_run_coin_honest_exits_zero(capsys):
    assert main(["run", fixture_path("coin-honest.scn")]) == 0
    out = capsys.readouterr().out
    assert out.count("[check]: ok") == 6
    assert out.count("[prove]: ok") == 6


def test_the_argument_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "adjoint-kit":  # the top parser, not a subparser
            builds.append(self)
        init(self, *args, **kwargs)

    cli.build_arg_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["validate", fixture_path("muddy-3.scn")]) == 0
    assert main(["run", fixture_path("coin-honest.scn"), "--json"]) == 0
    assert len(builds) == 1


def test_run_json_schema(capsys):
    code = main(["run", fixture_path("coin-honest.scn"), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["schema_version"] == 1
    assert data["scenario"] == "coin-honest"
    assert {"verdicts", "axioms", "timings", "exit_code"} <= set(data)
    assert set(data["timings"]) == {"parse", "build", "axioms", "queries"}
    assert all({"id", "kind", "ok", "detail"} <= set(v) for v in data["verdicts"])
    proofs = [v["proof"] for v in data["verdicts"] if "proof" in v]
    assert proofs and {"goal", "rule", "children"} <= set(proofs[0])


PUBLIC_COIN = """version 1
scenario public-coin
mode semantic

worlds h t

agent C
  sees h -> h
  sees t -> t
end

action a
  communication
  update h -> h
  update t -> bot
end

facts h

query ax validate-axioms
"""


def test_one_axiom_pass_per_run(monkeypatch, capsys, tmp_path):
    # every axiom the build decided is decided once, in the build; the
    # axiom pass scans only the converse of fact stability and the
    # equality form of lifted no-miracle, and re-checks nothing else
    events = []
    original = cli._axiom_checks

    def counted(inst, flags):
        events.append("axiom pass")
        return original(inst, flags)

    no_miracle = dynamics.DynamicAlgebra.no_miracle_violations

    def counted_no_miracle(self, full_lattice=False, equality=False):
        events.append(("no-miracle", full_lattice, equality))
        return no_miracle(self, full_lattice, equality)

    fact_stability = dynamics.DynamicAlgebra.fact_stability_report
    # order comparisons per fact-stability call: one per (communication
    # action, fact) pair unless some pair fails and its elements are scanned
    comparisons = []

    def counted_fact_stability(self, converse=False, limit=None):
        events.append(("fact-stability", converse, limit))
        owner = type(self.lattice)
        leq = owner.leq_
        calls = []

        def counted_leq(lat, a, b):
            calls.append(a)
            return leq(lat, a, b)

        owner.leq_ = counted_leq
        try:
            return fact_stability(self, converse, limit)
        finally:
            owner.leq_ = leq
            comparisons.append(len(calls))

    # instantiate checks each declared kernel atom with one application of
    # the update map, and the axiom pass reports the kernel rows as ok: a
    # valid run computes no kernel
    kernel_calls = []
    kernel = dynamics.DynamicAlgebra.kernel

    def counted_kernel(self, action):
        kernel_calls.append(action)
        return kernel(self, action)

    rechecks = []

    def refused(name):
        def call(*args, **kwargs):
            rechecks.append(name)
            raise AssertionError(f"{name} called on the run path")
        return call

    monkeypatch.setattr(cli, "_axiom_checks", counted)
    monkeypatch.setattr(dynamics.DynamicAlgebra, "no_miracle_violations", counted_no_miracle)
    monkeypatch.setattr(dynamics.DynamicAlgebra, "fact_stability_report", counted_fact_stability)
    monkeypatch.setattr(dynamics.DynamicAlgebra, "kernel", counted_kernel)
    monkeypatch.setattr(maps, "verify_adjunction", refused("verify_adjunction"))
    for name in ("check_epistemic_system", "indexed_to_binary", "EpistemicSystemView"):
        monkeypatch.setattr(quantale, name, refused(name))
    monkeypatch.setattr(quantale.ActionQuantale, "words", refused("words"))
    path = fixture_path("coin-lying-model.scn")
    assert main(["run", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [v["kind"] for v in data["verdicts"]].count("validate-axioms") == 1
    # the lax scan and the forward scan run in the build; lifted no-miracle
    # fails as an equality here, so its witness comes from one rescan of
    # every element in index order
    assert events == [
        ("no-miracle", False, False), ("fact-stability", False, 1), "axiom pass",
        ("fact-stability", True, 4), ("no-miracle", False, True), ("no-miracle", True, True),
    ]
    assert rechecks == []
    rows = {a["name"]: (a["ok"], a["detail"]) for a in data["axioms"]}
    assert rows["lifted-no-miracle"] == (True, "")
    assert rows["non-paranoid-equalities"] == (None, "fail: lifted-no-miracle")
    assert rows["adjunctions"] == rows["fact-stability-forward"] == (True, "")
    # two communication actions and two facts: the forward direction holds
    # and takes four comparisons; the converse fails, so it scans elements
    assert comparisons[0] == 4 and comparisons[1] > 4
    assert rows["fact-stability-converse"][0] is False
    assert kernel_calls == []
    assert [(a["name"], a["ok"]) for a in data["axioms"] if a["name"].startswith("kernel")] == [
        ("kernel[a]", True), ("kernel[abar]", True)]
    # a single validate-axioms query runs the pass on demand
    query_id = next(v["id"] for v in data["verdicts"] if v["kind"] == "validate-axioms")
    events.clear()
    assert main(["query", path, query_id]) == 0
    assert events.count("axiom pass") == 1
    capsys.readouterr()
    events.clear()
    assert main(["run", path, "--json", "--full-lattice-axioms"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert events == [
        ("no-miracle", True, False), ("fact-stability", False, 1), "axiom pass",
        ("fact-stability", True, 4), ("no-miracle", False, True), ("no-miracle", True, True),
    ]
    row = next(a for a in data["axioms"] if a["name"] == "no-miracle")
    assert (row["ok"], row["detail"]) == (True, "")
    # where the equality holds, the equality scan is the only one
    events.clear()
    public = tmp_path / "public-coin.scn"
    public.write_text(PUBLIC_COIN)
    assert main(["run", str(public), "--json", "--non-paranoid"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert events == [
        ("no-miracle", False, False), ("fact-stability", False, 1), "axiom pass",
        ("fact-stability", True, 4), ("no-miracle", False, True),
    ]
    row = next(a for a in data["axioms"] if a["name"] == "lifted-no-miracle")
    assert (row["ok"], row["detail"]) == (True, "")
    assert rechecks == []
    # an action that declares no kernel has no kernel computed and no row
    kernel_calls.clear()
    text = Path(path).read_text()
    assert text.count("  kernel H\n") == 1
    no_kernel = tmp_path / "no-kernel.scn"
    no_kernel.write_text(text.replace("  kernel H\n", ""))
    assert main(["run", str(no_kernel), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert kernel_calls == []
    assert [a["name"] for a in data["axioms"] if a["name"].startswith("kernel")] == ["kernel[a]"]
    # where every fact is stable both ways, no element is scanned for it
    comparisons.clear()
    stable = tmp_path / "stable-coin.scn"
    stable.write_text(PUBLIC_COIN.replace("update t -> bot", "update t -> t"))
    assert main(["run", str(stable), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert comparisons == [1, 1]
    rows = {a["name"]: a["ok"] for a in data["axioms"]}
    assert rows["fact-stability-forward"] is rows["fact-stability-converse"] is True
    assert kernel_calls == []


def test_every_built_adjoint_pair_is_an_adjunction():
    # the adjunctions row is a constant ok row because the build makes every
    # pair with right_adjoint: check that on every instantiated model, the
    # explicit orders of the epistemic-256 grids among them
    models = built_models(scenario_texts(dynamic_seeds=(901,), epistemic_seeds=(903,)))
    assert sum(m.lattice.worlds is None for _, m in models) >= 4
    for name, model in models:
        alg = model.algebra
        for pair in [*alg.mama.pairs.values(), *alg.update.values()]:
            assert maps.verify_adjunction(pair.left, pair.right) is None, name


def test_word_bound_over_the_cap_exits_two(capsys):
    # two actions: 1,023 words at bound 9, 2,047 at bound 10, past the cap
    # of 1,024, with the message an ActionQuantale of that bound raises
    path = fixture_path("coin-lying-model.scn")
    assert main(["validate", path, "--word-bound", "9"]) == 0
    capsys.readouterr()
    assert main(["validate", path, "--word-bound", "10"]) == 2
    message = "2 generators at word bound 10 give more than 1024 words"
    assert capsys.readouterr().err == f"error: WordLengthExceeded: {message}\n"
    with pytest.raises(adjointkit.WordLengthExceeded) as err:
        quantale.ActionQuantale(("a", "abar"), 10)
    assert str(err.value) == message


def test_json_and_human_verdicts_agree(capsys):
    code_h = main(["run", fixture_path("muddy-3.scn")])
    human = capsys.readouterr().out
    code_j = main(["run", fixture_path("muddy-3.scn"), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code_h == code_j == 0
    human_ok = {line.split()[1] for line in human.splitlines() if "query" in line and " ok " in line}
    json_ok = {v["id"] for v in data["verdicts"] if v["ok"]}
    assert human_ok == json_ok


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_depth_flag_below_one_is_rejected(depth, capsys):
    assert main(["prove", fixture_path("coin-lying.scn"), "q3", f"--depth={depth}"]) == 3
    captured = capsys.readouterr()
    assert f"--depth must be at least 1, not {depth}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("bound", ["0", "-2"])
@pytest.mark.parametrize("scenario", ["coin-lying-model.scn", "muddy-3.scn"])
def test_word_bound_below_one_is_rejected(scenario, bound, monkeypatch, capsys):
    def no_parse(path):
        raise AssertionError("the scenario was read before the flags were checked")

    monkeypatch.setattr(cli, "_parse", no_parse)
    assert main(["validate", fixture_path(scenario), f"--word-bound={bound}"]) == 3
    captured = capsys.readouterr()
    assert f"--word-bound must be at least 1, not {bound}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("depth", [T.MAX_PROOF_DEPTH + 1, 10**6])
def test_depth_flag_above_the_limit_is_rejected(depth, capsys):
    assert main(["prove", fixture_path("coin-lying.scn"), "q3", f"--depth={depth}"]) == 3
    captured = capsys.readouterr()
    assert f"--depth must be at most {T.MAX_PROOF_DEPTH}, not {depth}" in captured.err
    assert "Traceback" not in captured.err


def test_deep_common_knowledge_at_the_depth_limit_ends_in_a_verdict(tmp_path, capsys):
    # DefExpand unfolds CK into ever deeper terms; no move past the term
    # depth limit is taken, so the search ends in a verdict, not a
    # RecursionError
    text = Path(fixture_path("coin-lying.scn")).read_text()
    scn = tmp_path / "ck.scn"
    scn.write_text(text + "query ck prove H |= CK[A,C:400](H)\n")
    argv = ["prove", str(scn), "ck", "--depth", str(T.MAX_PROOF_DEPTH)]
    assert main(argv) == 1
    assert "not proved (depth_exhausted)" in capsys.readouterr().out
    assert main([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["ok"] is False


def test_the_deepest_proof_renders(tmp_path, capsys):
    # a proof as deep as the depth limit allows renders as text and JSON
    scn = tmp_path / "deep.scn"
    scn.write_text("version 1\nscenario deep\nmode symbolic\nworlds h t\nprop H = h\n"
                   "agent A\n  def f[A](H) = H\nend\n"
                   "query g prove H |= CK[A:49](H)\n")
    argv = ["prove", str(scn), "g", "--depth", str(T.MAX_PROOF_DEPTH)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    indents = [len(line) - len(line.lstrip()) for line in out.splitlines() if "] " in line]
    assert max(indents) // 2 >= T.MAX_PROOF_DEPTH - 5
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["proof"]["rule"] == "DefExpand"


_JSON_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f aZé€\u2028\U0001f600') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_JSON_VALUES)
def test_the_json_writer_writes_what_json_dumps_writes(value):
    # --json reports go through cli._json; json.dumps(indent=2) is the
    # contract, byte for byte: empty containers, escapes, non-finite floats
    assert "".join(cli._json(value, [])) == json.dumps(value, indent=2, sort_keys=True)


def test_depth_flag_is_used_as_given(capsys):
    # q3 needs two steps: one step of depth is not enough
    assert main(["prove", fixture_path("coin-lying.scn"), "q3", "--depth", "1"]) == 1
    assert "not proved (depth_exhausted)" in capsys.readouterr().out
    assert main(["prove", fixture_path("coin-lying.scn"), "q3", "--depth", "2"]) == 0


# -- golden outputs ----------------------------------------------------------------

# Golden copies of the shipped scenarios' output with the timings elided. A
# copy for a flag (run-<stem>.<flag>.json) exists only where that output
# differs.
GOLDEN = Path(__file__).parent / "golden"
SHIPPED = sorted(
    p.name for p in (resources.files("adjointkit") / "scenarios").iterdir()
    if p.name.endswith(".scn")
)


@pytest.mark.parametrize("flags", [[], ["--no-kernel-shortcut"], ["--non-paranoid"]])
@pytest.mark.parametrize("scenario", SHIPPED)
def test_run_json_matches_the_golden_copy(scenario, flags, monkeypatch, capsys):
    # run from the scenario directory, as the file name alone
    monkeypatch.chdir(Path(fixture_path(scenario)).parent)
    code = main(["run", scenario, "--json", *flags])
    out, elided = re.subn(r'"timings": \{[^{}]*\}', '"timings": "elided"',
                          capsys.readouterr().out)
    assert elided == 1
    assert code == json.loads(out)["exit_code"]
    stem = scenario.removesuffix(".scn")
    golden = GOLDEN / f"run-{stem}.{flags[0].lstrip('-')}.json" if flags else None
    if not (golden and golden.exists()):
        golden = GOLDEN / f"run-{stem}.json"
    assert out == golden.read_text()
    if flags == ["--non-paranoid"] and stem in ("coin-honest", "coin-lying-model"):
        # lifted no-miracle fails as an equality on both
        assert code == 2 and "lifted-no-miracle: agent A, word <a>, at {t0}" in out


def test_validate_text_matches_the_golden_copy(monkeypatch, capsys):
    monkeypatch.chdir(Path(fixture_path("coin-lying-model.scn")).parent)
    assert main(["validate", "coin-lying-model.scn"]) == 0
    out, elided = re.subn(r"(?m)^  timings: .*$", "  timings: elided", capsys.readouterr().out)
    assert elided == 1
    assert out == (GOLDEN / "validate-coin-lying-model.txt").read_text()


@pytest.mark.parametrize("flags", [[], ["--no-kernel-shortcut"]])
def test_prove_text_matches_the_golden_copy(flags, capsys):
    assert main(["prove", fixture_path("coin-lying.scn"), "q3", *flags]) == 0
    out, elided = re.subn(r"(?m)^  timings: .*$", "  timings: elided", capsys.readouterr().out)
    assert elided == 1
    suffix = ".no-kernel-shortcut" if flags else ""
    assert out == (GOLDEN / f"prove-coin-lying-q3{suffix}.txt").read_text()


def test_prove_renders_tree(capsys):
    code = main(["prove", fixture_path("coin-lying.scn"), "q3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[AdjUnfoldAfter]" in out
    assert "KernelDischarge" in out


def test_prove_no_kernel_shortcut(capsys):
    code = main(["prove", fixture_path("coin-lying.scn"), "q3", "--no-kernel-shortcut"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[NoMiracle]" in out


def test_build_error_reports_the_scenario_name(tmp_path, monkeypatch, capsys):
    # from another directory, by absolute path: the report names the
    # scenario, not the path it was read from
    monkeypatch.chdir(tmp_path)
    assert main(["run", fixture_path("broken-miracle.scn"), "--json"]) == 2
    out = re.sub(r'"timings": \{[^{}]*\}', '"timings": "elided"', capsys.readouterr().out)
    assert json.loads(out)["scenario"] == "broken-miracle"
    assert out == (GOLDEN / "run-broken-miracle.json").read_text()


def test_lattice_cap_over_the_ceiling_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", str(2**16 + 1))
    assert main(["run", fixture_path("coin-honest.scn"), "--json"]) == 2
    assert "LatticeTooLarge: ADJOINT_KIT_MAX_LATTICE=65537 is over the ceiling of 65536" in (
        json.loads(capsys.readouterr().out)["build_error"])
    assert main(["tables", fixture_path("coin-honest.scn"), "f[A]"]) == 2
    assert "LatticeTooLarge" in capsys.readouterr().err


# Every benchmarked shipped command, and a table dump: all on powersets.
POWERSET_COMMANDS = [
    *(["run", "--json", name] for name in SHIPPED),
    ["prove", "coin-lying.scn", "q3", "--no-kernel-shortcut"],
    ["validate", "coin-lying-model.scn"],
    ["tables", "muddy-3.scn", "f[C1]"],
]

NUMPY_PROBE = """
import contextlib, io, json, sys
from adjointkit import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv, code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def _run_fresh(script, *args):
    """The JSON that script prints, run in a fresh interpreter from the
    scenario directory, compiling adjointkit from source."""
    src = Path(adjointkit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=Path(fixture_path("coin-honest.scn")).parent,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_no_command_imports_numpy(tmp_path):
    # a fresh interpreter, so that nothing this test process imported counts;
    # the explicit order is a generated 12 x 12 grid
    grid = next(c for c in perfbench_module("gen").epistemic_cases(random.Random(5))
                if c.name.startswith("grid"))
    scn = tmp_path / "grid.scn"
    scn.write_text(grid.text)
    order_commands = [["run", str(scn)], ["run", "--json", str(scn)],
                      ["validate", str(scn)], ["tables", str(scn), "f[A]"]]
    commands = POWERSET_COMMANDS + order_commands
    seen = _run_fresh(NUMPY_PROBE, json.dumps(commands))
    assert [argv for argv, _, _ in seen] == commands
    assert [code for _, code, _ in seen] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert [argv for argv, _, numpy in seen if numpy] == []


# One command, as on a first run: its exit code and every module it left
# imported.
IMPORT_PROBE = """
import contextlib, io, json, sys
from adjointkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

# What a command must not import beyond dataclasses, which none imports:
# quantale, which the axiom pass does not need, and derivation where no
# prove query runs.
NOT_IMPORTED = {
    **{name: {"adjointkit.quantale"} for name in SHIPPED},
    "muddy-3.scn": {"adjointkit.derivation", "adjointkit.quantale"},
    "coin-lying-model.scn": {"adjointkit.derivation", "adjointkit.quantale"},
}


@pytest.mark.parametrize("argv", POWERSET_COMMANDS, ids=" ".join)
def test_shipped_commands_import_only_what_they_run(argv):
    code, modules = _run_fresh(IMPORT_PROBE, json.dumps(argv))
    assert code == (2 if "broken-miracle.scn" in argv else 0)
    scenario = next(a for a in argv if a.endswith(".scn"))
    assert {"dataclasses", *NOT_IMPORTED[scenario]}.isdisjoint(modules)


def test_the_package_resolves_every_traced_module_on_first_access():
    spans = perfbench_module("spans")
    names = sorted({m for m, *_ in spans.SPANS} | {m for m, *_ in spans.COUNTED})
    probe = ("import json, sys, adjointkit\n"
             "print(json.dumps([getattr(adjointkit, m) is sys.modules['adjointkit.' + m]"
             " for m in sys.argv[1:]]))")
    assert _run_fresh(probe, *names) == [True] * len(names)


@pytest.mark.parametrize("argv, code", [
    (["run", "coin-honest.scn", "--json"], 0),
    (["run", "broken-miracle.scn", "--json"], 2),
    (["prove", "coin-lying.scn", "q3"], 0),
])
def test_a_closed_stdout_keeps_the_exit_code_and_writes_no_traceback(argv, code):
    # as in `adjoint-kit run x.scn --json | head -1`, with the reader gone
    # before the first write
    src = Path(adjointkit.__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "adjointkit.cli", *argv],
            cwd=Path(fixture_path("coin-honest.scn")).parent,
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


def shuffled_poset(text, rng, block=None):
    """The scenario text with the lines of its poset block, or the given
    lines in its place, in random order."""
    lines = text.splitlines()
    start = lines.index("poset") + 1
    end = lines.index("end", start)
    block = lines[start:end] if block is None else block
    rng.shuffle(block)
    return "\n".join(lines[:start] + block + lines[end:]) + "\n"


def every_pair_poset(text, rng):
    """The scenario text with a poset block that lists every comparable pair
    of its order, not only the covers, a quarter of the lines twice, in
    random order."""
    from adjointkit import instantiate, parse_scenario

    lat = instantiate(parse_scenario(text)).model.lattice
    block = [f"  {a.name} < {b.name}" for a in lat.elements for b in lat.elements
             if a is not b and lat.leq_(a, b)]
    return shuffled_poset(text, rng, block + rng.sample(block, len(block) // 4))


def coclosure_witness_is_real(text, row):
    """Whether the element a co-closure row names breaks f[A] <= id."""
    from adjointkit import instantiate, parse_scenario

    agent = row["name"][len("coclosure-hypotheses["):-1]
    model = instantiate(parse_scenario(text)).model
    f = model.algebra.mama.appearance_map(agent)
    w = model.lattice.element(row["detail"].rsplit(" ", 1)[1])
    return not model.lattice.leq_(f(w), w)


def test_shuffled_poset_lines_keep_every_verdict(tmp_path, capsys):
    # An explicit order numbers its elements in the order the poset lines
    # first name them, so a shuffle renumbers the carrier. Verdicts, exit
    # code, carrier stats and axiom flags must not move; a witness, the
    # first in index order, may, and each one named must be real. The same
    # holds when the block lists every comparable pair, with repeats, in
    # place of the covers, so the build must find the covers among them.
    from adjointkit import instantiate, parse_scenario

    gen = perfbench_module("gen")
    grids = [c for seed in (5, 7) for c in gen.epistemic_cases(random.Random(seed))
             if c.name.startswith("grid")][:6]
    rng = random.Random(404)
    moved = 0
    for case in grids:
        runs = []
        for text in (case.text, shuffled_poset(case.text, rng), every_pair_poset(case.text, rng)):
            scn = tmp_path / "grid.scn"
            scn.write_text(text)
            code = main(["run", "--json", str(scn)])
            report = json.loads(capsys.readouterr().out)
            lat = instantiate(parse_scenario(text)).model.lattice
            stats = (lat.n, lat.is_distributive, lat.is_boolean, len(lat.join_irreducibles()),
                     len(lat.meet_irreducibles()), lat.height)
            runs.append((text, code, report, stats, [e.name for e in lat.elements]))
        text_a, code_a, report_a, stats_a, names_a = runs[0]
        for text_b, code_b, report_b, stats_b, names_b in runs[1:]:
            assert names_a != names_b
            assert (code_a, report_a["verdicts"], stats_a) == (
                code_b, report_b["verdicts"], stats_b)
            for row_a, row_b in zip(report_a["axioms"], report_b["axioms"], strict=True):
                assert [row_a[k] for k in ("name", "ok", "mandatory")] == [
                    row_b[k] for k in ("name", "ok", "mandatory")]
                if row_a["detail"] != row_b["detail"]:
                    assert row_a["name"].startswith("coclosure-hypotheses[")
                    moved += 1
                for text, row in ((text_a, row_a), (text_b, row_b)):
                    if " witness " in row["detail"]:
                        assert coclosure_witness_is_real(text, row)
    # the shuffles do move witnesses, so the comparison above is not vacuous
    assert moved > 0


def test_validate_broken_miracle_exits_two(capsys):
    code = main(["validate", fixture_path("broken-miracle.scn")])
    out = capsys.readouterr().out
    assert code == 2
    assert "NoMiracleViolation" in out


def test_strict_facts_surfaces_the_converse(capsys):
    code = main(["validate", fixture_path("coin-honest.scn"), "--strict-facts"])
    out = capsys.readouterr().out
    assert code == 2
    assert "fact-stability-converse: FAIL" in out


def test_query_single(capsys):
    assert main(["query", fixture_path("muddy-3.scn"), "q6"]) == 0
    out = capsys.readouterr().out
    assert "q6" in out and "fails" in out


def test_unknown_query_id_is_resolution_error(capsys):
    assert main(["query", fixture_path("muddy-3.scn"), "nope"]) == 3


def test_prove_on_check_query_says_so(capsys):
    assert main(["prove", fixture_path("coin-honest.scn"), "q1"]) == 3
    assert "not of kind prove" in capsys.readouterr().err


def test_query_error_is_contained_per_query(tmp_path, capsys):
    # ~ needs a Boolean carrier: the query fails, the run continues
    text = "\n".join(
        [
            "version 1",
            "scenario chain",
            "mode semantic",
            "poset",
            "  b < m",
            "  m < t",
            "end",
            "agent A",
            "  sees m -> m",
            "  sees t -> t",
            "end",
            "query q1 check m |= ~m",
            "query q2 check m |= t",
        ]
    )
    f = tmp_path / "chain.scn"
    f.write_text(text)
    assert main(["run", str(f)]) == 1
    out = capsys.readouterr().out
    assert "q1 [check]: FAIL -- NotBoolean" in out
    assert "q2 [check]: ok" in out


@pytest.mark.parametrize("repro", ERROR_REPROS, ids=lambda r: r["id"])
def test_error_repro_exit_code(repro, tmp_path, capsys):
    """run, run --json and validate exit with each error repro's code: 3
    for a parse or resolution error, printed as such, and 2 for a build
    error."""
    scn = tmp_path / "repro.scn"
    scn.write_text(repro_text(repro))
    for argv in (["run", str(scn)], ["run", str(scn), "--json"], ["validate", str(scn)]):
        assert main(argv) == repro["exit"], argv
        if repro["exit"] == 3:
            assert capsys.readouterr().err == f"error: {repro['message']}\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(repro_text("unknown-declaration"))
    assert main(["run", str(bad)]) == 3


def test_a_chain_past_the_term_depth_limit_exits_three(tmp_path, capsys):
    # a flat chain is parsed by a loop, so only the depth limit keeps it out
    # of the recursive resolver and evaluator
    chain = " \\/ ".join(["H"] * 1500)
    text = repro_text("chain-past-the-depth-limit")
    assert text == Path(fixture_path("coin-lying-model.scn")).read_text() + (
        f"query zz check {chain} |= H\n")
    scn = tmp_path / "chain.scn"
    scn.write_text(text)
    assert main(["run", str(scn)]) == 3
    assert "nested more than 100 levels deep" in capsys.readouterr().err


def test_evaluate_in_a_symbolic_scenario_exits_three(tmp_path, capsys):
    scn = tmp_path / "sym.scn"
    scn.write_text(repro_text("evaluate-in-symbolic-cli"))
    assert main(["run", str(scn)]) == 3
    assert "evaluate needs a semantic scenario" in capsys.readouterr().err


def test_failing_expectation_exit_code(tmp_path, capsys):
    text = (resources.files("adjointkit") / "scenarios" / "muddy-3.scn").read_text()
    flipped = text.replace(
        "query q2 check m1 /\\ m2 /\\ m3 |= fi[C1](m1) expect fails",
        "query q2 check m1 /\\ m2 /\\ m3 |= fi[C1](m1)",
    )
    f = tmp_path / "muddy-flipped.scn"
    f.write_text(flipped)
    assert main(["run", str(f)]) == 1
    out = capsys.readouterr().out
    assert "q2 [check]: FAIL" in out


def test_exit_code_is_mode_independent(tmp_path, capsys):
    text = (resources.files("adjointkit") / "scenarios" / "muddy-3.scn").read_text()
    flipped = text.replace("fi[C1](m1) expect fails", "fi[C1](m1)")
    f = tmp_path / "m.scn"
    f.write_text(flipped)
    code_h = main(["run", str(f)])
    capsys.readouterr()
    code_j = main(["run", str(f), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code_h == code_j == data["exit_code"] == 1


def test_unsound_assumptions_trip_the_internal_breach(tmp_path, capsys):
    # the symbolic definition contradicts the model, making a semantically
    # false sequent provable: the cross-check must exit 4, not report ok
    text = "\n".join(
        [
            "version 1",
            "scenario unsound",
            "mode both",
            "worlds h t",
            "prop H = h",
            "prop T = t",
            "agent A",
            "  sees h -> h",
            "  sees t -> t",
            "  def f[A](H) = T",
            "end",
            "query q1 prove H |= fi[A](T)",
        ]
    )
    f = tmp_path / "unsound.scn"
    f.write_text(text)
    code = main(["run", str(f)])
    out = capsys.readouterr().out
    assert code == 4
    assert "fails semantically" in out


@pytest.mark.parametrize(
    "forged, message",
    [
        # a rule that does not apply to the query's own sequent
        (ProofNode(parse_entailment("H |= after[abar](fi[A](H))"), KERNEL_DISCHARGE, "", ()),
         "does not re-check"),
        # a sound tree, but for another goal
        (ProofNode(parse_entailment("H |= H"), ORDER_AXIOM, "both sides are equal", ()),
         "proved by a tree for H |= H"),
    ],
)
def test_forged_proof_trips_the_internal_breach(monkeypatch, capsys, forged, message):
    # coin-lying is symbolic, so only the tree re-check stands between a bad
    # prover result and an "ok" verdict
    monkeypatch.setattr(derivation, "prove", lambda *args, **kwargs: forged)
    code = main(["prove", fixture_path("coin-lying.scn"), "q2"])
    out = capsys.readouterr().out
    assert code == 4
    assert "q2 [prove]: FAIL" in out
    assert message in out


def test_tables_dump(capsys):
    assert main(["tables", fixture_path("coin-honest.scn"), "f[A]"]) == 0
    out = capsys.readouterr().out
    assert "f[A]" in out and "fi[A]" in out
    assert "{h0,t0,h1}" in out


def test_tables_update_map_json(capsys):
    assert main(["tables", fixture_path("coin-honest.scn"), "upd[a]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = {r["element"]: r for r in data["table"]}
    assert rows["{h0}"]["upd[a]"] == "{h1}"
    assert rows["{h1}"]["after[a]"] == "{h0,t0,h1}"


def test_tables_bad_name(capsys):
    assert main(["tables", fixture_path("coin-honest.scn"), "zoo[A]"]) == 3
