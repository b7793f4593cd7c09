"""Command-line interface: adjoint-kit <validate|query|prove|tables|run>.

Exit codes: 0 all verdicts pass, 1 query failure or unproved goal,
2 axiom violation (including model build failures), 3 parse or resolution
error, 4 internal invariant breach (a proved goal that fails semantically).
Exit codes are a function of the verdicts alone; --json switches the
rendering, never the outcome.

A command imports only what it runs: derivation where a prove query runs
or a proof is rendered. No command imports quantale: dynamics names the
system rows, which hold by definition but for lifted no-miracle, and
counts the words under the --word-bound cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .dynamics import check_word_cap, system_laws
from .errors import AdjointKitError, InternalError, ParseError, ResolutionError
from .epistemic import check_coclosure_consequences
from .scenario import Instantiated, ScenarioDoc, instantiate, parse_scenario
from .semantics import entails, eval_term
from .terms import MAX_PROOF_DEPTH, Sequent, render_term

if TYPE_CHECKING:
    from .derivation import ProofNode

SCHEMA_VERSION = 1


class Verdict:
    __slots__ = ("id", "kind", "ok", "detail", "semantic", "proof", "element")

    def __init__(self, id: str, kind: str, ok: bool, detail: str,
                 semantic: bool | None = None, proof: ProofNode | None = None,
                 element: str | None = None):
        self.id = id
        self.kind = kind
        self.ok = ok
        self.detail = detail
        self.semantic = semantic
        self.proof = proof          # rendered by as_dict, or as text by prove
        self.element = element

    def as_dict(self):
        out = {"id": self.id, "kind": self.kind, "ok": self.ok, "detail": self.detail}
        if self.semantic is not None:
            out["semantic"] = self.semantic
        if self.proof is not None:
            from .derivation import render_proof

            out["proof"] = render_proof(self.proof, "structured")
        if self.element is not None:
            out["element"] = self.element
        return out


class AxiomCheck:
    __slots__ = ("name", "ok", "detail", "mandatory")

    def __init__(self, name: str, ok: bool | None, detail: str = "", mandatory: bool = True):
        self.name = name
        self.ok = ok                # None: informational hypothesis report
        self.detail = detail
        self.mandatory = mandatory

    def as_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "mandatory": self.mandatory,
        }


class RunReport:
    __slots__ = ("scenario", "verdicts", "axioms", "timings", "internal_breach", "build_error")

    def __init__(self, scenario: str, timings: dict | None = None,
                 build_error: str | None = None):
        self.scenario = scenario
        self.verdicts: list[Verdict] = []
        self.axioms: list[AxiomCheck] = []
        self.timings = {} if timings is None else timings
        self.internal_breach = False
        self.build_error = build_error

    @property
    def exit_code(self) -> int:
        if self.internal_breach:
            return 4
        if self.build_error is not None:
            return 2
        if any(c.mandatory and c.ok is False for c in self.axioms):
            return 2
        if any(not v.ok for v in self.verdicts):
            return 1
        return 0

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "axioms": [a.as_dict() for a in self.axioms],
            "timings": self.timings,
            "exit_code": self.exit_code,
            **({"build_error": self.build_error} if self.build_error else {}),
        }


def _parse(path: str) -> tuple[ScenarioDoc, dict]:
    t0 = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = parse_scenario(text)
    return doc, {"parse": time.perf_counter() - t0}


def _build(doc: ScenarioDoc, flags, timings: dict) -> Instantiated:
    t0 = time.perf_counter()
    inst = instantiate(doc, full_lattice_axioms=flags.full_lattice_axioms)
    timings["build"] = time.perf_counter() - t0
    return inst


def _axiom_checks(inst: Instantiated, flags) -> list[AxiomCheck]:
    checks: list[AxiomCheck] = []
    model = inst.model
    if model is None:
        return checks
    alg = model.algebra
    lat = model.lattice

    # build_dynamic_algebra raised on the first no-miracle or forward
    # fact-stability breach, and built every adjoint pair with right_adjoint
    checks += [AxiomCheck(name, True) for name in ("no-miracle", "fact-stability-forward")]
    converse = alg.fact_stability_report(converse=True, limit=4)
    converse_detail = "; ".join(
        f"{a}: h({l.name}) <= {phi.name} but {l.name} is not" for a, phi, l in converse
    )
    checks.append(AxiomCheck("fact-stability-converse", not converse, converse_detail,
                             mandatory=flags.strict_facts))
    checks.append(AxiomCheck("adjunctions", True))

    # the build raised KernelMismatch on a declared atom left unannihilated
    checks += [AxiomCheck(f"kernel[{act}]", True, "") for act in alg.actions
               if act in alg.declared_kernels]

    if alg.actions:
        check_word_cap(len(alg.actions), flags.word_bound)
        checks += [AxiomCheck(name, True) for name in system_laws(alg.mama.agents,
                                                                 flags.non_paranoid)]
        # lax lifted no-miracle is the no-miracle inequality the build
        # raised on, over the same domain, so only its equality form is left
        equal = alg.lifted_no_miracle_witness(equality=True)
        if flags.non_paranoid:
            checks.append(AxiomCheck("lifted-no-miracle", equal is None, equal or ""))
        else:
            checks += [AxiomCheck("lifted-no-miracle", True),
                       AxiomCheck("non-paranoid-equalities", None,
                                  "fail: lifted-no-miracle" if equal else "hold",
                                  mandatory=False)]

    # optional hypotheses, reported but never mandatory
    for agent in alg.mama.agents:
        wit = check_coclosure_consequences(alg.mama, agent).decreasing_witness
        if wit is None:
            ok, detail = True, "decreasing and weakly idempotent; consequences verified"
        else:
            ok, detail = None, f"hypotheses not met, witness {wit.name}"
        checks.append(AxiomCheck(f"coclosure-hypotheses[{agent}]", ok, detail, mandatory=False))
    checks.append(
        AxiomCheck(
            "boolean-base",
            None,
            "Boolean" if lat.is_boolean else
            ("distributive" if lat.is_distributive else "plain lattice"),
            mandatory=False,
        )
    )
    return checks


def _run_query(inst: Instantiated, q, flags, axioms=None) -> Verdict:
    if q.kind == "validate-axioms":
        checks = axioms if axioms is not None else _axiom_checks(inst, flags)
        failed = [c for c in checks if c.mandatory and c.ok is False]
        return Verdict(q.id, q.kind, not failed,
                       failed[0].name + ": " + failed[0].detail if failed else "all axioms hold")

    if q.kind == "evaluate":
        value = eval_term(inst.model, q.lhs)
        return Verdict(q.id, q.kind, True, f"{render_term(q.lhs)} = {value.name}",
                       element=value.name)

    if q.kind == "check":
        holds = entails(inst.model, q.lhs, q.rhs)
        expected = q.expect == "holds"
        ok = holds == expected
        detail = f"{render_term(q.lhs)} |= {render_term(q.rhs)}: " + (
            "holds" if holds else "fails"
        )
        if not ok:
            detail += f" (expected {q.expect})"
        return Verdict(q.id, q.kind, ok, detail)

    if q.kind == "prove":
        from . import derivation

        depth = flags.depth if flags.depth is not None else q.depth
        if depth is None:
            depth = derivation.DEFAULT_MAX_DEPTH
        seq = Sequent(q.lhs, q.rhs)
        outcome = derivation.prove(
            seq, inst.assumptions, depth, no_kernel_shortcut=flags.no_kernel_shortcut
        )
        if isinstance(outcome, derivation.NotProved):
            frontier = "; ".join(s.render() for s in outcome.frontier[:4])
            return Verdict(q.id, q.kind, False, f"not proved ({outcome.reason}): {frontier}")
        if outcome.sequent != seq:
            raise InternalError(
                f"query {q.id!r} was proved by a tree for {outcome.sequent.render()}"
            )
        bad = derivation.verify_tree(outcome, inst.assumptions)
        if bad is not None:
            raise InternalError(
                f"query {q.id!r} was proved but its tree does not re-check: "
                f"{bad.reason} at {bad.sequent.render()}"
            )
        semantic = None
        if inst.model is not None:
            semantic = entails(inst.model, q.lhs, q.rhs)
            if not semantic:
                raise InternalError(
                    f"query {q.id!r} was proved but fails semantically"
                )
        return Verdict(
            q.id, q.kind, True, f"proved with {len(outcome.sequents())} steps",
            semantic=semantic, proof=outcome,
        )

    raise InternalError(f"unknown query kind {q.kind!r}")


def _execute(path, flags, only_query=None, kinds=None, with_axioms=True) -> RunReport:
    doc, timings = _parse(path)
    try:
        inst = _build(doc, flags, timings)
    except (ParseError, ResolutionError):
        raise
    except AdjointKitError as exc:
        return RunReport(scenario=doc.name, build_error=f"{type(exc).__name__}: {exc}")

    report = RunReport(scenario=doc.name, timings=timings)
    for warning in inst.realization_warnings:
        report.axioms.append(AxiomCheck("realization", None, warning, mandatory=False))

    axioms = None
    if with_axioms:
        t0 = time.perf_counter()
        axioms = _axiom_checks(inst, flags)
        report.axioms.extend(axioms)
        report.timings["axioms"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    matched = False
    seen_id = False
    for q in inst.queries:
        if only_query is not None and q.id != only_query:
            continue
        seen_id = True
        if kinds is not None and q.kind not in kinds:
            continue
        matched = True
        try:
            report.verdicts.append(_run_query(inst, q, flags, axioms))
        except InternalError as exc:
            report.internal_breach = True
            report.verdicts.append(Verdict(q.id, q.kind, False, str(exc)))
        except AdjointKitError as exc:
            report.verdicts.append(
                Verdict(q.id, q.kind, False, f"{type(exc).__name__}: {exc}")
            )
    if only_query is not None and not matched:
        if seen_id:
            raise ResolutionError(
                f"query {only_query!r} in {inst.doc.name} is not of kind "
                + "/".join(kinds or ())
            )
        raise ResolutionError(f"no query named {only_query!r} in {inst.doc.name}")
    report.timings["queries"] = time.perf_counter() - t0
    return report


_JSON_WORDS = {"None": "null", "True": "true", "False": "false",  # scalars whose repr is not JSON
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(v, out: list, indent="\n") -> list:
    """Append v to out as json.dumps(v, indent=2, sort_keys=True) writes a
    report's values; indent is a newline and the current indentation."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif isinstance(v, (dict, list)):
        is_dict = isinstance(v, dict)
        sep, close = "{}" if is_dict else "[]"
        inner = indent + "  "
        for item in sorted(v) if is_dict else v:
            out.append(sep + inner + _quote(item) + ": " if is_dict else sep + inner)
            _json(v[item] if is_dict else item, out, inner)
            sep = ","
        out.append(indent + close if sep == "," else sep + close)  # empty: {} or []
    else:  # None, a bool or a number
        text = repr(v)
        out.append(_JSON_WORDS.get(text, text))
    return out


def _print_report(report: RunReport, as_json: bool):
    if as_json:
        print("".join(_json(report.as_dict(), [])))
        return
    print(f"scenario: {report.scenario}")
    if report.build_error:
        print(f"  BUILD FAILED: {report.build_error}")
        return
    for c in report.axioms:
        mark = "info" if c.ok is None else ("ok" if c.ok else "FAIL")
        optional = "" if c.mandatory else " (optional)"
        detail = f" -- {c.detail}" if c.detail else ""
        print(f"  axiom {c.name}: {mark}{optional}{detail}")
    for v in report.verdicts:
        mark = "ok" if v.ok else "FAIL"
        print(f"  query {v.id} [{v.kind}]: {mark} -- {v.detail}")
    timing = ", ".join(f"{k}={v * 1000:.1f}ms" for k, v in report.timings.items())
    print(f"  timings: {timing}")


def _cmd_tables(path, map_name, flags, as_json):
    doc, timings = _parse(path)
    inst = _build(doc, flags, timings)
    if inst.model is None:
        raise ResolutionError("tables needs a semantic scenario")
    alg = inst.model.algebra
    import re

    m = re.fullmatch(r"(f|fi|upd|after)\[([A-Za-z_][A-Za-z0-9_]*)\]", map_name)
    if not m:
        raise ResolutionError(f"bad map name {map_name!r}; use f[A], fi[A], upd[a] or after[a]")
    head, who = m.groups()
    if head in ("f", "fi"):
        pair = alg.mama.pairs.get(who)
        if pair is None:
            raise ResolutionError(f"unknown agent {who!r}")
        primary, partner = (pair.left, pair.right)
        names = (f"f[{who}]", f"fi[{who}]")
    else:
        if who not in alg.actions:
            raise ResolutionError(f"unknown action {who!r}")
        pair = alg.update[who]
        primary, partner = (pair.left, pair.right)
        names = (f"upd[{who}]", f"after[{who}]")

    rows = [
        {
            "element": e.name,
            names[0]: primary(e).name,
            names[1]: partner(e).name,
        }
        for e in alg.lattice.elements
    ]
    if as_json:
        table = {"schema_version": SCHEMA_VERSION, "scenario": inst.doc.name,
                 "map": map_name, "table": rows}
        print("".join(_json(table, [])))
        return 0
    width = max(len(r["element"]) for r in rows)
    w1 = max(len(r[names[0]]) for r in rows + [{names[0]: names[0]}])
    print(f"{'element'.ljust(width)}  {names[0].ljust(w1)}  {names[1]}")
    for r in rows:
        print(f"{r['element'].ljust(width)}  {r[names[0]].ljust(w1)}  {r[names[1]]}")
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjoint-kit",
        description="validate, query and prove scenarios of adjoint modal algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="scenario file (.scn)")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--strict-facts", action="store_true",
                       help="make the converse fact-stability direction mandatory")
        p.add_argument("--non-paranoid", action="store_true",
                       help="check quantale appearance equalities instead of lax laws")
        p.add_argument("--no-kernel-shortcut", action="store_true",
                       help="try kernel discharge only after every other rule")
        p.add_argument("--full-lattice-axioms", action="store_true",
                       help="check no-miracle on all elements, not just generators")
        p.add_argument("--word-bound", type=int, default=3,
                       help="quantale word-length bound; only checked against the "
                            "1,024-word cap, no law's verdict depends on it")
        p.add_argument("--depth", type=int, default=None,
                       help=f"proof search depth override, 1 to {MAX_PROOF_DEPTH}")

    for name in ("validate", "run"):
        p = sub.add_parser(name)
        common(p)
    p = sub.add_parser("query")
    common(p)
    p.add_argument("query_id")
    p = sub.add_parser("prove")
    common(p)
    p.add_argument("query_id")
    p = sub.add_parser("tables")
    common(p)
    p.add_argument("map_name", help="f[A], fi[A], upd[a] or after[a]")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.depth is not None and args.depth < 1:
            raise ResolutionError(f"--depth must be at least 1, not {args.depth}")
        if args.depth is not None and args.depth > MAX_PROOF_DEPTH:
            raise ResolutionError(f"--depth must be at most {MAX_PROOF_DEPTH}, not {args.depth}")
        if args.word_bound < 1:
            raise ResolutionError(f"--word-bound must be at least 1, not {args.word_bound}")
        if args.command == "tables":
            return _cmd_tables(args.file, args.map_name, args, args.json)
        if args.command == "validate":
            report = _execute(args.file, args, kinds=())
        elif args.command == "run":
            report = _execute(args.file, args)
        elif args.command == "query":
            report = _execute(args.file, args, only_query=args.query_id, with_axioms=False)
        elif args.command == "prove":
            report = _execute(
                args.file, args, only_query=args.query_id,
                kinds=("prove",), with_axioms=False,
            )
        else:  # pragma: no cover
            raise InternalError(f"unknown command {args.command}")
    except (ParseError, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except AdjointKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        _print_report(report, args.json)
        if args.command == "prove" and not args.json:
            for v in report.verdicts:
                if v.proof is not None:
                    from .derivation import render_proof

                    print(render_proof(v.proof, "text"))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head -1`); the verdict stands,
        # and the interpreter's last flush at exit must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
