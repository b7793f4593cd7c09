"""Outside-in span recorder for the traced run.

`install` replaces public functions of adjointkit with wrappers and rebinds
every name the program imported them under, so nothing in `src/` changes.
Coarse boundaries record spans (name, start, end, parent, op id) into
columnar arrays kept in memory; hot functions only count calls. `uninstall`
puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, call counter or None); a dotted attribute
# names a method
SPANS = (
    ("cli", "main", "cli.main", None),
    ("scenario", "parse_scenario", "scenario.parse", None),
    ("scenario", "instantiate", "scenario.instantiate", None),
    ("lattice", "powerset_lattice", "lattice.build", "lattice.builds"),
    ("lattice", "build_from_order", "lattice.build", "lattice.builds"),
    ("maps", "map_from_generators", "maps.generators", None),
    ("maps", "right_adjoint", "maps.right_adjoint", "maps.right_adjoint_calls"),
    ("maps", "verify_adjunction", "maps.verify_adjunction", None),
    ("maps", "gfp_meet", "maps.fixpoint", "maps.fixpoint_calls"),
    ("epistemic", "build_mama", "epistemic.build_mama", None),
    ("epistemic", "check_coclosure_consequences", "epistemic.coclosure",
     "epistemic.coclosure_calls"),
    ("dynamics", "build_dynamic_algebra", "dynamics.build", None),
    ("dynamics", "DynamicAlgebra.no_miracle_violations", "dynamics.no_miracle",
     "dynamics.no_miracle_calls"),
    ("dynamics", "DynamicAlgebra.fact_stability_report", "dynamics.fact_stability", None),
    ("dynamics", "DynamicAlgebra.kernel", "dynamics.kernel", None),
    ("quantale", "indexed_to_binary", "quantale.view_build", None),
    ("quantale", "check_epistemic_system", "quantale.system_check", "quantale.system_check_calls"),
    ("quantale", "check_epistemic_quantale", "quantale.laws", None),
    ("quantale", "check_quantale_laws", "quantale.laws", "quantale.laws_calls"),
    ("semantics", "eval_term", "semantics.eval", "semantics.eval_calls"),
    ("derivation", "prove", "derivation.prove", "derivation.prove_calls"),
    ("derivation", "render_proof", "derivation.render", None),
)

# (module, attribute, counter): hot functions, counted without a span
COUNTED = (
    ("quantale", "EpistemicSystemView.act", "quantale.act_calls"),
    ("semantics", "entails", "semantics.entails_calls"),
    ("derivation", "apply_rule", "derivation.apply_rule_calls"),
)


class Recorder:
    """Spans and counters of one process; op ids group them per op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()     # (op id, counter) -> value
        self._pairs: set = set()             # (rule, sequent) seen in this op
        self._goals: set = set()             # sequents expanded in this op

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._pairs, self._goals = set(), set()

    def end_op(self):
        self.counts[(self.op_id, "derivation.distinct_pairs")] += len(self._pairs)
        self.counts[(self.op_id, "derivation.distinct_goals")] += len(self._goals)
        self._pairs, self._goals = set(), set()

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, calls: str | None = None):
        nid = self.name_id(name)
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            # the span covers the generator's life: first next() to exhaustion
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if calls:
                    counts[(self.op_id, calls)] += 1
                idx = self.open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                counts[(self.op_id, calls)] += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "lattice.build":
                counts[(self.op_id, "lattice.elements")] += result.n
            return result
        return wrapper

    def count(self, fn, counter: str):
        counts = self.counts
        if counter == "derivation.apply_rule_calls":
            @functools.wraps(fn)
            def rule_wrapper(rule, seq, assumptions):
                op = self.op_id
                counts[(op, counter)] += 1
                self._pairs.add((rule, seq))
                self._goals.add(seq)
                result = fn(rule, seq, assumptions)
                if result is not None:
                    counts[(op, "derivation.rule_hits")] += 1
                return result
            return rule_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op_id, counter)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- merging and output ----------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(), "parent": self.parent.tolist(), "op": self.op.tolist(),
            "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
            "counts": [[op, key, value] for (op, key), value in self.counts.items()],
        }

    def merge(self, data: dict, op_id: int):
        """Add another process's spans and counts under this op id."""
        ids = [self.name_id(n) for n in data["names"]]
        base = len(self.start)
        for k in range(len(data["name"])):
            self.name.append(ids[data["name"][k]])
            parent = data["parent"][k]
            self.parent.append(base + parent if parent >= 0 else -1)
            self.op.append(op_id)
            self.start.append(data["start_ns"][k])
            self.end.append(data["end_ns"][k])
        for _, key, value in data["counts"]:
            self.counts[(op_id, key)] += value

    def write(self, path, ops):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.export(), "ops": ops}, fh)

    def self_times(self) -> dict:
        """(op id, span name) -> summed self time in seconds: each span's
        duration minus the part its child spans cover."""
        own = [self.end[k] - self.start[k] for k in range(len(self.start))]
        for k in range(len(own)):
            p = self.parent[k]
            if p >= 0:
                own[p] -= self.end[k] - self.start[k]
        out: Counter = Counter()
        for k, value in enumerate(own):
            out[(self.op[k], self.names[self.name[k]])] += value / 1e9
        return out

    def top_level_s(self) -> Counter:
        """op id -> seconds covered by spans without a parent."""
        out: Counter = Counter()
        for k in range(len(self.start)):
            if self.parent[k] < 0:
                out[self.op[k]] += (self.end[k] - self.start[k]) / 1e9
        return out


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(rec: Recorder):
    """Wrap the listed functions and rebind every module-level name of
    adjointkit that refers to them. Returns the undo list for uninstall."""
    package = sys.modules["adjointkit"]
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "adjointkit" or k.startswith("adjointkit."))]
    undo = []
    targets = [(m, a, functools.partial(rec.wrap, name=n, calls=c)) for m, a, n, c in SPANS]
    targets += [(m, a, functools.partial(rec.count, counter=n)) for m, a, n in COUNTED]
    for modname, attr, make in targets:
        owner, last = _resolve(getattr(package, modname), attr)
        original = owner.__dict__[last]
        wrapper = make(original)
        if isinstance(owner, type):
            undo.append((owner, last, original))
            setattr(owner, last, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
