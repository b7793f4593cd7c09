"""The .scn scenario format: parse, serialize, instantiate.

Line-oriented block grammar, versioned with a mandatory `version 1` header:

    version 1
    scenario <name>
    description "<free text>"          # optional
    mode semantic | symbolic | both

    worlds w1 w2 ...                   # carrier: powerset of worlds, or
    poset                              # explicit order (one decl per file)
      a < b
      lonely                           # element with no declared edges
    end

    prop NAME = <ground term>          # proposition atoms

    agent NAME
      sees <generator> -> <ground term>    # appearance on join-irreducibles
      def f[NAME](ATOM) = <term>           # symbolic appearance definition
    end

    action NAME
      communication
      update <generator> -> <ground term>
      appears AGENT -> ACTION          # f'_AGENT(this) = ACTION; default: itself
      kernel ATOM ...
    end

    facts ATOM ...

    query ID check <term> |= <term> [expect holds|fails]
    query ID prove <term> |= <term> [depth N]     (1 <= N <= 200)
    query ID evaluate <term>
    query ID validate-axioms

Comments start with '#'. Appearance and update maps are declared on
join-irreducibles only (worlds, for powerset carriers); full tables are
never written by hand. The serializer is canonical: parse(serialize(doc))
is structurally equal to doc.
"""

from __future__ import annotations

from .errors import (
    KernelMismatch,
    MissingGenerator,
    ParseError,
    ResolutionError,
)
from . import dynamics, epistemic, lattice as lattice_mod
from .semantics import SemanticModel, eval_term, evaluate
from . import terms as T
from .terms import Assumptions, Term, parse_entailment, parse_term, render_term

MODES = ("semantic", "symbolic", "both")
QUERY_KINDS = ("check", "prove", "evaluate", "validate-axioms")


def _same_key(self, other):
    """== for the declaration classes: the same class and equal _key()."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._key() == other._key()


class AgentDecl:
    __slots__ = ("name", "sees", "defs")

    def __init__(self, name: str, sees: tuple = (), defs: tuple = ()):
        self.name = name
        self.sees = sees        # ((generator label, ground term), ...)
        self.defs = defs        # ((atom, term), ...)

    def _key(self):
        return self.name, self.sees, self.defs

    __eq__ = _same_key


class ActionDecl:
    __slots__ = ("name", "communication", "updates", "appears", "kernel")

    def __init__(self, name: str, communication: bool = False, updates: tuple = (),
                 appears: tuple = (), kernel: tuple = ()):
        self.name = name
        self.communication = communication
        self.updates = updates  # ((generator label, ground term), ...)
        self.appears = appears  # ((agent, action), ...)
        self.kernel = kernel    # (atom, ...)

    def _key(self):
        return self.name, self.communication, self.updates, self.appears, self.kernel

    __eq__ = _same_key


class Query:
    __slots__ = ("id", "kind", "lhs", "rhs", "expect", "depth")

    def __init__(self, id: str, kind: str, lhs: Term | None = None, rhs: Term | None = None,
                 expect: str = "holds", depth: int | None = None):
        self.id = id
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs
        self.expect = expect    # check queries only
        self.depth = depth      # prove queries only

    def _key(self):
        return self.id, self.kind, self.lhs, self.rhs, self.expect, self.depth

    __eq__ = _same_key


class ScenarioDoc:
    """A parsed scenario; parse_scenario(serialize(doc)) == doc."""

    __slots__ = (
        "name", "mode", "version", "description", "worlds", "poset_elements",
        "poset_edges", "props", "agents", "actions", "facts", "queries",
    )

    def __init__(self, name: str, mode: str, version: int = 1,
                 description: str | None = None, worlds: tuple = (),
                 poset_elements: tuple = (), poset_edges: tuple = (), props: tuple = (),
                 agents: tuple = (), actions: tuple = (), facts: tuple = (),
                 queries: tuple = ()):
        self.name = name
        self.mode = mode
        self.version = version
        self.description = description
        self.worlds = worlds
        self.poset_elements = poset_elements
        self.poset_edges = poset_edges
        self.props = props      # ((name, ground term), ...)
        self.agents = agents
        self.actions = actions
        self.facts = facts
        self.queries = queries

    def _key(self):
        return (self.name, self.mode, self.version, self.description, self.worlds,
                self.poset_elements, self.poset_edges, self.props, self.agents,
                self.actions, self.facts, self.queries)

    __eq__ = _same_key

    @property
    def has_poset(self) -> bool:
        return bool(self.poset_elements)


# -- parsing ---------------------------------------------------------------


def _significant_lines(text: str):
    """An iterator of (line number, text, indent column) over the lines that
    hold more than a comment, each cut at its '#' and stripped."""
    return iter([(n, body, len(line) - len(line.lstrip()) + 1)
                 for n, line in enumerate(text.splitlines(), 1)
                 if (body := line.split("#", 1)[0].strip())])


class _Terms:
    """The terms of one parse_scenario call. Each distinct text is parsed
    once: a text that parsed before gives its term again. refs maps each
    term to the (kind, name) references its parse recorded, for _resolve."""

    def __init__(self):
        self.parsed: dict[str, Term] = {}  # by stripped text
        self.refs: dict[Term, list] = {}

    def term(self, text, line, column_offset) -> Term:
        t = self.parsed.get(text.strip())
        if t is None:
            refs = []
            t = self.parsed[text.strip()] = parse_term(text, line, column_offset, refs)
            self.refs[t] = refs
        return t

    def entailment(self, text, line, column_offset) -> tuple[Term, Term]:
        # A left side that parsed before as a whole term parses the same up
        # to |= here, so the right side alone fails as the entailment would.
        # Otherwise the entailment is parsed whole, for its errors.
        cut = text.find("|=")
        lhs = self.parsed.get(text[:cut].strip()) if cut >= 0 else None
        if lhs is not None:
            return lhs, self.term(text[cut + 2:], line, column_offset + cut + 2)
        refs = ([], [])
        seq = parse_entailment(text, line, column_offset, refs)
        self.parsed[text[:cut].strip()], self.parsed[text[cut + 2:].strip()] = seq.lhs, seq.rhs
        self.refs[seq.lhs], self.refs[seq.rhs] = refs
        return seq.lhs, seq.rhs


def _split_arrow(lineno, text, col):
    if "->" not in text:
        raise ParseError(lineno, col, "missing '->'")
    left, right = text.split("->", 1)
    return left.strip(), right.strip(), col + text.index("->") + 2


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse scenario text; raises ParseError / ResolutionError with
    locations. All cross-references are checked before returning."""
    lines = _significant_lines(text)
    terms = _Terms()

    first = next(lines, None)
    if first is None:
        raise ParseError(1, 1, "empty scenario")
    lineno, body, col = first
    if body.split() != ["version", "1"]:
        raise ParseError(lineno, col, f"expected 'version 1', found {body!r}")

    name = None
    description = None
    mode = None
    worlds: list[str] = []
    poset_elements: list[str] = []
    poset_edges: list[tuple[str, str]] = []
    carrier_declared = False
    props: list[tuple[str, Term]] = []
    agents: list[AgentDecl] = []
    actions: list[ActionDecl] = []
    facts: list[str] = []
    queries: list[Query] = []

    for lineno, body, col in lines:
        words = body.split()
        head = words[0]

        if head == "scenario":
            if len(words) != 2:
                raise ParseError(lineno, col, "scenario wants exactly one name")
            name = words[1]
        elif head == "description":
            rest = body[len("description"):].strip()
            if not (rest.startswith('"') and rest.endswith('"') and len(rest) >= 2):
                raise ParseError(lineno, col, "description wants a double-quoted string")
            description = rest[1:-1]
        elif head == "mode":
            if len(words) != 2 or words[1] not in MODES:
                raise ParseError(lineno, col, "mode must be semantic, symbolic or both")
            mode = words[1]
        elif head == "worlds":
            if carrier_declared:
                raise ParseError(lineno, col, "carrier already declared")
            if len(words) < 2:
                raise ParseError(lineno, col, "worlds wants at least one label")
            worlds = words[1:]
            carrier_declared = True
        elif head == "poset":
            if carrier_declared:
                raise ParseError(lineno, col, "carrier already declared")
            carrier_declared = True
            seen: dict[str, None] = {}
            for slineno, sbody, scol in lines:
                if sbody == "end":
                    break
                parts = sbody.split()
                if len(parts) == 1:
                    seen.setdefault(parts[0])
                elif len(parts) == 3 and parts[1] == "<":
                    seen.setdefault(parts[0])
                    seen.setdefault(parts[2])
                    poset_edges.append((parts[0], parts[2]))
                else:
                    raise ParseError(slineno, scol, "poset lines are 'a < b' or a bare element")
            else:
                raise ParseError(lineno, col, "poset block not closed with 'end'")
            poset_elements = list(seen)
        elif head == "prop":
            rest = body[len("prop"):].strip()
            if "=" not in rest:
                raise ParseError(lineno, col, "prop wants 'prop NAME = term'")
            pname, expr = (s.strip() for s in rest.split("=", 1))
            if not pname.isidentifier():
                raise ParseError(lineno, col, f"bad proposition name {pname!r}")
            props.append((pname, terms.term(expr, lineno, col + body.index("="))))
        elif head == "agent":
            if len(words) != 2:
                raise ParseError(lineno, col, "agent wants exactly one name")
            agents.append(_parse_agent_block(lines, terms, lineno, col, words[1]))
        elif head == "action":
            if len(words) != 2:
                raise ParseError(lineno, col, "action wants exactly one name")
            actions.append(_parse_action_block(lines, terms, lineno, col, words[1]))
        elif head == "facts":
            facts.extend(words[1:])
        elif head == "query":
            queries.append(_parse_query(terms, lineno, body, col))
        else:
            raise ParseError(lineno, col, f"unknown declaration {head!r}")

    if name is None:
        raise ParseError(1, 1, "missing 'scenario <name>' header")
    if mode is None:
        raise ParseError(1, 1, "missing 'mode' declaration")
    if not carrier_declared:
        raise ParseError(1, 1, "missing carrier declaration (worlds or poset)")

    doc = ScenarioDoc(
        name=name,
        mode=mode,
        description=description,
        worlds=tuple(worlds),
        poset_elements=tuple(poset_elements),
        poset_edges=tuple(poset_edges),
        props=tuple(props),
        agents=tuple(agents),
        actions=tuple(actions),
        facts=tuple(facts),
        queries=tuple(queries),
    )
    _resolve(doc, terms.refs)
    return doc


def _parse_agent_block(lines, terms, lineno, col, name) -> AgentDecl:
    sees, defs = [], []
    for slineno, body, scol in lines:
        if body == "end":
            return AgentDecl(name, tuple(sees), tuple(defs))
        if body.startswith("sees "):
            gen, rhs, rhs_col = _split_arrow(slineno, body[len("sees "):], scol + 5)
            sees.append((gen, terms.term(rhs, slineno, rhs_col - 1)))
        elif body.startswith("def "):
            rest = body[len("def "):]
            if "=" not in rest:
                raise ParseError(slineno, scol, "def wants 'def f[A](ATOM) = term'")
            head, rhs = (s.strip() for s in rest.split("=", 1))
            atom = _parse_def_head(slineno, scol, head, name)
            defs.append((atom, terms.term(rhs, slineno, scol + body.index("="))))
        else:
            raise ParseError(slineno, scol, "agent lines start with 'sees' or 'def'")
    raise ParseError(lineno, col, f"agent block {name!r} not closed with 'end'")


def _parse_def_head(lineno, col, head, agent) -> str:
    # shape: f[AGENT](ATOM), with AGENT matching the enclosing block
    t = parse_term(head, lineno, col - 1)
    if not (isinstance(t, T.App) and isinstance(t.arg, T.Atom)):
        raise ParseError(lineno, col, "def head must look like f[A](ATOM)")
    if t.agent != agent:
        raise ParseError(lineno, col, f"def head names agent {t.agent!r} inside block {agent!r}")
    return t.arg.name


def _parse_action_block(lines, terms, lineno, col, name) -> ActionDecl:
    communication = False
    updates, appears, kernel = [], [], []
    for slineno, body, scol in lines:
        if body == "end":
            return ActionDecl(name, communication, tuple(updates), tuple(appears), tuple(kernel))
        if body == "communication":
            communication = True
        elif body.startswith("update "):
            gen, rhs, rhs_col = _split_arrow(slineno, body[len("update "):], scol + 7)
            updates.append((gen, terms.term(rhs, slineno, rhs_col - 1)))
        elif body.startswith("appears "):
            agent, target, _ = _split_arrow(slineno, body[len("appears "):], scol + 8)
            if not agent.isidentifier() or not target.isidentifier():
                raise ParseError(slineno, scol, "appears wants 'appears AGENT -> ACTION'")
            appears.append((agent, target))
        elif body.startswith("kernel"):
            kernel.extend(body.split()[1:])
        else:
            raise ParseError(slineno, scol,
                             "action lines: communication / update / appears / kernel")
    raise ParseError(lineno, col, f"action block {name!r} not closed with 'end'")


def _parse_query(terms, lineno, body, col) -> Query:
    words = body.split()
    if len(words) < 3:
        raise ParseError(lineno, col, "query wants 'query ID KIND ...'")
    qid, kind = words[1], words[2]
    if kind not in QUERY_KINDS:
        raise ParseError(lineno, col, f"unknown query kind {kind!r}")
    rest = body.split(None, 2)[2][len(kind):].strip()
    rest_col = col + body.index(kind) + len(kind) + 1

    if kind == "validate-axioms":
        if rest:
            raise ParseError(lineno, rest_col, "validate-axioms takes no arguments")
        return Query(qid, kind)
    if kind == "evaluate":
        return Query(qid, kind, lhs=terms.term(rest, lineno, rest_col - 1))

    expect, depth = "holds", None
    if kind == "check":
        parts = rest.rsplit(" expect ", 1)
        if len(parts) == 2:
            rest, expect = parts[0].strip(), parts[1].strip()
            if expect not in ("holds", "fails"):
                raise ParseError(lineno, rest_col, "expect wants holds or fails")
    if kind == "prove":
        parts = rest.rsplit(" depth ", 1)
        if len(parts) == 2 and parts[1].strip().isdigit():
            depth_col = rest_col + len(rest) - len(parts[1].lstrip())
            rest, depth = parts[0].strip(), int(parts[1].strip())
            if depth < 1:
                raise ParseError(lineno, depth_col, "depth must be at least 1")
            if depth > T.MAX_PROOF_DEPTH:
                raise ParseError(lineno, depth_col, f"depth must be at most {T.MAX_PROOF_DEPTH}")

    lhs, rhs = terms.entailment(rest, lineno, rest_col - 1)
    return Query(qid, kind, lhs=lhs, rhs=rhs, expect=expect, depth=depth)


# -- cross-reference resolution ----------------------------------------------


def _resolve(doc: ScenarioDoc, refs: dict):
    """Check every cross-reference of doc; refs maps each of its terms to
    the references its parse recorded, in source order."""
    carrier = set(doc.worlds) | set(doc.poset_elements)
    prop_names = set()
    for pname, term in doc.props:
        if pname in carrier or pname in prop_names:
            raise ResolutionError(f"proposition {pname!r} collides with another name")
        for kind, n in refs[term]:
            if kind != "atom":
                raise ResolutionError(f"prop {pname!r} must be a ground term, found a {kind}")
            if n not in carrier and n not in prop_names:
                raise ResolutionError(f"prop {pname!r} references undeclared name {n!r}")
        prop_names.add(pname)

    agent_names = set()
    for a in doc.agents:
        if a.name in agent_names:
            raise ResolutionError(f"duplicate agent {a.name!r}")
        agent_names.add(a.name)
    action_names = set()
    for act in doc.actions:
        if act.name in action_names:
            raise ResolutionError(f"duplicate action {act.name!r}")
        action_names.add(act.name)

    atoms = carrier | prop_names
    pools = {"atom": atoms, "agent": agent_names, "action": action_names}

    def check_term(term, where, *, ground=False):
        for kind, n in refs[term]:
            if n not in pools[kind]:
                raise ResolutionError(f"{where} references undeclared {kind} {n!r}")
            if ground and kind != "atom":
                raise ResolutionError(f"{where} must be a ground term")

    def no_repeats(keys, block, line):
        seen = set()
        for k in keys:
            if k in seen:
                raise ResolutionError(f"{block} repeats '{line} {k}'")
            seen.add(k)

    for a in doc.agents:
        no_repeats((gen for gen, _ in a.sees), f"agent {a.name!r}", "sees")
        for gen, term in a.sees:
            if gen not in carrier:
                raise ResolutionError(
                    f"agent {a.name!r} sees undeclared element {gen!r}"
                )
            check_term(term, f"agent {a.name!r} appearance", ground=True)
        for atom, term in a.defs:
            if atom not in atoms:
                raise ResolutionError(f"agent {a.name!r} defines f on undeclared atom {atom!r}")
            check_term(term, f"agent {a.name!r} definition")

    for act in doc.actions:
        no_repeats((gen for gen, _ in act.updates), f"action {act.name!r}", "update")
        no_repeats((agent for agent, _ in act.appears), f"action {act.name!r}", "appears")
        for gen, term in act.updates:
            if gen not in carrier:
                raise ResolutionError(f"action {act.name!r} updates undeclared element {gen!r}")
            check_term(term, f"action {act.name!r} update", ground=True)
        for agent, target in act.appears:
            if agent not in agent_names:
                raise ResolutionError(f"action {act.name!r} appears to undeclared agent {agent!r}")
            if target not in action_names:
                raise ResolutionError(f"action {act.name!r} appears as undeclared action {target!r}")
        for atom in act.kernel:
            if atom not in atoms:
                raise ResolutionError(f"kernel of {act.name!r} names undeclared atom {atom!r}")

    for f in doc.facts:
        if f not in atoms:
            raise ResolutionError(f"facts name undeclared atom {f!r}")

    seen_q = set()
    for q in doc.queries:
        if q.id in seen_q:
            raise ResolutionError(f"duplicate query id {q.id!r}")
        seen_q.add(q.id)
        if q.kind in ("check", "evaluate") and doc.mode == "symbolic":
            raise ResolutionError(f"query {q.id!r}: {q.kind} needs a semantic scenario")
        if q.kind == "prove" and doc.mode == "semantic":
            raise ResolutionError(f"query {q.id!r}: prove needs a symbolic scenario")
        for term in (q.lhs, q.rhs):
            if term is not None:
                check_term(term, f"query {q.id!r}")


# -- serialization ------------------------------------------------------------


def serialize(doc: ScenarioDoc) -> str:
    """Canonical text; parse(serialize(doc)) is structurally equal to doc."""
    out = ["version 1", f"scenario {doc.name}"]
    if doc.description is not None:
        out.append(f'description "{doc.description}"')
    out.append(f"mode {doc.mode}")
    out.append("")
    if doc.worlds:
        out.append("worlds " + " ".join(doc.worlds))
    else:
        out.append("poset")
        edged = {n for e in doc.poset_edges for n in e}
        for n in doc.poset_elements:
            if n not in edged:
                out.append(f"  {n}")
        for a, b in doc.poset_edges:
            out.append(f"  {a} < {b}")
        out.append("end")
    for pname, term in doc.props:
        out.append(f"prop {pname} = {render_term(term)}")
    for a in doc.agents:
        out.append("")
        out.append(f"agent {a.name}")
        for gen, term in a.sees:
            out.append(f"  sees {gen} -> {render_term(term)}")
        for atom, term in a.defs:
            out.append(f"  def f[{a.name}]({atom}) = {render_term(term)}")
        out.append("end")
    for act in doc.actions:
        out.append("")
        out.append(f"action {act.name}")
        if act.communication:
            out.append("  communication")
        for gen, term in act.updates:
            out.append(f"  update {gen} -> {render_term(term)}")
        for agent, target in act.appears:
            out.append(f"  appears {agent} -> {target}")
        if act.kernel:
            out.append("  kernel " + " ".join(act.kernel))
        out.append("end")
    if doc.facts:
        out.append("")
        out.append("facts " + " ".join(doc.facts))
    if doc.queries:
        out.append("")
    for q in doc.queries:
        if q.kind == "validate-axioms":
            out.append(f"query {q.id} validate-axioms")
        elif q.kind == "evaluate":
            out.append(f"query {q.id} evaluate {render_term(q.lhs)}")
        else:
            line = f"query {q.id} {q.kind} {render_term(q.lhs)} |= {render_term(q.rhs)}"
            if q.kind == "check" and q.expect != "holds":
                line += " expect fails"
            if q.kind == "prove" and q.depth is not None:
                line += f" depth {q.depth}"
            out.append(line)
    return "\n".join(out) + "\n"


# -- instantiation --------------------------------------------------------------


class Instantiated:
    __slots__ = ("doc", "model", "assumptions", "realization_warnings")

    def __init__(self, doc: ScenarioDoc, model: SemanticModel | None,
                 assumptions: Assumptions | None, realization_warnings: tuple[str, ...] = ()):
        self.doc = doc
        self.model = model
        self.assumptions = assumptions
        self.realization_warnings = realization_warnings

    @property
    def queries(self):
        return self.doc.queries


def _build_lattice(doc: ScenarioDoc):
    if doc.worlds:
        return lattice_mod.powerset_lattice(doc.worlds)
    return lattice_mod.build_from_order(doc.poset_elements, doc.poset_edges)


def _ground_env(doc: ScenarioDoc, lat):
    env: dict[str, object] = {}
    if doc.worlds:
        for w in doc.worlds:
            env[w] = lat.subset([w])
    else:
        for n in doc.poset_elements:
            env[n] = lat.element(n)
    return env


def instantiate(doc: ScenarioDoc, *, full_lattice_axioms: bool = False) -> Instantiated:
    """Build the semantic model and/or the assumption set a document declares.

    In 'both' mode symbolic declarations are checked against the model:
    kernel and fact declarations must be realized (they are axioms), while
    unrealized appearance definitions are reported as warnings, since they
    are hypotheses of the derivation engine rather than model constraints.
    """
    model = None
    assumptions = None
    warnings: list[str] = []

    if doc.mode in ("semantic", "both"):
        lat = _build_lattice(doc)
        env = _ground_env(doc, lat)
        for pname, term in doc.props:
            env[pname] = evaluate(lat, env, None, term)

        def generator_map(pairs):
            # generator labels are worlds (powerset) or poset elements; the
            # map builder validates that they cover the join-irreducibles
            gens = {}
            for gen, term in pairs:
                el = lat.subset([gen]) if doc.worlds else lat.element(gen)
                gens[el] = evaluate(lat, env, None, term)
            return gens

        mama_assignments = {a.name: generator_map(a.sees) for a in doc.agents}
        try:
            mama = epistemic.build_mama(lat, mama_assignments)
        except MissingGenerator as exc:
            raise MissingGenerator(f"scenario {doc.name!r}: {exc}") from exc

        labels = [dynamics.ActionLabel(act.name, act.communication) for act in doc.actions]
        updates = {act.name: generator_map(act.updates) for act in doc.actions}
        appearance: dict[str, dict[str, str]] = {a.name: {} for a in doc.agents}
        for act in doc.actions:
            for agent, target in act.appears:
                appearance[agent][act.name] = target
        fact_elems = tuple(env[f] for f in doc.facts)
        declared_kernels = {
            act.name: tuple(env[x] for x in act.kernel) for act in doc.actions if act.kernel
        }
        alg = dynamics.build_dynamic_algebra(
            mama, labels, updates, appearance, fact_elems, declared_kernels,
            full_lattice_axioms=full_lattice_axioms,
        )
        model = SemanticModel(alg, env)

        for name, declared in declared_kernels.items():
            h = alg.update_map(name)
            missed = ", ".join(e.name for e in declared if h(e) is not lat.bottom)
            if missed:
                raise KernelMismatch(
                    f"action {name!r}: declared kernel atoms not annihilated: {missed}"
                )

    if doc.mode in ("symbolic", "both"):
        defs = {}
        for a in doc.agents:
            for atom, term in a.defs:
                key = (a.name, atom)
                if key in defs:
                    raise ResolutionError(
                        f"duplicate definition of f[{a.name}]({atom})"
                    )
                defs[key] = term
        act_app = {}
        kernels = {}
        for act in doc.actions:
            for agent, target in act.appears:
                act_app[(agent, act.name)] = target
            if act.kernel:
                kernels[act.name] = frozenset(act.kernel)
        # actions with no explicit appearance default to themselves
        for act in doc.actions:
            for a in doc.agents:
                act_app.setdefault((a.name, act.name), act.name)
        assumptions = Assumptions(
            appearance_defs=defs,
            action_appearance=act_app,
            kernels=kernels,
            facts=frozenset(doc.facts),
            communication=frozenset(a.name for a in doc.actions if a.communication),
            agents=frozenset(a.name for a in doc.agents),
            actions=frozenset(a.name for a in doc.actions),
            atoms=frozenset(n for n, _ in doc.props)
            | frozenset(doc.worlds)
            | frozenset(doc.poset_elements),
        )

    if model is not None and assumptions is not None:
        for (agent, atom), term in assumptions.appearance_defs.items():
            declared = eval_term(model, T.App(agent, T.Atom(atom)))
            defined = eval_term(model, term)
            if declared != defined:
                warnings.append(
                    f"definition f[{agent}]({atom}) = {render_term(term)} is not realized: "
                    f"model value {declared.name}, declared {defined.name}"
                )

    return Instantiated(doc, model, assumptions, tuple(warnings))
