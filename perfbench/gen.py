"""Seeded generators for the in-process workloads.

Every generator draws from one `random.Random(seed)`, builds its own term
trees and model, renders them to `.scn` text and records what the oracle
says each query must return. Nothing here imports adjointkit.

Dynamic scenarios are product-update models (Baltag, Moss and Solecki,
TARK 1998). Static states s carry the ontic facts; an action a with
precondition pre(a) sends s to the post world (s, a) when s is in pre(a)
and to bot otherwise, and sends every post world to bot. An agent A who
sees s -> R_A(s) sees

    (s, a) -> {(t, b) : t in R_A(s), t in pre(b)},   b = f'_A(a),

so no-miracle holds world by world, and forward fact stability holds
because a fact holds at (s, a) exactly when it holds at s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from oracle import ChainProductModel, PowersetModel, atom, join_all, render

AGENTS = ("A", "B", "C", "D")


@dataclass
class Case:
    """One generated scenario: its text and what each query must yield."""

    name: str
    text: str
    checks: dict = field(default_factory=dict)   # query id -> "holds" | "fails"
    axioms: dict = field(default_factory=dict)   # query id -> expected verdict
    goals: dict = field(default_factory=dict)    # query id -> (lhs, rhs, depth)
    model: object = None                         # oracle model goals are judged in


def _header(name, mode, description):
    return ["version 1", f"scenario {name}", f'description "{description}"', f"mode {mode}", ""]


def _query_lines(case, model, queries):
    lines = []
    for qid, lhs, rhs in queries:
        expect = "holds" if model.entails(lhs, rhs) else "fails"
        case.checks[qid] = expect
        tail = "" if expect == "holds" else " expect fails"
        lines.append(f"query {qid} check {render(lhs)} |= {render(rhs)}{tail}")
    return lines


def _modal_term(rng, leaves, agents, depth, boolean):
    """Random term over fi, K, B and ~ (Boolean carriers only), CK and
    bounded CK, joined with /\\ and \\/."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(leaves)
    ops = ["fi", "fi", "K", "CK", "CKb", "and", "or"] + (["B", "not"] if boolean else [])
    op = rng.choice(ops)

    def sub():
        return _modal_term(rng, leaves, agents, depth - 1, boolean)

    if op in ("fi", "K", "B"):
        return (op, rng.choice(agents), sub())
    if op in ("CK", "CKb"):
        group = tuple(sorted(rng.sample(agents, rng.randint(2, min(3, len(agents))))))
        return ("CK", group, rng.randint(1, 3) if op == "CKb" else None, sub())
    if op == "not":
        return ("not", sub())
    return (op, sub(), sub())


def _static_queries(rng, model, leaves, candidates, agents, boolean):
    """30 check queries; the left side is picked so that about half hold."""
    queries = []
    for k in range(30):
        rhs = _modal_term(rng, leaves, agents, 3, boolean)
        want = rng.random() < 0.5
        options = rng.sample(candidates, len(candidates))
        lhs = next((c for c in options if model.entails(c, rhs) == want), options[0])
        queries.append((f"q{k}", lhs, rhs))
    return queries


# -- epistemic-256 ------------------------------------------------------------

def _powerset_case(rng, name):
    worlds = [f"w{k}" for k in range(8)]
    agents = list(AGENTS[: rng.choice((3, 4))])
    props = {}
    for p in ("p", "q", "r"):
        props[p] = sorted(rng.sample(worlds, rng.randint(2, 5)), key=worlds.index)
    sees = {}
    for a in agents:
        if rng.random() < 0.5:
            # a partition: the agent cannot tell worlds of one block apart
            blocks = [[] for _ in range(rng.randint(2, 4))]
            for w in worlds:
                rng.choice(blocks).append(w)
            sees[a] = {w: b for b in blocks for w in b}
        else:
            sees[a] = {w: sorted(rng.sample(worlds, rng.randint(1, 3)), key=worlds.index)
                       for w in worlds}
    model = PowersetModel(worlds, props, sees, {})

    lines = _header(name, "semantic", "generated static multi-agent model on 8 worlds")
    lines.append("worlds " + " ".join(worlds))
    for p, ws in props.items():
        lines.append(f"prop {p} = {render(join_all(atom(w) for w in ws))}")
    for a in agents:
        lines += ["", f"agent {a}"]
        for w in worlds:
            lines.append(f"  sees {w} -> {render(join_all(atom(v) for v in sees[a][w]))}")
        lines.append("end")
    lines.append("")

    leaves = [atom(p) for p in props] + [atom(rng.choice(worlds)) for _ in range(2)]
    candidates = leaves + [atom(w) for w in worlds] + [("and", atom("p"), atom("q")), ("top",)]
    queries = _static_queries(rng, model, leaves, candidates, agents, True)
    case = Case(name, "")
    lines += _query_lines(case, model, queries)
    case.text = "\n".join(lines) + "\n"
    return case


def _monotone_images(rng, steps, size):
    xs = sorted(rng.randrange(size) for _ in range(steps))
    ys = sorted(rng.randrange(size) for _ in range(steps))
    return list(zip(xs, ys))


def _grid_case(rng, name, size=12):
    name_of = ChainProductModel.name
    agents = list(AGENTS[: rng.choice((3, 4))])
    sees = {a: (_monotone_images(rng, size - 1, size), _monotone_images(rng, size - 1, size))
            for a in agents}
    plain = ChainProductModel(size, size, {}, sees)

    def point():
        return atom(name_of((rng.randrange(size), rng.randrange(size))))

    prop_terms = {"p": point(), "q": ("or", point(), point()), "r": ("and", point(), point())}
    props = {p: plain.eval(t) for p, t in prop_terms.items()}
    model = ChainProductModel(size, size, props, sees)

    lines = _header(name, "semantic", f"generated product of two {size}-element chains")
    lines.append("poset")
    for x in range(size):
        for y in range(size):
            if x + 1 < size:
                lines.append(f"  {name_of((x, y))} < {name_of((x + 1, y))}")
            if y + 1 < size:
                lines.append(f"  {name_of((x, y))} < {name_of((x, y + 1))}")
    lines.append("end")
    for p, t in prop_terms.items():
        lines.append(f"prop {p} = {render(t)}")
    for a in agents:
        xs, ys = sees[a]
        lines += ["", f"agent {a}"]
        for i, img in enumerate(xs, start=1):
            lines.append(f"  sees {name_of((i, 0))} -> {name_of(img)}")
        for j, img in enumerate(ys, start=1):
            lines.append(f"  sees {name_of((0, j))} -> {name_of(img)}")
        lines.append("end")
    lines.append("")

    leaves = [atom(p) for p in props] + [point() for _ in range(2)]
    candidates = leaves + [point() for _ in range(8)] + [("and", atom("p"), atom("q")), ("top",)]
    queries = _static_queries(rng, model, leaves, candidates, agents, False)
    case = Case(name, "")
    lines += _query_lines(case, model, queries)
    case.text = "\n".join(lines) + "\n"
    return case


def epistemic_cases(rng, count=16):
    """Three 8-world powerset carriers for every product-of-chains carrier."""
    return [
        _grid_case(rng, f"grid{k}") if k % 4 == 3 else _powerset_case(rng, f"powerset{k}")
        for k in range(count)
    ]


# -- product-update models ----------------------------------------------------

@dataclass
class ProductUpdate:
    states: list          # static state names
    facts: dict           # fact atom -> static state it names
    agents: list
    sees: dict            # agent -> state -> list of states
    actions: list
    pre: dict             # action -> set of states
    appears: dict         # agent -> action -> action

    def post(self, s, a):
        return f"{s}_{a}"

    def worlds(self):
        out = list(self.states)
        for a in self.actions:
            out += [self.post(s, a) for s in self.states if s in self.pre[a]]
        return out

    def world_sees(self, agent):
        """Appearance of every world, static and post, to the agent."""
        rel = {s: list(self.sees[agent][s]) for s in self.states}
        for a in self.actions:
            b = self.appears[agent][a]
            for s in self.states:
                if s in self.pre[a]:
                    rel[self.post(s, a)] = [self.post(t, b) for t in self.sees[agent][s]
                                            if t in self.pre[b]]
        return rel

    def updates(self, a):
        return {s: [self.post(s, a)] for s in self.states if s in self.pre[a]}

    def fact_worlds(self, fact):
        s = self.facts[fact]
        return [s] + [self.post(s, a) for a in self.actions if s in self.pre[a]]

    def kernel(self, a):
        return [p for p, s in self.facts.items() if s not in self.pre[a]]

    def model(self):
        return PowersetModel(
            self.worlds(),
            {p: self.fact_worlds(p) for p in self.facts},
            {a: self.world_sees(a) for a in self.agents},
            {a: self.updates(a) for a in self.actions},
        )

    def axioms_hold(self, model) -> bool:
        """No-miracle on every world, forward stability of every fact under
        every action, and every declared kernel annihilated. The quantale and
        system laws hold for any relational model, since words act by
        relational composition."""
        for a in self.agents:
            for act in self.actions:
                seen = self.appears[a][act]
                for k in range(len(model.worlds)):
                    w = 1 << k
                    lhs = model.image(model.sees[a], model.image(model.updates[act], w))
                    rhs = model.image(model.updates[seen], model.image(model.sees[a], w))
                    if lhs & ~rhs:
                        return False
        for p, mask in model.props.items():
            for act in self.actions:
                if model.image(model.updates[act], mask) & ~mask:
                    return False
        return all(model.image(model.updates[act], model.props[p]) == 0
                   for act in self.actions for p in self.kernel(act))


def _random_product_update(rng, n_states, n_actions, n_agents, prefix, uncertain=()):
    """Each action is executable in one static state. Agents in `uncertain`
    consider two states possible, the others one."""
    states = [f"{prefix}{k}" for k in range(n_states)]
    facts = {f"{prefix.upper()}{k}": s for k, s in enumerate(states)}
    agents = list(AGENTS[:n_agents])
    actions = [f"a{k}" for k in range(n_actions)]
    sees = {a: {s: sorted(rng.sample(states, 2 if a in uncertain else 1),
                          key=states.index)
                for s in states} for a in agents}
    pre = {act: {rng.choice(states)} for act in actions}
    appears = {a: {act: rng.choice(actions) for act in actions} for a in agents}
    return ProductUpdate(states, facts, agents, sees, actions, pre, appears)


def _product_update_lines(pu, symbolic):
    """Carrier, props, agents, actions and facts of a product-update model.
    Symbolic scenarios declare only the static states and describe
    appearance by definitions on the fact atoms."""
    lines = []
    if symbolic:
        lines.append("worlds " + " ".join(pu.states))
        for p, s in pu.facts.items():
            lines.append(f"prop {p} = {s}")
    else:
        lines.append("worlds " + " ".join(pu.worlds()))
        for p in pu.facts:
            lines.append(f"prop {p} = {render(join_all(atom(w) for w in pu.fact_worlds(p)))}")
    by_state = {s: p for p, s in pu.facts.items()}
    for a in pu.agents:
        lines += ["", f"agent {a}"]
        if symbolic:
            for p, s in pu.facts.items():
                image = join_all(atom(by_state[t]) for t in pu.sees[a][s])
                lines.append(f"  def f[{a}]({p}) = {render(image)}")
        else:
            for w, succ in pu.world_sees(a).items():
                lines.append(f"  sees {w} -> {render(join_all(atom(v) for v in succ))}")
        lines.append("end")
    for act in pu.actions:
        lines += ["", f"action {act}", "  communication"]
        if not symbolic:
            ups = pu.updates(act)
            for w in pu.worlds():
                lines.append(f"  update {w} -> {render(join_all(atom(v) for v in ups.get(w, ())))}")
        for a in pu.agents:
            lines.append(f"  appears {a} -> {pu.appears[a][act]}")
        if pu.kernel(act):
            lines.append("  kernel " + " ".join(pu.kernel(act)))
        lines.append("end")
    lines += ["", "facts " + " ".join(pu.facts), ""]
    return lines


# -- dynamic-words --------------------------------------------------------------

def _dynamic_case(rng, name):
    """2 static states and 3 communication actions, each executable in one
    state: 5 worlds, 32 elements. A and B cannot tell the static states
    apart; C is sure of one, rightly or not."""
    pu = _random_product_update(rng, 2, 3, 3, "s", uncertain=("A", "B"))
    model = pu.model()
    lines = _header(name, "semantic", "generated product-update model")
    lines += _product_update_lines(pu, symbolic=False)
    leaves = [atom(p) for p in pu.facts] + [atom(rng.choice(pu.worlds()))]
    queries = []
    for k in range(12):
        lhs = rng.choice(leaves + [("top",)])
        body = _modal_term(rng, leaves, pu.agents, 2, True)
        queries.append((f"q{k}", lhs, ("after", rng.choice(pu.actions), body)))
    case = Case(name, "", model=model)
    lines += _query_lines(case, model, queries)
    lines.append("query ax validate-axioms")
    case.axioms["ax"] = pu.axioms_hold(model)
    if not case.axioms["ax"]:
        raise AssertionError(f"{name}: the product-update construction broke an axiom")
    case.text = "\n".join(lines) + "\n"
    return case


def dynamic_cases(rng, count=16):
    return [_dynamic_case(rng, f"dynamic{k}") for k in range(count)]


# -- prove-nested -----------------------------------------------------------------

def _info_chain(agents, inner):
    for a in reversed(agents):
        inner = ("fi", a, inner)
    return inner


def _easy_goal(rng, pu, nesting):
    """P |= after[a](fi[A1](...fi[Ak](Q))), k = nesting - 1, with P the
    fact of the state where a is executable and A1..Ak agents who each
    consider one state possible. The rules prove it along one route that
    needs no backtracking: unfold the adjunctions, push upd[a] out through
    every fi by no-miracle, resolving the action appearance and the
    appearance definition at each step (three steps per fi), and end in
    upd[b](R) with b the appearance of a along the chain, discharged by
    the kernel of b or, when R is Q, as a fact. That route is 4k + 3 steps
    deep, which is the least depth the goal is given."""
    by_state = {s: p for p, s in pu.facts.items()}
    sure = [a for a in pu.agents if all(len(v) == 1 for v in pu.sees[a].values())]
    chain = [rng.choice(sure) for _ in range(nesting - 1)]
    act = rng.choice(pu.actions)
    (state,) = pu.pre[act]
    reach, b = state, act
    for a in chain:
        (reach,) = pu.sees[a][reach]
        b = pu.appears[a][b]
    target = by_state[reach] if reach in pu.pre[b] else rng.choice(list(pu.facts))
    rhs = ("after", act, _info_chain(chain, atom(target)))
    return atom(by_state[state]), rhs, 4 * len(chain) + 3


def _false_goal(rng, pu, model):
    """A goal of the easy shape whose fact is the wrong one, so it fails in
    the model; a sound prover never proves it."""
    for _ in range(100):
        lhs, rhs, least = _easy_goal(rng, pu, rng.choice((1, 2, 3)))
        for fact in pu.facts:
            wrong = ("after", rhs[1], _replace_leaf(rhs[2], atom(fact)))
            if not model.entails(lhs, wrong):
                return lhs, wrong, least
    raise AssertionError("no false goal of the easy shape in this model")


def _replace_leaf(t, leaf):
    return (t[0], t[1], _replace_leaf(t[2], leaf)) if t[0] == "fi" else leaf


def _hard_goal(rng, pu):
    """P \\/ Q |= after[a](after[b](fi[A1](fi[A2](R)))), the shape of the O2
    goal, with P the fact of the state where a is executable. It is valid,
    since no world survives two updates, but no rule reaches inside
    upd[b](upd[a](P)), so search fails only after trying every route the
    depth allows: the exponential re-search of ROADMAP O2."""
    by_state = {s: p for p, s in pu.facts.items()}
    act = rng.choice(pu.actions)
    (state,) = pu.pre[act]
    other = rng.choice([p for p in pu.facts if p != by_state[state]])
    unsure = [a for a in pu.agents if any(len(v) > 1 for v in pu.sees[a].values())]
    sure = [a for a in pu.agents if a not in unsure]
    chain = [rng.choice(unsure), rng.choice(sure)]
    inner = _info_chain(chain, atom(rng.choice(list(pu.facts))))
    lhs = ("or", atom(by_state[state]), atom(other))
    return lhs, ("after", act, ("after", rng.choice(pu.actions), inner))


def _prove_text(name, description, pu, goals):
    lines = _header(name, "symbolic", description)
    lines += _product_update_lines(pu, symbolic=True)
    for qid, (lhs, rhs, depth) in goals.items():
        lines.append(f"query {qid} prove {render(lhs)} |= {render(rhs)} depth {depth}")
    return "\n".join(lines) + "\n"


# Depth budgets of the two unprovable goals of every scenario. One more
# step of depth costs about x3 in search; fixing the budgets per slot keeps
# the cost of a scenario, and so of a seed, steady.
HARD_DEPTHS = (8, 10)
EASY_NESTINGS = (1, 2, 3, 3)


def _prove_case(rng, name):
    pu = _random_product_update(rng, 3, 3, 3, "w", uncertain=("C",))
    model = pu.model()
    goals = {}
    for k, nesting in enumerate(EASY_NESTINGS):
        lhs, rhs, least = _easy_goal(rng, pu, nesting)
        goals[f"e{k}"] = (lhs, rhs, rng.randint(max(6, least), 12))
    for k, depth in enumerate(HARD_DEPTHS):
        lhs, rhs = _hard_goal(rng, pu)
        goals[f"h{k}"] = (lhs, rhs, depth)
    for qid, (lhs, rhs, _) in goals.items():
        if not model.entails(lhs, rhs):
            raise AssertionError(f"{name} goal {qid} is not valid in its model")
    lhs, rhs, least = _false_goal(rng, pu, model)
    goals["f0"] = (lhs, rhs, rng.randint(max(6, least), 12))
    text = _prove_text(name, "generated symbolic product-update scenario", pu, goals)
    return Case(name, text, goals=goals, model=model)


def prove_cases(rng, count=48):
    return [_prove_case(rng, f"prove{k}") for k in range(count)]


def coin_lying_case():
    """The lying coin announcement as a product-update model, with the O2
    goal H \\/ T |= after[abar](after[abar](fi[A](fi[C](H)))) at depth 12."""
    pu = ProductUpdate(
        states=["h", "t"], facts={"H": "h", "T": "t"}, agents=["A", "B", "C"],
        sees={"A": {"h": ["h", "t"], "t": ["h", "t"]}, "B": {"h": ["h", "t"], "t": ["h", "t"]},
              "C": {"h": ["h"], "t": ["t"]}},
        actions=["a", "abar"], pre={"a": {"h"}, "abar": {"t"}},
        appears={"A": {"a": "a", "abar": "a"}, "B": {"a": "a", "abar": "a"},
                 "C": {"a": "a", "abar": "abar"}},
    )
    goal = (("or", atom("H"), atom("T")),
            ("after", "abar", ("after", "abar", ("fi", "A", ("fi", "C", atom("H"))))), 12)
    goals = {"o2": goal}
    return Case("coin-lying-o2", _prove_text("coin-lying-o2", "lying coin, nested lie", pu, goals),
                goals=goals, model=pu.model())
