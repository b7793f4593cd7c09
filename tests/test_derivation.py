"""Proof search, tree verification, rendering, and the golden derivations."""

from collections import Counter

import pytest

from adjointkit import (
    NotProved,
    ProofNode,
    parse_entailment,
    prove,
    render_proof,
    verify_tree,
)
from adjointkit import derivation
from adjointkit.derivation import (
    ADJ_UNFOLD_AFTER,
    ADJ_UNFOLD_INFO,
    APP_SUBST,
    ACT_APP_SUBST,
    CASE_SPLIT,
    DEFAULT_MAX_DEPTH,
    FACT_DISCHARGE,
    JOIN_DISTRIB,
    KERNEL_DISCHARGE,
    NO_MIRACLE,
    ORDER_AXIOM,
)
from adjointkit.terms import (
    Assumptions,
    Atom,
    Or,
    Sequent,
    parse_term,
)


def honest_assumptions():
    """Example 2 vocabulary: uncertain A, B, C; honest announcement a."""
    HT = Or(Atom("H"), Atom("T"))
    defs = {}
    for agent in ("A", "B", "C"):
        defs[(agent, "H")] = HT
        defs[(agent, "T")] = HT
    return Assumptions(
        appearance_defs=defs,
        action_appearance={(agent, "a"): "a" for agent in ("A", "B", "C")},
        kernels={"a": frozenset({"T"})},
        facts=frozenset({"H", "T"}),
        communication=frozenset({"a"}),
        agents=frozenset({"A", "B", "C"}),
        actions=frozenset({"a"}),
        atoms=frozenset({"H", "T"}),
    )


def lying_assumptions():
    """Example 3 vocabulary: C saw the coin; abar appears honest to A, B."""
    HT = Or(Atom("H"), Atom("T"))
    defs = {
        ("A", "H"): HT, ("A", "T"): HT,
        ("B", "H"): HT, ("B", "T"): HT,
        ("C", "H"): Atom("H"), ("C", "T"): Atom("T"),
    }
    act_app = {}
    for agent in ("A", "B", "C"):
        act_app[(agent, "a")] = "a"
    act_app[("A", "abar")] = "a"
    act_app[("B", "abar")] = "a"
    act_app[("C", "abar")] = "abar"
    return Assumptions(
        appearance_defs=defs,
        action_appearance=act_app,
        kernels={"a": frozenset({"T"}), "abar": frozenset({"H"})},
        facts=frozenset({"H", "T"}),
        communication=frozenset({"a", "abar"}),
        agents=frozenset({"A", "B", "C"}),
        actions=frozenset({"a", "abar"}),
        atoms=frozenset({"H", "T"}),
    )


HONEST_GOALS = [
    "H |= fi[A](H \\/ T)",
    "H |= fi[A](fi[B](H \\/ T))",
    "H |= fi[B](fi[A](fi[B](H \\/ T)))",
    "H |= after[a](fi[A](H))",
    "H |= after[a](fi[A](fi[C](H)))",
    "H |= after[a](fi[A](fi[B](H)))",
]

LYING_GOALS = [
    "H |= after[abar](fi[C](T))",
    "H |= after[abar](fi[A](H))",
    "H |= after[abar](fi[A](fi[C](H)))",
]


def test_announcement_proof_matches_the_worked_rule_sequence():
    tree = prove(parse_entailment("H |= after[a](fi[A](H))"), honest_assumptions(), 16)
    assert isinstance(tree, ProofNode)
    assert tree.rules_used() == (
        ADJ_UNFOLD_AFTER,
        ADJ_UNFOLD_INFO,
        NO_MIRACLE,
        ACT_APP_SUBST,
        APP_SUBST,
        JOIN_DISTRIB,
        CASE_SPLIT,
        FACT_DISCHARGE,
        ORDER_AXIOM,
        KERNEL_DISCHARGE,
    )


@pytest.mark.parametrize("goal", HONEST_GOALS)
def test_honest_goals_prove_within_depth_16(goal):
    tree = prove(parse_entailment(goal), honest_assumptions(), 16)
    assert isinstance(tree, ProofNode)
    assert verify_tree(tree, honest_assumptions()) is None


@pytest.mark.parametrize("goal", LYING_GOALS)
def test_lying_goals_prove_with_kernel_shortcut(goal):
    tree = prove(parse_entailment(goal), lying_assumptions(), 16)
    assert isinstance(tree, ProofNode)
    # the short route closes immediately on ker(abar) after one adjunction
    assert tree.rules_used()[0] == ADJ_UNFOLD_AFTER
    assert KERNEL_DISCHARGE in tree.rules_used()
    assert NO_MIRACLE not in tree.rules_used()


@pytest.mark.parametrize("goal", LYING_GOALS)
def test_lying_goals_prove_without_kernel_shortcut(goal):
    tree = prove(
        parse_entailment(goal), lying_assumptions(), 16, no_kernel_shortcut=True
    )
    assert isinstance(tree, ProofNode)
    assert NO_MIRACLE in tree.rules_used()
    assert verify_tree(tree, lying_assumptions()) is None


def test_lying_no_shortcut_reaches_the_two_cases():
    """The third displayed property ends in h_a(H) <= H and h_a(T) <= H."""
    tree = prove(
        parse_entailment("H |= after[abar](fi[A](fi[C](H)))"),
        lying_assumptions(),
        16,
        no_kernel_shortcut=True,
    )
    rendered = {s.render() for s in tree.sequents()}
    assert "upd[a](H) |= H" in rendered
    assert "upd[a](T) |= H" in rendered
    leaves = [n.rule for n in _leaves(tree)]
    assert FACT_DISCHARGE in tree.rules_used()
    assert KERNEL_DISCHARGE in leaves


def _leaves(node):
    if not node.children:
        return [node]
    out = []
    for c in node.children:
        out.extend(_leaves(c))
    return out


def test_knowledge_definition_expansion():
    tree = prove(parse_entailment("K[A](H) |= H"), honest_assumptions(), 8)
    assert isinstance(tree, ProofNode)
    assert tree.rule == "DefExpand"

    tree = prove(parse_entailment("H |= K[A](H \\/ T)"), honest_assumptions(), 12)
    assert isinstance(tree, ProofNode)
    assert "MeetIntro" in tree.rules_used()


def test_belief_definition_expansion():
    # B[A](t) unfolds to ~K[A](~t); only a syntactic closure can finish
    tree = prove(parse_entailment("~K[A](~H) |= B[A](H)"), honest_assumptions(), 8)
    assert isinstance(tree, ProofNode)


def test_bounded_common_knowledge_expansion():
    tree = prove(parse_entailment("CK[A,B:1](H \\/ T) |= fi[A](H \\/ T)"),
                 honest_assumptions(), 12)
    assert isinstance(tree, ProofNode)
    assert tree.rule == "DefExpand"
    tree0 = prove(parse_entailment("CK[A,B:0](H) |= H"), honest_assumptions(), 8)
    assert isinstance(tree0, ProofNode)


def test_unbounded_ck_is_not_symbolically_provable():
    outcome = prove(parse_entailment("CK[A,B](H) |= H"), honest_assumptions(), 8)
    assert isinstance(outcome, NotProved)


def test_join_distribution_is_an_equivalence_on_either_side():
    # rhs redex: both sides become syntactically equal after one pass
    tree = prove(
        parse_entailment("f[A](H) \\/ f[A](T) |= f[A](H \\/ T)"), Assumptions(), 8
    )
    assert isinstance(tree, ProofNode)
    assert tree.rule == JOIN_DISTRIB


def test_join_distribution_covers_the_empty_join():
    tree = prove(parse_entailment("upd[a](bot) |= bot"), Assumptions(), 8)
    assert isinstance(tree, ProofNode)
    assert tree.rules_used() == (JOIN_DISTRIB, ORDER_AXIOM)


def test_unprovable_goal():
    outcome = prove(parse_entailment("p |= bot"), Assumptions(), 8)
    assert isinstance(outcome, NotProved)
    assert outcome.reason == "no_applicable_rule"
    assert outcome.frontier[0].render() == "p |= bot"


def test_no_move_past_the_term_depth_limit_is_taken(monkeypatch):
    # a definition of f[A](H) that holds f[A](H) 45 levels down: each
    # AppSubst step deepens the goal by 45, so the third would pass the term
    # depth limit; that move is not taken, and the search ends in a verdict
    # where it used to end in a RecursionError
    body = parse_term("fi[A](" * 45 + "f[A](H)" + ")" * 45)
    assumptions = Assumptions(
        appearance_defs={("A", "H"): body}, action_appearance={}, kernels={},
        facts=frozenset(), communication=frozenset(), agents=frozenset({"A"}),
        actions=frozenset(), atoms=frozenset({"H", "t"}),
    )
    deepest = []
    apply_rule = derivation.apply_rule

    def watched(rule, goal, assumptions):
        deepest.append(goal.term_depth)
        return apply_rule(rule, goal, assumptions)

    monkeypatch.setattr(derivation, "apply_rule", watched)
    outcome = prove(parse_entailment("f[A](H) |= t"), assumptions)
    assert outcome == NotProved("no_applicable_rule", outcome.frontier)
    assert outcome.frontier[-1].lhs.term_depth == 91
    assert max(deepest) == 91 <= derivation.T.MAX_TERM_DEPTH


@pytest.mark.parametrize("depth", [0, derivation.T.MAX_PROOF_DEPTH + 1])
def test_prove_refuses_a_depth_outside_its_range(depth):
    with pytest.raises(ValueError, match="max_depth must be between 1 and"):
        prove(parse_entailment("H |= H"), honest_assumptions(), depth)


def test_depth_exhaustion():
    outcome = prove(parse_entailment("H |= after[a](fi[A](H))"), honest_assumptions(), 3)
    assert isinstance(outcome, NotProved)
    assert outcome.reason == "depth_exhausted"


def test_search_is_deterministic():
    goal = parse_entailment("H |= after[a](fi[A](fi[B](H)))")
    a = prove(goal, honest_assumptions(), 16)
    b = prove(goal, honest_assumptions(), 16)
    assert a == b


# -- verification ---------------------------------------------------------------


def test_every_returned_tree_verifies():
    for goal in HONEST_GOALS:
        tree = prove(parse_entailment(goal), honest_assumptions(), 16)
        assert verify_tree(tree, honest_assumptions()) is None
    for goal in LYING_GOALS:
        for flag in (False, True):
            tree = prove(
                parse_entailment(goal), lying_assumptions(), 16, no_kernel_shortcut=flag
            )
            assert verify_tree(tree, lying_assumptions()) is None


def _find_node(tree, rule):
    if tree.rule == rule:
        return tree
    for c in tree.children:
        found = _find_node(c, rule)
        if found is not None:
            return found
    return None


def _replace_node(tree, target, new):
    if tree is target:
        return new
    kids = tuple(_replace_node(c, target, new) for c in tree.children)
    return ProofNode(tree.sequent, tree.rule, tree.note, kids)


def test_kernel_discharge_on_non_kernel_atom_is_caught():
    assumptions = honest_assumptions()
    # hand-built leaf claiming H is annihilated: H is not in ker(a)
    forged = ProofNode(
        Sequent(parse_term("upd[a](H)"), Atom("H")), KERNEL_DISCHARGE, "", ()
    )
    bad = verify_tree(forged, assumptions)
    assert bad is not None
    assert bad.reason.startswith(KERNEL_DISCHARGE)


def test_mutated_sequent_inside_a_tree_is_caught():
    assumptions = honest_assumptions()
    tree = prove(parse_entailment("H |= after[a](fi[A](H))"), assumptions, 16)
    node = _find_node(tree, KERNEL_DISCHARGE)
    forged = ProofNode(
        Sequent(parse_term("upd[a](H)"), Atom("H")), node.rule, node.note, node.children
    )
    mutant = _replace_node(tree, node, forged)
    # the corruption surfaces at the parent: its rule yields other subgoals
    bad = verify_tree(mutant, assumptions)
    assert bad is not None


def test_no_miracle_with_undeclared_action_appearance_is_caught():
    assumptions = honest_assumptions()
    tree = prove(parse_entailment("H |= after[a](fi[A](H))"), assumptions, 16)
    stripped = Assumptions(
        appearance_defs=assumptions.appearance_defs,
        action_appearance={},  # f'_A(a) no longer declared
        kernels=assumptions.kernels,
        facts=assumptions.facts,
        communication=assumptions.communication,
        agents=assumptions.agents,
        actions=assumptions.actions,
        atoms=assumptions.atoms,
    )
    bad = verify_tree(tree, stripped)
    assert bad is not None
    assert NO_MIRACLE in bad.reason or "does not apply" in bad.reason


def test_tampered_subgoal_is_caught():
    assumptions = honest_assumptions()
    tree = prove(parse_entailment("H |= after[a](fi[A](H))"), assumptions, 16)
    node = _find_node(tree, CASE_SPLIT)
    forged_children = (node.children[0], node.children[0])
    forged = ProofNode(node.sequent, node.rule, node.note, forged_children)
    mutant = _replace_node(tree, node, forged)
    bad = verify_tree(mutant, assumptions)
    assert bad is not None and "different subgoals" in bad.reason


# -- rendering --------------------------------------------------------------------


def test_text_render_first_line_cites_the_adjunction():
    tree = prove(parse_entailment("H |= after[a](fi[A](H))"), honest_assumptions(), 16)
    text = render_proof(tree, "text")
    assert text.splitlines()[0].startswith(f"[{ADJ_UNFOLD_AFTER}]")
    assert "no-miracle" in text
    assert "ker(a)" in text


def test_order_axiom_single_line_render():
    tree = prove(parse_entailment("x |= x"), Assumptions(), 4)
    text = render_proof(tree, "text")
    assert text.splitlines()[0] == "[OrderAxiom] x |= x"


def proof_from_dict(data):
    """The proof tree a structured rendering describes."""
    seq = Sequent(parse_term(data["goal"]["lhs"]), parse_term(data["goal"]["rhs"]))
    kids = tuple(proof_from_dict(c) for c in data["children"])
    return ProofNode(seq, data["rule"], data["note"], kids)


def test_structured_render_round_trips():
    for goal in HONEST_GOALS + LYING_GOALS:
        assumptions = honest_assumptions() if goal in HONEST_GOALS else lying_assumptions()
        tree = prove(parse_entailment(goal), assumptions, 16)
        data = render_proof(tree, "structured")
        assert proof_from_dict(data) == tree


# -- semantic soundness -------------------------------------------------------------


def realized_assumptions(alg, model_atoms):
    """Extract assumptions that are exactly true in the model: appearance
    definitions as joins of world atoms, exact kernel memberships, and only
    the facts whose forward stability actually holds."""
    from adjointkit.terms import Bot

    lat = alg.lattice
    worlds = list(lat.worlds)

    def as_term(element):
        members = [w for w in worlds if lat.leq_(lat.subset([w]), element)]
        if not members:
            return Bot()
        term = Atom(members[0])
        for w in members[1:]:
            term = Or(term, Atom(w))
        return term

    defs = {}
    for agent in alg.mama.agents:
        f = alg.mama.appearance_map(agent)
        for w in worlds:
            defs[(agent, w)] = as_term(f(lat.subset([w])))
    kernels = {}
    facts = set()
    for name in alg.actions:
        h = alg.update_map(name)
        kernels[name] = frozenset(
            w for w in worlds if h(lat.subset([w])) == lat.bottom
        )
    for w in worlds:
        phi = lat.subset([w])
        if all(
            lat.leq_(alg.update_map(a)(phi), phi) for a in alg.communication_actions
        ):
            facts.add(w)
    act_app = {
        (agent, a): alg.appeared_action(agent, a)
        for agent in alg.mama.agents
        for a in alg.actions
    }
    return Assumptions(
        appearance_defs=defs,
        action_appearance=act_app,
        kernels=kernels,
        facts=frozenset(facts),
        communication=frozenset(alg.communication_actions),
        agents=frozenset(alg.mama.agents),
        actions=frozenset(alg.actions),
        atoms=frozenset(worlds),
    )


def random_goal(rng, atoms, agents, actions, depth):
    import random as _r

    from adjointkit.terms import After, And, App, Bot, Info, Know, Top, Upd

    def term(d):
        if d == 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.8:
                return Atom(rng.choice(atoms))
            return Bot() if roll < 0.9 else Top()
        roll = rng.random()
        if roll < 0.2:
            return Or(term(d - 1), term(d - 1))
        if roll < 0.3:
            return And(term(d - 1), term(d - 1))
        if roll < 0.5:
            return App(rng.choice(agents), term(d - 1))
        if roll < 0.7:
            return Info(rng.choice(agents), term(d - 1))
        if roll < 0.8:
            return Know(rng.choice(agents), term(d - 1))
        if roll < 0.9:
            return Upd(T_ActName(rng.choice(actions)), term(d - 1))
        return After(T_ActName(rng.choice(actions)), term(d - 1))

    return Sequent(term(depth), term(depth))


from adjointkit.terms import ActName as T_ActName


import random

from conftest import honest_coin_model, lying_coin_model


def fuzz_corpus(model_builder):
    """The soundness-fuzz model, its fully realized assumptions, and 400
    random goals drawn from a fixed seed."""
    from adjointkit.semantics import SemanticModel

    alg = model_builder()
    lat = alg.lattice
    atoms = {w: lat.subset([w]) for w in lat.worlds}
    model = SemanticModel(alg, dict(atoms))
    assumptions = realized_assumptions(alg, atoms)

    rng = random.Random(1234)
    agents = list(alg.mama.agents)
    actions = list(alg.actions)
    goals = [
        random_goal(rng, list(lat.worlds), agents, actions, rng.randint(1, 3))
        for _ in range(400)
    ]
    return model, assumptions, goals


@pytest.mark.parametrize("model_builder", [honest_coin_model, lying_coin_model])
def test_engine_soundness_fuzz(model_builder):
    """With fully realized assumptions, everything the engine proves must
    hold in the model, and every returned tree must verify."""
    from adjointkit.semantics import holds

    model, assumptions, goals = fuzz_corpus(model_builder)
    proved = refuted = 0
    for goal in goals:
        outcome = prove(goal, assumptions, DEFAULT_MAX_DEPTH)
        if isinstance(outcome, ProofNode):
            proved += 1
            assert verify_tree(outcome, assumptions) is None
            assert holds(model, goal), f"unsound proof of {goal.render()}"
        else:
            refuted += 1
    # the fuzz must exercise both outcomes to mean anything
    assert proved > 40 and refuted > 40


def test_proved_honest_goals_hold_in_the_three_world_model():
    from adjointkit.semantics import SemanticModel, holds
    from conftest import honest_coin_model

    alg = honest_coin_model()
    lat = alg.lattice
    atoms = {"H": lat.subset(["h0", "h1"]), "T": lat.subset(["t0"])}
    model = SemanticModel(alg, atoms)
    for goal in HONEST_GOALS:
        seq = parse_entailment(goal)
        tree = prove(seq, honest_assumptions(), 16)
        assert isinstance(tree, ProofNode)
        assert holds(model, seq)


# -- tabling against the untabled reference ------------------------------------------


def reference_prove(seq, assumptions, max_depth, *, no_kernel_shortcut=False):
    """Plain depth-first backtracking with no memory: the search prove ran
    before it was tabled, kept here as the reference its results must equal."""
    order = (
        derivation.RULE_ORDER_NO_KERNEL_SHORTCUT
        if no_kernel_shortcut
        else derivation.RULE_ORDER
    )
    dead_ends = []
    state = {"depth_exhausted": False}

    def search(goal, budget):
        if budget <= 0:
            state["depth_exhausted"] = True
            if goal not in dead_ends:
                dead_ends.append(goal)
            return None
        applied_any = False
        for rule in order:
            res = derivation.apply_rule(rule, goal, assumptions)
            if res is None:
                continue
            applied_any = True
            children, note = res
            kids = []
            for child in children:
                sub = search(child, budget - 1)
                if sub is None:
                    break
                kids.append(sub)
            else:
                return ProofNode(goal, rule, note, tuple(kids))
        if not applied_any and goal not in dead_ends:
            dead_ends.append(goal)
        return None

    tree = search(seq, max_depth)
    if tree is not None:
        return tree
    reason = "depth_exhausted" if state["depth_exhausted"] else "no_applicable_rule"
    return NotProved(reason, tuple(dead_ends[:16]))


O2_GOAL = "H \\/ T |= after[abar](after[abar](fi[A](fi[C](H))))"


def prove_queries(texts):
    """(name, goal, assumptions, depth) of every prove query of the scenario
    texts."""
    from adjointkit.scenario import instantiate, parse_scenario

    out = []
    for text in texts:
        doc = parse_scenario(text)
        prove_queries = [q for q in doc.queries if q.kind == "prove"]
        if not prove_queries:
            continue
        assumptions = instantiate(doc).assumptions
        for q in prove_queries:
            depth = q.depth or DEFAULT_MAX_DEPTH
            out.append((f"{doc.name}:{q.id}", Sequent(q.lhs, q.rhs), assumptions, depth))
    return out


def shipped_prove_queries():
    from importlib import resources

    paths = sorted(resources.files("adjointkit").joinpath("scenarios").iterdir())
    return prove_queries(p.read_text() for p in paths if p.suffix == ".scn")


def benchmark_prove_queries(seed):
    """The prove queries of the prove-nested benchmark's scenarios for a seed."""
    from conftest import perfbench_module

    return prove_queries(c.text for c in perfbench_module("gen").prove_cases(random.Random(seed)))


@pytest.mark.parametrize("model_builder", [honest_coin_model, lying_coin_model])
def test_tabled_search_equals_the_reference_on_the_fuzz_corpus(model_builder):
    _, assumptions, goals = fuzz_corpus(model_builder)
    for goal in goals:
        assert prove(goal, assumptions, 12) == reference_prove(goal, assumptions, 12), (
            goal.render()
        )


@pytest.mark.parametrize("no_kernel_shortcut", [False, True])
def test_tabled_search_equals_the_reference_on_the_shipped_scenarios(no_kernel_shortcut):
    queries = shipped_prove_queries()
    assert len(queries) == 9
    for name, seq, assumptions, depth in queries:
        got = prove(seq, assumptions, depth, no_kernel_shortcut=no_kernel_shortcut)
        want = reference_prove(seq, assumptions, depth, no_kernel_shortcut=no_kernel_shortcut)
        assert got == want, name


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_tabled_search_equals_the_reference_on_the_benchmark_goals(seed):
    # two of the seven goals of each scenario end depth_exhausted with a
    # full frontier, after which goals at budget 1 try only the closing rules
    queries = benchmark_prove_queries(seed)
    full = 0
    for no_kernel_shortcut in (False, True):
        for name, seq, assumptions, depth in queries:
            got = prove(seq, assumptions, depth, no_kernel_shortcut=no_kernel_shortcut)
            want = reference_prove(seq, assumptions, depth,
                                   no_kernel_shortcut=no_kernel_shortcut)
            assert got == want, name
            full += isinstance(got, NotProved) and len(got.frontier) == derivation.FRONTIER
    assert len(queries) == 48 * 7 and full >= 2 * 96


@pytest.mark.parametrize("depth", [8, 10, 12])
def test_tabled_search_equals_the_reference_on_the_nested_goal(depth):
    goal = parse_entailment(O2_GOAL)
    got = prove(goal, lying_assumptions(), depth)
    assert isinstance(got, NotProved)
    assert got == reference_prove(goal, lying_assumptions(), depth)


def test_tabled_search_expands_each_goal_once_per_budget(monkeypatch):
    # untabled, this goal takes 124,835 rule applications at depth 12
    calls = 0
    apply_rule = derivation.apply_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return apply_rule(*args)

    monkeypatch.setattr(derivation, "apply_rule", counted)
    outcome = prove(parse_entailment(O2_GOAL), lying_assumptions(), 12)
    assert isinstance(outcome, NotProved)
    assert calls <= 11_000


def test_budget_one_goals_build_no_children_once_the_frontier_is_full(monkeypatch):
    # building every budget-1 goal's children, only to see each fail at
    # budget 0, took 1,749 rule applications here
    calls = 0
    apply_rule = derivation.apply_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return apply_rule(*args)

    monkeypatch.setattr(derivation, "apply_rule", counted)
    outcome = prove(parse_entailment(O2_GOAL), lying_assumptions(), 10)
    assert outcome.reason == "depth_exhausted"
    assert len(outcome.frontier) == derivation.FRONTIER
    assert calls <= 504


@pytest.mark.parametrize("depth", [8, 10, 12])
def test_each_rule_meets_each_goal_once_per_call(monkeypatch, depth):
    # the successor cache: a goal searched at several budgets, or reached
    # again below itself, reuses the moves found for it; the rule index
    # leaves out pairs that cannot apply, and reaches the same goals
    pairs = Counter()
    apply_rule = derivation.apply_rule

    def counted(rule, goal, assumptions):
        pairs[(rule, goal)] += 1
        return apply_rule(rule, goal, assumptions)

    monkeypatch.setattr(derivation, "apply_rule", counted)
    outcome = prove(parse_entailment(O2_GOAL), lying_assumptions(), depth)
    assert isinstance(outcome, NotProved)
    assert len({goal for _, goal in pairs}) == {8: 61, 10: 147, 12: 294}[depth]
    assert [pair for pair, n in pairs.items() if n > 1] == []
