"""The rule rewrites against the hand-written walkers they replaced.

Every rule used to walk terms with its own recursive helper. The copies
below are those helpers and the whole rule dispatch as they were, kept
only as the reference: on every goal that the searches of the fuzz corpus,
the shipped prove queries and the nested O2 goal reach, apply_rule must
return exactly what the reference returns, None included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adjointkit import derivation, prove
from adjointkit.derivation import (
    ACT_APP_SUBST,
    ADJ_UNFOLD_AFTER,
    ADJ_UNFOLD_INFO,
    APP_SUBST,
    CASE_SPLIT,
    DEFAULT_MAX_DEPTH,
    DEF_EXPAND,
    FACT_DISCHARGE,
    JOIN_DISTRIB,
    KERNEL_DISCHARGE,
    MEET_INTRO,
    NO_MIRACLE,
    ORDER_AXIOM,
    RULE_ORDER,
    RULE_ORDER_NO_KERNEL_SHORTCUT,
)
from adjointkit.errors import InternalError
from adjointkit import terms as T
from adjointkit.terms import (
    ActApp,
    ActName,
    After,
    And,
    App,
    Atom,
    Believe,
    Bot,
    CK,
    Info,
    Know,
    Not,
    Or,
    Sequent,
    Top,
    Upd,
    parse_entailment,
    render_action,
)


# -- the reference: the walkers and rule bodies before the rewrite helper --------


def _rebuild(t, *args):
    if isinstance(t, (Or, And)):
        return type(t)(*args)
    if isinstance(t, Not):
        return Not(*args)
    if isinstance(t, (App, Info, Know, Believe)):
        return type(t)(t.agent, *args)
    if isinstance(t, CK):
        return CK(t.agents, args[0], t.depth)
    if isinstance(t, (Upd, After)):
        return type(t)(t.action, *args)
    return t


def _subst_appearances(t, defs):
    """Replace every f[A](atom) with its declared definition, in one
    simultaneous pass (replacements are not rewritten again)."""
    hit = False

    def rec(t):
        nonlocal hit
        if isinstance(t, App) and isinstance(t.arg, Atom):
            key = (t.agent, t.arg.name)
            if key in defs:
                hit = True
                return defs[key], [f"f[{t.agent}]({t.arg.name})"]
        kids = T.children(t)
        if not kids:
            return t, []
        used = []
        new_kids = []
        for k in kids:
            nk, u = rec(k)
            new_kids.append(nk)
            used.extend(u)
        return (_rebuild(t, *new_kids) if used else t), used

    out, used = rec(t)
    return (out, used) if hit else (None, [])


def _resolve_actions(ref, table):
    """Resolve action appearances innermost-first; returns (ref, citations)."""
    if isinstance(ref, ActApp):
        inner, used = _resolve_actions(ref.ref, table)
        if isinstance(inner, ActName) and (ref.agent, inner.name) in table:
            target = table[(ref.agent, inner.name)]
            return ActName(target), used + [
                f"f'[{ref.agent}]({inner.name}) = {target}"
            ]
        return ActApp(ref.agent, inner), used
    return ref, []


def _subst_action_refs(t, table):
    hit = False

    def rec(t):
        nonlocal hit
        if isinstance(t, (Upd, After)):
            ref, used = _resolve_actions(t.action, table)
            arg, used2 = rec(t.arg)
            if used or used2:
                hit = True
                return type(t)(ref, arg), used + used2
            return t, []
        kids = T.children(t)
        if not kids:
            return t, []
        new_kids, used = [], []
        for k in kids:
            nk, u = rec(k)
            new_kids.append(nk)
            used.extend(u)
        return (_rebuild(t, *new_kids) if used else t), used

    out, used = rec(t)
    return (out, used) if hit else (None, [])


def _join_distrib(t):
    """One parallel pass pushing f[A] / upd[a] through \\/ (and through bot,
    the empty join); newly created redexes wait for the next pass."""
    hit = False

    def walk(t):
        nonlocal hit
        if isinstance(t, (App, Upd)):
            if isinstance(t.arg, Or):
                hit = True
                left = _mk_modal(t, t.arg.left)
                right = _mk_modal(t, t.arg.right)
                return Or(left, right)
            if isinstance(t.arg, Bot):
                hit = True
                return Bot()
        kids = T.children(t)
        if not kids:
            return t
        return _rebuild(t, *(walk(k) for k in kids))

    out = walk(t)
    return out if hit else None


def _mk_modal(t, arg):
    if isinstance(t, App):
        return App(t.agent, arg)
    return Upd(t.action, arg)


def _find_def_node(t):
    """First K / B / CK node in pre-order, or None."""
    if isinstance(t, (Know, Believe)) or (isinstance(t, CK) and t.depth is not None):
        return t
    for k in T.children(t):
        found = _find_def_node(k)
        if found is not None:
            return found
    return None


def _expand_def(t, target):
    """Replace the first occurrence of target (by identity of match) with
    its definition."""
    if t is target or t == target:
        if isinstance(t, Know):
            return And(Info(t.agent, t.arg), t.arg)
        if isinstance(t, Believe):
            return Not(Know(t.agent, Not(t.arg)))
        if isinstance(t, CK):
            if t.depth == 0:
                return t.arg
            inner = CK(t.agents, t.arg, t.depth - 1)
            conj = None
            for agent in t.agents:
                part = Info(agent, inner)
                conj = part if conj is None else And(conj, part)
            return And(t.arg, conj)
        raise InternalError("not an expandable node")
    kids = T.children(t)
    for i, k in enumerate(kids):
        if _contains(k, target):
            new_kids = list(kids)
            new_kids[i] = _expand_def(k, target)
            return _rebuild(t, *new_kids)
    return t


def _contains(t, target):
    if t is target or t == target:
        return True
    return any(_contains(k, target) for k in T.children(t))


def _find_no_miracle(t, assumptions):
    """First f[A](upd[a](s)) redex reachable through monotone constructors,
    with a a concrete action whose appearance to A is declared."""
    if isinstance(t, App) and isinstance(t.arg, Upd):
        ref = t.arg.action
        if (
            isinstance(ref, ActName)
            and (t.agent, ref.name) in assumptions.action_appearance
        ):
            return t
    if isinstance(t, (Not, Believe)):
        return None  # not a monotone position
    for k in T.children(t):
        found = _find_no_miracle(k, assumptions)
        if found is not None:
            return found
    return None


def _replace_once(t, target, replacement):
    if t is target:
        return replacement
    kids = T.children(t)
    for i, k in enumerate(kids):
        if _contains_id(k, target):
            new_kids = list(kids)
            new_kids[i] = _replace_once(k, target, replacement)
            return _rebuild(t, *new_kids)
    return t


def _contains_id(t, target):
    if t is target:
        return True
    return any(_contains_id(k, target) for k in T.children(t))



def reference_apply_rule(rule, seq, assumptions):
    """apply_rule as it was, over the walkers above."""
    lhs, rhs = seq.lhs, seq.rhs

    if rule == ORDER_AXIOM:
        if lhs == rhs:
            return [], "both sides are equal"
        if isinstance(lhs, Bot):
            return [], "bot is below everything"
        if isinstance(rhs, Top):
            return [], "everything is below top"
        if isinstance(rhs, Or) and lhs in T.or_spine(rhs):
            return [], "the left side is a disjunct of the right"
        if isinstance(lhs, And) and rhs in T.and_spine(lhs):
            return [], "the right side is a conjunct of the left"
        return None

    if rule == KERNEL_DISCHARGE:
        if (
            isinstance(lhs, Upd)
            and isinstance(lhs.action, ActName)
            and isinstance(lhs.arg, Atom)
            and lhs.arg.name in assumptions.kernel_atoms(lhs.action.name)
        ):
            return [], f"{lhs.arg.name} is in ker({lhs.action.name})"
        return None

    if rule == FACT_DISCHARGE:
        if (
            isinstance(lhs, Upd)
            and isinstance(lhs.action, ActName)
            and isinstance(lhs.arg, Atom)
            and isinstance(rhs, Atom)
            and rhs.name in assumptions.facts
            and lhs.action.name in assumptions.communication
        ):
            note = f"{rhs.name} is a fact and {lhs.action.name} a communication action"
            return [Sequent(lhs.arg, rhs)], note
        return None

    if rule == ACT_APP_SUBST:
        new_lhs, used_l = _subst_action_refs(lhs, assumptions.action_appearance)
        new_rhs, used_r = _subst_action_refs(rhs, assumptions.action_appearance)
        if new_lhs is None and new_rhs is None:
            return None
        child = Sequent(new_lhs if new_lhs is not None else lhs,
                        new_rhs if new_rhs is not None else rhs)
        return [child], "; ".join(used_l + used_r)

    if rule == APP_SUBST:
        new_lhs, used_l = _subst_appearances(lhs, assumptions.appearance_defs)
        new_rhs, used_r = _subst_appearances(rhs, assumptions.appearance_defs)
        if new_lhs is None and new_rhs is None:
            return None
        child = Sequent(new_lhs if new_lhs is not None else lhs,
                        new_rhs if new_rhs is not None else rhs)
        return [child], "substituted " + ", ".join(used_l + used_r)

    if rule == DEF_EXPAND:
        for side, other, is_lhs in ((lhs, rhs, True), (rhs, lhs, False)):
            node = _find_def_node(side)
            if node is not None:
                expanded = _expand_def(side, node)
                child = Sequent(expanded, other) if is_lhs else Sequent(other, expanded)
                what = type(node).__name__
                return [child], f"unfolded the definition of {what}"
        return None

    if rule == ADJ_UNFOLD_AFTER:
        if isinstance(rhs, After):
            child = Sequent(Upd(rhs.action, lhs), rhs.arg)
            return [child], f"adjunction on after[{render_action(rhs.action)}]"
        return None

    if rule == ADJ_UNFOLD_INFO:
        if isinstance(rhs, Info):
            child = Sequent(App(rhs.agent, lhs), rhs.arg)
            return [child], f"adjunction on fi[{rhs.agent}]"
        return None

    if rule == NO_MIRACLE:
        redex = _find_no_miracle(lhs, assumptions)
        if redex is None:
            return None
        agent = redex.agent
        action = redex.arg.action
        replacement = Upd(ActApp(agent, action), App(agent, redex.arg.arg))
        child = Sequent(_replace_once(lhs, redex, replacement), rhs)
        note = f"agent {agent}, action {render_action(action)}"
        return [child], note

    if rule == JOIN_DISTRIB:
        new_lhs = _join_distrib(lhs)
        new_rhs = _join_distrib(rhs)
        if new_lhs is None and new_rhs is None:
            return None
        child = Sequent(new_lhs if new_lhs is not None else lhs,
                        new_rhs if new_rhs is not None else rhs)
        return [child], "the maps preserve joins"

    if rule == CASE_SPLIT:
        if isinstance(lhs, Or):
            return [Sequent(d, rhs) for d in T.or_spine(lhs)], "by definition of \\/"
        return None

    if rule == MEET_INTRO:
        if isinstance(rhs, And):
            return [Sequent(lhs, c) for c in T.and_spine(rhs)], "by definition of /\\"
        return None

    raise InternalError(f"unknown rule {rule!r}")



# -- the goals the searches reach -------------------------------------------------


def _searches():
    """(assumptions, goal, depth, no_kernel_shortcut) for every search: the
    fuzz corpus of both coin models, the shipped prove queries and the O2
    goal at depths 8, 10 and 12, each in both rule orders. The fuzz runs at
    the depth of the soundness fuzz."""
    from conftest import honest_coin_model, lying_coin_model
    from test_derivation import (
        O2_GOAL,
        fuzz_corpus,
        lying_assumptions,
        shipped_prove_queries,
    )

    out = []
    for model_builder in (honest_coin_model, lying_coin_model):
        _, assumptions, goals = fuzz_corpus(model_builder)
        out.extend((assumptions, goal, DEFAULT_MAX_DEPTH) for goal in goals)
    out.extend((assumptions, seq, depth) for _, seq, assumptions, depth in shipped_prove_queries())
    out.extend((lying_assumptions(), parse_entailment(O2_GOAL), depth) for depth in (8, 10, 12))
    return [(a, goal, depth, nks) for a, goal, depth in out for nks in (False, True)]


@pytest.fixture(scope="module")
def reached_goals():
    """Each assumption set with every goal its searches hand to apply_rule."""
    reached = {}
    apply_rule = derivation.apply_rule
    current = None

    def recording(rule, goal, assumptions):
        current.setdefault(goal)
        return apply_rule(rule, goal, assumptions)

    derivation.apply_rule = recording
    try:
        for assumptions, goal, depth, no_kernel_shortcut in _searches():
            current = reached.setdefault(id(assumptions), (assumptions, {}))[1]
            prove(goal, assumptions, depth, no_kernel_shortcut=no_kernel_shortcut)
    finally:
        derivation.apply_rule = apply_rule
    return list(reached.values())


REWRITE_RULES = (ACT_APP_SUBST, APP_SUBST, DEF_EXPAND, NO_MIRACLE, JOIN_DISTRIB)


def test_every_rule_matches_the_reference_on_every_reached_goal(reached_goals):
    fired = dict.fromkeys(RULE_ORDER, 0)
    total = 0
    for assumptions, goals in reached_goals:
        for goal in goals:
            total += 1
            for rule in RULE_ORDER:
                got = derivation.apply_rule(rule, goal, assumptions)
                assert got == reference_apply_rule(rule, goal, assumptions), (
                    rule, goal.render()
                )
                fired[rule] += got is not None
    assert total > 3_000
    for rule in REWRITE_RULES:
        assert fired[rule] >= 20, (rule, fired[rule])


def test_the_rule_index_leaves_out_only_rules_that_cannot_apply(reached_goals):
    # prove tries a goal only on the rules its shape key selects; a rule
    # left out must return None, in either rule order. Only the closing
    # rules return no children, which is what lets a budget-1 goal try them
    # alone.
    left_out = 0
    for assumptions, goals in reached_goals:
        for goal in goals:
            for order in (RULE_ORDER, RULE_ORDER_NO_KERNEL_SHORTCUT):
                kept = derivation._INDEX[order][derivation._shape_key(goal)]
                assert kept == tuple(rule for rule in order if rule in kept)
                for rule in order:
                    got = derivation.apply_rule(rule, goal, assumptions)
                    if rule not in kept:
                        left_out += 1
                        assert got is None, (rule, goal.render())
                    elif got is not None and not got[0]:
                        assert rule in derivation._CLOSING, (rule, goal.render())
    assert left_out > 20_000


def test_no_miracle_rewrites_the_monotone_occurrence_of_a_shared_redex():
    # One redex object both under ~ and in a monotone position, as appearance
    # substitution produces when a definition occurs twice. The monotone one
    # must be rewritten: weakening a goal under ~ is unsound. The reference
    # found that redex but replaced the first occurrence of the same object,
    # the one under ~; none of the reached goals above share a redex so.
    from test_derivation import lying_assumptions

    redex = App("A", Upd(ActName("abar"), Atom("H")))
    rewritten = Upd(ActApp("A", ActName("abar")), App("A", Atom("H")))
    goal = Sequent(And(Not(redex), redex), Atom("H"))
    note = "agent A, action abar"
    got = derivation.apply_rule(NO_MIRACLE, goal, lying_assumptions())
    assert got == ([Sequent(And(Not(redex), rewritten), Atom("H"))], note)
    old = reference_apply_rule(NO_MIRACLE, goal, lying_assumptions())
    assert old == ([Sequent(And(Not(rewritten), redex), Atom("H"))], note)


def test_rewrite_returns_untouched_subtrees_as_the_same_objects():
    goal = parse_entailment("f[A](H) /\\ ~K[B](T) |= upd[a](H \\/ T) \\/ fi[C](T)")
    assert derivation._rewrite(goal.lhs, lambda t: None) is goal.lhs
    kept = derivation._rewrite(goal.rhs, lambda t: t if isinstance(t, Upd) else None)
    assert kept is goal.rhs
    swapped = derivation._rewrite(
        goal.rhs, lambda t: Atom("T") if t == Atom("H") else None
    )
    assert swapped == parse_entailment("H |= upd[a](T \\/ T) \\/ fi[C](T)").rhs
    assert swapped.right is goal.rhs.right
    first = derivation._rewrite(
        goal.rhs, lambda t: Atom("S") if isinstance(t, Atom) else None, first=True
    )
    assert first == parse_entailment("H |= upd[a](S \\/ T) \\/ fi[C](T)").rhs


def _random_term(rng, depth):
    """A term over the whole grammar, fresh objects only: ~, B, bounded and
    unbounded CK and f' action positions, which the fuzz corpus never draws."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice("HTp"))
        return Bot() if roll < 0.93 else Top()
    agent = rng.choice("ABC")
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((Or, And))(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if roll < 0.4:
        return Not(_random_term(rng, depth - 1))
    if roll < 0.5:  # the shape of a no-miracle redex
        action = ActName(rng.choice(("a", "abar", "b")))
        return App(agent, Upd(action, _random_term(rng, depth - 1)))
    if roll < 0.75:
        ctor = rng.choice((App, Info, Know, Believe))
        return ctor(agent, _random_term(rng, depth - 1))
    if roll < 0.8:
        agents = tuple(rng.sample("ABC", rng.randint(1, 3)))
        return CK(agents, _random_term(rng, depth - 1), rng.choice((None, 0, 1, 2)))
    ref = ActName(rng.choice(("a", "abar", "b")))
    for _ in range(rng.choice((0, 0, 1, 2))):
        ref = ActApp(rng.choice("ABC"), ref)
    return rng.choice((Upd, Upd, After))(ref, _random_term(rng, depth - 1))


def test_every_rule_matches_the_reference_on_random_terms():
    import random

    from test_derivation import lying_assumptions

    assumptions = lying_assumptions()
    rng = random.Random(77)
    fired = dict.fromkeys(RULE_ORDER, 0)
    for _ in range(3_000):
        goal = Sequent(_random_term(rng, 4), _random_term(rng, 4))
        for rule in RULE_ORDER:
            got = derivation.apply_rule(rule, goal, assumptions)
            assert got == reference_apply_rule(rule, goal, assumptions), (
                rule, goal.render()
            )
            fired[rule] += got is not None
    for rule in REWRITE_RULES:
        assert fired[rule] >= 200, (rule, fired[rule])


# -- the same on hypothesis-drawn terms ------------------------------------------

_AGENTS = st.sampled_from("ABC")
_ACTION_NAMES = st.sampled_from(("a", "abar", "b")).map(ActName)


def _terms():
    """Terms over the agents and actions of the lying coin, so that the
    assumptions resolve many of the appearances drawn."""
    refs = st.recursive(_ACTION_NAMES, lambda inner: st.builds(ActApp, _AGENTS, inner),
                        max_leaves=3)
    base = st.one_of(st.sampled_from("HTp").map(Atom), st.just(Bot()), st.just(Top()))

    def extend(inner):
        return st.one_of(
            st.builds(Or, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Not, inner),
            st.builds(lambda agent, action, t: App(agent, Upd(action, t)),
                      _AGENTS, _ACTION_NAMES, inner),
            *(st.builds(ctor, _AGENTS, inner) for ctor in (App, Info, Know, Believe)),
            st.builds(CK, st.lists(_AGENTS, min_size=1, max_size=3, unique=True).map(tuple),
                      inner, st.one_of(st.none(), st.integers(0, 2))),
            st.builds(Upd, refs, inner),
            st.builds(After, refs, inner),
        )

    return st.recursive(base, extend, max_leaves=10)


_FIXED = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_FIXED
@given(_terms(), _terms())
def test_every_rule_matches_the_reference_on_drawn_sequents(lhs, rhs):
    from test_derivation import lying_assumptions

    goal, assumptions = Sequent(lhs, rhs), lying_assumptions()
    for rule in RULE_ORDER:
        assert derivation.apply_rule(rule, goal, assumptions) == reference_apply_rule(
            rule, goal, assumptions
        ), rule


def _positions(t, mask=None):
    """Every node of t in pre-order, one entry per position; with a mask,
    none of a subtree whose flags share no bit with the mask."""
    if mask is not None and not t.redex & mask:
        return []
    out = [t]
    for child in T.children(t):
        out.extend(_positions(child, mask))
    return out


@_FIXED
@given(_terms(), st.sampled_from((None, T.REDEX_DEF, T.REDEX_JOIN | T.REDEX_APP_ATOM)))
def test_rewrite_calls_step_on_every_node_the_mask_admits(t, mask):
    # without a mask that is every node, flags or none
    seen = []

    def step(node):
        seen.append(node)
        return None

    assert derivation._rewrite(t, step, mask) is t
    assert seen == _positions(t, mask)
