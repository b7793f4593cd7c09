"""Backward-chaining proof search over entailment goals lhs |= rhs.

The rule repertoire is exactly the one the worked scenario proofs use:
adjunction unfolding for after/fi, the no-miracle sufficiency step,
substitution of declared appearance definitions, join distribution,
case split / meet introduction, definition expansion of K, B and bounded
CK, kernel and fact discharge, and syntactic order axioms.

Search is deterministic: rules are tried in a fixed priority order and
every rule application is a pure function of the goal and the assumptions,
so identical inputs produce identical trees. Failed alternatives are
backtracked; the depth budget strictly decreases along every branch, so
search always terminates. NotProved is a search verdict, not a refutation.

Within one prove call, search is tabled on the exact key (goal, budget),
after OLDT resolution (Tamaki & Sato, 1986): each subgoal is expanded once
per budget, however many alternatives reach it. With the assumptions and
the rule order fixed, searching a goal at a budget is a pure function, and
repeating it would only record dead ends that are already recorded and set
a depth-exhausted flag that is already set. So the table changes no proof
tree, no NotProved reason and no frontier, only the work. A failure is
never reused at a smaller budget: that would keep the verdict but could
report a different frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError
from . import terms as T
from .terms import (
    ActApp,
    ActName,
    After,
    And,
    App,
    Assumptions,
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
    render_action,
    render_term,
)

DEFAULT_MAX_DEPTH = 32

ORDER_AXIOM = "OrderAxiom"
KERNEL_DISCHARGE = "KernelDischarge"
FACT_DISCHARGE = "FactDischarge"
ACT_APP_SUBST = "ActAppSubst"
APP_SUBST = "AppSubst"
DEF_EXPAND = "DefExpand"
ADJ_UNFOLD_AFTER = "AdjUnfoldAfter"
ADJ_UNFOLD_INFO = "AdjUnfoldInfo"
NO_MIRACLE = "NoMiracle"
JOIN_DISTRIB = "JoinDistrib"
CASE_SPLIT = "CaseSplit"
MEET_INTRO = "MeetIntro"

RULE_ORDER = (
    ORDER_AXIOM,
    KERNEL_DISCHARGE,
    FACT_DISCHARGE,
    ACT_APP_SUBST,
    APP_SUBST,
    DEF_EXPAND,
    ADJ_UNFOLD_AFTER,
    ADJ_UNFOLD_INFO,
    NO_MIRACLE,
    JOIN_DISTRIB,
    CASE_SPLIT,
    MEET_INTRO,
)

# Without the shortcut, kernel discharge is tried only when nothing else
# applies, which forces the longer no-miracle route of the worked proofs.
RULE_ORDER_NO_KERNEL_SHORTCUT = tuple(
    r for r in RULE_ORDER if r != KERNEL_DISCHARGE
) + (KERNEL_DISCHARGE,)


@dataclass(frozen=True)
class ProofNode:
    sequent: Sequent
    rule: str
    note: str
    children: tuple["ProofNode", ...]

    def rules_used(self) -> tuple[str, ...]:
        out = [self.rule]
        for c in self.children:
            out.extend(c.rules_used())
        return tuple(out)

    def sequents(self) -> tuple[Sequent, ...]:
        out = [self.sequent]
        for c in self.children:
            out.extend(c.sequents())
        return tuple(out)


@dataclass(frozen=True)
class NotProved:
    reason: str                      # "depth_exhausted" | "no_applicable_rule"
    frontier: tuple[Sequent, ...]    # open subgoals from the failed search


@dataclass(frozen=True)
class BadNode:
    path: tuple[int, ...]            # child indices from the root
    sequent: Sequent
    reason: str


# -- term rewriting helpers ---------------------------------------------------


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


# -- rule applications ---------------------------------------------------------


def apply_rule(rule: str, seq: Sequent, assumptions: Assumptions):
    """Apply one rule to a goal; returns (children, note) or None.

    Every rule is deterministic, which is what makes proof trees
    independently checkable: verify_tree just recomputes this function.
    """
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


# -- search ----------------------------------------------------------------------

_UNSEEN = object()


def prove(
    seq: Sequent,
    assumptions: Assumptions,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    no_kernel_shortcut: bool = False,
):
    """Search for a proof of seq; returns a ProofNode or NotProved."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    order = RULE_ORDER_NO_KERNEL_SHORTCUT if no_kernel_shortcut else RULE_ORDER
    dead_ends: dict[Sequent, None] = {}  # insertion-ordered set
    table: dict[tuple[Sequent, int], ProofNode | None] = {}
    depth_exhausted = False

    def search(goal: Sequent, budget: int):
        nonlocal depth_exhausted
        if budget <= 0:
            depth_exhausted = True
            dead_ends.setdefault(goal)
            return None
        key = (goal, budget)
        found = table.get(key, _UNSEEN)
        if found is not _UNSEEN:
            return found
        table[key] = found = expand(goal, budget)
        return found

    def expand(goal: Sequent, budget: int):
        applied_any = False
        for rule in order:
            res = apply_rule(rule, goal, assumptions)
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
        if not applied_any:
            dead_ends.setdefault(goal)
        return None

    tree = search(seq, max_depth)
    if tree is not None:
        return tree
    reason = "depth_exhausted" if depth_exhausted else "no_applicable_rule"
    return NotProved(reason, tuple(dead_ends)[:16])


def verify_tree(tree: ProofNode, assumptions: Assumptions):
    """Re-check every rule application without search.

    Returns None when the tree is sound, else a BadNode locating the first
    node whose children are not what its named rule yields on its sequent.
    """

    def rec(node: ProofNode, path):
        try:
            res = apply_rule(node.rule, node.sequent, assumptions)
        except InternalError:
            res = None
        if res is None:
            return BadNode(tuple(path), node.sequent, f"{node.rule} does not apply here")
        children, _ = res
        if [c.sequent for c in node.children] != children:
            return BadNode(
                tuple(path), node.sequent, f"{node.rule} yields different subgoals"
            )
        for i, c in enumerate(node.children):
            bad = rec(c, path + [i])
            if bad is not None:
                return bad
        return None

    return rec(tree, [])


# -- rendering --------------------------------------------------------------------

_PROSE = {
    ORDER_AXIOM: "holds by the order axioms",
    KERNEL_DISCHARGE: "holds since {note}",
    FACT_DISCHARGE: "{note}; reduces to the plain entailment",
    ACT_APP_SUBST: "resolving action appearances: {note}",
    APP_SUBST: "by the appearance assumptions, equivalent after {note}",
    DEF_EXPAND: "{note}",
    ADJ_UNFOLD_AFTER: "by the {note}, the goal holds iff the subgoal does",
    ADJ_UNFOLD_INFO: "by the {note}, the goal holds iff the subgoal does",
    NO_MIRACLE: "by the no-miracle axiom ({note}), it suffices to show the subgoal",
    JOIN_DISTRIB: "{note}, so the goal is equivalent to the subgoal",
    CASE_SPLIT: "{note} it suffices to show each case",
    MEET_INTRO: "{note} it suffices to show each part",
}


def render_proof(tree: ProofNode, format: str = "text"):
    """text mirrors the prose style of worked derivations; structured is a
    JSON-ready dict matching the documented proof schema."""
    if format == "structured":
        return _to_dict(tree)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = []

    def rec(node, depth):
        indent = "  " * depth
        prose = _PROSE[node.rule].format(note=node.note)
        lines.append(f"{indent}[{node.rule}] {node.sequent.render()}")
        lines.append(f"{indent}    {prose}")
        for c in node.children:
            rec(c, depth + 1)

    rec(tree, 0)
    return "\n".join(lines)


def _to_dict(node: ProofNode) -> dict:
    return {
        "goal": {"lhs": render_term(node.sequent.lhs), "rhs": render_term(node.sequent.rhs)},
        "rule": node.rule,
        "note": node.note,
        "children": [_to_dict(c) for c in node.children],
    }


def proof_from_dict(data: dict) -> ProofNode:
    from .terms import parse_term

    seq = Sequent(parse_term(data["goal"]["lhs"]), parse_term(data["goal"]["rhs"]))
    kids = tuple(proof_from_dict(c) for c in data["children"])
    return ProofNode(seq, data["rule"], data.get("note", ""), kids)
