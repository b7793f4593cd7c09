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

The rules that rewrite inside a term (ActAppSubst, AppSubst, DefExpand,
NoMiracle, JoinDistrib) share one top-down walker, _rewrite(t, step,
mask=None, first=False), and each supplies only its local step. step(node)
returns None to descend into the node's subterms, a new term to take the
node's place without visiting it again, or the node itself to keep the
subtree unvisited (NoMiracle keeps ~ and B, which are not monotone
positions). Without first, one call is one simultaneous pass, and redexes
that a replacement creates wait for the next rule application; with
first=True the walk stops after the first replacement in pre-order
(DefExpand and NoMiracle rewrite one node per step). With a mask, a
subtree whose redex flags (terms.Node.redex) share no bit with it comes
back unvisited, so a rule walks only the paths to its redexes; each rule
passes the bit of its own redex kind, and returns None at once when the
goal holds none. Without a mask, step is called on every node.

Within one prove call, search is tabled on the exact key (goal, budget),
after OLDT resolution (Tamaki & Sato, 1986): each subgoal is expanded once
per budget, however many alternatives reach it. With the assumptions and
the rule order fixed, searching a goal at a budget is a pure function, and
repeating it would only record dead ends that are already recorded and set
a depth-exhausted flag that is already set. So the table changes no proof
tree, no NotProved reason and no frontier, only the work. A failure is
never reused at a smaller budget: that would keep the verdict but could
report a different frontier. A second table keeps each goal's successors
for the whole call: per rule, its result on the goal, once tried. Rules are
applied lazily, only as far as a search of the goal gets, so each rule is
applied to a goal at most once per call, whatever the budgets it is
expanded at. Both tables are emptied when the call returns.

A goal is tried only on the rules its root shape admits. _SHAPES gives,
per rule, the class of lhs and of rhs it needs and the redex kinds the
sequent or its lhs must hold; a rule index per rule order maps a goal's
shape key (lhs class, rhs class, redex flags) to the rules that fit it,
in rule order, so a goal costs one dict lookup, and the index holds no
term. apply_rule reads the same table, and returns None outside a rule's
shape; the index skips only those calls.

The verdict reports the first FRONTIER dead ends. Once the search has met
budget 0 and holds FRONTIER dead ends, nothing more it finds can change
the NotProved it would return, and a goal searched at budget 1 can only
succeed by a move without children (OrderAxiom or KernelDischarge), since
every other move fails on its first child at budget 0. From then on such
a goal is tried on those closing rules alone, and no child is built; its
result is the one the full expansion would give, so no tree, reason or
frontier changes.
"""

from __future__ import annotations

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
    MAX_TERM_DEPTH,
    Not,
    Or,
    Sequent,
    Top,
    Upd,
    render_action,
    render_term,
)

DEFAULT_MAX_DEPTH = 32
FRONTIER = 16  # how many dead ends a NotProved reports

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


class ProofNode:
    """One rule application of a proof tree; two trees are equal when their
    sequents, rules, notes and children are."""

    __slots__ = ("sequent", "rule", "note", "children")

    def __init__(self, sequent: Sequent, rule: str, note: str,
                 children: tuple[ProofNode, ...]):
        self.sequent = sequent
        self.rule = rule
        self.note = note
        self.children = children

    def __eq__(self, other):
        if other.__class__ is not ProofNode:
            return NotImplemented
        return (self.sequent, self.rule, self.note, self.children) == (
            other.sequent, other.rule, other.note, other.children)

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


class NotProved:
    """A search verdict, equal to another with the same reason and frontier.
    The frontier is the first FRONTIER distinct dead ends the search met, in
    order: goals at budget 0 and goals no rule applies to."""

    __slots__ = ("reason", "frontier")

    def __init__(self, reason: str, frontier: tuple[Sequent, ...]):
        self.reason = reason        # "depth_exhausted" | "no_applicable_rule"
        self.frontier = frontier    # open subgoals from the failed search

    def __eq__(self, other):
        if other.__class__ is not NotProved:
            return NotImplemented
        return (self.reason, self.frontier) == (other.reason, other.frontier)


class BadNode:
    __slots__ = ("path", "sequent", "reason")

    def __init__(self, path: tuple[int, ...], sequent: Sequent, reason: str):
        self.path = path            # child indices from the root
        self.sequent = sequent
        self.reason = reason


# -- term rewriting -------------------------------------------------------------

def _rewrite(t, step, mask=None, first=False):
    """Rewrite t top-down with a rule's local step (the contract is in the
    module docstring). Untouched subtrees come back as the same objects, so
    the result is t when nothing was replaced."""
    return _walk(t, step, mask, [] if first else None)


def _walk(t, step, mask, replaced):
    # a module function rather than a closure over itself, so that a rewrite
    # leaves no reference cycle for the cyclic GC; replaced is None without
    # first, else it gets the first replacement
    if mask is not None and not t.redex & mask:
        return t
    new = step(t)
    if new is not None:
        if replaced is not None and new is not t:
            replaced.append(new)
        return new
    cls = type(t)
    if cls is Or or cls is And:
        left = _walk(t.left, step, mask, replaced)
        right = t.right if replaced else _walk(t.right, step, mask, replaced)
        if left is t.left and right is t.right:
            return t
        return cls(left, right)
    if cls is Atom or cls is Bot or cls is Top:
        return t
    arg = _walk(t.arg, step, mask, replaced)
    return t if arg is t.arg else t.with_arg(arg)


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


class _ActAppSubst:
    """Resolve every action position against the declared action appearances.

    The step rewrites the argument below a resolved action itself; as a
    closure that called itself it would be a reference cycle, left for the
    cyclic GC after every application."""

    def __init__(self, assumptions, used):
        self.table = assumptions.action_appearance
        self.used = used

    def __call__(self, t):
        cls = type(t)
        if cls is not Upd and cls is not After:
            return None
        ref, cited = _resolve_actions(t.action, self.table)
        self.used.extend(cited)
        arg = _rewrite(t.arg, self, T.REDEX_ACT_APP)
        return cls(ref, arg) if cited or arg is not t.arg else t


def _app_subst(assumptions, used):
    """Replace every f[A](atom) with its declared definition."""
    defs = assumptions.appearance_defs

    def step(t):
        if type(t) is App and type(t.arg) is Atom:
            key = (t.agent, t.arg.name)
            if key in defs:
                used.append(f"f[{t.agent}]({t.arg.name})")
                return defs[key]
        return None

    return step


def _join_distrib(assumptions, used):
    """Push f[A] / upd[a] through \\/ (and through bot, the empty join)."""

    def step(t):
        cls = type(t)
        if cls is App or cls is Upd:
            arg = t.arg
            if type(arg) is Or:
                head = t.agent if cls is App else t.action
                return Or(cls(head, arg.left), cls(head, arg.right))
            if type(arg) is Bot:
                return arg
        return None

    return step


def _definition(t):
    """The definition of a K, B or bounded CK node, else None."""
    cls = type(t)
    if cls is Know:
        return And(Info(t.agent, t.arg), t.arg)
    if cls is Believe:
        return Not(Know(t.agent, Not(t.arg)))
    if cls is CK and t.depth is not None:
        if t.depth == 0:
            return t.arg
        inner = CK(t.agents, t.arg, t.depth - 1)
        conj = None
        for agent in t.agents:
            part = Info(agent, inner)
            conj = part if conj is None else And(conj, part)
        return And(t.arg, conj)
    return None


# -- rule applications ---------------------------------------------------------

# Each rule's root shape: the class its goal's lhs must have and the class
# its rhs must have (None for any), and the redex kinds of which the
# sequent, and its lhs, must hold one (0 for no condition). A rule cannot
# apply to a goal outside its shape: apply_rule returns None there at once,
# and prove's rule index never tries it there.
_SHAPES = {
    ORDER_AXIOM: (None, None, 0, 0),
    KERNEL_DISCHARGE: (Upd, None, 0, 0),
    FACT_DISCHARGE: (Upd, Atom, 0, 0),
    ACT_APP_SUBST: (None, None, T.REDEX_ACT_APP, 0),
    APP_SUBST: (None, None, T.REDEX_APP_ATOM, 0),
    DEF_EXPAND: (None, None, T.REDEX_DEF, 0),
    ADJ_UNFOLD_AFTER: (None, After, 0, 0),
    ADJ_UNFOLD_INFO: (None, Info, 0, 0),
    NO_MIRACLE: (None, None, 0, T.REDEX_NO_MIRACLE),
    JOIN_DISTRIB: (None, None, T.REDEX_JOIN, 0),
    CASE_SPLIT: (Or, None, 0, 0),
    MEET_INTRO: (None, And, 0, 0),
}


def _shape_key(seq: Sequent):
    """What the shapes read of a goal: (lhs class, rhs class, the
    sequent's redex flags, the lhs's redex flags). It holds no term."""
    lhs = seq.lhs
    return type(lhs), type(seq.rhs), seq.redex, lhs.redex


def _fits(shape, lhs_cls, rhs_cls, redex, lhs_redex) -> bool:
    want_lhs, want_rhs, seq_mask, lhs_mask = shape
    return ((want_lhs is None or lhs_cls is want_lhs)
            and (want_rhs is None or rhs_cls is want_rhs)
            and (not seq_mask or redex & seq_mask)
            and (not lhs_mask or lhs_redex & lhs_mask))


class _RuleIndex(dict):
    """Shape key -> the rules of one rule order whose shape fits it, in
    that order; filled as keys are met. Classes and flags are its only
    keys, so it keeps no term alive."""

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __missing__(self, key):
        rules = self[key] = tuple(r for r in self.order if _fits(_SHAPES[r], *key))
        return rules


_INDEX = {order: _RuleIndex(order) for order in (RULE_ORDER, RULE_ORDER_NO_KERNEL_SHORTCUT)}


def _order_axiom(lhs, rhs, assumptions):
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


def _kernel_discharge(lhs, rhs, assumptions):
    if (
        isinstance(lhs.action, ActName)
        and isinstance(lhs.arg, Atom)
        and lhs.arg.name in assumptions.kernel_atoms(lhs.action.name)
    ):
        return [], f"{lhs.arg.name} is in ker({lhs.action.name})"
    return None


def _fact_discharge(lhs, rhs, assumptions):
    if (
        isinstance(lhs.action, ActName)
        and isinstance(lhs.arg, Atom)
        and rhs.name in assumptions.facts
        and lhs.action.name in assumptions.communication
    ):
        note = f"{rhs.name} is a fact and {lhs.action.name} a communication action"
        return [Sequent(lhs.arg, rhs)], note
    return None


def _one_pass(make_step, note, mask):
    """A rule that rewrites both sides in one simultaneous pass, with the
    step make_step builds from the assumptions and a citation list, its
    note of the citations, and the redex kind its step acts on."""

    def apply(lhs, rhs, assumptions):
        used = []
        step = make_step(assumptions, used)
        new_lhs, new_rhs = _rewrite(lhs, step, mask), _rewrite(rhs, step, mask)
        if not used and new_lhs is lhs and new_rhs is rhs:
            return None
        return [Sequent(new_lhs, new_rhs)], note(used)

    return apply


def _def_expand(lhs, rhs, assumptions):
    unfolded = []

    def step(t):
        new = _definition(t)
        if new is not None:
            unfolded.append(type(t).__name__)
        return new

    new_lhs = _rewrite(lhs, step, T.REDEX_DEF, first=True)
    new_rhs = rhs if unfolded else _rewrite(rhs, step, T.REDEX_DEF, first=True)
    if not unfolded:
        return None
    return [Sequent(new_lhs, new_rhs)], f"unfolded the definition of {unfolded[0]}"


def _adj_unfold_after(lhs, rhs, assumptions):
    child = Sequent(Upd(rhs.action, lhs), rhs.arg)
    return [child], f"adjunction on after[{render_action(rhs.action)}]"


def _adj_unfold_info(lhs, rhs, assumptions):
    child = Sequent(App(rhs.agent, lhs), rhs.arg)
    return [child], f"adjunction on fi[{rhs.agent}]"


def _no_miracle(lhs, rhs, assumptions):
    # the first f[A](upd[a](s)) in a monotone position (not under ~ or B),
    # with a a concrete action whose appearance to A is declared
    table = assumptions.action_appearance
    redexes = []

    def step(t):
        cls = type(t)
        if cls is App and type(t.arg) is Upd:
            ref = t.arg.action
            if type(ref) is ActName and (t.agent, ref.name) in table:
                redexes.append(t)
                return Upd(ActApp(t.agent, ref), App(t.agent, t.arg.arg))
        return t if cls is Not or cls is Believe else None

    new_lhs = _rewrite(lhs, step, T.REDEX_NO_MIRACLE, first=True)
    if not redexes:
        return None
    agent, action = redexes[0].agent, redexes[0].arg.action
    return [Sequent(new_lhs, rhs)], f"agent {agent}, action {render_action(action)}"


def _case_split(lhs, rhs, assumptions):
    return [Sequent(d, rhs) for d in T.or_spine(lhs)], "by definition of \\/"


def _meet_intro(lhs, rhs, assumptions):
    return [Sequent(lhs, c) for c in T.and_spine(rhs)], "by definition of /\\"


# Each rule's application to a goal of its shape: (lhs, rhs, assumptions)
# -> (children, note) or None.
_APPLY = {
    ORDER_AXIOM: _order_axiom,
    KERNEL_DISCHARGE: _kernel_discharge,
    FACT_DISCHARGE: _fact_discharge,
    ACT_APP_SUBST: _one_pass(_ActAppSubst, "; ".join, T.REDEX_ACT_APP),
    APP_SUBST: _one_pass(_app_subst, lambda used: "substituted " + ", ".join(used),
                         T.REDEX_APP_ATOM),
    DEF_EXPAND: _def_expand,
    ADJ_UNFOLD_AFTER: _adj_unfold_after,
    ADJ_UNFOLD_INFO: _adj_unfold_info,
    NO_MIRACLE: _no_miracle,
    JOIN_DISTRIB: _one_pass(_join_distrib, lambda used: "the maps preserve joins",
                            T.REDEX_JOIN),
    CASE_SPLIT: _case_split,
    MEET_INTRO: _meet_intro,
}

# The rules whose moves have no children: a case split or a meet
# introduction has two or more, every other rule one. Only these can close
# a goal searched at budget 1.
_CLOSING = frozenset({ORDER_AXIOM, KERNEL_DISCHARGE})


def apply_rule(rule: str, seq: Sequent, assumptions: Assumptions):
    """Apply one rule to a goal; returns (children, note) or None.

    Every rule is deterministic, which is what makes proof trees
    independently checkable: verify_tree just recomputes this function.
    """
    shape = _SHAPES.get(rule)
    if shape is None:
        raise InternalError(f"unknown rule {rule!r}")
    if not _fits(shape, *_shape_key(seq)):
        return None
    return _APPLY[rule](seq.lhs, seq.rhs, assumptions)


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
    if not 1 <= max_depth <= T.MAX_PROOF_DEPTH:
        raise ValueError(f"max_depth must be between 1 and {T.MAX_PROOF_DEPTH}")
    index = _INDEX[RULE_ORDER_NO_KERNEL_SHORTCUT if no_kernel_shortcut else RULE_ORDER]
    dead_ends: dict[Sequent, None] = {}  # insertion-ordered set
    table: dict[tuple[Sequent, int], ProofNode | None] = {}
    # goal -> (the rules its shape fits, in rule order; per rule its result
    # (children, note), None where it does not apply, _UNSEEN before it is
    # tried)
    successors: dict[Sequent, tuple[tuple, list]] = {}
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
        entry = successors.get(goal)
        if entry is None:
            rules = index[_shape_key(goal)]
            entry = successors[goal] = rules, [_UNSEEN] * len(rules)
        rules, results = entry
        # once the search has met budget 0 and the frontier is full, the
        # verdict cannot change by more dead ends, and at budget 1 every
        # move with children fails on its first child: try only the closing
        # rules, and build no children
        closing_only = budget == 1 and depth_exhausted and len(dead_ends) >= FRONTIER
        applied = False
        for i, rule in enumerate(rules):
            if closing_only and rule not in _CLOSING:
                continue
            res = results[i]
            if res is _UNSEEN:
                res = apply_rule(rule, goal, assumptions)
                if res is not None:
                    for child in res[0]:
                        if child.term_depth > MAX_TERM_DEPTH:
                            res = None  # a move past the term depth limit is not taken
                            break
                results[i] = res
            if res is None:
                continue
            applied = True
            children, note = res
            kids = []
            for child in children:
                sub = search(child, budget - 1)
                if sub is None:
                    break
                kids.append(sub)
            else:
                return ProofNode(goal, rule, note, tuple(kids))
        if not applied:
            dead_ends.setdefault(goal)
        return None

    try:
        tree = search(seq, max_depth)
        if tree is not None:
            return tree
        reason = "depth_exhausted" if depth_exhausted else "no_applicable_rule"
        return NotProved(reason, tuple(dead_ends)[:FRONTIER])
    finally:
        # search and expand refer to each other, so they and the tables they
        # hold would wait for the cyclic GC; let go of the goals now
        table.clear()
        successors.clear()
        dead_ends.clear()


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

