"""Term grammar: parse/render round-trips, spines, error positions, and
the interned node core."""

import collections
import copy
import gc
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from adjointkit import ParseError, parse_entailment, parse_term, prove, render_term
from adjointkit import terms as T

AGENTS = st.sampled_from(["A", "B", "C1"])
ACTIONS = st.sampled_from(["a", "abar", "look"])
ATOMS = st.sampled_from(["H", "T", "m1", "p_0"])


def action_refs():
    return st.recursive(
        ACTIONS.map(T.ActName),
        lambda inner: st.builds(T.ActApp, AGENTS, inner),
        max_leaves=3,
    )


def terms():
    base = st.one_of(
        ATOMS.map(T.Atom),
        st.just(T.Bot()),
        st.just(T.Top()),
    )

    def extend(inner):
        return st.one_of(
            st.builds(T.Or, inner, inner),
            st.builds(T.And, inner, inner),
            st.builds(T.Not, inner),
            st.builds(T.App, AGENTS, inner),
            st.builds(T.Info, AGENTS, inner),
            st.builds(T.Know, AGENTS, inner),
            st.builds(T.Believe, AGENTS, inner),
            st.builds(
                T.CK,
                st.lists(AGENTS, min_size=1, max_size=3, unique=True).map(tuple),
                inner,
                st.one_of(st.none(), st.integers(0, 9)),
            ),
            st.builds(T.Upd, action_refs(), inner),
            st.builds(T.After, action_refs(), inner),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(terms())
def test_parse_render_round_trip(t):
    text = render_term(t)
    assert parse_term(text) is t
    assert parse_term(text) is parse_term(text)


@given(terms(), terms())
def test_entailment_round_trip(lhs, rhs):
    seq = T.Sequent(lhs, rhs)
    assert parse_entailment(seq.render()) == seq


@given(terms())
def test_or_spine_rebuilds(t):
    spine = T.or_spine(t)
    assert spine
    rebuilt = spine[0]
    for part in spine[1:]:
        rebuilt = T.Or(rebuilt, part)
    # flattening is stable: the spine of the rebuilt term is unchanged
    assert T.or_spine(rebuilt) == spine


def test_precedence():
    t = parse_term("a \\/ b /\\ ~c")
    assert t == T.Or(T.Atom("a"), T.And(T.Atom("b"), T.Not(T.Atom("c"))))
    assert parse_term("(a \\/ b) /\\ c") == T.And(
        T.Or(T.Atom("a"), T.Atom("b")), T.Atom("c")
    )


def test_left_associativity():
    assert parse_term("a \\/ b \\/ c") == T.Or(T.Or(T.Atom("a"), T.Atom("b")), T.Atom("c"))


def test_action_appearance_ref():
    t = parse_term("upd[f'[A](abar)](H)")
    assert t == T.Upd(T.ActApp("A", T.ActName("abar")), T.Atom("H"))
    assert render_term(t) == "upd[f'[A](abar)](H)"


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_term("H \\/ ")
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_term("fi[A](H")
    assert err.value.expected == "')'"


@pytest.mark.parametrize("head, tail", [("(", ")"), ("~", ""), ("~(", ")"), ("f[A](", ")"),
                                        ("upd[a](", ")"), ("after[a](", ")"),
                                        ("CK[A,B:3](", ")")])
def test_term_nesting_limit(head, tail):
    """The deepest term the grammar accepts still evaluates, renders and is
    searched at the default depth; one level more is a located ParseError."""
    from importlib import resources

    from adjointkit import instantiate, parse_scenario
    from adjointkit.semantics import eval_term

    n = T.MAX_TERM_DEPTH
    text = (resources.files("adjointkit") / "scenarios" / "coin-honest.scn").read_text()
    inst = instantiate(parse_scenario(text))
    deepest = parse_term(head * n + "H" + tail * n)
    eval_term(inst.model, deepest)
    assert parse_term(render_term(deepest)) == deepest
    prove(parse_entailment(f"H |= {render_term(deepest)}"), inst.assumptions)
    with pytest.raises(ParseError, match="nested more than") as err:
        parse_term(head * (n + 1) + "H" + tail * (n + 1))
    assert (err.value.line, err.value.column) == (1, len(head) * (n + 1) + 1)


@pytest.mark.parametrize("op", ["\\/", "/\\"])
@pytest.mark.parametrize("nesting", [0, 40, 99, 100])
def test_term_depth_limit_counts_chains(op, nesting):
    """A chain of binary operators counts against the same limit as
    nesting, one level an operator: the deepest chain still evaluates,
    renders and re-parses, and one operator more is a ParseError at the
    outermost operator past the limit."""
    from importlib import resources

    from adjointkit import instantiate, parse_scenario
    from adjointkit.semantics import eval_term

    def chain(operators):
        return "f[A](" * nesting + "H" + f" {op} H" * operators + ")" * nesting

    n = T.MAX_TERM_DEPTH - nesting
    text = (resources.files("adjointkit") / "scenarios" / "coin-honest.scn").read_text()
    inst = instantiate(parse_scenario(text))
    deepest = parse_term(chain(n))
    eval_term(inst.model, deepest)
    assert parse_term(render_term(deepest)) == deepest
    too_deep = chain(n + 1)
    with pytest.raises(ParseError, match="nested more than") as err:
        parse_term(too_deep)
    assert err.value.column == (1 if nesting else too_deep.rindex(op) + 1)


def test_unknown_bracket_head_rejected():
    with pytest.raises(ParseError):
        parse_term("zap[A](H)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_term("H T")


def _redex_from_scratch(t):
    """The redex flags of t by a walk of the whole tree."""
    own = 0
    if isinstance(t, (T.Upd, T.After)) and isinstance(t.action, T.ActApp):
        own |= T.REDEX_ACT_APP
    if isinstance(t, T.App) and isinstance(t.arg, T.Atom):
        own |= T.REDEX_APP_ATOM
    if isinstance(t, (T.Know, T.Believe)) or isinstance(t, T.CK) and t.depth is not None:
        own |= T.REDEX_DEF
    if isinstance(t, (T.App, T.Upd)) and isinstance(t.arg, (T.Or, T.Bot)):
        own |= T.REDEX_JOIN
    if isinstance(t, T.App) and isinstance(t.arg, T.Upd) and isinstance(t.arg.action, T.ActName):
        own |= T.REDEX_NO_MIRACLE
    for child in T.children(t):
        own |= _redex_from_scratch(child)
    return own


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(terms(), terms())
def test_redex_flags_equal_a_walk_of_the_tree(lhs, rhs):
    assert lhs.redex == _redex_from_scratch(lhs)
    assert T.Sequent(lhs, rhs).redex == _redex_from_scratch(lhs) | _redex_from_scratch(rhs)


def _depth_from_scratch(t):
    """A term's depth by a walk of the tree: operators on its longest path,
    action positions not counted."""
    return max((1 + _depth_from_scratch(c) for c in T.children(t)), default=0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(terms(), terms())
def test_term_depth_equals_a_walk_of_the_tree(lhs, rhs):
    assert lhs.term_depth == _depth_from_scratch(lhs)
    assert T.Sequent(lhs, rhs).term_depth == max(lhs.term_depth, rhs.term_depth)
    # the parser's depth limit counts the same levels
    assert parse_term(render_term(lhs)).term_depth == lhs.term_depth


def test_node_fields_are_read_only():
    t = parse_term("CK[A,B:2](f[A](H) \\/ upd[a](T))")
    with pytest.raises(AttributeError):
        t.arg = T.Bot()
    with pytest.raises(AttributeError):
        t.left = T.Bot()
    with pytest.raises(AttributeError):
        del t.depth
    assert t.depth == 2


def test_equal_nodes_are_one_object():
    assert T.CK(("A",), T.Atom("H")) is T.CK(("A",), T.Atom("H"), None)
    assert T.Not(T.Atom("H")).with_arg(T.Atom("T")) is T.Not(T.Atom("T"))
    assert T.Upd(T.ActName("a"), T.Top()).with_arg(T.Bot()) is T.Upd(T.ActName("a"), T.Bot())
    t = T.CK(("A",), T.Atom("H"), 3)
    assert repr(t) == "CK(agents=('A',), arg=Atom(name='H'), depth=3)"
    assert copy.deepcopy(t) is t and pickle.loads(pickle.dumps(t)) is t


def test_intern_table_lets_go_of_a_finished_search(monkeypatch):
    # the table holds its nodes weakly: the terms of a search die with it
    from adjointkit import derivation
    from test_derivation import O2_GOAL, lying_assumptions

    assumptions = lying_assumptions()
    goal = parse_entailment(O2_GOAL)
    gc.collect()
    before = len(T._INTERNED)
    peak = before
    apply_rule = derivation.apply_rule

    def watched(*args):
        nonlocal peak
        peak = max(peak, len(T._INTERNED))
        return apply_rule(*args)

    monkeypatch.setattr(derivation, "apply_rule", watched)
    outcome = prove(goal, assumptions, 16)
    assert peak > before + 1000
    del outcome
    gc.collect()
    assert len(T._INTERNED) == before


def test_a_dropped_search_frees_its_terms_without_the_cyclic_gc():
    # prove empties its tables on return, and no rule leaves a reference
    # cycle that holds a term, so reference counting alone frees them
    from test_derivation import O2_GOAL, lying_assumptions

    assumptions = lying_assumptions()
    goal = parse_entailment(O2_GOAL)
    gc.collect()
    before = len(T._INTERNED)
    gc.disable()
    try:
        prove(goal, assumptions, 12)
        assert len(T._INTERNED) == before
    finally:
        gc.enable()


# -- the tokenizer against the one it replaced ------------------------------

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*'?|[0-9]+)|(?P<op>\\/|/\\|\|=|->|[()\[\],:~]))"
)


def _old_tokenize(text, line, offset):
    """The tokenizer as it was, one regex match per token and a token
    object per match, with the objects written as tuples."""
    out, i = [], 0
    while i < len(text):
        m = _OLD_TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            col = offset + len(text) - len(stripped) + 1
            raise ParseError(line, col, f"unexpected character {stripped[0]!r}")
        kind = "name" if m.group("name") else "op"
        out.append((kind, m.group(kind), offset + m.start(kind) + 1))
        i = m.end()
    out.append(("end", "", offset + len(text) + 1))
    return out


_PIECES = (
    # names, keywords and numbers
    "H", "T", "m1", "p_0", "_x", "f", "fi", "f'", "K", "B", "CK", "upd", "after",
    "bot", "top", "a'", "7", "42", "09x", "'",
    # operators, whole and in part
    "\\/", "/\\", "|=", "->", "(", ")", "[", "]", ",", ":", "~",
    "\\", "/", "|", "=", "-", ">",
    # whitespace, ASCII and not
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2003", "\u3000",
    # stray characters
    "$", "#", "!", ".", "\x00", "\u00e9", "\u00df", "\u0663", "\U0001f600", "\ufeff",
)


def _outcome(tokenize, text, line, offset):
    try:
        return tokenize(text, line, offset)
    except ParseError as err:
        return ("error", err.line, err.column, str(err))


def test_tokenizer_matches_the_old_one_on_random_strings():
    rng = random.Random(13)
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(13)))
        line, offset = rng.randrange(1, 500), rng.randrange(60)
        old = _outcome(_old_tokenize, text, line, offset)
        assert _outcome(T._tokenize, text, line, offset) == old, repr(text)
        errors += old[0] == "error"
    # both outcomes occur often enough to mean something
    assert 2_000 < errors < 18_000


# -- the parser against the one it replaced ---------------------------------

class _OldTermParser:
    """The recursive-descent parser as it was, one Python frame per
    precedence level, over _old_tokenize's tokens."""

    def __init__(self, text, line=1, column_offset=0):
        self.line = line
        self.tokens = _old_tokenize(text, line, column_offset)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, text):
        kind, got, column = self.next()
        if got != text:
            found = repr(got) if kind != "end" else "end of input"
            raise ParseError(self.line, column, f"found {found}", expected=repr(text))

    def fail(self, message, expected=None, column=None):
        column = self.peek()[2] if column is None else column
        raise ParseError(self.line, column, message, expected=expected)

    def nested(self, parse):
        if self.nesting == T.MAX_TERM_DEPTH:
            self.fail(f"term nested more than {T.MAX_TERM_DEPTH} levels deep")
        self.nesting += 1
        out = parse()
        self.nesting -= 1
        return out

    def within(self, t, column):
        if t.term_depth > T.MAX_TERM_DEPTH:
            self.fail(f"term nested more than {T.MAX_TERM_DEPTH} levels deep", column=column)
        return t

    def parse_term(self):
        t = self.parse_and()
        while self.peek()[1] == "\\/":
            column = self.next()[2]
            t = self.within(T.Or(t, self.parse_and()), column)
        return t

    def parse_and(self):
        t = self.parse_unary()
        while self.peek()[1] == "/\\":
            column = self.next()[2]
            t = self.within(T.And(t, self.parse_unary()), column)
        return t

    def parse_unary(self):
        if self.peek()[1] == "~":
            column = self.next()[2]
            arg = self.parse_unary() if self.peek()[1] == "(" else self.nested(self.parse_unary)
            return self.within(T.Not(arg), column)
        return self.parse_primary()

    def parse_primary(self):
        kind, head, column = self.peek()
        if head == "(":
            self.next()
            out = self.nested(self.parse_term)
            self.expect(")")
            return out
        if kind != "name":
            self.fail("expected a term", expected="name, '~' or '('")
        self.next()
        if head == "bot":
            return T.Bot()
        if head == "top":
            return T.Top()
        if self.peek()[1] == "[":
            if head in T._HEADS:
                return self.within(self._parse_modal(T._HEADS[head]), column)
            raise ParseError(self.line, column, f"unknown operator {head!r}")
        return T.Atom(head)

    def _parse_name(self, what="a name"):
        kind, text, column = self.next()
        if kind != "name":
            raise ParseError(self.line, column, f"expected {what}")
        return text

    def _parse_action_ref(self):
        name = self._parse_name("an action")
        if name == "f'":
            self.expect("[")
            agent = self._parse_name()
            self.expect("]")
            self.expect("(")
            inner = self.nested(self._parse_action_ref)
            self.expect(")")
            return T.ActApp(agent, inner)
        return T.ActName(name)

    def _parse_modal(self, cls):
        self.expect("[")
        if cls is T.CK:
            agents = [self._parse_name()]
            while self.peek()[1] == ",":
                self.next()
                agents.append(self._parse_name())
            depth = None
            if self.peek()[1] == ":":
                self.next()
                kind, text, column = self.next()
                if kind != "name" or not text.isdigit():
                    raise ParseError(self.line, column, "expected a depth bound")
                depth = int(text)
            label = tuple(agents)
        elif cls is T.Upd or cls is T.After:
            label = self._parse_action_ref()
        else:
            label = self._parse_name()
        self.expect("]")
        self.expect("(")
        arg = self.nested(self.parse_term)
        self.expect(")")
        return T.CK(label, arg, depth) if cls is T.CK else cls(label, arg)

    def finish(self):
        kind, text, column = self.peek()
        if kind != "end":
            raise ParseError(self.line, column, f"trailing input {text!r}")


def _old_term_names(t):
    """The scenario resolver's walk as it was: (kind, name) of every agent,
    action and atom reference, in pre-order."""
    if isinstance(t, T.Atom):
        yield ("atom", t.name)
    elif isinstance(t, (T.App, T.Info, T.Know, T.Believe)):
        yield ("agent", t.agent)
        yield from _old_term_names(t.arg)
    elif isinstance(t, T.CK):
        for a in t.agents:
            yield ("agent", a)
        yield from _old_term_names(t.arg)
    elif isinstance(t, (T.Upd, T.After)):
        yield from _old_action_names(t.action)
        yield from _old_term_names(t.arg)
    else:
        for k in T.children(t):
            yield from _old_term_names(k)


def _old_action_names(ref):
    if isinstance(ref, T.ActName):
        yield ("action", ref.name)
    else:
        yield ("agent", ref.agent)
        yield from _old_action_names(ref.ref)


def _parse_outcomes(text, line, offset):
    """The old and the new parser's outcome on text, as a term and as an
    entailment: the term (one object), its term_depth and its references
    (the old walk of the term, or what the new parser recorded), or the
    ParseError's message, line, column and expectation. A third entailment
    outcome comes from a scenario's term table, primed with the left side,
    so that the right side is parsed alone."""
    from adjointkit.scenario import _Terms

    def attempt(parse):
        try:
            return parse()
        except ParseError as err:
            return ("error", str(err), err.line, err.column, err.expected)

    def old_term():
        p = _OldTermParser(text, line, offset)
        t = p.parse_term()
        p.finish()
        return t, t.term_depth, list(_old_term_names(t))

    def new_term():
        refs = []
        t = T.parse_term(text, line, offset, refs)
        return t, t.term_depth, refs

    def old_entailment():
        p = _OldTermParser(text, line, offset)
        lhs = p.parse_term()
        p.expect("|=")
        rhs = p.parse_term()
        p.finish()
        return lhs, rhs, list(_old_term_names(lhs)), list(_old_term_names(rhs))

    def new_entailment():
        refs = ([], [])
        seq = T.parse_entailment(text, line, offset, refs)
        return seq.lhs, seq.rhs, *refs

    def table_entailment():
        terms = _Terms()
        attempt(lambda: terms.term(text.partition("|=")[0], line, offset))
        lhs, rhs = terms.entailment(text, line, offset)
        return lhs, rhs, terms.refs[lhs], terms.refs[rhs]

    return ((attempt(old_term), attempt(new_term)),
            (attempt(old_entailment), attempt(new_entailment), attempt(table_entailment)))


def _drawn_term(rng, depth=0):
    """A term text drawn from the grammar, with random spacing and
    redundant parentheses."""
    def sp():
        return rng.choice(("", "", " ", "  ", "\t"))

    def action():
        if rng.random() < 0.7:
            return rng.choice(("a", "abar", "f", "bot"))
        return f"f'[{rng.choice('AB')}]({sp()}{action()}{sp()})"

    roll = rng.random() if depth < 5 else 0
    if roll < 0.3:
        return rng.choice(("H", "T", "m1", "p_0", "bot", "top", "f", "fi", "7", "a'"))
    if roll < 0.45:
        return "~" + sp() + _drawn_term(rng, depth + 1)
    if roll < 0.65:
        op = rng.choice(("\\/", "/\\"))
        return _drawn_term(rng, depth + 1) + sp() + op + sp() + _drawn_term(rng, depth + 1)
    if roll < 0.72:
        return "(" + sp() + _drawn_term(rng, depth + 1) + sp() + ")"
    arg = _drawn_term(rng, depth + 1)
    head = rng.choice(("f", "fi", "K", "B", "CK", "upd", "after"))
    if head == "CK":
        label = ",".join(rng.sample("ABC", rng.randint(1, 3)))
        label += rng.choice(("", f":{rng.randrange(10)}"))
    elif head in ("upd", "after"):
        label = action()
    else:
        label = rng.choice("ABC")
    return f"{head}[{sp()}{label}{sp()}]{sp()}({sp()}{arg}{sp()})"


_NOISE = ("(", ")", "[", "]", ",", ":", "~", "\\/", "/\\", "|=", "->", "f'", "H", "CK",
          " ", "$", "!", ".", "|", "=", "\\", "/", "'", "é", " ")


def _drawn_inputs(rng):
    """Grammar-drawn terms and entailments, each also truncated and with a
    random token or bad character inserted."""
    for _ in range(800):
        text = _drawn_term(rng)
        if rng.random() < 0.5:
            text += rng.choice((" |= ", "|=", "  |=\t")) + _drawn_term(rng)
        yield text
        yield text[:rng.randrange(len(text) + 1)]
        at = rng.randrange(len(text) + 1)
        yield text[:at] + rng.choice(_NOISE) + text[at:]


def _deep_inputs():
    """Every nesting and chain shape at 95 to 105 levels."""
    heads = [("(", ")"), ("~", ""), ("~(", ")"), ("f[A](", ")"), ("fi[B](", ")"),
             ("K[A](", ")"), ("B[A](", ")"), ("CK[A,B](", ")"), ("CK[A:3](", ")"),
             ("upd[a](", ")"), ("after[a](", ")"), ("upd[f'[A](a)](", ")"), ("~f[A](", ")")]
    for n in range(95, 106):
        for head, tail in heads:
            yield head * n + "H" + tail * n
            yield head * n + "H" + tail * (n - 1)
        for kw in ("upd", "after"):
            yield f"{kw}[" + "f'[A](" * n + "a" + ")" * n + "](H)"
        for op in ("\\/", "/\\"):
            for nesting in (0, 50, n - 95):
                yield "f[A](" * nesting + "H" + f" {op} H" * (n - nesting) + ")" * nesting
                yield "(" * nesting + "H" + f" {op} ~H" * (n - nesting) + ")" * nesting
                yield "~(" * (nesting + 1) + "H" + f" {op} H" * (n - nesting) + ")" * (nesting + 1)
        yield "H" + "".join(f" {op} H" for op in ["\\/", "/\\"] * (n // 2))
        yield "H \\/ " + "(" * n + "H" + ")" * n
        yield "~" * n + "(H)"


def test_parser_matches_the_old_one_and_records_the_old_names():
    """On drawn, deep and broken inputs the parser returns the term the old
    one returned, with its depth, and records the references the old
    resolver walk yielded; or it raises the old ParseError, message, line
    and column alike. Entailments agree the same way, also when parsed
    through a scenario's term table."""
    rng = random.Random(27)
    inputs = [(text, text + " |= H", "H |= " + text) for text in _drawn_inputs(rng)]
    inputs += [(text, "H |= " + text) for text in _deep_inputs()]
    kinds = collections.Counter()
    for text in itertools.chain.from_iterable(inputs):
        line, offset = rng.randrange(1, 500), rng.randrange(60)
        (old_t, new_t), (old_e, *new_e) = _parse_outcomes(text, line, offset)
        assert new_t == old_t, repr(text)
        assert new_e == [old_e, old_e], repr(text)
        kinds[old_t[0] == "error", old_e[0] == "error"] += 1
    # successes and failures both occur often enough to mean something
    assert min(kinds.values()) > 300, kinds
