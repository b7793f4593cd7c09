"""Symbolic terms, the assumption vocabulary, and the term grammar.

Terms use the same infix syntax everywhere (scenario files, CLI output,
structured proofs):

    t ::= name | bot | top | ~t | t /\\ t | t \\/ t
        | f[A](t) | fi[A](t) | K[A](t) | B[A](t) | CK[A,B](t) | CK[A,B:4](t)
        | upd[a](t) | after[a](t)

Action positions inside upd/after admit f'[A](a): the appearance of action
a to agent A, introduced by the no-miracle rule and resolved against the
assumption set. Binary operators associate to the left; ~ binds tightest.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): every node is built through one intern table keyed
on its class and fields, so equal terms are one object, == and hash are
identity rather than walks of the tree, and a node rebuilt equal to its
input is that input. The table holds its nodes weakly, so a term lives only
as long as a caller holds it: a strong table kept every term of every proof
search alive, and raised the peak resident size of the in-process
prove-nested benchmark from 21.5 to 25.3 MB. It is a plain dict from key to
a _Ref, a weakref.ref with the key in a slot and a removal callback that
drops the entry when its node dies: a hit is a dict lookup and a call of
the reference, and a new reference is built, all in C. Nodes are built
from one thread; two threads could intern equal nodes twice.

Every node carries redex flags, computed once when it is built: node.redex
is the OR of its children's flags and of the REDEX_* kinds of the node
itself. Each kind is the shape that one of the prover's rewriting rules
acts on, so a rule can return a subtree untouched in O(1) when the subtree
holds no redex of its kind (derivation._rewrite).
"""

from __future__ import annotations

import re
import weakref

from .errors import ParseError

# key (class, *fields) -> _Ref to the node
_INTERNED: dict = {}


class _Ref(weakref.ref):
    """A weak reference to an interned node, with the node's key."""

    __slots__ = ("key",)


def _forget(ref, table=_INTERNED):
    """Removal callback: drop a dead node's entry, unless an equal node has
    taken its key since."""
    if table.get(ref.key) is ref:
        del table[ref.key]


# Redex kinds, one bit each: the shapes the prover's rewriting rules act on.
REDEX_ACT_APP = 1      # upd[f'[A](a)](t), after[f'[A](a)](t): ActAppSubst
REDEX_APP_ATOM = 2     # f[A](atom): AppSubst
REDEX_DEF = 4          # K[A](t), B[A](t), CK[..:n](t): DefExpand
REDEX_JOIN = 8         # f[A] or upd[a] over \/ or bot: JoinDistrib
REDEX_NO_MIRACLE = 16  # f[A](upd[a](t)) with a an action name: NoMiracle


class Node:
    """An immutable interned node. Subclasses list their fields in
    __slots__, in constructor order. A node's redex flags are its
    children's, together with the kinds of its own that a subclass computes
    from its fields in _own_redex. term_depth is the node's depth (see
    MAX_TERM_DEPTH): its deepest child's plus the class's _level, and 0 for
    a leaf."""

    __slots__ = ("__weakref__", "redex", "term_depth")
    _level = 1
    _own_redex = None

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        node = object.__new__(cls)
        level = cls._level
        deepest, redex = -level, 0  # a leaf's depth is then 0
        for set_field, value in zip(cls._setters, fields):
            set_field(node, value)
            if isinstance(value, Node):
                redex |= value.redex
                if value.term_depth > deepest:
                    deepest = value.term_depth
        if cls._own_redex is not None:
            redex |= cls._own_redex(*fields)
        _set_redex(node, redex)
        _set_term_depth(node, deepest + level)
        ref = _INTERNED[key] = _Ref(node, _forget)
        ref.key = key
        return node

    def __init_subclass__(cls):
        # the slots' own setters, which bypass the read-only __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of an interned node is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def with_arg(self, arg):
        """This node around a new argument, its other fields kept."""
        cls = type(self)
        return cls(*[arg if name == "arg" else getattr(self, name) for name in cls.__slots__])


_set_redex = Node.__dict__["redex"].__set__
_set_term_depth = Node.__dict__["term_depth"].__set__


# -- action references ----------------------------------------------------

class ActName(Node):
    __slots__ = ("name",)


class ActApp(Node):
    """f'[agent](ref): how an action looks to an agent."""

    __slots__ = ("agent", "ref")
    _level = 0  # an action position adds no level to a term's depth


ActionRef = ActName | ActApp


def render_action(ref: ActionRef) -> str:
    if isinstance(ref, ActName):
        return ref.name
    return f"f'[{ref.agent}]({render_action(ref.ref)})"


# -- terms ------------------------------------------------------------------

class Atom(Node):
    __slots__ = ("name",)


class Bot(Node):
    __slots__ = ()


class Top(Node):
    __slots__ = ()


class Or(Node):
    __slots__ = ("left", "right")


class And(Node):
    __slots__ = ("left", "right")


class Not(Node):
    __slots__ = ("arg",)


class App(Node):
    """f[A](t): appearance of t to agent A."""

    __slots__ = ("agent", "arg")

    @staticmethod
    def _own_redex(agent, arg):
        kind = type(arg)
        if kind is Atom:
            return REDEX_APP_ATOM
        if kind is Or or kind is Bot:
            return REDEX_JOIN
        if kind is Upd and type(arg.action) is ActName:
            return REDEX_NO_MIRACLE
        return 0


class Info(Node):
    """fi[A](t): agent A is informed that t."""

    __slots__ = ("agent", "arg")


class Know(Node):
    __slots__ = ("agent", "arg")

    @staticmethod
    def _own_redex(agent, arg):
        return REDEX_DEF


class Believe(Node):
    __slots__ = ("agent", "arg")

    @staticmethod
    def _own_redex(agent, arg):
        return REDEX_DEF


class CK(Node):
    """Common knowledge in a group; depth bounds symbolic unfolding.

    depth None means the exact fixpoint (semantic evaluation only).
    """

    __slots__ = ("agents", "arg", "depth")

    def __new__(cls, agents: tuple[str, ...], arg: "Term", depth: int | None = None):
        return Node.__new__(cls, agents, arg, depth)

    @staticmethod
    def _own_redex(agents, arg, depth):
        return 0 if depth is None else REDEX_DEF


class Upd(Node):
    """upd[a](t): update of t along action a."""

    __slots__ = ("action", "arg")

    @staticmethod
    def _own_redex(action, arg):
        redex = REDEX_ACT_APP if type(action) is ActApp else 0
        kind = type(arg)
        if kind is Or or kind is Bot:
            redex |= REDEX_JOIN
        return redex


class After(Node):
    """after[a](t): after action a, t holds."""

    __slots__ = ("action", "arg")

    @staticmethod
    def _own_redex(action, arg):
        return REDEX_ACT_APP if type(action) is ActApp else 0


Term = Atom | Bot | Top | Or | And | Not | App | Info | Know | Believe | CK | Upd | After


class Sequent(Node):
    __slots__ = ("lhs", "rhs")
    _level = 0  # a sequent is as deep as its deeper side

    def render(self) -> str:
        return f"{render_term(self.lhs)} |= {render_term(self.rhs)}"


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Or, And)):
        return (t.left, t.right)
    if isinstance(t, (Not, App, Info, Know, Believe, CK, Upd, After)):
        return (t.arg,)
    return ()


def or_spine(t: Term) -> tuple[Term, ...]:
    """Maximal flattening of a term along Or."""
    if isinstance(t, Or):
        return or_spine(t.left) + or_spine(t.right)
    return (t,)


def and_spine(t: Term) -> tuple[Term, ...]:
    if isinstance(t, And):
        return and_spine(t.left) + and_spine(t.right)
    return (t,)


# -- rendering ----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3

# the bracketed operators by keyword, for the parser and the renderer
_HEADS = {"f": App, "fi": Info, "K": Know, "B": Believe, "CK": CK, "upd": Upd, "after": After}
_KEYWORDS = {cls: head for head, cls in _HEADS.items()}


def _prec(t: Term) -> int:
    if isinstance(t, Or):
        return _PREC_OR
    if isinstance(t, And):
        return _PREC_AND
    if isinstance(t, Not):
        return _PREC_UNARY
    return 4


def render_term(t: Term) -> str:
    def rec(t, parent_prec):
        p = _prec(t)
        if isinstance(t, Atom):
            s = t.name
        elif isinstance(t, Bot):
            s = "bot"
        elif isinstance(t, Top):
            s = "top"
        elif isinstance(t, Or):
            s = f"{rec(t.left, _PREC_OR)} \\/ {rec(t.right, _PREC_OR + 1)}"
        elif isinstance(t, And):
            s = f"{rec(t.left, _PREC_AND)} /\\ {rec(t.right, _PREC_AND + 1)}"
        elif isinstance(t, Not):
            s = f"~{rec(t.arg, _PREC_UNARY + 1)}"
        elif isinstance(t, CK):
            agents = ",".join(t.agents)
            depth = f":{t.depth}" if t.depth is not None else ""
            s = f"CK[{agents}{depth}]({rec(t.arg, 0)})"
        elif isinstance(t, (Upd, After)):
            s = f"{_KEYWORDS[type(t)]}[{render_action(t.action)}]({rec(t.arg, 0)})"
        elif isinstance(t, (App, Info, Know, Believe)):
            s = f"{_KEYWORDS[type(t)]}[{t.agent}]({rec(t.arg, 0)})"
        else:
            raise TypeError(f"not a term: {t!r}")
        return f"({s})" if p < parent_prec else s

    return rec(t, 0)


# -- assumptions --------------------------------------------------------------

class Assumptions:
    """Symbolic hypotheses the derivation engine may cite.

    appearance_defs maps (agent, atom) to the defining term of f_A(atom);
    action_appearance maps (agent, action) to the appeared action name;
    kernels maps an action to the atoms it annihilates; facts and
    communication list fact atoms and communication actions. A table not
    given is a new empty dict.
    """

    __slots__ = (
        "appearance_defs", "action_appearance", "kernels", "facts", "communication",
        "agents", "actions", "atoms",
    )

    def __init__(
        self,
        appearance_defs: dict | None = None,
        action_appearance: dict | None = None,
        kernels: dict | None = None,
        facts: frozenset = frozenset(),
        communication: frozenset = frozenset(),
        agents: frozenset = frozenset(),
        actions: frozenset = frozenset(),
        atoms: frozenset = frozenset(),
    ):
        self.appearance_defs = {} if appearance_defs is None else appearance_defs
        self.action_appearance = {} if action_appearance is None else action_appearance
        self.kernels = {} if kernels is None else kernels
        self.facts = facts
        self.communication = communication
        self.agents = agents
        self.actions = actions
        self.atoms = atoms

    def kernel_atoms(self, action: str) -> frozenset:
        return self.kernels.get(action, frozenset())


# -- parsing --------------------------------------------------------------------

# One token per match, names first. findall skips whitespace and any other
# character, so a text whose tokens do not add up to it, whitespace aside,
# holds a bad character.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'?|[0-9]+|\\/|/\\|\|=|->|[()\[\],:~]")
# the tokens that are not names, and "", the end of input
_NOT_NAMES = frozenset(("\\/", "/\\", "|=", "->", "(", ")", "[", "]", ",", ":", "~", ""))
_BINARY = {"\\/": (_PREC_OR, Or), "/\\": (_PREC_AND, And)}


def _tokenize(text: str, line: int, offset: int) -> list[tuple[str, str, int]]:
    """(kind, text, column) tuples; kind is "name", "op" or a final "end"."""
    rest = _TOKEN_RE.sub(lambda m: " " * len(m.group()), text).lstrip()
    if rest:
        column = offset + len(text) - len(rest) + 1
        raise ParseError(line, column, f"unexpected character {rest[0]!r}")
    out = [("op" if m.group() in _NOT_NAMES else "name", m.group(), offset + m.start() + 1)
           for m in _TOKEN_RE.finditer(text)]
    out.append(("end", "", offset + len(text) + 1))
    return out


# How deep a term may be. A term's depth is the number of operators on its
# longest path from the root, and chains count like nesting: a \/ b \/ c and
# ~~c are two levels deep. On the way down, the parser also counts each
# parenthesis, operator argument and f'[A](...) in an action position it is
# inside, and each ~ not followed by a parenthesis, against the same limit;
# that count exceeds the depth only where parentheses group nothing new, as
# in ((c)), which render_term never writes, so every term within the limit
# renders to text that re-parses. Every node carries its depth (term_depth;
# an action position adds no level, as in the parser), and the prover takes
# no move whose sequent has a side deeper than the limit. The limit keeps the
# recursive parser, evaluator, renderer and prover inside Python's stack.
MAX_TERM_DEPTH = 100
_TOO_DEEP = f"term nested more than {MAX_TERM_DEPTH} levels deep"

# The largest proof search depth, for --depth and a prove query's depth N.
# Search recurses twice per level and a proof is rendered once per level, so
# with terms within MAX_TERM_DEPTH this keeps a search and its proof inside
# Python's default recursion limit of 1,000 frames.
MAX_PROOF_DEPTH = 200


class _TermParser:
    """Precedence climbing (Pratt, "Top Down Operator Precedence", 1973)
    over the token texts of one term or entailment, "" ending them:
    parse_term loops over binary operators and parse_unary reads one
    operand, so a nesting level costs two Python frames. _tokenize finds a
    column only for an error. For each atom, agent label and action name it
    reads, the parser appends (kind, name) to refs, in source order; kind is
    "atom", "agent" or "action"."""

    def __init__(self, text: str, line: int = 1, column_offset: int = 0, refs=None):
        self.tokens = _TOKEN_RE.findall(text)
        if "".join(self.tokens) != "".join(text.split()):
            _tokenize(text, line, column_offset)  # raises at the first bad character
        self.tokens.append("")
        self.text, self.line, self.offset = text, line, column_offset
        self.pos = self.nesting = 0
        self.refs = [] if refs is None else refs

    def fail(self, message: str, expected=None, at=None):
        """Raise a ParseError at the token at index at, or at the next one."""
        column = _tokenize(self.text, self.line, self.offset)[self.pos if at is None else at][2]
        raise ParseError(self.line, column, message, expected=expected)

    def expect(self, text: str) -> None:
        got = self.tokens[self.pos]
        if got != text:
            self.fail(f"found {repr(got) if got else 'end of input'}", expected=repr(text))
        self.pos += 1

    def _parse_name(self, kind: str = "agent") -> str:
        """A name, recorded as a reference of kind "agent" or "action"."""
        name = self.tokens[self.pos]
        if name in _NOT_NAMES:
            self.fail("expected an action" if kind == "action" else "expected a name")
        self.pos += 1
        self.refs.append((kind, name))
        return name

    def _enter(self) -> None:
        """One nesting level deeper, failing past MAX_TERM_DEPTH."""
        if self.nesting == MAX_TERM_DEPTH:
            self.fail(_TOO_DEEP)
        self.nesting += 1

    # grammar

    def parse_term(self, min_prec: int = _PREC_OR) -> Term:
        """Operands joined by binary operators of precedence min_prec or
        more, to the left."""
        t = self.parse_unary()
        tokens = self.tokens
        while True:
            prec, cls = _BINARY.get(tokens[self.pos], (0, None))
            if prec < min_prec:
                return t
            at = self.pos
            self.pos += 1
            t = cls(t, self.parse_unary() if prec == _PREC_AND else self.parse_term(_PREC_AND))
            if t.term_depth > MAX_TERM_DEPTH:
                self.fail(_TOO_DEEP, at=at)

    def parse_unary(self) -> Term:
        """A parenthesised term, ~t, bot, top, an atom or a bracketed
        operator around its argument."""
        tokens, at = self.tokens, self.pos
        head = tokens[at]
        self.pos += 1
        if head == "(":
            self._enter()
            t = self.parse_term()
            self.nesting -= 1
            self.expect(")")
            return t
        if head == "~":
            nests = tokens[at + 1] != "("  # a parenthesis counts for itself
            if nests:
                self._enter()
            t = Not(self.parse_unary())
            self.nesting -= nests
        else:
            if head in _NOT_NAMES:
                self.fail("expected a term", expected="name, '~' or '('", at=at)
            if head == "bot":
                return Bot()
            if head == "top":
                return Top()
            if tokens[at + 1] != "[":
                self.refs.append(("atom", head))
                return Atom(head)
            cls = _HEADS.get(head)
            if cls is None:
                self.fail(f"unknown operator {head!r}", at=at)
            self.pos += 1
            depth = None
            if cls is CK:
                label = [self._parse_name()]
                while tokens[self.pos] == ",":
                    self.pos += 1
                    label.append(self._parse_name())
                if tokens[self.pos] == ":":
                    self.pos += 1
                    if not tokens[self.pos].isdigit():
                        self.fail("expected a depth bound")
                    depth = int(tokens[self.pos])
                    self.pos += 1
            elif cls is Upd or cls is After:
                label = self._parse_action_ref()
            else:
                label = self._parse_name()
            self.expect("]")
            self.expect("(")
            self._enter()
            arg = self.parse_term()
            self.nesting -= 1
            self.expect(")")
            t = CK(tuple(label), arg, depth) if cls is CK else cls(label, arg)
        if t.term_depth > MAX_TERM_DEPTH:
            self.fail(_TOO_DEEP, at=at)
        return t

    def _parse_action_ref(self) -> ActionRef:
        if self.tokens[self.pos] != "f'":
            return ActName(self._parse_name("action"))
        self.pos += 1
        self.expect("[")
        agent = self._parse_name()
        self.expect("]")
        self.expect("(")
        self._enter()
        inner = self._parse_action_ref()
        self.nesting -= 1
        self.expect(")")
        return ActApp(agent, inner)

    def finish(self):
        if self.tokens[self.pos]:
            self.fail(f"trailing input {self.tokens[self.pos]!r}")


def parse_term(text: str, line: int = 1, column_offset: int = 0, refs=None) -> Term:
    """The term of text. refs, if given, is a list that receives the term's
    (kind, name) references (see _TermParser); line and column_offset place
    a ParseError."""
    p = _TermParser(text, line, column_offset, refs)
    t = p.parse_term()
    p.finish()
    return t


def parse_entailment(text: str, line: int = 1, column_offset: int = 0, refs=None) -> Sequent:
    """The sequent of text, lhs |= rhs. refs, if given, is a pair of lists
    that receive the references of the two sides (see parse_term)."""
    p = _TermParser(text, line, column_offset, None if refs is None else refs[0])
    lhs = p.parse_term()
    p.expect("|=")
    if refs is not None:
        p.refs = refs[1]
    rhs = p.parse_term()
    p.finish()
    return Sequent(lhs, rhs)
