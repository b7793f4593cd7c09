"""Independent oracles for the benchmark's verdicts.

Nothing here imports adjointkit. Terms are plain tuples that the generators
build, render to `.scn` text with `render`, and evaluate with one of the two
models below:

    ("atom", name)  ("bot",)  ("top",)  ("not", t)  ("and", a, b)  ("or", a, b)
    ("fi", agent, t)  ("K", agent, t)  ("B", agent, t)
    ("CK", agents, depth_or_None, t)  ("after", action, t)

`PowersetModel` is a relational (Kripke) evaluator over sets of worlds held
as bitmasks. `ChainProductModel` evaluates on a product of two chains
coordinatewise. Both follow the definitions of the algebra: f*(x) is the
largest y with f(y) <= x, K_A(x) = f*_A(x) /\\ x, B_A(x) = ~K_A(~x), common
knowledge meets x with every iterate g^i(x), i >= 1, of group information g,
and its bounded variant meets the iterates for i = 0..depth.
"""

from __future__ import annotations

import re

# operators written head[agent or action](term)
_UNARY = {"fi", "K", "B", "after"}


def atom(name):
    return ("atom", name)


def join_all(terms):
    """Left-nested disjunction of the terms; bot when there are none."""
    terms = list(terms)
    if not terms:
        return ("bot",)
    out = terms[0]
    for t in terms[1:]:
        out = ("or", out, t)
    return out


# -- rendering ------------------------------------------------------------

def render(t) -> str:
    """Scenario syntax; every binary subterm is parenthesized, so the text
    never depends on the parser's precedence rules."""
    head = t[0]
    if head == "atom":
        return t[1]
    if head in ("bot", "top"):
        return head
    if head == "not":
        return "~" + _wrap(t[1])
    if head == "and":
        return f"{_wrap(t[1])} /\\ {_wrap(t[2])}"
    if head == "or":
        return f"{_wrap(t[1])} \\/ {_wrap(t[2])}"
    if head in _UNARY:
        return f"{head}[{t[1]}]({render(t[2])})"
    if head == "CK":
        bound = "" if t[2] is None else f":{t[2]}"
        return f"CK[{','.join(t[1])}{bound}]({render(t[3])})"
    raise ValueError(f"not a term: {t!r}")


def _wrap(t) -> str:
    text = render(t)
    return f"({text})" if t[0] in ("and", "or") else text


# -- parsing (used to self-check against the shipped scenarios) -------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|\\/|/\\|\|=|[()\[\],:~])")


def parse(text: str):
    """Parse a term or an entailment `lhs |= rhs` (returned as a pair)."""
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    toks.append("")
    i = 0

    def peek():
        return toks[i]

    def take(expected=None):
        nonlocal i
        tok = toks[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        i += 1
        return tok

    def disj():
        t = conj()
        while peek() == "\\/":
            take()
            t = ("or", t, conj())
        return t

    def conj():
        t = unary()
        while peek() == "/\\":
            take()
            t = ("and", t, unary())
        return t

    def unary():
        if peek() == "~":
            take()
            return ("not", unary())
        return primary()

    def primary():
        tok = take()
        if tok == "(":
            t = disj()
            take(")")
            return t
        if tok in ("bot", "top"):
            return (tok,)
        if tok in _UNARY and peek() == "[":
            take("[")
            who = take()
            take("]")
            take("(")
            arg = disj()
            take(")")
            return (tok, who, arg)
        if tok == "CK" and peek() == "[":
            take("[")
            agents = [take()]
            while peek() == ",":
                take()
                agents.append(take())
            depth = None
            if peek() == ":":
                take()
                depth = int(take())
            take("]")
            take("(")
            arg = disj()
            take(")")
            return ("CK", tuple(agents), depth, arg)
        if not tok or not (tok[0].isalpha() or tok[0] == "_"):
            raise ValueError(f"expected a term, found {tok!r} in {text!r}")
        return ("atom", tok)

    lhs = disj()
    if peek() == "|=":
        take()
        rhs = disj()
        take("")
        return lhs, rhs
    take("")
    return lhs


# -- relational evaluator on powerset carriers ------------------------------

class PowersetModel:
    """Worlds, propositions as world sets, and per-agent / per-action
    successor relations, all as bitmasks over the world list."""

    def __init__(self, worlds, props, sees, updates):
        self.worlds = list(worlds)
        self.index = {w: k for k, w in enumerate(self.worlds)}
        self.full = (1 << len(self.worlds)) - 1
        self.props = {}
        for name, mask in props.items():
            self.props[name] = mask if isinstance(mask, int) else self.mask(mask)
        self.sees = {a: self._relation(rel) for a, rel in sees.items()}
        self.updates = {a: self._relation(rel) for a, rel in updates.items()}

    def mask(self, names) -> int:
        out = 0
        for w in names:
            out |= 1 << self.index[w]
        return out

    def names(self, mask) -> list:
        return [w for k, w in enumerate(self.worlds) if mask >> k & 1]

    def _relation(self, rel):
        return [self.mask(rel.get(w, ())) for w in self.worlds]

    def image(self, rel, x) -> int:
        out, k = 0, 0
        while x:
            if x & 1:
                out |= rel[k]
            x >>= 1
            k += 1
        return out

    def box(self, rel, x) -> int:
        """The right adjoint of the image: worlds all of whose successors lie in x."""
        out = 0
        for k, succ in enumerate(rel):
            if succ & ~x == 0:
                out |= 1 << k
        return out

    def _group_info(self, agents, x):
        out = self.full
        for a in dict.fromkeys(agents):
            out &= self.box(self.sees[a], x)
        return out

    def eval(self, t) -> int:
        head = t[0]
        if head == "atom":
            if t[1] in self.props:
                return self.props[t[1]]
            return 1 << self.index[t[1]]
        if head == "bot":
            return 0
        if head == "top":
            return self.full
        if head == "not":
            return self.full & ~self.eval(t[1])
        if head == "and":
            return self.eval(t[1]) & self.eval(t[2])
        if head == "or":
            return self.eval(t[1]) | self.eval(t[2])
        if head == "fi":
            return self.box(self.sees[t[1]], self.eval(t[2]))
        if head == "K":
            x = self.eval(t[2])
            return self.box(self.sees[t[1]], x) & x
        if head == "B":
            notx = self.full & ~self.eval(t[2])
            return self.full & ~(self.box(self.sees[t[1]], notx) & notx)
        if head == "CK":
            agents, depth, x = t[1], t[2], self.eval(t[3])
            acc, cur, seen = x, x, {x}
            for _ in range(depth if depth is not None else 1 << len(self.worlds)):
                cur = self._group_info(agents, cur)
                acc &= cur
                if depth is None:
                    if cur in seen:
                        break
                    seen.add(cur)
            return acc
        if head == "after":
            return self.box(self.updates[t[1]], self.eval(t[2]))
        raise ValueError(f"not a term: {t!r}")

    def entails(self, lhs, rhs) -> bool:
        return self.eval(lhs) & ~self.eval(rhs) == 0


# -- coordinatewise evaluator on a product of two chains ---------------------

class ChainProductModel:
    """Elements are pairs (x, y) with 0 <= x < m and 0 <= y < n, ordered
    coordinatewise. A join-preserving map is fixed by its images of the
    join-irreducibles (i, 0) and (0, j): f(x, y) = X(x) \\/ Y(y), where X
    and Y are the running joins of those images along each chain."""

    def __init__(self, m, n, props, sees):
        self.m, self.n = m, n
        self.props = dict(props)
        self.maps = {}
        for agent, (xs, ys) in sees.items():
            self.maps[agent] = (self._running(xs), self._running(ys))

    @staticmethod
    def _running(images):
        out, acc = [(0, 0)], (0, 0)
        for p in images:
            acc = (max(acc[0], p[0]), max(acc[1], p[1]))
            out.append(acc)
        return out

    @staticmethod
    def name(p) -> str:
        return f"p{p[0]}_{p[1]}"

    def element(self, name):
        x, y = name[1:].split("_")
        return int(x), int(y)

    def _info(self, agent, p):
        xs, ys = self.maps[agent]
        fit_x = max(k for k, v in enumerate(xs) if v[0] <= p[0] and v[1] <= p[1])
        fit_y = max(k for k, v in enumerate(ys) if v[0] <= p[0] and v[1] <= p[1])
        return fit_x, fit_y

    def _group_info(self, agents, p):
        out = (self.m - 1, self.n - 1)
        for a in dict.fromkeys(agents):
            q = self._info(a, p)
            out = (min(out[0], q[0]), min(out[1], q[1]))
        return out

    def eval(self, t):
        head = t[0]
        if head == "atom":
            if t[1] in self.props:
                return self.props[t[1]]
            return self.element(t[1])
        if head == "bot":
            return (0, 0)
        if head == "top":
            return (self.m - 1, self.n - 1)
        if head in ("and", "or"):
            a, b = self.eval(t[1]), self.eval(t[2])
            pick = min if head == "and" else max
            return pick(a[0], b[0]), pick(a[1], b[1])
        if head == "fi":
            return self._info(t[1], self.eval(t[2]))
        if head == "K":
            p = self.eval(t[2])
            q = self._info(t[1], p)
            return min(p[0], q[0]), min(p[1], q[1])
        if head == "CK":
            agents, depth, p = t[1], t[2], self.eval(t[3])
            acc, cur, seen = p, p, {p}
            for _ in range(depth if depth is not None else self.m * self.n):
                cur = self._group_info(agents, cur)
                acc = (min(acc[0], cur[0]), min(acc[1], cur[1]))
                if depth is None:
                    if cur in seen:
                        break
                    seen.add(cur)
            return acc
        raise ValueError(f"{head} is not defined on a product of chains")

    def entails(self, lhs, rhs) -> bool:
        a, b = self.eval(lhs), self.eval(rhs)
        return a[0] <= b[0] and a[1] <= b[1]


# -- self-check against the expectations written in shipped scenarios --------

def load_powerset_scenario(text):
    """Read the semantic part of a powerset `.scn` file: the model and its
    `check` queries as (id, lhs, rhs, expect) tuples."""
    worlds, props, sees, updates, checks = [], {}, {}, {}, []
    block = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] in ("agent", "action"):
            block = (words[0], words[1])
            (sees if words[0] == "agent" else updates)[words[1]] = {}
        elif line == "end":
            block = None
        elif words[0] == "worlds":
            worlds = words[1:]
        elif words[0] == "prop":
            name, body = (s.strip() for s in line[len("prop"):].split("=", 1))
            props[name] = parse(body)
        elif block and words[0] in ("sees", "update"):
            src, body = (s.strip() for s in line[len(words[0]):].split("->", 1))
            rel = sees if block[0] == "agent" else updates
            rel[block[1]][src] = parse(body)
        elif words[0] == "query" and words[2] == "check":
            body = line.split(None, 3)[3]
            expect = "holds"
            if " expect " in body:
                body, expect = (s.strip() for s in body.rsplit(" expect ", 1))
            lhs, rhs = parse(body)
            checks.append((words[1], lhs, rhs, expect))

    # ground terms are read in a model that knows only the worlds, then the
    # props in declaration order
    ground = PowersetModel(worlds, {}, {}, {})
    for name, term in props.items():
        ground.props[name] = ground.eval(term)
    masks = ground.props

    def relation(table):
        return {w: ground.names(ground.eval(t)) for w, t in table.items()}

    model = PowersetModel(
        worlds, masks,
        {a: relation(r) for a, r in sees.items()},
        {a: relation(r) for a, r in updates.items()},
    )
    return model, checks


def self_check(paths) -> int:
    """Evaluate every `check` query of the given scenario files and compare
    with its `expect`; raises on the first disagreement. Returns the number
    of expectations reproduced."""
    count = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            model, checks = load_powerset_scenario(fh.read())
        for qid, lhs, rhs, expect in checks:
            got = "holds" if model.entails(lhs, rhs) else "fails"
            if got != expect:
                raise AssertionError(f"oracle disagrees with {path} query {qid}: {got} != {expect}")
            if parse(render(lhs)) != lhs or parse(render(rhs)) != rhs:
                raise AssertionError(f"render/parse round trip broke on {path} query {qid}")
            count += 1
    return count
