"""Bounded action quantale and the two-sorted epistemic-system view.

The quantale is a truncation of the powerset of the free monoid on the
action labels: elements are finite sets of words of length at most a fixed
bound, join is union, composition is pairwise concatenation, the unit is
the singleton empty word. Compositions that would leave the carrier raise
WordLengthExceeded; nothing is silently truncated.

Agent appearance lifts to words letterwise and to sets pointwise, which
makes every lift join-preserving by construction. The law checks therefore
run at word granularity (plus a canonical family of unions): for
join-preserving lifts and a join-preserving action, word coverage implies
the general laws, and enumerating the full powerset carrier would be
hopeless already at two generators.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product

from .errors import GeneratorMismatch, UnknownAction, WordLengthExceeded
from .dynamics import DynamicAlgebra
from .lattice import Element
from . import maps

Word = tuple[str, ...]
QElement = frozenset  # frozenset[Word]

# Most words a quantale may hold; the system checks grow with its square.
MAX_WORDS = 1024


def fmt_word(w: Word) -> str:
    return "<" + ".".join(w) + ">" if w else "1"


def fmt_q(q: QElement) -> str:
    if not q:
        return "0"
    return "{" + ", ".join(fmt_word(w) for w in sorted(q)) + "}"


class ActionQuantale:
    """Sets of bounded-length words over the generator actions."""

    def __init__(self, generators, max_word_length: int = 3):
        gens = tuple(dict.fromkeys(generators))
        if not gens:
            raise UnknownAction("a quantale needs at least one generator action")
        if max_word_length < 1:
            raise WordLengthExceeded("max_word_length must be at least 1")
        count = layer = 1
        for _ in range(max_word_length):
            layer *= len(gens)
            count += layer
            if count > MAX_WORDS:
                raise WordLengthExceeded(
                    f"{len(gens)} generators at word bound {max_word_length} give "
                    f"more than {MAX_WORDS} words"
                )
        self.generators = gens
        self.max_word_length = max_word_length

    @property
    def unit(self) -> QElement:
        return frozenset({()})

    @property
    def bottom(self) -> QElement:
        return frozenset()

    def words(self) -> tuple[Word, ...]:
        """Every word of length <= the bound, shortest first."""
        out = [()]
        for k in range(1, self.max_word_length + 1):
            out.extend(product(self.generators, repeat=k))
        return tuple(out)

    def element(self, words) -> QElement:
        out = set()
        for w in words:
            w = tuple(w)
            if len(w) > self.max_word_length:
                raise WordLengthExceeded(f"word {fmt_word(w)} exceeds bound {self.max_word_length}")
            for letter in w:
                if letter not in self.generators:
                    raise UnknownAction(f"unknown action {letter!r} in word")
            out.add(w)
        return frozenset(out)

    def singleton(self, *letters: str) -> QElement:
        return self.element([letters])

    def join(self, *qs: QElement) -> QElement:
        return frozenset().union(*qs)

    def compose(self, p: QElement, q: QElement) -> QElement:
        """Pairwise concatenation; errors if any result leaves the carrier."""
        out = set()
        for w, v in product(p, q):
            if len(w) + len(v) > self.max_word_length:
                raise WordLengthExceeded(
                    f"{fmt_word(w)} . {fmt_word(v)} exceeds bound {self.max_word_length}"
                )
            out.add(w + v)
        return frozenset(out)

    def leq(self, p: QElement, q: QElement) -> bool:
        return p <= q


@dataclass(frozen=True)
class QuantaleLift:
    """An agent's appearance on the quantale, given by word images.

    The full map is the pointwise (union) extension of word_images, hence
    join-preserving by construction; word_images may send a word anywhere,
    which is how non-letterwise lifts (paranoid variants) are expressed.
    """

    quantale: ActionQuantale
    word_images: dict  # Word -> QElement

    def apply(self, q: QElement) -> QElement:
        return frozenset().union(*(self.word_images[w] for w in q))


def lift_action_appearance(alg: DynamicAlgebra, q: ActionQuantale) -> dict[str, QuantaleLift]:
    """Letterwise lift of each agent's f'_A to words, pointwise to sets."""
    if set(q.generators) != set(alg.actions):
        raise GeneratorMismatch("quantale generators must coincide with the algebra's actions")
    lifts = {}
    for agent in alg.mama.agents:
        images = {}
        for w in q.words():
            images[w] = frozenset({tuple(alg.appeared_action(agent, a) for a in w)})
        lifts[agent] = QuantaleLift(q, images)
    return lifts


@dataclass(frozen=True)
class LawCheck:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class QuantaleReport:
    checks: tuple[LawCheck, ...]
    # lax epistemic-quantale reports also carry the same laws judged as
    # non-paranoid equalities, from the same pass over word pairs
    equalities: QuantaleReport | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[LawCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _canonical_unions(q: ActionQuantale):
    """Small deterministic family of non-singleton elements for union laws."""
    words = q.words()
    fam = [q.bottom, q.unit, frozenset(words)]
    for i in range(len(words) - 1):
        fam.append(frozenset({words[i], words[i + 1]}))
    return fam


def _shorter(words: tuple[Word, ...], length: int) -> tuple[Word, ...]:
    """The words of at most the given length: a prefix, since words() lists
    shortest first."""
    return words[:bisect_right(words, length, key=len)]


def _composable_pairs(q: ActionQuantale, words: tuple[Word, ...]):
    """Word pairs whose concatenation stays within the bound, in the order
    of product(words, repeat=2)."""
    for w in words:
        for v in _shorter(words, q.max_word_length - len(w)):
            yield w, v


def check_quantale_laws(q: ActionQuantale) -> QuantaleReport:
    """Associativity, unit laws and distribution of composition over union,
    verified on all word triples within the bound and the canonical unions."""
    checks = []

    wit = None
    words = q.words()
    triples = (
        (w, v, u)
        for w, v in _composable_pairs(q, words)
        for u in _shorter(words, q.max_word_length - len(w) - len(v))
    )
    for w, v, u in triples:
        a, b, c = (frozenset({x}) for x in (w, v, u))
        if q.compose(q.compose(a, b), c) != q.compose(a, q.compose(b, c)):
            wit = f"({fmt_word(w)}, {fmt_word(v)}, {fmt_word(u)})"
            break
    checks.append(LawCheck("compose-associative", wit is None, wit))

    wit = None
    for p in _canonical_unions(q):
        if q.compose(q.unit, p) != p or q.compose(p, q.unit) != p:
            wit = fmt_q(p)
            break
    checks.append(LawCheck("unit-law", wit is None, wit))

    wit = None
    for p in _canonical_unions(q):
        longest = max((len(w) for w in p), default=0)
        for v in _shorter(words, q.max_word_length - longest):
            s = frozenset({v})
            lhs = q.compose(s, p)
            rhs = q.join(*(q.compose(s, frozenset({w})) for w in p)) if p else q.bottom
            if lhs != rhs:
                wit = f"{fmt_q(s)} . {fmt_q(p)}"
                break
        if wit:
            break
    checks.append(LawCheck("compose-distributes-over-union", wit is None, wit))

    return QuantaleReport(tuple(checks))


def check_epistemic_quantale(
    q: ActionQuantale,
    lifts: dict[str, QuantaleLift],
    non_paranoid: bool = False,
) -> QuantaleReport:
    """Epistemic-quantale laws for every agent lift.

    Default mode checks the optimistically paranoid laws: 1 <= f'_A(1) and
    lax composition f'_A(w.v) <= f'_A(w) . f'_A(v). non_paranoid instead
    demands the equalities. Join preservation of the pointwise extension is
    asserted on the canonical union family. Word pairs whose right-hand
    composition would leave the bounded carrier are skipped (letterwise
    lifts are length-preserving, so nothing is skipped for them).

    Both modes are judged in one pass; a lax report carries the equality
    verdicts as its `equalities` report.
    """
    laws = check_quantale_laws(q).checks
    lax, equal = [], []
    words = q.words()
    for agent, lift in lifts.items():
        wit = None
        for p in _canonical_unions(q):
            parts = [lift.apply(frozenset({w})) for w in p]
            if lift.apply(p) != frozenset().union(*parts):
                wit = fmt_q(p)
                break
        join_row = LawCheck(f"lift-join-preserving[{agent}]", wit is None, wit)

        unit_img = lift.apply(q.unit)
        unit_wit = f"f'({fmt_q(q.unit)}) = {fmt_q(unit_img)}"
        lax_unit = q.unit <= unit_img
        equal_unit = unit_img == q.unit

        # every lax failure is also an equality failure, so the pass can
        # stop at the first lax one
        lax_wit = equal_wit = None
        for w, v in _composable_pairs(q, words):
            lhs = lift.apply(frozenset({w + v}))
            try:
                rhs = q.compose(lift.apply(frozenset({w})), lift.apply(frozenset({v})))
            except WordLengthExceeded:
                continue
            if lhs != rhs:
                wit = f"f'({fmt_word(w)} . {fmt_word(v)}) = {fmt_q(lhs)} vs {fmt_q(rhs)}"
                equal_wit = equal_wit or wit
                if not lhs <= rhs:
                    lax_wit = wit
                    break

        lax += [
            join_row,
            LawCheck(f"unit-inclusion[{agent}]", lax_unit, None if lax_unit else unit_wit),
            LawCheck(f"compose-lax[{agent}]", lax_wit is None, lax_wit),
        ]
        equal += [
            join_row,
            LawCheck(f"unit-equality[{agent}]", equal_unit, None if equal_unit else unit_wit),
            LawCheck(f"compose-equality[{agent}]", equal_wit is None, equal_wit),
        ]
    equalities = QuantaleReport(laws + tuple(equal))
    if non_paranoid:
        return equalities
    return QuantaleReport(laws + tuple(lax), equalities)


class EpistemicSystemView:
    """The two-sorted presentation: act(l, q) joins, over the words in q,
    the sequential application of the letters' update maps."""

    def __init__(self, alg: DynamicAlgebra, q: ActionQuantale,
                 lifts: dict[str, QuantaleLift] | None = None,
                 word_maps: dict | None = None):
        if set(q.generators) != set(alg.actions):
            raise GeneratorMismatch("quantale generators must coincide with the algebra's actions")
        self.algebra = alg
        self.quantale = q
        self.lifts = lifts if lifts is not None else lift_action_appearance(alg, q)
        if word_maps is None:
            # words() lists shortest first, so each word's prefix is ready
            word_maps = {}
            for w in q.words():
                word_maps[w] = (
                    maps.compose(alg.update_map(w[-1]), word_maps[w[:-1]]) if w
                    else maps.identity_map(alg.lattice, maps.JOIN_PRESERVING)
                )
        self.word_maps = dict(word_maps)

    @property
    def lattice(self):
        return self.algebra.lattice

    def act(self, l: Element, q: QElement) -> Element:
        """h(l, q); the empty set of words acts as bottom."""
        return self.lattice.join(self.word_maps[w](l) for w in q)


def indexed_to_binary(alg: DynamicAlgebra, q: ActionQuantale) -> EpistemicSystemView:
    """Present the indexed update family as a binary action of the quantale."""
    return EpistemicSystemView(alg, q)


def binary_to_indexed(view: EpistemicSystemView) -> DynamicAlgebra:
    """Recover the indexed family from the binary action on generators.

    Returns a fresh DynamicAlgebra sharing the view's MAMA and metadata;
    round-tripping agrees with the original on every generator action.
    """
    alg = view.algebra
    lat = alg.lattice
    update = {}
    for name in alg.actions:
        table = [view.act(e, view.quantale.singleton(name)).index for e in lat.elements]
        h = maps.map_from_table(lat, [lat.elements[i] for i in table], maps.JOIN_PRESERVING)
        update[name] = maps.right_adjoint(h)
    return DynamicAlgebra(
        alg.mama, alg.actions, update, alg.action_appearance, alg.facts,
        alg.declared_kernels,
    )


def check_epistemic_system(view: EpistemicSystemView, non_paranoid: bool = False) -> QuantaleReport:
    """Module laws of the epistemic system plus the underlying axioms.

    Checks h(l, 1) = l, the join law in both arguments, the composition law
    h(l, w.v) = h(h(l, w), v) on all composable word pairs, the lifted
    no-miracle inequality f_A h(l, w) <= h(f_A(l), f'_A(w)), and folds in
    the epistemic-quantale report. A full pass certifies the pair.

    Each law is judged on the word maps' image tables, with the same
    verdicts and first witnesses as a loop over act.
    """
    q, lat = view.quantale, view.lattice
    quantale_report = check_epistemic_quantale(q, view.lifts, non_paranoid)
    checks = list(quantale_report.checks)

    words = q.words()
    unions = _canonical_unions(q)
    pairs = list(_composable_pairs(q, words))
    first_failures = _mask_laws if lat.worlds is not None else _table_laws
    unit_hit, join_hit, composition_hit, miracle_hit = first_failures(
        view, words, unions, pairs, non_paranoid)
    names = [e.name for e in lat.elements]

    wit = None if unit_hit is None else names[unit_hit]
    checks.append(LawCheck("act-unit", wit is None, wit))

    wit = None
    if join_hit is not None:
        e, k = join_hit
        wit = f"h({names[e]}, 0)" if k == 0 else f"h({names[e]}, {fmt_q(unions[k - 1])})"
    checks.append(LawCheck("act-join-law", wit is None, wit))

    wit = None
    if composition_hit is not None:
        (w, v), e = pairs[composition_hit[0]], composition_hit[1]
        wit = f"h({names[e]}, {fmt_word(w)}.{fmt_word(v)})"
    checks.append(LawCheck("act-composition", wit is None, wit))

    wit = None
    if miracle_hit is not None:
        agent, i, e = miracle_hit
        wit = f"agent {agent}, word {fmt_word(words[i])}, at {names[e]}"
    checks.append(LawCheck("lifted-no-miracle", wit is None, wit))

    return QuantaleReport(tuple(checks), quantale_report.equalities)


# Each of the two functions below returns the first failure of each module
# law, in the order of a loop over act: the element of act-unit; (element,
# column) of act-join-law, column 0 being h(l, 0) = bottom and column k the
# k-th canonical union; (pair, element) of act-composition; (agent, word,
# element) of lifted-no-miracle. None where a law holds.


def _table_laws(view, words, unions, pairs, non_paranoid):
    """Every law judged for every element at once, by numpy gathers over
    the word maps' image tables and the lattice tables."""
    import numpy as np

    q, lat = view.quantale, view.lattice
    row = {w: i for i, w in enumerate(view.word_maps)}
    tables = np.array([m.table for m in view.word_maps.values()], dtype=np.intp)
    bottom = np.full(lat.n, lat.bottom.index, dtype=np.intp)

    def first(bad):
        """Position of the first True cell in row-major order, or None."""
        hits = np.flatnonzero(bad)
        if not hits.size:
            return None
        return tuple(int(i) for i in np.unravel_index(hits[0], bad.shape))

    def join_all(columns):
        out = bottom
        for col in columns:
            out = lat.join_table[out, col]
        return out

    def act(p):
        """h(l, p) for every l, as an index column."""
        return join_all(tables[row[w]] for w in p)

    unit_hit = first(act(q.unit) != np.arange(lat.n))
    unit_hit = None if unit_hit is None else unit_hit[0]

    lhs = np.stack([act(q.bottom)] + [act(p) for p in unions], axis=1)
    rhs = np.stack([bottom] + [join_all(act(frozenset({w})) for w in p) for p in unions], axis=1)
    join_hit = first(lhs != rhs)

    w_rows, v_rows, wv_rows = (
        np.array(rows, dtype=np.intp)
        for rows in zip(*((row[w], row[v], row[w + v]) for w, v in pairs))
    )
    step = tables[v_rows[:, None], tables[w_rows]]   # h(h(l, w), v)
    composition_hit = first(step != tables[wv_rows])

    miracle_hit = None
    for agent in view.algebra.mama.agents:
        f = np.array(view.algebra.mama.appearance_map(agent).table, dtype=np.intp)
        lift = view.lifts[agent]
        lhs = f[tables[[row[w] for w in words]]]
        rhs = np.stack([act(lift.apply(frozenset({w})))[f] for w in words])
        hit = first(lhs != rhs if non_paranoid else ~lat.leq[lhs, rhs])
        if hit is not None:
            miracle_hit = (agent, *hit)
            break
    return unit_hit, join_hit, composition_hit, miracle_hit


def _mask_laws(view, words, unions, pairs, non_paranoid):
    """The same first failures on a powerset, by bit operations on masks.

    When the word maps and the appearance maps all preserve joins, so do
    both sides of each law as functions of l, so bottom and the singletons
    decide it. They also hold its first witness in element order: a law
    that fails at l fails at a singleton inside l, whose mask is no larger.
    Otherwise every element is tried.
    """
    q, lat = view.quantale, view.lattice
    mama = view.algebra.mama
    tables = {w: m.table for w, m in view.word_maps.items()}
    appearance = {agent: mama.appearance_map(agent) for agent in mama.agents}
    domain = range(lat.n)
    if all(maps.preserves_joins(m) for m in (*view.word_maps.values(), *appearance.values())):
        domain = [lat.bottom.index] + [e.index for e in lat.join_irreducibles()]

    def act(e, p):
        out = 0
        for w in p:
            out |= tables[w][e]
        return out

    def act_words(e, p):
        """h(l, p) as the join of h(l, {w}) over the words w of p."""
        out = 0
        for w in p:
            out |= act(e, frozenset({w}))
        return out

    unit_hit = next((e for e in domain if act(e, q.unit) != e), None)
    # column 0 compares bottom with bottom
    join_hit = next(((e, k) for e in domain for k, p in enumerate(unions, 1)
                     if act(e, p) != act_words(e, p)), None)
    composition_hit = next(((i, e) for i, (w, v) in enumerate(pairs) for e in domain
                            if tables[v][tables[w][e]] != tables[w + v][e]), None)

    miracle_hit = None
    for agent in mama.agents:
        f = appearance[agent].table
        images = [view.lifts[agent].apply(frozenset({w})) for w in words]
        lhs_rhs = ((i, e, f[tables[w][e]], act(f[e], images[i]))
                   for i, w in enumerate(words) for e in domain)
        miracle_hit = next(((agent, i, e) for i, e, lhs, rhs in lhs_rhs
                            if (lhs != rhs if non_paranoid else lhs & ~rhs)), None)
        if miracle_hit is not None:
            break
    return unit_hit, join_hit, composition_hit, miracle_hit
