"""Bounded action quantale and the two-sorted epistemic-system view.

The quantale is a truncation of the powerset of the free monoid on the
action labels: elements are finite sets of words of length at most a fixed
bound, join is union, composition is pairwise concatenation, the unit is
the singleton empty word. Compositions that would leave the carrier raise
WordLengthExceeded; nothing is silently truncated.

Agent appearance lifts to words letterwise and to sets pointwise, and the
action h(l, q) is the join of the word images h(l, {w}) over the words w
of q. Five report rows therefore hold by definition, and are emitted as
constant ok rows under their names: compose-associative, unit-law and
compose-distributes-over-union are facts of the free monoid, and
lift-join-preserving[A] and act-join-law each compare two folds of the
same word images. The laws that can fail (the lifts' unit and composition
laws, act-unit, act-composition and lifted no-miracle) are checked at word
granularity: for join-preserving lifts and a join-preserving action, word
coverage implies the general laws, and enumerating the full powerset
carrier would be hopeless already at two generators.
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
    """Associativity, unit laws and distribution of composition over union.

    The three rows are constant ok rows. Concatenation of words is
    associative with the empty word as unit, and composition is defined
    pointwise on sets of words, so it distributes over union: no
    ActionQuantale can break these laws on composable words, and a unit
    test checks them on every composable word triple.
    """
    names = ("compose-associative", "unit-law", "compose-distributes-over-union")
    return QuantaleReport(tuple(LawCheck(name, True) for name in names))


def check_epistemic_quantale(
    q: ActionQuantale,
    lifts: dict[str, QuantaleLift],
    non_paranoid: bool = False,
) -> QuantaleReport:
    """Epistemic-quantale laws for every agent lift.

    Default mode checks the optimistically paranoid laws: 1 <= f'_A(1) and
    lax composition f'_A(w.v) <= f'_A(w) . f'_A(v). non_paranoid instead
    demands the equalities. Word pairs whose right-hand composition would
    leave the bounded carrier are skipped (letterwise lifts are
    length-preserving, so nothing is skipped for them).

    lift-join-preserving[A] is a constant ok row: a QuantaleLift applies
    to a set of words as the union of its word images, which is the join
    of the images by definition. The rows of check_quantale_laws come
    first, also constant.

    Both modes are judged in one pass; a lax report carries the equality
    verdicts as its `equalities` report.
    """
    laws = check_quantale_laws(q).checks
    lax, equal = [], []
    words = q.words()
    for agent, lift in lifts.items():
        join_row = LawCheck(f"lift-join-preserving[{agent}]", True)

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

    Checks h(l, 1) = l, the composition law h(l, w.v) = h(h(l, w), v) on all
    composable word pairs, the lifted no-miracle inequality
    f_A h(l, w) <= h(f_A(l), f'_A(w)) (an equality when non_paranoid), and
    folds in the epistemic-quantale report. A full pass certifies the pair.
    act-join-law, h(l, 0) = bottom and h(l, p \\/ p') = h(l, p) \\/ h(l, p'),
    is a constant ok row: act joins the word images of its argument, so the
    law holds by definition.

    Each law is read off the word maps' index tables, with the same verdicts
    and first witnesses as a loop over act. When every word map and every
    appearance map preserves joins, so do both sides of each law as
    functions of l; every element is the join of the join-irreducibles
    below it, so bottom and the join-irreducibles decide the law, the
    inequality too. Otherwise every element decides it. A law that fails
    takes its first witness from a scan in index order, which need not
    extend the lattice order.
    """
    q, lat = view.quantale, view.lattice
    quantale_report = check_epistemic_quantale(q, view.lifts, non_paranoid)
    checks = list(quantale_report.checks)

    words = q.words()
    mama = view.algebra.mama
    elements = lat.elements
    tables = {w: m.table for w, m in view.word_maps.items()}
    appearance = {agent: mama.appearance_map(agent) for agent in mama.agents}
    domain = range(lat.n)
    if all(maps.preserves_joins(m) for m in (*view.word_maps.values(), *appearance.values())):
        domain = [lat.bottom.index] + [e.index for e in lat.join_irreducibles()]

    def first_failure(fails):
        """The first element in index order at which a law fails, or None."""
        if any(fails(e) for e in domain):
            return elements[next(e for e in range(lat.n) if fails(e))]
        return None

    at = first_failure(lambda e: tables[()][e] != e)
    checks.append(LawCheck("act-unit", at is None, None if at is None else at.name))
    checks.append(LawCheck("act-join-law", True))

    wit = None
    for w, v in _composable_pairs(q, words):
        at = first_failure(lambda e: tables[v][tables[w][e]] != tables[w + v][e])
        if at is not None:
            wit = f"h({at.name}, {fmt_word(w)}.{fmt_word(v)})"
            break
    checks.append(LawCheck("act-composition", wit is None, wit))

    wit = None
    for agent, f in appearance.items():
        for w in words:
            seen = view.lifts[agent].apply(frozenset({w}))

            def fails(e):
                lhs = elements[f.table[tables[w][e]]]
                rhs = lat.join(elements[tables[u][f.table[e]]] for u in seen)
                return lhs != rhs if non_paranoid else not lat.leq_(lhs, rhs)

            at = first_failure(fails)
            if at is not None:
                wit = f"agent {agent}, word {fmt_word(w)}, at {at.name}"
                break
        if wit:
            break
    checks.append(LawCheck("lifted-no-miracle", wit is None, wit))

    return QuantaleReport(tuple(checks), quantale_report.equalities)
