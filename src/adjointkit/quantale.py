"""Bounded action quantale and the two-sorted epistemic-system view.

The quantale is a truncation of the powerset of the free monoid on the
action labels: elements are finite sets of words of length at most a fixed
bound, join is union, composition is pairwise concatenation, the unit is
the singleton empty word. Compositions that would leave the carrier raise
WordLengthExceeded; nothing is silently truncated.

Agent appearance lifts to words letterwise and to sets pointwise, and the
action h(l, q) joins, over the words of q, the letters' update maps applied
in turn (product update: Baltag, Moss and Solecki, TARK 1998). On that view
every system law but one holds by definition, and check_epistemic_system
emits each as a constant ok row, as dynamics.system_laws names and orders
them: compose-associative, unit-law and compose-distributes-over-union are
facts of the free monoid; lift-join-preserving[A] and act-join-law compare
two folds of the same word images; a letterwise lift is a monoid
homomorphism, so its unit and composition laws (unit-inclusion/
unit-equality[A], compose-lax/compose-equality[A]) hold; act-unit and
act-composition restate how act applies a word.

The one law that can fail is lifted no-miracle, f_A h(l, w) <= h(f_A(l),
f'_A(w)), or its equality form. By induction on the word, with a' and w'
the agent's appearances of a and w and h_a' monotone,

    f(h_a(h_w l)) <= h_a'(f(h_w l)) <= h_a'(h_w'(f l)),

so a word fails only if one of its letters fails for the same agent, and
the law is decided on one-letter words. When the update and appearance
maps preserve joins, so do both sides as functions of l, and bottom and
the join-irreducibles decide it. On one letter the lax law is the
no-miracle axiom, which build_dynamic_algebra enforces, and its equality
form is the equality mode of the same scan. check_epistemic_quantale still
judges the lift laws of arbitrary (paranoid) QuantaleLifts.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product

from .errors import GeneratorMismatch, NotJoinPreserving, UnknownAction, WordLengthExceeded
from .dynamics import DynamicAlgebra, check_word_cap, system_laws
from .lattice import Element
from . import maps

Word = tuple[str, ...]
QElement = frozenset  # frozenset[Word]


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
        check_word_cap(len(gens), max_word_length)
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


class QuantaleLift:
    """An agent's appearance on the quantale, given by word images.

    The full map is the pointwise (union) extension of word_images, hence
    join-preserving by construction; word_images may send a word anywhere,
    which is how non-letterwise lifts (paranoid variants) are expressed.
    """

    __slots__ = ("quantale", "word_images")

    def __init__(self, quantale: ActionQuantale, word_images: dict):
        self.quantale = quantale
        self.word_images = word_images  # Word -> QElement

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


class LawCheck:
    """One law's verdict and, when it fails, its witness; equal when name,
    verdict and witness agree."""

    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str | None = None):
        self.name = name
        self.ok = ok
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not LawCheck:
            return NotImplemented
        return (self.name, self.ok, self.witness) == (other.name, other.ok, other.witness)


class QuantaleReport:
    """Law verdicts in order; equal when the checks and equalities agree."""

    __slots__ = ("checks", "equalities")

    def __init__(self, checks: tuple[LawCheck, ...], equalities: QuantaleReport | None = None):
        self.checks = checks
        # lax reports also carry the same laws judged as non-paranoid
        # equalities, from the same pass
        self.equalities = equalities

    def __eq__(self, other):
        if other.__class__ is not QuantaleReport:
            return NotImplemented
        return (self.checks, self.equalities) == (other.checks, other.equalities)

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
    return QuantaleReport(tuple(LawCheck(name, True) for name in system_laws(())[:3]))


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

    def __init__(self, alg: DynamicAlgebra, q: ActionQuantale):
        if set(q.generators) != set(alg.actions):
            raise GeneratorMismatch("quantale generators must coincide with the algebra's actions")
        self.algebra = alg
        self.quantale = q

    @property
    def lattice(self):
        return self.algebra.lattice

    def act(self, l: Element, q: QElement) -> Element:
        """h(l, q); the empty set of words acts as bottom."""
        images = []
        for w in q:
            x = l
            for letter in w:
                x = self.algebra.update_map(letter)(x)
            images.append(x)
        return self.lattice.join(images)


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
    """Module laws of the epistemic system plus the epistemic-quantale laws
    of the letterwise lifts: the constant ok rows of dynamics.system_laws,
    then lifted-no-miracle (an equality when non_paranoid), the only row
    that can fail on the view (see the module docstring). A full pass
    certifies the pair. A lax report carries the non_paranoid report as
    its `equalities`. Deciding lifted no-miracle on the letters needs
    join-preserving update and appearance maps, and others raise
    NotJoinPreserving."""
    alg = view.algebra
    agents = alg.mama.agents
    for name, m in [*((f"upd[{a}]", alg.update_map(a)) for a in alg.actions),
                    *((f"f[{agent}]", alg.mama.appearance_map(agent)) for agent in agents)]:
        if not maps.preserves_joins(m):
            raise NotJoinPreserving(
                f"the epistemic-system check needs join-preserving maps; {name} is not"
            )

    def report(equality, wit, equalities=None):
        laws = (LawCheck(name, True) for name in system_laws(agents, equality))
        return QuantaleReport((*laws, LawCheck("lifted-no-miracle", wit is None, wit)), equalities)

    equal = alg.lifted_no_miracle_witness(equality=True)
    equalities = report(True, equal)
    if non_paranoid:
        return equalities
    # every lax failure is also an equality failure
    return report(False, equal and alg.lifted_no_miracle_witness(), equalities)
