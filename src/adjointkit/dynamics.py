"""Action structure over a MAMA: updates, action appearance, axioms.

Each action a carries a join-preserving update map h_a (with computed right
adjoint h*_a, read "after a") and every agent an action-appearance f'_A on
labels. The build enforces the no-miracle axiom
f_A(h_a(l)) <= h_{f'_A(a)}(f_A(l)) and forward fact stability
(l <= phi implies h_a(l) <= phi for communication actions), and raises on
the first breach of either.

No-miracle is checked on the join-irreducible generators by default: both
sides are join-preserving in l because f'_A acts on labels, so generator
coverage implies the full law. A full-lattice sweep stays available for
audits, and an equality mode finds where the two sides differ.
"""

from __future__ import annotations

from .errors import (
    EmptyActionSet,
    FactStabilityViolation,
    NoMiracleViolation,
    UnknownAction,
    UnknownAgent,
    WordLengthExceeded,
)
from .epistemic import MAMA
from .lattice import Element
from . import maps
from .maps import AdjointPair, LatticeMap

# Most words an action quantale may hold; the system checks grow with its square.
MAX_WORDS = 1024


class ActionLabel:
    __slots__ = ("name", "is_communication")

    def __init__(self, name: str, is_communication: bool = False):
        self.name = name
        self.is_communication = is_communication


class DynamicAlgebra:
    """A validated action epistemic algebra; immutable after construction."""

    def __init__(
        self,
        mama: MAMA,
        actions: dict[str, ActionLabel],
        update: dict[str, AdjointPair],
        action_appearance: dict[str, dict[str, str]],
        facts: tuple[Element, ...],
        declared_kernels: dict[str, tuple[Element, ...]] | None = None,
    ):
        self.mama = mama
        self.lattice = mama.lattice
        self.actions = dict(actions)
        self.update = dict(update)
        self.action_appearance = {a: dict(m) for a, m in action_appearance.items()}
        self.facts = tuple(facts)
        self.declared_kernels = dict(declared_kernels or {})

    # -- lookups -----------------------------------------------------------

    def action(self, name: str) -> ActionLabel:
        try:
            return self.actions[name]
        except KeyError:
            raise UnknownAction(f"unknown action {name!r}")

    def update_map(self, name: str) -> LatticeMap:
        self.action(name)
        return self.update[name].left

    def after_map(self, name: str) -> LatticeMap:
        self.action(name)
        return self.update[name].right

    def appeared_action(self, agent: str, action: str) -> str:
        self.action(action)
        if agent not in self.mama.pairs:
            raise UnknownAgent(f"unknown agent {agent!r}")
        return self.action_appearance[agent][action]

    @property
    def communication_actions(self) -> tuple[str, ...]:
        return tuple(a for a, lab in self.actions.items() if lab.is_communication)

    # -- operations ----------------------------------------------------------

    def update_result(self, action: str, l: Element) -> Element:
        """h*_a(l): after action a, proposition l holds."""
        return self.after_map(action)(l)

    def kernel(self, action: str) -> tuple[Element, ...]:
        """All l with h_a(l) = bottom, in index order: by adjunction, the
        elements below h*_a(bottom)."""
        dead = self.after_map(action)(self.lattice.bottom)
        return tuple(e for e in self.lattice.elements if self.lattice.leq_(e, dead))

    def eventually(self, action_names, l: Element) -> Element:
        """Greatest-fixed-point meet of h*_alpha applied to l, where
        h_alpha is the pointwise join of the chosen updates."""
        names = tuple(dict.fromkeys(action_names))
        if not names:
            raise EmptyActionSet("eventually needs a nonempty action set")
        h = self.update_map(names[0])
        for name in names[1:]:
            h = maps.pointwise_join(h, self.update_map(name))
        hstar = maps.right_adjoint(h).right
        return maps.gfp_meet(hstar)(l)

    def fact_stability_report(
        self, converse: bool = False, limit: int | None = None
    ) -> tuple[tuple[str, Element, Element], ...]:
        """Every (a, phi, l) against forward fact stability, l <= phi implies
        h_a(l) <= phi, for the communication actions a and the facts phi;
        with a limit, only the first that many.

        converse scans h_a(l) <= phi implies l <= phi instead. It fails at
        kernel elements in any model where a communication action
        annihilates something, so it is reported, never enforced.

        h_a is monotone, so the forward law holds for (a, phi) iff
        h_a(phi) <= phi; by adjunction the converse holds iff
        h*_a(phi) <= phi. Elements are scanned, in index order, only for
        a pair that fails its inequality.
        """
        lat = self.lattice
        breaches = []
        for name in self.communication_actions:
            h = self.update_map(name)
            decide = self.after_map(name) if converse else h
            for phi in self.facts:
                if lat.leq_(decide(phi), phi):
                    continue
                for l in lat.elements:
                    premise, conclusion = lat.leq_(l, phi), lat.leq_(h(l), phi)
                    if converse:
                        premise, conclusion = conclusion, premise
                    if premise and not conclusion:
                        breaches.append((name, phi, l))
                        if len(breaches) == limit:
                            return tuple(breaches)
        return tuple(breaches)

    def no_miracle_violations(self, full_lattice: bool = False, equality: bool = False):
        """Yield NoMiracleViolation instances (empty when the axiom holds).

        Agents go in order, actions in declaration order, and elements in
        index order: the join-irreducibles, or every element with
        full_lattice. With equality, yield wherever the two sides differ,
        the axiom's equality form; there an instance is a witness, and its
        message ("is not below") need not apply.
        """
        lat = self.lattice
        domain = lat.join_irreducibles() if not full_lattice else lat.elements
        for agent in self.mama.agents:
            f = self.mama.appearance_map(agent)
            for a in self.actions:
                h = self.update_map(a)
                h_seen = self.update_map(self.appeared_action(agent, a))
                for l in domain:
                    lhs = f(h(l))
                    rhs = h_seen(f(l))
                    if (lhs != rhs) if equality else not lat.leq_(lhs, rhs):
                        yield NoMiracleViolation(agent, a, l, lhs, rhs)

    def lifted_no_miracle_witness(self, equality: bool = False) -> str | None:
        """The first witness against lifted no-miracle (its equality form with
        equality), or None where it holds. The scan above decides it on the
        join-irreducibles; a failure's witness is the first failing agent and
        letter at the first failing element of a scan of every element."""
        if next(self.no_miracle_violations(equality=equality), None) is None:
            return None
        v = next(self.no_miracle_violations(full_lattice=True, equality=equality))
        return f"agent {v.agent}, word <{v.action}>, at {v.element.name}"


def check_word_cap(generators: int, bound: int) -> None:
    """Raise WordLengthExceeded where the words of length at most bound over
    that many generators number more than MAX_WORDS, counted without
    listing them."""
    count = layer = 1
    for _ in range(bound):
        layer *= generators
        count += layer
        if count > MAX_WORDS:
            raise WordLengthExceeded(
                f"{generators} generators at word bound {bound} give more than {MAX_WORDS} words"
            )


def system_laws(agents, non_paranoid: bool = False) -> tuple[str, ...]:
    """The epistemic-system laws that hold by definition for letterwise
    lifts of product update (see quantale), in report order; the free-monoid
    laws of an action quantale come first. lifted-no-miracle, the one law
    that can fail, comes after them."""
    unit, compose = (("unit-equality", "compose-equality") if non_paranoid
                     else ("unit-inclusion", "compose-lax"))
    return ("compose-associative", "unit-law", "compose-distributes-over-union",
            *(f"{law}[{agent}]" for agent in agents
              for law in ("lift-join-preserving", unit, compose)),
            "act-unit", "act-join-law", "act-composition")


def build_dynamic_algebra(
    mama: MAMA,
    actions,
    update_generators: dict[str, dict],
    action_appearance: dict[str, dict[str, str]] | None = None,
    facts=(),
    declared_kernels: dict[str, tuple[Element, ...]] | None = None,
    *,
    full_lattice_axioms: bool = False,
) -> DynamicAlgebra:
    """Build and validate a DynamicAlgebra.

    actions: iterable of ActionLabel (or names, treated as non-communication).
    update_generators: per action, join-irreducible -> Element images.
    action_appearance: per agent, action name -> action name; missing entries
    default to the action itself (a public action appears as it is).
    Raises NoMiracleViolation / FactStabilityViolation on the first breach.
    """
    labels = {}
    for a in actions:
        lab = a if isinstance(a, ActionLabel) else ActionLabel(str(a))
        if lab.name in labels:
            raise UnknownAction(f"duplicate action {lab.name!r}")
        labels[lab.name] = lab
    if set(update_generators) != set(labels):
        raise UnknownAction("update generators must cover exactly the declared actions")

    update = {
        name: maps.right_adjoint(maps.map_from_generators(mama.lattice, gens))
        for name, gens in update_generators.items()
    }

    appearance = {}
    given = action_appearance or {}
    for agent in mama.agents:
        row = dict(given.get(agent, {}))
        for name in labels:
            row.setdefault(name, name)
        for src, dst in row.items():
            if src not in labels or dst not in labels:
                raise UnknownAction(
                    f"action appearance for agent {agent!r} mentions unknown action"
                )
        appearance[agent] = row
    for agent in given:
        if agent not in mama.pairs:
            raise UnknownAgent(f"action appearance given for unknown agent {agent!r}")

    for phi in facts:
        mama.lattice.check(phi)

    alg = DynamicAlgebra(mama, labels, update, appearance, tuple(facts), declared_kernels)

    for violation in alg.no_miracle_violations(full_lattice=full_lattice_axioms):
        raise violation
    breaches = alg.fact_stability_report(limit=1)
    if breaches:
        raise FactStabilityViolation(*breaches[0])
    return alg
