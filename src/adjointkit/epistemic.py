"""Multi-agent adjoint modal algebras: appearance, information, knowledge.

Per agent A the algebra carries a join-preserving appearance map f_A with
computed right adjoint f*_A ("information"). Knowledge is truthful
information K_A(l) = f*_A(l) /\\ l; belief, on Boolean carriers only, is
B_A(l) = not K_A(not l). Group operators join appearances and meet
informations pointwise; common information is the greatest-fixed-point
meet of iterated group information, and common knowledge its reflexive
variant.
"""

from __future__ import annotations

from functools import reduce

from .errors import EmptyGroup, NotBoolean, UnknownAgent
from .lattice import Element, FiniteLattice
from . import maps
from .maps import AdjointPair, LatticeMap


class MAMA:
    """A lattice plus one validated appearance/information pair per agent."""

    def __init__(self, lattice: FiniteLattice, appearance: dict[str, AdjointPair]):
        if not appearance:
            raise EmptyGroup("a MAMA needs at least one agent")
        self.lattice = lattice
        self.pairs = dict(appearance)
        self.agents = tuple(self.pairs)

    def _pair(self, agent: str) -> AdjointPair:
        try:
            return self.pairs[agent]
        except KeyError:
            raise UnknownAgent(f"unknown agent {agent!r}")

    def appearance_map(self, agent: str) -> LatticeMap:
        return self._pair(agent).left

    def information_map(self, agent: str) -> LatticeMap:
        return self._pair(agent).right

    def appearance(self, agent: str, l: Element) -> Element:
        """f_A(l): everything that appears possible to A when l holds."""
        return self.appearance_map(agent)(l)

    def information(self, agent: str, l: Element) -> Element:
        """f*_A(l): A is informed that l holds."""
        return self.information_map(agent)(l)

    def knowledge(self, agent: str, l: Element) -> Element:
        """K_A(l) = f*_A(l) /\\ l: truthful information."""
        return self.lattice.meet2(self.information(agent, l), l)

    def belief(self, agent: str, l: Element) -> Element:
        """B_A(l) = not K_A(not l); Boolean carriers only."""
        if not self.lattice.is_boolean:
            raise NotBoolean("belief needs a Boolean carrier")
        neg = self.lattice.complement
        return neg(self.knowledge(agent, neg(l)))

    # -- group operators ---------------------------------------------------

    def _group(self, group) -> tuple[str, ...]:
        members = tuple(dict.fromkeys(group))
        if not members:
            raise EmptyGroup("group operators need a nonempty group")
        for a in members:
            self._pair(a)
        return members

    def group_appearance(self, group) -> LatticeMap:
        """Pointwise join of the members' appearance maps."""
        members = self._group(group)
        return reduce(maps.pointwise_join, (self.appearance_map(a) for a in members))

    def group_information(self, group) -> LatticeMap:
        """Pointwise meet of the members' information maps."""
        members = self._group(group)
        return reduce(maps.pointwise_meet, (self.information_map(a) for a in members))

    def common_information(self, group) -> LatticeMap:
        """Greatest-fixed-point meet of iterated group information (i >= 1)."""
        return maps.gfp_meet(self.group_information(group))

    def common_knowledge(self, group) -> LatticeMap:
        """Reflexive variant: the identity meets common information (i >= 0)."""
        ident = maps.identity_map(self.lattice, maps.MEET_PRESERVING)
        return maps.pointwise_meet(ident, self.common_information(group))


def build_mama(lattice: FiniteLattice, assignments: dict[str, dict]) -> MAMA:
    """Build a MAMA from per-agent generator assignments.

    Each agent's appearance is built with map_from_generators (hence
    join-preserving by construction) and paired with its computed adjoint.
    """
    pairs = {}
    for agent, gens in assignments.items():
        f = maps.map_from_generators(lattice, gens)
        pairs[agent] = maps.right_adjoint(f)
    return MAMA(lattice, pairs)


class CoclosureReport:
    """Outcome of checking the weak co-closure hypotheses and, when they
    hold, the S4/S5-style consequences they imply.

    Witnesses name the first element breaking each hypothesis. Consequence
    flags are None when the hypotheses fail (nothing was asserted).
    """

    __slots__ = (
        "agent", "decreasing", "decreasing_witness", "weakly_idempotent",
        "idempotent_witness", "info_weakly_idempotent", "knowledge_weakly_idempotent",
        "knowledge_fixpoint", "negative_introspection",
    )

    def __init__(
        self,
        agent: str,
        decreasing: bool,
        decreasing_witness: Element | None,
        weakly_idempotent: bool,
        idempotent_witness: Element | None,
        info_weakly_idempotent: bool | None,
        knowledge_weakly_idempotent: bool | None,
        knowledge_fixpoint: bool | None,
        negative_introspection: bool | None,   # Boolean carriers only, else None
    ):
        self.agent = agent
        self.decreasing = decreasing
        self.decreasing_witness = decreasing_witness
        self.weakly_idempotent = weakly_idempotent
        self.idempotent_witness = idempotent_witness
        self.info_weakly_idempotent = info_weakly_idempotent
        self.knowledge_weakly_idempotent = knowledge_weakly_idempotent
        self.knowledge_fixpoint = knowledge_fixpoint
        self.negative_introspection = negative_introspection

    @property
    def hypotheses_hold(self) -> bool:
        return self.decreasing and self.weakly_idempotent

    @property
    def consequences_hold(self) -> bool:
        if not self.hypotheses_hold:
            return False
        checked = [
            self.info_weakly_idempotent,
            self.knowledge_weakly_idempotent,
            self.knowledge_fixpoint,
        ]
        if self.negative_introspection is not None:
            checked.append(self.negative_introspection)
        return all(checked)


def check_coclosure_consequences(m: MAMA, agent: str) -> CoclosureReport:
    """Decide whether f_A is decreasing and weakly idempotent and, if so,
    report the consequences: f*_A <= f*_A o f*_A, K_A <= K_A o K_A,
    K_A(l) = l for all l, and on Boolean carriers
    not K_A(l) <= K_A(not K_A(l)).

    f_A and the identity preserve joins, so f_A <= id holds iff it holds
    on the join-irreducibles. Decreasing implies the rest: f_A(f_A(l)) <=
    f_A(l), and f_A(l) <= l gives l <= f*_A(l) by adjunction, so K_A is the
    identity and f*_A lies above it; the consequence rows are then
    theorems. Only when decreasing fails are the elements scanned, in
    index order, for the first witness against each hypothesis.
    """
    lat = m.lattice
    f = m.appearance_map(agent)
    if all(lat.leq_(f(e), e) for e in lat.join_irreducibles()):
        return CoclosureReport(
            agent, True, None, True, None, True, True, True, True if lat.is_boolean else None
        )
    dec_wit = next(e for e in lat.elements if not lat.leq_(f(e), e))
    ff = maps.compose(f, f)
    idem_wit = next((e for e in lat.elements if not lat.leq_(ff(e), f(e))), None)
    return CoclosureReport(
        agent, False, dec_wit, idem_wit is None, idem_wit, None, None, None, None
    )
