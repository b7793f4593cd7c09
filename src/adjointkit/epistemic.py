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
    """Whether f_A is decreasing, f_A <= id: the weak co-closure hypotheses.

    Decreasing implies weak idempotence, f_A(f_A(l)) <= f_A(l), so it
    decides both hypotheses. The witness is the first element, in index
    order, with f_A(l) not below l; None when the hypotheses hold.
    """

    __slots__ = ("agent", "decreasing_witness")

    def __init__(self, agent: str, decreasing_witness: Element | None):
        self.agent = agent
        self.decreasing_witness = decreasing_witness

    @property
    def hypotheses_hold(self) -> bool:
        return self.decreasing_witness is None


def check_coclosure_consequences(m: MAMA, agent: str) -> CoclosureReport:
    """Decide the weak co-closure hypotheses of f_A by f_A <= id.

    f_A and the identity preserve joins, so f_A <= id holds iff it holds
    on the join-irreducibles. When it holds, so do the consequences:
    f_A(l) <= l gives l <= f*_A(l) by adjunction, so K_A is the identity,
    f*_A <= f*_A o f*_A, K_A <= K_A o K_A and, on Boolean carriers,
    not K_A(l) <= K_A(not K_A(l)). Only when it fails are the elements
    scanned, in index order, for the first witness.
    """
    lat = m.lattice
    f = m.appearance_map(agent)
    if all(lat.leq_(f(e), e) for e in lat.join_irreducibles()):
        return CoclosureReport(agent, None)
    return CoclosureReport(agent, next(e for e in lat.elements if not lat.leq_(f(e), e)))
