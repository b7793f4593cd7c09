"""Evaluate symbolic terms in a concrete validated model.

This is the bridge used by the soundness cross-check: any sequent the
derivation engine proves against assumptions realized by a model must
evaluate to a true entailment here. It is the one term evaluator: the
scenario builder evaluates the ground terms of prop, sees and update lines
with it too, before there is an algebra.
"""

from __future__ import annotations

from .dynamics import DynamicAlgebra
from .errors import ResolutionError
from .lattice import Element
from . import terms as T


class SemanticModel:
    """A validated dynamic algebra plus atom bindings for the term language."""

    __slots__ = ("algebra", "atoms")

    def __init__(self, algebra: DynamicAlgebra, atoms: dict[str, Element]):
        self.algebra = algebra
        self.atoms = atoms

    @property
    def lattice(self):
        return self.algebra.lattice


def resolve_action(alg: DynamicAlgebra, ref: T.ActionRef) -> str:
    if isinstance(ref, T.ActName):
        alg.action(ref.name)
        return ref.name
    inner = resolve_action(alg, ref.ref)
    return alg.appeared_action(ref.agent, inner)


def eval_term(model: SemanticModel, term: T.Term) -> Element:
    return evaluate(model.lattice, model.atoms, model.algebra, term)


def evaluate(lat, atoms: dict[str, Element], alg: DynamicAlgebra | None, term: T.Term) -> Element:
    """The value of term in lat, with atoms bound by atoms; alg may be None
    for a ground term (atoms, bounds and the Boolean connectives only)."""
    mama = alg.mama if alg is not None else None

    def rec(t):
        if isinstance(t, T.Atom):
            try:
                return atoms[t.name]
            except KeyError:
                raise ResolutionError(f"undeclared proposition {t.name!r}")
        if isinstance(t, T.Bot):
            return lat.bottom
        if isinstance(t, T.Top):
            return lat.top
        if isinstance(t, T.Or):
            return lat.join2(rec(t.left), rec(t.right))
        if isinstance(t, T.And):
            return lat.meet2(rec(t.left), rec(t.right))
        if isinstance(t, T.Not):
            return lat.complement(rec(t.arg))
        if isinstance(t, T.App):
            return mama.appearance(t.agent, rec(t.arg))
        if isinstance(t, T.Info):
            return mama.information(t.agent, rec(t.arg))
        if isinstance(t, T.Know):
            return mama.knowledge(t.agent, rec(t.arg))
        if isinstance(t, T.Believe):
            return mama.belief(t.agent, rec(t.arg))
        if isinstance(t, T.CK):
            # the meet of the iterates g^i(l) of the group information map,
            # i from 0, up to the depth bound if there is one; once an
            # iterate repeats, the rest cycle and add nothing, so n steps
            # reach them all. Unbounded, this is common knowledge: g
            # preserves meets, so MAMA.common_knowledge is this meet too.
            g = mama.group_information(t.agents)
            acc = cur = rec(t.arg)
            seen = {cur}
            for _ in range(lat.n if t.depth is None else t.depth):
                cur = g(cur)
                if cur in seen:
                    break
                seen.add(cur)
                acc = lat.meet2(acc, cur)
            return acc
        if isinstance(t, T.Upd):
            return alg.update_map(resolve_action(alg, t.action))(rec(t.arg))
        if isinstance(t, T.After):
            return alg.after_map(resolve_action(alg, t.action))(rec(t.arg))
        raise TypeError(f"not a term: {t!r}")

    return rec(term)


def entails(model: SemanticModel, lhs: T.Term, rhs: T.Term) -> bool:
    """lhs <= rhs in the model's lattice."""
    return model.lattice.leq_(eval_term(model, lhs), eval_term(model, rhs))


def holds(model: SemanticModel, seq: T.Sequent) -> bool:
    return entails(model, seq.lhs, seq.rhs)
