"""Endo-maps on a finite lattice, their Galois adjoints and fixed points.

A join-preserving f determines a meet-preserving right adjoint by
f*(b) = join of every b' with f(b') <= b, and a meet-preserving g a
join-preserving left adjoint by g*(b) = meet of every b' with b <= g(b').
On an explicit order each is one numpy pass over the order table: the
join of the candidates b' is the candidate with the largest down-set, the
meet the one with the largest up-set.

On a powerset P(W) a join-preserving f is fixed by the relation
R(w) = f({w}): f(S) = R[S], and f*(S) = {w : R(w) <= S} (Jonsson and
Tarski, "Boolean algebras with operators", 1951). A meet-preserving map is
likewise fixed by its images of the coatoms W - {v}. So maps on a powerset
are built from |W| images by bit operations on the subset masks, and a law
that is join- or meet-preserving on both sides is decided on bottom and
the singletons. Only when it fails does a scan in the order of the table
check look for the first witness.

Map flavor (join-preserving / meet-preserving / unclassified) is tracked
explicitly and operations demand the flavor they need, so misuse fails
loudly instead of silently producing junk.

Tables are validated where they enter (map_from_table, map_from_generators,
identity_map, constant_map); every other table is derived from such maps.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .errors import (
    InternalError,
    LatticeMismatch,
    NotBoolean,
    NotJoinPreserving,
    NotMeetPreserving,
)
from .lattice import Element, FiniteLattice

JOIN_PRESERVING = "join-preserving"
MEET_PRESERVING = "meet-preserving"
UNCLASSIFIED = "unclassified"


class PreservationViolation:
    """Witness that a map fails its claimed preservation law.

    pair is None when the violated law is the empty join/meet
    (f(bottom) != bottom, respectively g(top) != top).
    """

    __slots__ = ("pair", "lhs", "rhs")

    def __init__(self, pair: tuple[Element, Element] | None, lhs: Element, rhs: Element):
        self.pair = pair
        self.lhs = lhs
        self.rhs = rhs

    def describe(self) -> str:
        if self.pair is None:
            return f"empty case: image {self.lhs.name} should be {self.rhs.name}"
        a, b = self.pair
        return (
            f"at ({a.name}, {b.name}): map of bound is {self.lhs.name} "
            f"but bound of images is {self.rhs.name}"
        )


class LatticeMap:
    """A total endo-map given by its image table. The constructor trusts the
    table; map_from_table is the entry point that validates images."""

    __slots__ = ("lattice", "table", "kind")

    def __init__(self, lattice: FiniteLattice, table, kind: str = UNCLASSIFIED):
        if kind not in (JOIN_PRESERVING, MEET_PRESERVING, UNCLASSIFIED):
            raise ValueError(f"unknown map kind {kind!r}")
        table = tuple(table)
        if len(table) != lattice.n:
            raise InternalError("image table does not match the lattice")
        self.lattice = lattice
        self.table = table
        self.kind = kind

    def __call__(self, x: Element) -> Element:
        self.lattice.check(x)
        return self.lattice.elements[self.table[x.index]]

    def __eq__(self, other):
        return (
            isinstance(other, LatticeMap)
            and self.lattice is other.lattice
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.lattice.uid, self.table))

    def __repr__(self):
        return f"LatticeMap({self.kind}, {list(self.table)})"

    def as_array(self):
        import numpy as np

        return np.array(self.table, dtype=np.intp)


class AdjointPair:
    """left -| right: left(b) <= b' iff b <= right(b'), all b, b'."""

    __slots__ = ("left", "right")

    def __init__(self, left: LatticeMap, right: LatticeMap):
        self.left = left
        self.right = right


def identity_map(lattice: FiniteLattice, kind: str = JOIN_PRESERVING) -> LatticeMap:
    return LatticeMap(lattice, range(lattice.n), kind)


def constant_map(lattice: FiniteLattice, value: Element, kind: str = UNCLASSIFIED) -> LatticeMap:
    lattice.check(value)
    return LatticeMap(lattice, [value.index] * lattice.n, kind)


def map_from_table(lattice: FiniteLattice, images: Iterable[Element], kind: str) -> LatticeMap:
    """Build a map from explicit images and validate the claimed flavor."""
    table = [lattice.check(x).index for x in images]
    m = LatticeMap(lattice, table, kind)
    if kind == JOIN_PRESERVING:
        v = validate_join_preserving(m)
        if v is not None:
            raise NotJoinPreserving(v.describe(), violation=v)
    elif kind == MEET_PRESERVING:
        v = validate_meet_preserving(m)
        if v is not None:
            raise NotMeetPreserving(v.describe(), violation=v)
    return m


def map_from_generators(lattice: FiniteLattice, assignments: dict) -> LatticeMap:
    """Join-preserving map from images of the join-irreducibles.

    f(x) is the join of the assigned images of all irreducibles below x.
    On distributive carriers every assignment extends (irreducibles are
    join-prime there); on non-distributive ones an assignment can fail to
    extend, so the result is validated and NotJoinPreserving raised with
    the witnessing pair.
    """
    from .errors import MissingGenerator

    irr = lattice.join_irreducibles()
    given = set()
    for k in assignments:
        lattice.check(k)
        given.add(k.index)
    needed = {e.index for e in irr}
    if given != needed:
        missing = [lattice.elements[i].name for i in sorted(needed - given)]
        extra = [lattice.elements[i].name for i in sorted(given - needed)]
        parts = []
        if missing:
            parts.append(f"missing generators: {', '.join(missing)}")
        if extra:
            parts.append(f"not join-irreducible: {', '.join(extra)}")
        raise MissingGenerator("; ".join(parts))

    images = {k.index: lattice.check(v).index for k, v in assignments.items()}
    if lattice.worlds is not None:
        # the irreducibles are the singletons, in mask order
        return LatticeMap(lattice, _from_atoms([images[e.index] for e in irr]), JOIN_PRESERVING)
    import numpy as np

    table = np.full(lattice.n, lattice.bottom.index)
    for j, img in images.items():
        table = np.where(lattice.leq[j], lattice.join_table[table, img], table)
    m = LatticeMap(lattice, table.tolist(), JOIN_PRESERVING)
    if not lattice.is_distributive:
        violation = validate_join_preserving(m)
        if violation is not None:
            raise NotJoinPreserving(
                "assignments do not extend to a join-preserving map; "
                + violation.describe(),
                violation=violation,
            )
    return m


def validate_join_preserving(m: LatticeMap) -> PreservationViolation | None:
    """None if f(bottom)=bottom and f(a \\/ b) = f(a) \\/ f(b) for all pairs.

    On a finite lattice this implies preservation of arbitrary joins.
    """
    lat = m.lattice
    return _bound_violation(m, lat.bottom, lambda: lat.join_table, operator.or_, _join_extension)


def preserves_joins(m: LatticeMap) -> bool:
    """Whether m preserves bottom and binary joins; on a powerset, in time
    linear in the carrier."""
    if m.lattice.worlds is not None:
        return m.table == _join_extension(m.lattice, m.table)
    return validate_join_preserving(m) is None


def validate_meet_preserving(m: LatticeMap) -> PreservationViolation | None:
    lat = m.lattice
    return _bound_violation(m, lat.top, lambda: lat.meet_table, operator.and_, _meet_extension)


def _bound_violation(m, unit, bound_table, mask_bound, extension):
    """First witness against m preserving the empty bound (unit) and the
    binary bound, whose table bound_table() gives on an explicit order and
    which mask_bound computes on a powerset; pairs go in row-major order."""
    lat = m.lattice
    t = m.table
    if t[unit.index] != unit.index:
        return PreservationViolation(None, m(unit), unit)
    if lat.worlds is not None:
        # m preserves joins (meets) iff it is the union (intersection)
        # extension of its images of the singletons (their complements)
        if t == extension(lat, t):
            return None
        a, b = _first_pair(lat.n, lambda a, b: t[mask_bound(a, b)] != mask_bound(t[a], t[b]))
        lhs, rhs = t[mask_bound(a, b)], mask_bound(t[a], t[b])
    else:
        import numpy as np

        bounds = bound_table()
        ta = m.as_array()
        lhs_t = ta[bounds]                  # m(a bound b)
        rhs_t = bounds[np.ix_(ta, ta)]      # m(a) bound m(b)
        bad = np.argwhere(lhs_t != rhs_t)
        if not len(bad):
            return None
        a, b = (int(k) for k in bad[0])
        lhs, rhs = int(lhs_t[a, b]), int(rhs_t[a, b])
    el = lat.elements
    return PreservationViolation((el[a], el[b]), el[lhs], el[rhs])


def right_adjoint(f: LatticeMap) -> AdjointPair:
    """Compute f* with f*(b) = join of all b' such that f(b') <= b."""
    if f.kind != JOIN_PRESERVING:
        raise NotJoinPreserving("right_adjoint needs a join-preserving map")
    lat = f.lattice
    if lat.worlds is not None:
        table = _right_adjoint_table(lat, f.table)
    else:
        import numpy as np

        # the candidates b' with f(b') <= b are closed under joins, so their
        # join is the one candidate whose down-set is strictly the largest
        below = lat.leq.sum(axis=0)
        table = np.where(lat.leq[f.as_array(), :], below[:, None], -1).argmax(axis=0).tolist()
    fstar = LatticeMap(lat, table, MEET_PRESERVING)
    return AdjointPair(left=f, right=fstar)


def left_adjoint(g: LatticeMap) -> AdjointPair:
    """Compute g* with g*(b) = meet of all b' such that b <= g(b')."""
    if g.kind != MEET_PRESERVING:
        raise NotMeetPreserving("left_adjoint needs a meet-preserving map")
    lat = g.lattice
    if lat.worlds is not None:
        table = _left_adjoint_table(lat, g.table)
    else:
        import numpy as np

        # dually, the meet of the candidates has the largest up-set
        above = lat.leq.sum(axis=1)
        table = np.where(lat.leq[:, g.as_array()], above, -1).argmax(axis=1).tolist()
    gstar = LatticeMap(lat, table, JOIN_PRESERVING)
    return AdjointPair(left=gstar, right=g)


def de_morgan_dual(f: LatticeMap) -> LatticeMap:
    """g(b) = not f(not b); needs a Boolean carrier."""
    lat = f.lattice
    if not lat.is_boolean:
        raise NotBoolean("de Morgan dual needs a Boolean lattice")
    comp = lat.complement_table()
    table = [comp[f.table[c]] for c in comp]
    flip = {JOIN_PRESERVING: MEET_PRESERVING, MEET_PRESERVING: JOIN_PRESERVING}
    return LatticeMap(lat, table, flip.get(f.kind, UNCLASSIFIED))


def verify_adjunction(f: LatticeMap, g: LatticeMap) -> tuple[Element, Element] | None:
    """Exhaustively check f(b) <= b' iff b <= g(b'); return first violation."""
    if f.lattice is not g.lattice:
        raise LatticeMismatch("adjunction candidates live on different lattices")
    lat = f.lattice
    if lat.worlds is not None:
        ft, gt = f.table, g.table
        # f -| g iff f preserves joins and g is its right adjoint
        if ft == _join_extension(lat, ft) and gt == _right_adjoint_table(lat, ft):
            return None
        b, bp = _first_pair(lat.n, lambda b, bp: ((ft[b] & ~bp) == 0) != ((b & ~gt[bp]) == 0))
    else:
        import numpy as np

        lhs = lat.leq[f.as_array(), :]          # f(b) <= b'
        rhs = lat.leq[:, g.as_array()]          # b <= g(b')
        bad = np.argwhere(lhs != rhs)
        if not len(bad):
            return None
        b, bp = (int(k) for k in bad[0])
    return lat.elements[b], lat.elements[bp]


def _require_same(f: LatticeMap, g: LatticeMap):
    if f.lattice is not g.lattice:
        raise LatticeMismatch("maps live on different lattices")


def compose(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    """(f o g)(x) = f(g(x)); flavor survives when both sides share it."""
    _require_same(f, g)
    table = tuple(f.table[i] for i in g.table)
    kind = f.kind if f.kind == g.kind and f.kind != UNCLASSIFIED else UNCLASSIFIED
    return LatticeMap(f.lattice, table, kind)


def pointwise_join(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    _require_same(f, g)
    lat = f.lattice
    if lat.worlds is not None:
        table = map(operator.or_, f.table, g.table)
    else:
        table = lat.join_table[f.as_array(), g.as_array()].tolist()
    kind = JOIN_PRESERVING if f.kind == g.kind == JOIN_PRESERVING else UNCLASSIFIED
    return LatticeMap(lat, table, kind)


def pointwise_meet(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    _require_same(f, g)
    lat = f.lattice
    if lat.worlds is not None:
        table = map(operator.and_, f.table, g.table)
    else:
        table = lat.meet_table[f.as_array(), g.as_array()].tolist()
    kind = MEET_PRESERVING if f.kind == g.kind == MEET_PRESERVING else UNCLASSIFIED
    return LatticeMap(lat, table, kind)


def power(f: LatticeMap, i: int) -> LatticeMap:
    """i-fold self-composition; f^0 is the identity."""
    if i < 0:
        raise ValueError("power wants i >= 0")
    acc = identity_map(f.lattice, f.kind)
    for _ in range(i):
        acc = compose(f, acc)
    return acc


def _iterate(start: LatticeMap, step, cap: int) -> LatticeMap:
    cur = start
    for _ in range(cap + 1):
        nxt = step(cur)
        if nxt.table == cur.table:
            return cur
        cur = nxt
    raise InternalError("fixed-point iteration failed to stabilize within the cap")


def lfp_join(f: LatticeMap) -> LatticeMap:
    """Stabilized join of the powers f, f^2, ...: F1 = f, F(k+1) = f \\/ f o Fk.

    Each point moves up a chain of length at most height(L), so the hard cap
    n * height can only trip on an internal bug.
    """
    if f.kind != JOIN_PRESERVING:
        raise NotJoinPreserving("lfp_join needs a join-preserving map")
    cap = f.lattice.n * max(f.lattice.height, 1)
    return _iterate(f, lambda cur: pointwise_join(f, compose(f, cur)), cap)


def gfp_meet(g: LatticeMap) -> LatticeMap:
    """Stabilized meet of the powers g, g^2, ...: G1 = g, G(k+1) = g /\\ g o Gk."""
    if g.kind != MEET_PRESERVING:
        raise NotMeetPreserving("gfp_meet needs a meet-preserving map")
    cap = g.lattice.n * max(g.lattice.height, 1)
    return _iterate(g, lambda cur: pointwise_meet(g, compose(g, cur)), cap)


def lfp_join_reflexive(f: LatticeMap) -> LatticeMap:
    """Same as lfp_join but the power range starts at 0 (joins the identity)."""
    return pointwise_join(identity_map(f.lattice, JOIN_PRESERVING), lfp_join(f))


def gfp_meet_reflexive(g: LatticeMap) -> LatticeMap:
    """Same as gfp_meet but the power range starts at 0 (meets the identity)."""
    return pointwise_meet(identity_map(g.lattice, MEET_PRESERVING), gfp_meet(g))


def check_demorgan_lift(f: LatticeMap) -> Element | None:
    """On a Boolean carrier, check f*(b) = not g*(not b) for all b, where
    g is the de Morgan dual of f. Returns the first failing b, else None."""
    lat = f.lattice
    if not lat.is_boolean:
        raise NotBoolean("the de Morgan lift check needs a Boolean lattice")
    fstar = right_adjoint(f).right
    g = de_morgan_dual(f)
    gstar = left_adjoint(g).left
    comp = lat.complement_table()
    lifted = [comp[gstar.table[c]] for c in comp]   # not g*(not b)
    bad = next((b for b in range(lat.n) if fstar.table[b] != lifted[b]), None)
    return None if bad is None else lat.elements[bad]


# -- powerset carriers: maps as bit operations on subset masks ------------------


def _from_atoms(images) -> tuple:
    """Table of the join-preserving map on a powerset that sends the k-th
    singleton to images[k]: each world doubles the table, the new half
    being the old one joined with the world's image."""
    t = [0]
    for img in images:
        t += [x | img for x in t]
    return tuple(t)


def _from_coatoms(top: int, images) -> tuple:
    """Table of the meet-preserving map on a powerset that sends the
    complement of the k-th singleton to images[k]: the dual doubling, the
    subsets without world k meeting its image."""
    t = [top]
    for img in images:
        t = [x & img for x in t] + t
    return tuple(t)


def _atoms(lat: FiniteLattice, t) -> list:
    return [t[1 << k] for k in range(len(lat.worlds))]


def _coatoms(lat: FiniteLattice, t) -> list:
    return [t[lat.top.index ^ (1 << k)] for k in range(len(lat.worlds))]


def _join_extension(lat: FiniteLattice, t) -> tuple:
    return _from_atoms(_atoms(lat, t))


def _meet_extension(lat: FiniteLattice, t) -> tuple:
    return _from_coatoms(lat.top.index, _coatoms(lat, t))


def _transpose_complement(rows) -> list:
    """Row v of the result has bit u set iff rows[u] has bit v clear."""
    k = len(rows)
    return [sum(1 << u for u in range(k) if not rows[u] >> v & 1) for v in range(k)]


def _right_adjoint_table(lat: FiniteLattice, t) -> tuple:
    # f*(W - {v}) = {u : v not in f({u})}, and f* preserves meets
    return _from_coatoms(lat.top.index, _transpose_complement(_atoms(lat, t)))


def _left_adjoint_table(lat: FiniteLattice, t) -> tuple:
    # g*({w}) = {v : w not in g(W - {v})}, and g* preserves joins
    return _from_atoms(_transpose_complement(_coatoms(lat, t)))


def _first_pair(n: int, bad) -> tuple[int, int]:
    """The first (a, b) in row-major order with bad(a, b); there is one."""
    return next((a, b) for a in range(n) for b in range(n) if bad(a, b))
