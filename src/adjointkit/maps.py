"""Endo-maps on a finite lattice, their Galois adjoints and fixed points.

A join-preserving f determines a meet-preserving right adjoint by
f*(b) = join of every b' with f(b') <= b, and a meet-preserving g a
join-preserving left adjoint by g*(b) = meet of every b' with b <= g(b').

Every element of a finite lattice is the join of the join-irreducibles
below it and the meet of the meet-irreducibles above it. So on an explicit
order f*(b) is the join of the join-irreducibles j with f(j) <= b, and
g*(b) the meet of the meet-irreducibles m with b <= g(m); f preserves
joins iff f(bottom) = bottom and f(x \\/ j) = f(x) \\/ f(j) for every x and
every join-irreducible j, and meets dually. The lattice's index-level
`leq_index`, `join_index` and `meet_index` serve both carriers. On an
explicit order, `join_over` builds the table of a map from generators, or
of a right adjoint, in one bottom-up pass along the covering relation,
each element taking the rows of its own pairs and what its lower covers
took; `meet_over` is the dual, top-down pass. Each costs one operation on
n-bit rows per element, cover and pair.

On a powerset P(W) a join-preserving f is fixed by the relation
R(w) = f({w}): f(S) = R[S], and f*(S) = {w : R(w) <= S} (Jonsson and
Tarski, "Boolean algebras with operators", 1951). A meet-preserving map is
likewise fixed by its images of the coatoms W - {v}. So maps on a powerset
are built from |W| images by bit operations on the subset masks, and a law
that is join- or meet-preserving on both sides is decided on bottom and
the singletons. On either carrier, f -| g is decided as "f preserves joins
and g is its right adjoint". Only when a law fails are all pairs scanned,
in row-major order, for the first witness.

Map flavor (join-preserving / meet-preserving / unclassified) is tracked
explicitly and operations demand the flavor they need, so misuse fails
loudly instead of silently producing junk.

Tables are validated where they enter (map_from_table, map_from_generators,
identity_map, constant_map); every other table is derived from such maps.
"""

from __future__ import annotations

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
    m = LatticeMap(lattice, lattice.join_over(images.items()), JOIN_PRESERVING)
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
    if _preserves_joins(lat, m.table):
        return None
    return _bound_violation(m, lat.bottom, lat.join_index)


def preserves_joins(m: LatticeMap) -> bool:
    """Whether m preserves bottom and binary joins, without naming a
    witness."""
    return _preserves_joins(m.lattice, m.table)


def validate_meet_preserving(m: LatticeMap) -> PreservationViolation | None:
    lat = m.lattice
    if _preserves_meets(lat, m.table):
        return None
    return _bound_violation(m, lat.top, lat.meet_index)


def _bound_violation(m, unit, bound):
    """First witness against m preserving the empty bound (unit) and the
    binary bound; pairs go in row-major order. There is one."""
    t, n, el = m.table, m.lattice.n, m.lattice.elements
    if t[unit.index] != unit.index:
        return PreservationViolation(None, m(unit), unit)
    a, b = next(
        (a, b) for a in range(n) for b in range(n) if t[bound(a, b)] != bound(t[a], t[b])
    )
    return PreservationViolation((el[a], el[b]), el[t[bound(a, b)]], el[bound(t[a], t[b])])


def right_adjoint(f: LatticeMap) -> AdjointPair:
    """Compute f* with f*(b) = join of all b' such that f(b') <= b."""
    if f.kind != JOIN_PRESERVING:
        raise NotJoinPreserving("right_adjoint needs a join-preserving map")
    fstar = LatticeMap(f.lattice, _right_adjoint_table(f.lattice, f.table), MEET_PRESERVING)
    return AdjointPair(left=f, right=fstar)


def left_adjoint(g: LatticeMap) -> AdjointPair:
    """Compute g* with g*(b) = meet of all b' such that b <= g(b')."""
    if g.kind != MEET_PRESERVING:
        raise NotMeetPreserving("left_adjoint needs a meet-preserving map")
    gstar = LatticeMap(g.lattice, _left_adjoint_table(g.lattice, g.table), JOIN_PRESERVING)
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
    """Check f(b) <= b' iff b <= g(b') for all b, b'; return the first
    violation in row-major order."""
    if f.lattice is not g.lattice:
        raise LatticeMismatch("adjunction candidates live on different lattices")
    lat = f.lattice
    ft, gt = f.table, g.table
    # f -| g iff f preserves joins and g is its right adjoint
    if _preserves_joins(lat, ft) and gt == _right_adjoint_table(lat, ft):
        return None
    leq, n = lat.leq_index, lat.n
    b, bp = next(
        (b, bp) for b in range(n) for bp in range(n) if leq(ft[b], bp) != leq(b, gt[bp])
    )
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
    kind = JOIN_PRESERVING if f.kind == g.kind == JOIN_PRESERVING else UNCLASSIFIED
    return LatticeMap(lat, map(lat.join_index, f.table, g.table), kind)


def pointwise_meet(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    _require_same(f, g)
    lat = f.lattice
    kind = MEET_PRESERVING if f.kind == g.kind == MEET_PRESERVING else UNCLASSIFIED
    return LatticeMap(lat, map(lat.meet_index, f.table, g.table), kind)


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


def _transpose_complement(rows) -> list:
    """Row v of the result has bit u set iff rows[u] has bit v clear."""
    k = len(rows)
    return [sum(1 << u for u in range(k) if not rows[u] >> v & 1) for v in range(k)]


# -- laws and adjoint tables, by carrier kind: the powerset's doubling tables,
# or an explicit order's irreducibles -------------------------------------------


def _preserves_joins(lat: FiniteLattice, t) -> bool:
    if lat.worlds is not None:
        # the union extension of the images of the singletons
        return t == _from_atoms(_atoms(lat, t))
    return _preserves_on(t, lat.bottom.index, lat.join_index, lat.join_irreducibles())


def _preserves_meets(lat: FiniteLattice, t) -> bool:
    if lat.worlds is not None:
        # the intersection extension of the images of the coatoms
        return t == _from_coatoms(lat.top.index, _coatoms(lat, t))
    return _preserves_on(t, lat.top.index, lat.meet_index, lat.meet_irreducibles())


def _preserves_on(t, unit, bound, irreducibles) -> bool:
    """Whether table t preserves the empty bound (unit) and the binary
    bound, decided on the pairs (x, irreducible): every y is the bound of
    the irreducibles below (above) it, so t(x bound y) = t(x) bound t(y)
    follows by induction over them."""
    return t[unit] == unit and all(
        t[bound(x, j)] == bound(t[x], t[j]) for j in (e.index for e in irreducibles)
        for x in range(len(t))
    )


def _right_adjoint_table(lat: FiniteLattice, t) -> tuple:
    if lat.worlds is not None:
        # f*(W - {v}) = {u : v not in f({u})}, and f* preserves meets
        return _from_coatoms(lat.top.index, _transpose_complement(_atoms(lat, t)))
    # j <= f*(b) iff f(j) <= b
    return lat.join_over([(t[j.index], j.index) for j in lat.join_irreducibles()])


def _left_adjoint_table(lat: FiniteLattice, t) -> tuple:
    if lat.worlds is not None:
        # g*({w}) = {v : w not in g(W - {v})}, and g* preserves joins
        return _from_atoms(_transpose_complement(_coatoms(lat, t)))
    # g*(b) <= m iff b <= g(m)
    return lat.meet_over([(t[m.index], m.index) for m in lat.meet_irreducibles()])
