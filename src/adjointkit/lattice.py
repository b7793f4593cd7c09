"""Finite complete lattices: explicit orders on bit rows, powersets on bitmasks.

A lattice is built once, validated eagerly and is then immutable, so
concurrent readers are safe. There are two backends, chosen by what is
being built:

- An explicit order (`build_from_order`, a `poset ... end` scenario block)
  is a `FiniteLattice` that holds, for each element i, its up-set up[i] and
  its down-set down[i] as Python ints (bit k set iff i <= k, respectively
  k <= i), and dicts from each principal up-set and down-set back to its
  element. The join of a and b is the element whose up-set is
  up[a] & up[b], and the meet is dual, so every operation is a few bit
  operations and a dict lookup. Construction runs these checks and
  analyses:

  - Poset: every row holds its own bit, no two rows hold each other's bit,
    and up(k) lies inside up(i) whenever i <= k.
  - Lattice: every pair has a join and a meet, i.e. the common upper
    bounds up[a] & up[b] form a principal up-set, and dually.
  - Join-irreducibles: the elements other than bottom whose strict down-set
    is principal (they have one lower cover); meet-irreducibles dually.
    Every element is the join of the join-irreducibles below it and the
    meet of the meet-irreducibles above it, so a law on joins (meets) is
    decided on the pairs (x, irreducible).
  - Distributivity: with jd[x] = down[x] & J, J the join-irreducibles, the
    lattice is distributive iff x -> jd[x] preserves joins, that is iff
    jd[x \\/ j] = jd[x] | jd[j] for every x and every irreducible j. In a
    distributive lattice this embeds the lattice into the powerset of J, and
    conversely a lattice that embeds so is distributive. This is the core of
    Birkhoff's representation theorem for finite distributive lattices
    (Davey & Priestley, Introduction to Lattices and Order, 2nd ed., 2002,
    ch. 5).
  - Boolean: distributive with n = 2^|J|, when the embedding is onto; the
    complement of x is then the element with jd = J - jd[x].
  - Height: the longest chain counted in covers, found by peeling off the
    minimal elements until none are left (Mirsky's theorem).

- A powerset of worlds (`powerset_lattice`) is a `PowersetLattice`: element
  index i is the subset with bitmask i, so every operation is mask
  arithmetic and nothing is re-checked, since a powerset is Boolean by
  construction.

Each backend has one size limit, checked before any per-element work. A
powerset has at most MAX_POWERSET_WORLDS = 16 worlds. An explicit order has
at most MAX_TABLE_ELEMENTS = 1,024 elements. The time budget behind that
number: the closure, the poset, lattice and distributivity checks and the
height each take up to one operation on n-bit rows per pair of elements,
so construction grows with the square of n times the row length. Building
a 1,024-element chain (every pair comparable, every element but bottom
irreducible) takes about 2 s on a 2-core Xeon VM under CPython 3.11, at
16 MB peak resident; the rows themselves take n^2/4 bytes, 256 KiB at
1,024 elements. Below these limits the element cap defaults to 256 and can be
set with the ADJOINT_KIT_MAX_LATTICE environment variable, up to 2^16, the
largest carrier either backend builds; a larger value is refused.
"""

from __future__ import annotations

import itertools
import operator
import os
from functools import reduce
from typing import Iterable, Sequence

from .errors import (
    ForeignElement,
    LatticeTooLarge,
    NotALattice,
    NotAPoset,
    NotBoolean,
    NotDistributive,
    TooManyWorlds,
)

DEFAULT_MAX_ELEMENTS = 256
MAX_POWERSET_WORLDS = 16
MAX_TABLE_ELEMENTS = 1024

_uid_counter = itertools.count(1)


def max_elements() -> int:
    """Element cap for new lattices; ADJOINT_KIT_MAX_LATTICE overrides."""
    raw = os.environ.get("ADJOINT_KIT_MAX_LATTICE")
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        raise LatticeTooLarge(f"ADJOINT_KIT_MAX_LATTICE is not an integer: {raw!r}")
    if value < 1:
        raise LatticeTooLarge("ADJOINT_KIT_MAX_LATTICE must be positive")
    ceiling = 1 << MAX_POWERSET_WORLDS
    if value > ceiling:
        raise LatticeTooLarge(
            f"ADJOINT_KIT_MAX_LATTICE={value} is over the ceiling of {ceiling}"
        )
    return value


class Element:
    """A lattice element: a dense index plus a display name.

    Elements are only meaningful relative to the lattice that created them;
    the lattice uid makes cross-lattice mixups detectable. A lattice makes
    each of its elements once, so elements compare and hash by identity.
    """

    __slots__ = ("index", "name", "lattice_uid")

    def __init__(self, index: int, name: str, lattice_uid: int):
        self.index = index
        self.name = name
        self.lattice_uid = lattice_uid

    def __repr__(self):
        return f"<{self.name}>"


class FiniteLattice:
    """A finite complete lattice over dense element indices 0..n-1, given by
    the up-set of each element as a bit row: bit k of up[i] is set iff
    i <= k.

    Exposes joins, meets, complements, Heyting implication and the join-
    and meet-irreducibles, on elements and, for the maps module, on bare
    indices (`leq_index`, `join_index`, `meet_index`, and `join_over` and
    `meet_over` for whole tables). Instances are immutable after
    construction.
    """

    # tuple of world labels on a powerset carrier, None on an explicit order
    worlds = None

    def __init__(self, names: Sequence[str], up: Sequence[int]):
        n = len(names)
        if len(set(names)) != n:
            raise NotAPoset("element names must be distinct")
        _check_order_size(n)
        up = tuple(up)
        if len(up) != n or any(u >> n for u in up):
            raise NotAPoset(f"order must be {n} rows of {n} bits")
        down = _check_poset(names, up)
        by_up = {u: i for i, u in enumerate(up)}
        by_down = {d: i for i, d in enumerate(down)}
        _check_bounds(names, up, down, by_up, by_down)

        self._set_elements(names)
        self._up, self._down, self._by_up, self._by_down = up, down, by_up, by_down
        full = (1 << n) - 1
        self.bottom = self.elements[by_up[full]]
        self.top = self.elements[by_down[full]]
        # one lower (upper) cover: the strict down-set (up-set) is principal
        self._irreducibles = tuple(
            e for e, d in zip(self.elements, down)
            if e is not self.bottom and (d ^ 1 << e.index) in by_down
        )
        self._meet_irreducibles = tuple(
            e for e, u in zip(self.elements, up)
            if e is not self.top and (u ^ 1 << e.index) in by_up
        )

        # Birkhoff: distributive iff x -> jd[x], the irreducibles below x,
        # preserves joins, and Boolean iff that embedding is onto
        irr = [j.index for j in self._irreducibles]
        mask = sum(1 << j for j in irr)
        jd = [d & mask for d in down]
        self.is_distributive = all(
            jd[by_up[up[x] & up[j]]] == jd[x] | jd[j] for x in range(n) for j in irr
        )
        self.is_boolean = self.is_distributive and n == 1 << len(irr)
        self._complements = None
        if self.is_boolean:
            by_jd = {v: i for i, v in enumerate(jd)}
            self._complements = tuple(by_jd[mask ^ v] for v in jd)
        self.height = _height(down)

    def _set_elements(self, names):
        self.uid = next(_uid_counter)
        self.elements: tuple[Element, ...] = tuple(
            Element(i, name, self.uid) for i, name in enumerate(names)
        )
        self._by_name = {e.name: e for e in self.elements}
        self.n = len(names)

    # -- basic queries ---------------------------------------------------

    def check(self, x: Element) -> Element:
        """Ensure x belongs to this lattice; raise ForeignElement otherwise."""
        if not isinstance(x, Element) or x.lattice_uid != self.uid:
            raise ForeignElement(f"{x!r} does not belong to this lattice")
        return x

    def element(self, name: str) -> Element:
        try:
            return self._by_name[name]
        except KeyError:
            raise ForeignElement(f"no element named {name!r}")

    def leq_index(self, a: int, b: int) -> bool:
        return self._up[a] >> b & 1 == 1

    def join_index(self, a: int, b: int) -> int:
        return self._by_up[self._up[a] & self._up[b]]

    def meet_index(self, a: int, b: int) -> int:
        return self._by_down[self._down[a] & self._down[b]]

    def leq_(self, a: Element, b: Element) -> bool:
        self.check(a), self.check(b)
        return self.leq_index(a.index, b.index)

    def join2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[self.join_index(a.index, b.index)]

    def meet2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[self.meet_index(a.index, b.index)]

    def join(self, xs: Iterable[Element]) -> Element:
        """Least upper bound of a set; the empty join is bottom."""
        return reduce(self.join2, xs, self.bottom)

    def meet(self, xs: Iterable[Element]) -> Element:
        """Greatest lower bound of a set; the empty meet is top."""
        return reduce(self.meet2, xs, self.top)

    # -- classification-dependent operations ------------------------------

    def complement(self, a: Element) -> Element:
        if not self.is_boolean:
            raise NotBoolean("complement requires a Boolean lattice")
        self.check(a)
        return self.elements[self._complements[a.index]]

    def complement_table(self):
        """Per-element complement indices, or None when not Boolean."""
        return self._complements

    def heyting_implication(self, a: Element, b: Element) -> Element:
        """Relative pseudo-complement: join of every x with x /\\ a <= b."""
        if not self.is_distributive:
            raise NotDistributive("Heyting implication needs a distributive lattice")
        self.check(a), self.check(b)
        a, b = a.index, b.index
        return self.join(
            x for x in self.elements if self.leq_index(self.meet_index(x.index, a), b)
        )

    def heyting_negation(self, a: Element) -> Element:
        return self.heyting_implication(a, self.bottom)

    def join_irreducibles(self) -> tuple[Element, ...]:
        """Nonbottom elements that are not joins of strictly smaller ones."""
        return self._irreducibles

    def join_over(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Per element x, in index order, the index of the join of every v
        with (k, v) in pairs and k <= x: the element whose up-set is the
        intersection of their up-sets."""
        up = self._up
        acc = [(1 << self.n) - 1] * self.n
        for k, v in pairs:
            row = up[v]
            for x in _bits(up[k]):
                acc[x] &= row
        return tuple(self._by_up[u] for u in acc)

    def meet_over(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Per element x, in index order, the index of the meet of every v
        with (k, v) in pairs and x <= k."""
        down = self._down
        acc = [(1 << self.n) - 1] * self.n
        for k, v in pairs:
            row = down[v]
            for x in _bits(down[k]):
                acc[x] &= row
        return tuple(self._by_down[d] for d in acc)

    def meet_irreducibles(self) -> tuple[Element, ...]:
        """Nontop elements that are not meets of strictly larger ones."""
        return self._meet_irreducibles

    # -- powerset conveniences --------------------------------------------

    def subset(self, worlds: Iterable[str]) -> Element:
        """Element denoting a set of worlds (powerset carriers only)."""
        if self.worlds is None:
            raise ForeignElement("not a powerset lattice")
        mask = 0
        for w in worlds:
            try:
                mask |= 1 << self.worlds.index(w)
            except ValueError:
                raise ForeignElement(f"unknown world {w!r}")
        return self.elements[mask]

    def __repr__(self):
        kind = "boolean" if self.is_boolean else (
            "distributive" if self.is_distributive else "lattice"
        )
        return f"FiniteLattice(n={self.n}, {kind})"


def _mask_leq(a: int, b: int) -> bool:
    return a & ~b == 0


class PowersetLattice(FiniteLattice):
    """The Boolean lattice of all subsets of some worlds, ordered by
    inclusion, on bitmasks.

    Element index i denotes the subset with bitmask i, so the order is mask
    inclusion, join and meet are bitwise or and and, the complement of i is
    top ^ i, the join-irreducibles are the singletons, the meet-irreducibles
    their complements and the height is the number of worlds. A powerset is
    Boolean by construction, so none of the checks of an explicit order
    runs.
    """

    is_distributive = True
    is_boolean = True
    leq_index = staticmethod(_mask_leq)
    join_index = staticmethod(operator.or_)
    meet_index = staticmethod(operator.and_)

    def __init__(self, worlds: Sequence[str]):
        worlds = tuple(worlds)
        if len(set(worlds)) != len(worlds):
            raise NotAPoset("world labels must be distinct")
        if len(worlds) > MAX_POWERSET_WORLDS:
            raise TooManyWorlds(f"{len(worlds)} worlds exceeds the limit of {MAX_POWERSET_WORLDS}")
        n = 1 << len(worlds)
        cap = max_elements()
        if n > cap:
            raise LatticeTooLarge(
                f"powerset of {len(worlds)} worlds has {n} elements, over the cap of {cap}"
            )
        self._set_elements([_subset_name(worlds, m) for m in range(n)])
        self.worlds = worlds
        self.bottom, self.top = self.elements[0], self.elements[-1]
        self._irreducibles = tuple(self.elements[1 << k] for k in range(len(worlds)))
        self._meet_irreducibles = tuple(
            self.elements[n - 1 ^ 1 << k] for k in reversed(range(len(worlds)))
        )
        self.height = len(worlds)

    def complement(self, a: Element) -> Element:
        self.check(a)
        return self.elements[self.top.index ^ a.index]

    def complement_table(self):
        return tuple(self.top.index ^ i for i in range(self.n))

    def heyting_implication(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[(self.top.index ^ a.index) | b.index]

    def join_over(self, pairs):
        return tuple(
            reduce(operator.or_, (v for k, v in pairs if k & ~x == 0), 0) for x in range(self.n)
        )

    def meet_over(self, pairs):
        return tuple(
            reduce(operator.and_, (v for k, v in pairs if x & ~k == 0), self.n - 1)
            for x in range(self.n)
        )


def _subset_name(worlds, mask):
    return "{" + ",".join(w for k, w in enumerate(worlds) if mask >> k & 1) + "}"


def _bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _check_order_size(n):
    """The element cap, then the limit on explicit orders."""
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    cap = max_elements()
    if n > cap:
        raise LatticeTooLarge(f"{n} elements exceeds the cap of {cap}")
    if n > MAX_TABLE_ELEMENTS:
        raise LatticeTooLarge(
            f"{n} elements exceeds the limit of {MAX_TABLE_ELEMENTS} for lattice tables"
        )


def _check_poset(names, up) -> tuple:
    """The down-set rows of the order given by its up-set rows, after
    checking reflexivity, then antisymmetry, then transitivity. Each check
    reports the first offending pair in row-major order."""
    for i, u in enumerate(up):
        if not u >> i & 1:
            raise NotAPoset(f"order not reflexive at {names[i]!r}")
    # one pass over the pairs i <= k builds the down-set rows and what each
    # i reaches in two steps but not in one: transitive iff up(k) lies
    # inside up(i) whenever i <= k
    down, missing = [0] * len(up), []
    for i, u in enumerate(up):
        bit, reach = 1 << i, 0
        for k in _bits(u):
            down[k] |= bit
            reach |= up[k]
        missing.append(reach & ~u)
    for i, (u, d) in enumerate(zip(up, down)):
        both = u & d ^ 1 << i
        if both:
            raise NotAPoset(f"antisymmetry violated between {names[i]!r} and {names[next(_bits(both))]!r}")
    for i, m in enumerate(missing):
        if m:
            raise NotAPoset(f"order not transitive: missing {names[i]!r} <= {names[next(_bits(m))]!r}")
    return tuple(down)


def _check_bounds(names, up, down, by_up, by_down):
    """Raise NotALattice on the first pair, in row order, whose common upper
    bounds (lower bounds) are not a principal up-set (down-set); its join is
    reported before its meet."""
    for i, (ui, di) in enumerate(zip(up, down)):
        for j in range(i + 1, len(up)):
            if (ui & up[j]) not in by_up:
                kind = "join"
            elif (di & down[j]) not in by_down:
                kind = "meet"
            else:
                continue
            raise NotALattice(
                f"pair ({names[i]!r}, {names[j]!r}) has no {kind}",
                pair=(names[i], names[j]),
            )


def _height(down) -> int:
    # Longest chain length measured in covers: by Mirsky's theorem the
    # longest chain has as many elements as there are rounds of removing
    # the minimal elements of what is left.
    left, rounds = (1 << len(down)) - 1, 0
    while left:
        left = sum(1 << k for k in _bits(left) if down[k] & left != 1 << k)
        rounds += 1
    return rounds - 1


def _transitive_closure(n, pairs) -> list:
    """The up-set rows of the reflexive and transitive closure of the index
    pairs (Warshall, on rows)."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        row, bit = up[k], 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return up


def build_from_order(labels: Sequence[str], leq_pairs: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a lattice from labels and order pairs (closed reflexively and
    transitively). Raises NotAPoset / NotALattice with the offending data."""
    labels = list(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise NotAPoset("labels must be distinct")
    pairs = []
    for a, b in leq_pairs:
        if a not in pos or b not in pos:
            raise ForeignElement(f"order pair ({a!r}, {b!r}) uses an unknown label")
        pairs.append((pos[a], pos[b]))
    # The limits go before any per-element work: the closure alone is n^2
    # row operations.
    _check_order_size(len(labels))
    return FiniteLattice(labels, _transitive_closure(len(labels), pairs))


def powerset_lattice(worlds: Sequence[str]) -> PowersetLattice:
    """Boolean lattice of all subsets of the given worlds, ordered by
    inclusion. Element index i denotes the subset with bitmask i."""
    return PowersetLattice(worlds)
