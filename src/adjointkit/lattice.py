"""Finite complete lattices: explicit orders on tables, powersets on bitmasks.

A lattice is built once, validated eagerly and is then immutable. Arrays
are marked read-only, so concurrent readers are safe. There are two
backends, chosen by what is being built:

- An explicit order (`build_from_order`, a `poset ... end` scenario block)
  is a `FiniteLattice` with precomputed order, join and meet tables, and
  every operation is a table lookup. Construction runs these checks and
  analyses, each as a few whole-table numpy passes:

  - Poset: the order table is reflexive, antisymmetric and transitive
    (up(k) lies inside up(i) whenever i <= k, compared on bit-packed rows).
  - Lattice: every pair has a join and a meet. k is the join of i and j iff
    k is an upper bound of both and |up(k)| = |ub(i, j)|, because up(k) is
    contained in ub(i, j) for every upper bound k, so equal sizes mean k
    lies below all of them. The meet is the dual.
  - Join-irreducibles: the non-bottom elements that are not the join of two
    strictly smaller ones, read off the join table.
  - Distributivity: a finite lattice is distributive iff every
    join-irreducible e is join-prime (e <= x \\/ y implies e <= x or
    e <= y). In a distributive lattice irreducibles are prime; conversely,
    if they all are, x -> {e irreducible : e <= x} embeds the lattice into a
    powerset. This is the core of Birkhoff's representation theorem for
    finite distributive lattices (Davey & Priestley, Introduction to
    Lattices and Order, 2nd ed., 2002).
  - Complements, in a distributive lattice: the unique y with
    x /\\ y = bottom and x \\/ y = top; the lattice is Boolean when every
    element has one.
  - Height: the longest chain counted in covers, found by peeling off the
    minimal elements until none are left (Mirsky's theorem).

- A powerset of worlds (`powerset_lattice`) is a `PowersetLattice`: element
  index i is the subset with bitmask i, so every operation is mask
  arithmetic and nothing is tabulated or re-checked, since a powerset is
  Boolean by construction. numpy is imported only by the table backend.

Each backend has one size limit, checked before anything is allocated. A
powerset has at most MAX_POWERSET_WORLDS = 16 worlds. A table carrier, and
the tables of a powerset when something reads them, has at most
MAX_TABLE_ELEMENTS = 1,024 elements. The memory budget behind that number:
the tables take 17 bytes a cell (17 MiB at 1,024 elements), but the
transitivity check gathers a bit-packed row for every order pair, n^3/16
bytes a copy on a chain, so building a 1,024-element chain peaks at about
170 MB resident. Below these limits the element cap defaults to 256 and can
be set with the ADJOINT_KIT_MAX_LATTICE environment variable, up to 2^16,
the largest carrier either backend builds; a larger value is refused.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    ForeignElement,
    LatticeTooLarge,
    NotALattice,
    NotAPoset,
    NotBoolean,
    NotDistributive,
    TooManyWorlds,
)

if TYPE_CHECKING:
    import numpy as np

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
    its order table.

    Exposes joins, meets, complements, Heyting implication and
    join-irreducibles. Instances are immutable after construction.
    """

    # tuple of world labels on a powerset carrier, None on an explicit order
    worlds = None

    def __init__(self, names: Sequence[str], leq: np.ndarray):
        import numpy as np

        n = len(names)
        if len(set(names)) != n:
            raise NotAPoset("element names must be distinct")
        _check_table_count(n)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise NotAPoset(f"order table must be {n}x{n}, got {leq.shape}")
        _check_poset(names, leq)

        self._set_elements(names)
        self.leq = leq
        self.leq.flags.writeable = False

        self.join_table, self.meet_table = _bound_tables(names, leq)
        self.join_table.flags.writeable = False
        self.meet_table.flags.writeable = False

        bottom_idx = int(np.where(leq[:, :].all(axis=1))[0][0])
        top_idx = int(np.where(leq[:, :].all(axis=0))[0][0])
        self.bottom = self.elements[bottom_idx]
        self.top = self.elements[top_idx]

        self._irreducibles = self._compute_join_irreducibles()
        self.is_distributive = self._check_distributive()
        self._complements = self._complement_table() if self.is_distributive else None
        self.is_boolean = (
            self._complements is not None and all(c is not None for c in self._complements)
        )
        self.height = self._compute_height()

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

    def leq_(self, a: Element, b: Element) -> bool:
        self.check(a), self.check(b)
        return bool(self.leq[a.index, b.index])

    def join2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[self.join_table[a.index, b.index]]

    def meet2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[self.meet_table[a.index, b.index]]

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
        if not self.is_boolean:
            return None
        return tuple(self._complements)

    def heyting_implication(self, a: Element, b: Element) -> Element:
        """Relative pseudo-complement: join of every x with x /\\ a <= b."""
        import numpy as np

        if not self.is_distributive:
            raise NotDistributive("Heyting implication needs a distributive lattice")
        self.check(a), self.check(b)
        meets = self.meet_table[:, a.index]
        below = np.where(self.leq[meets, b.index])[0]
        return self.join(self.elements[i] for i in below)

    def heyting_negation(self, a: Element) -> Element:
        return self.heyting_implication(a, self.bottom)

    def join_irreducibles(self) -> tuple[Element, ...]:
        """Nonbottom elements that are not joins of strictly smaller ones."""
        return self._irreducibles

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

    # -- construction-time analysis ---------------------------------------

    def _check_distributive(self) -> bool:
        import numpy as np

        # Birkhoff: distributive iff every join-irreducible e is join-prime,
        # i.e. e <= x \/ y exactly when e <= x or e <= y.
        for e in self._irreducibles:
            up = self.leq[e.index]
            if not np.array_equal(up[self.join_table], up[:, None] | up[None, :]):
                return False
        return True

    def _complement_table(self):
        # In a distributive lattice complements are unique when they exist.
        is_comp = (self.meet_table == self.bottom.index) & (self.join_table == self.top.index)
        first = is_comp.argmax(axis=1)
        return [int(y) if is_comp[x, y] else None for x, y in enumerate(first)]

    def _compute_join_irreducibles(self):
        import numpy as np

        # x is join-reducible iff x = y \/ z with y, z strictly below x, i.e.
        # iff x is in the join table at a pair that does not contain x.
        jt = self.join_table
        idx = np.arange(self.n)
        reducible = np.zeros(self.n, dtype=bool)
        reducible[jt[(jt != idx[:, None]) & (jt != idx[None, :])]] = True
        reducible[self.bottom.index] = True
        return tuple(self.elements[i] for i in np.flatnonzero(~reducible))

    def _compute_height(self) -> int:
        import numpy as np

        # Longest chain length measured in covers: by Mirsky's theorem the
        # longest chain has as many elements as there are rounds of removing
        # the minimal elements of what is left.
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        left = np.ones(self.n, dtype=bool)
        rounds = 0
        while left.any():
            left &= strict[left].any(axis=0)
            rounds += 1
        return rounds - 1


class PowersetLattice(FiniteLattice):
    """The Boolean lattice of all subsets of some worlds, ordered by
    inclusion, on bitmasks.

    Element index i denotes the subset with bitmask i, so the order is mask
    inclusion, join and meet are bitwise or and and, the complement of i is
    top ^ i, the join-irreducibles are the singletons and the height is the
    number of worlds. A powerset is Boolean by construction, so none of the
    checks of an explicit order runs. The `leq`, `join_table`, `meet_table`
    and `_complements` attributes are built on first access, under the table
    size limit.
    """

    is_distributive = True
    is_boolean = True

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
        self.height = len(worlds)

    def leq_(self, a: Element, b: Element) -> bool:
        self.check(a), self.check(b)
        return (a.index & ~b.index) == 0

    def join2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[a.index | b.index]

    def meet2(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[a.index & b.index]

    def complement(self, a: Element) -> Element:
        self.check(a)
        return self.elements[self.top.index ^ a.index]

    def complement_table(self):
        return tuple(self.top.index ^ i for i in range(self.n))

    def heyting_implication(self, a: Element, b: Element) -> Element:
        self.check(a), self.check(b)
        return self.elements[(self.top.index ^ a.index) | b.index]

    # -- tables, on first access --------------------------------------------

    def _masks(self):
        import numpy as np

        _check_table_count(self.n)
        return np.arange(self.n)

    @cached_property
    def leq(self):
        masks = self._masks()
        leq = (masks[:, None] & masks[None, :]) == masks[:, None]
        leq.flags.writeable = False
        return leq

    @cached_property
    def join_table(self):
        masks = self._masks()
        table = masks[:, None] | masks[None, :]
        table.flags.writeable = False
        return table

    @cached_property
    def meet_table(self):
        masks = self._masks()
        table = masks[:, None] & masks[None, :]
        table.flags.writeable = False
        return table

    @cached_property
    def _complements(self):
        return list(self.complement_table())


def _subset_name(worlds, mask):
    return "{" + ",".join(w for k, w in enumerate(worlds) if mask >> k & 1) + "}"


def _check_table_count(n):
    """The element cap, then the limit on n x n tables."""
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    cap = max_elements()
    if n > cap:
        raise LatticeTooLarge(f"{n} elements exceeds the cap of {cap}")
    if n > MAX_TABLE_ELEMENTS:
        raise LatticeTooLarge(
            f"{n} elements exceeds the limit of {MAX_TABLE_ELEMENTS} for lattice tables"
        )


def _check_poset(names, leq):
    import numpy as np

    if not leq.diagonal().all():
        i = int(np.where(~leq.diagonal())[0][0])
        raise NotAPoset(f"order not reflexive at {names[i]!r}")
    both = leq & leq.T
    np.fill_diagonal(both, False)
    if both.any():
        i, j = (int(k) for k in np.argwhere(both)[0])
        raise NotAPoset(f"antisymmetry violated between {names[i]!r} and {names[j]!r}")
    # Transitive iff up(k) lies inside up(i) whenever i <= k: one gather of
    # bit-packed rows over the pairs of the order.
    rows = np.packbits(leq, axis=1)
    below, above = np.nonzero(leq)
    if (rows[above] & ~rows[below]).any():
        # numpy's bool matmul is the exact boolean product
        i, j = (int(k) for k in np.argwhere((leq @ leq) & ~leq)[0])
        raise NotAPoset(f"order not transitive: missing {names[i]!r} <= {names[j]!r}")


def _least_bounds(leq):
    """For each pair (i, j), the least k with leq[i, k] and leq[j, k], and a
    mask of the pairs that have one.

    Columns go in a linear extension (larger up-sets first), so the first
    common bound of i and j is a minimal one. It is the least one iff its own
    up-set, which lies inside the common bounds, is as large as they are.
    """
    import numpy as np

    n_up = leq.sum(axis=1)
    order = np.argsort(-n_up)
    up, n_up = leq[:, order], n_up[order]
    least = np.empty(leq.shape, dtype=np.intp)
    found = np.empty(leq.shape, dtype=bool)
    for i in range(len(leq)):
        common = up[i] & up
        first = common.argmax(axis=1)
        found[i] = np.count_nonzero(common, axis=1) == n_up[first]
        least[i] = order[first]
    return least, found


def _bound_tables(names, leq):
    import numpy as np

    join, has_join = _least_bounds(leq)
    meet, has_meet = _least_bounds(leq.T)
    # Report the first failing pair in row order, its join before its meet:
    # the order in which a pair-by-pair scan meets them. The mask is
    # symmetric, so that pair has i <= j.
    bad = ~(has_join & has_meet)
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        kind = "meet" if has_join[i, j] else "join"
        raise NotALattice(
            f"pair ({names[i]!r}, {names[j]!r}) has no {kind}",
            pair=(names[i], names[j]),
        )
    return join, meet


def _transitive_closure(leq):
    """Transitive closure of a boolean table, in place (Warshall)."""
    for k in range(len(leq)):
        leq[leq[:, k]] |= leq[k]
    return leq


def build_from_order(labels: Sequence[str], leq_pairs: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a lattice from labels and order pairs (closed reflexively and
    transitively). Raises NotAPoset / NotALattice with the offending data."""
    import numpy as np

    labels = list(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise NotAPoset("labels must be distinct")
    pairs = []
    for a, b in leq_pairs:
        if a not in pos or b not in pos:
            raise ForeignElement(f"order pair ({a!r}, {b!r}) uses an unknown label")
        pairs.append((pos[a], pos[b]))
    # The limits go before any n x n table: the closure alone costs ~n^3.
    n = len(labels)
    _check_table_count(n)
    leq = np.eye(n, dtype=bool)
    for i, j in pairs:
        leq[i, j] = True
    return FiniteLattice(labels, _transitive_closure(leq))


def powerset_lattice(worlds: Sequence[str]) -> PowersetLattice:
    """Boolean lattice of all subsets of the given worlds, ordered by
    inclusion. Element index i denotes the subset with bitmask i."""
    return PowersetLattice(worlds)
