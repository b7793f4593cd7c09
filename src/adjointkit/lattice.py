"""Finite complete lattices: explicit orders on bit rows, powersets on bitmasks.

A lattice is built once, validated eagerly and is then immutable, so
concurrent readers are safe. There are two backends, chosen by what is
being built:

- An explicit order (`build_from_order`, a `poset ... end` scenario block)
  is a `FiniteLattice` built from index pairs i <= k, which it closes
  itself. It holds each element's up-set up[i] and down-set down[i] as
  Python ints (bit k set iff i <= k, respectively k <= i), its upper
  covers, a linear extension, and dicts from each principal up-set and
  down-set back to its element. The join of a and b is the element whose
  up-set is up[a] & up[b], and the meet is dual. Construction:

  - Closure: one iterative pass of Tarjan's strongly connected components
    algorithm (SIAM J. Comput. 1, 1972). A component is finished after all
    components above it, so its up-set is its own bit or its successors'
    up-sets: the rows are reflexive and transitive by construction. A
    component of two or more elements breaks antisymmetry. Every cover is a
    pair, so the upper covers of i are its successors that lie above no
    other successor. Down-sets, the height (the longest path of covers),
    `join_over` and `meet_over` run along the covers.
  - Join-irreducibles: the elements with one lower cover; meet-irreducibles
    dually. Every element is the join of the join-irreducibles below it and
    the meet of the meet-irreducibles above it, so a law on joins (meets) is
    decided on the pairs (x, irreducible).
  - Lattice: a finite poset with a bottom in which x \\/ j exists for every
    x and every join-irreducible j is a lattice. By induction on the height
    of y, x \\/ y exists: if y has two lower covers y1 and y2, then
    y = y1 \\/ y2 and x \\/ y = (x \\/ y1) \\/ y2. Meets follow, as in any
    finite join-semilattice with a bottom.
  - Distributivity: with jd[x] = down[x] & J, J the join-irreducibles, the
    lattice is distributive iff x -> jd[x] preserves joins, that is iff
    jd[x \\/ j] = jd[x] | jd[j] for every x and every irreducible j; this
    embeds the lattice into the powerset of J, the core of Birkhoff's
    representation theorem (Davey & Priestley, Introduction to Lattices and
    Order, 2nd ed., 2002, ch. 5). Both laws hold on comparable pairs, so one
    loop over the incomparable pairs (x, j) decides both, one lookup each.
    Only when a join is missing are all pairs scanned, to name the first.
  - Boolean: distributive with n = 2^|J|, when the embedding is onto; the
    complement of x is then the element with jd = J - jd[x].

- A powerset of worlds (`powerset_lattice`) is a `PowersetLattice`: element
  index i is the subset with bitmask i, so every operation is mask
  arithmetic and nothing is re-checked: a powerset is Boolean.

Each backend has one size limit, checked before any per-element work. A
powerset has at most MAX_POWERSET_WORLDS = 16 worlds, an explicit order
MAX_TABLE_ELEMENTS = 1,024 elements. The closure takes one operation on
n-bit rows per pair given, and the lattice check one per incomparable pair
(element, join-irreducible). A 1,024-element chain builds in about 5 ms,
and M_1022 (1,022 incomparable atoms, all irreducible: a million pairs) in
0.2-0.5 s on a 2-core Xeon VM under CPython 3.11; the rows take n^2/4
bytes, 256 KiB at 1,024 elements. Below these limits the element cap
defaults to 256 and can be set with the ADJOINT_KIT_MAX_LATTICE environment
variable, up to 2^16, the largest carrier either backend builds; a larger
value is refused.
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
    index pairs (i, k) for i <= k and closed reflexively and transitively;
    bit k of the up-set row up[i] is then set iff i <= k.

    Exposes joins, meets, complements, Heyting implication and the join-
    and meet-irreducibles, on elements and, for the maps module, on bare
    indices (`leq_index`, `join_index`, `meet_index`, and `join_over` and
    `meet_over` for whole tables). Instances are immutable after
    construction.
    """

    # tuple of world labels on a powerset carrier, None on an explicit order
    worlds = None

    def __init__(self, names: Sequence[str], pairs: Iterable[tuple[int, int]]):
        n = len(names)
        if len(set(names)) != n:
            raise NotAPoset("element names must be distinct")
        # the element cap, then the limit on explicit orders, before any
        # per-element work
        if n == 0:
            raise NotALattice("a lattice needs at least one element")
        cap = max_elements()
        if n > cap:
            raise LatticeTooLarge(f"{n} elements exceeds the cap of {cap}")
        if n > MAX_TABLE_ELEMENTS:
            raise LatticeTooLarge(
                f"{n} elements exceeds the limit of {MAX_TABLE_ELEMENTS} for lattice tables"
            )
        up, down, self._order, self._covers, self.height = _close(names, pairs)
        by_up = {u: i for i, u in enumerate(up)}
        by_down = {d: i for i, d in enumerate(down)}
        # one lower (upper) cover: the strict down-set (up-set) is principal
        irr = [i for i, d in enumerate(down) if d ^ 1 << i in by_down]
        mask = sum(1 << j for j in irr)
        jd = [d & mask for d in down]
        self.is_distributive = _classify(names, up, down, by_up, by_down, irr, jd)

        self._set_elements(names)
        self._up, self._down, self._by_up, self._by_down = up, down, by_up, by_down
        el, full = self.elements, (1 << n) - 1
        self.bottom, self.top = el[by_up[full]], el[by_down[full]]
        self._irreducibles = tuple(el[j] for j in irr)
        self._meet_irreducibles = tuple(el[i] for i, u in enumerate(up) if u ^ 1 << i in by_up)
        self.is_boolean = self.is_distributive and n == 1 << len(irr)
        self._complements = None
        if self.is_boolean:
            by_jd = {v: i for i, v in enumerate(jd)}
            self._complements = tuple(by_jd[mask ^ v] for v in jd)

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
        intersection of their up-sets. One bottom-up pass along the covers:
        each x meets its own pairs' rows into what it hands on to its upper
        covers."""
        acc = [(1 << self.n) - 1] * self.n
        for k, v in pairs:
            acc[k] &= self._up[v]
        for x in self._order:
            for c in self._covers[x]:
                acc[c] &= acc[x]
        return tuple(self._by_up[u] for u in acc)

    def meet_over(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Per element x, in index order, the index of the meet of every v
        with (k, v) in pairs and x <= k: the dual, top-down pass."""
        acc = [(1 << self.n) - 1] * self.n
        for k, v in pairs:
            acc[k] &= self._down[v]
        for x in reversed(self._order):
            for c in self._covers[x]:
                acc[x] &= acc[c]
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
        # subset names in mask order, doubled a world at a time as
        # maps._from_atoms doubles a table: the masks with world k's bit
        # follow those without it
        names = [""]
        for w in worlds:
            names += [f"{m},{w}" if m else w for m in names]
        self._set_elements([f"{{{m}}}" for m in names])
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


def _bits(x: int) -> list:
    """The positions of the set bits of x, lowest first."""
    return [k for k, bit in enumerate(bin(x)[:1:-1]) if bit == "1"]


def _close(names, pairs):
    """The up-set and down-set rows of the order that the index pairs
    generate, a linear extension, each element's upper covers and the
    height, from one iterative pass of Tarjan's algorithm. Raise NotAPoset
    on a pair out of range, or on a cycle: the pair named is the lowest
    element on a cycle and the next-lowest of its component."""
    n = len(names)
    adj = [[] for _ in range(n)]
    for i, k in dict.fromkeys(pairs):
        if not (0 <= i < n and 0 <= k < n):
            raise NotAPoset(f"order pair ({i!r}, {k!r}) is out of range for {n} elements")
        adj[i].append(k)
    up, covers, depth, done, cycles = [0] * n, [()] * n, [0] * n, [], []
    # index[v] is v's place on the stack; low[v] is n before v is entered
    # and again once its component is finished
    index, low, edges, stack = [-1] * n, [n] * n, [iter(a) for a in adj], []
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            v = work[-1]
            if index[v] < 0:
                index[v] = low[v] = len(stack)
                stack.append(v)
            for w in edges[v]:
                if index[w] < 0:
                    work.append(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if low[v] < index[v]:
                    low[work[-1]] = min(low[work[-1]], low[v])
                    continue
                component = stack[index[v]:]
                del stack[index[v]:]
                for w in component:
                    low[w] = n
                if len(component) > 1:
                    cycles.append(sorted(component)[:2])
                    continue
                # every successor is finished, and it is a cover unless it
                # lies above another successor (or is v itself, whose row is
                # still 0)
                row, above = 1 << v, 0
                for w in adj[v]:
                    row |= up[w]
                    above |= up[w] ^ 1 << w
                up[v], covers[v] = row, tuple(w for w in adj[v] if not above >> w & 1)
                done.append(v)
    if cycles:
        i, k = min(cycles)
        raise NotAPoset(f"antisymmetry violated between {names[i]!r} and {names[k]!r}")
    order, down = done[::-1], [1 << i for i in range(n)]
    for v in order:
        for w in covers[v]:
            down[w] |= down[v]
            depth[w] = max(depth[w], depth[v] + 1)
    return up, down, tuple(order), tuple(covers), max(depth)


def _classify(names, up, down, by_up, by_down, irr, jd):
    """Whether the order, a lattice, is distributive, decided on the
    incomparable pairs (x, join-irreducible j): x \\/ j must exist, and
    jd[x \\/ j] be jd[x] | jd[j]. Without a bottom or some x \\/ j it is no
    lattice, and the first pair without a join or a meet is named."""
    full = (1 << len(up)) - 1
    if full not in by_up:
        _check_bounds(names, up, down, by_up, by_down)
    distributive = True
    for j in irr:
        uj, dj = up[j], jd[j]
        for x in _bits(full ^ (uj | down[j])):
            k = by_up.get(up[x] & uj)
            if k is None:
                _check_bounds(names, up, down, by_up, by_down)
            distributive = distributive and jd[k] == jd[x] | dj
    return distributive


def _check_bounds(names, up, down, by_up, by_down):
    """Raise NotALattice on the first pair, in row order, whose common upper
    bounds (lower bounds) are not a principal up-set (down-set); its join is
    reported before its meet."""
    for i, j in itertools.combinations(range(len(up)), 2):
        for kind, rows, by in (("join", up, by_up), ("meet", down, by_down)):
            if rows[i] & rows[j] not in by:
                pair = names[i], names[j]
                raise NotALattice(f"pair ({pair[0]!r}, {pair[1]!r}) has no {kind}", pair=pair)


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
    return FiniteLattice(labels, pairs)


def powerset_lattice(worlds: Sequence[str]) -> PowersetLattice:
    """Boolean lattice of all subsets of the given worlds, ordered by
    inclusion. Element index i denotes the subset with bitmask i."""
    return PowersetLattice(worlds)
