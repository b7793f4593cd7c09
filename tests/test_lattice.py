"""Lattice construction, classification and Heyting operations.

Derived expectations are recomputed here by independent brute force
(triple-loop distributivity, direct-definition irreducibility, enumeration
for Heyting implication) rather than trusting the implementation's path.
"""

import random
from collections import Counter

import pytest

from adjointkit import (
    AdjointKitError,
    ForeignElement,
    LatticeTooLarge,
    NotALattice,
    NotAPoset,
    NotBoolean,
    NotDistributive,
    TooManyWorlds,
    build_from_order,
    powerset_lattice,
)
from adjointkit import lattice as lattice_mod
from adjointkit.lattice import FiniteLattice
from conftest import (
    m3_lattice, n5_lattice, random_bounded_poset, random_chain, random_downset_lattice,
    random_lattice, random_powerset, table_twin,
)


# -- independent oracles -----------------------------------------------------


def brute_distributive(lat):
    for x in lat.elements:
        for y in lat.elements:
            for z in lat.elements:
                lhs = lat.meet2(x, lat.join2(y, z))
                rhs = lat.join2(lat.meet2(x, y), lat.meet2(x, z))
                if lhs != rhs:
                    return False
    return True


def brute_join_irreducibles(lat):
    out = []
    for x in lat.elements:
        if x == lat.bottom:
            continue
        reducible = any(
            lat.join2(a, b) == x and a != x and b != x
            for a in lat.elements
            for b in lat.elements
        )
        if not reducible:
            out.append(x)
    return out


def brute_heyting(lat, a, b):
    return lat.join(x for x in lat.elements if lat.leq_(lat.meet2(x, a), b))


# -- construction ---------------------------------------------------------------


def test_diamond_from_order():
    lat = build_from_order(
        ["bot", "H", "T", "top"],
        [("bot", "H"), ("bot", "T"), ("H", "top"), ("T", "top")],
    )
    assert lat.n == 4
    assert lat.bottom.name == "bot"
    assert lat.top.name == "top"
    assert lat.join2(lat.element("H"), lat.element("T")) == lat.top


def test_two_chain():
    lat = build_from_order(["bot", "top"], [("bot", "top")])
    assert lat.n == 2
    assert lat.height == 1


def test_antichain_without_bounds_is_not_a_lattice():
    with pytest.raises(NotALattice) as err:
        build_from_order(["a", "b"], [])
    assert err.value.pair == ("a", "b")


def test_cycle_is_not_a_poset():
    with pytest.raises(NotAPoset):
        build_from_order(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_labels_rejected():
    with pytest.raises(NotAPoset):
        build_from_order(["a", "a"], [])


def test_order_pairs_must_fit_the_names():
    for pair in ((0, 2), (2, 0), (-1, 0), (0, -1)):
        message = rf"^order pair \({pair[0]}, {pair[1]}\) is out of range for 2 elements$"
        with pytest.raises(NotAPoset, match=message):
            FiniteLattice(["a", "b"], [(0, 1), pair])
    # pairs are closed reflexively and transitively, and duplicates are one
    lat = FiniteLattice(["a", "b", "c"], [(1, 2), (0, 1), (0, 1), (2, 2)])
    assert (lat.bottom.name, lat.top.name, lat.height) == ("a", "c", 2)


def test_powerset_two_worlds():
    lat = powerset_lattice(["h", "t"])
    assert lat.n == 4
    assert lat.is_boolean
    assert lat.subset([]) == lat.bottom
    assert lat.subset(["h", "t"]) == lat.top
    assert lat.complement(lat.subset(["h"])) == lat.subset(["t"])


def test_powerset_empty_and_three():
    trivial = powerset_lattice([])
    assert trivial.n == 1
    assert trivial.bottom == trivial.top
    assert powerset_lattice(["h0", "t0", "h1"]).n == 8


def test_powerset_caps():
    with pytest.raises(TooManyWorlds):
        powerset_lattice([f"w{i}" for i in range(17)])
    with pytest.raises(LatticeTooLarge):
        powerset_lattice([f"w{i}" for i in range(9)])  # 512 > default cap


def m_k(k):
    """M_k: bot below k pairwise incomparable atoms below top."""
    atoms = [f"a{i}" for i in range(k)]
    return ["bot", *atoms, "top"], [("bot", a) for a in atoms] + [(a, "top") for a in atoms]


@pytest.mark.parametrize("k", [255, 256])
def test_large_m_k_is_a_lattice(monkeypatch, k):
    # bot <= top has k two-step paths: at k = 256 a path count kept in
    # uint8 wraps to zero, the pair drops out of the closure and the lattice
    # was rejected as "pair ('bot', 'top') has no join".
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "1000")
    labels, pairs = m_k(k)
    lat = build_from_order(labels, pairs)
    assert lat.n == k + 2
    assert (lat.bottom.name, lat.top.name) == ("bot", "top")
    assert lat.leq_(lat.bottom, lat.top)
    a0, a1 = lat.element("a0"), lat.element(f"a{k - 1}")
    assert lat.join2(a0, a1) == lat.top and lat.meet2(a0, a1) == lat.bottom
    assert not lat.is_distributive and not lat.is_boolean
    assert [e.name for e in lat.join_irreducibles()] == labels[1:-1]
    assert lat.height == 2


def test_order_cap_is_checked_before_the_closure(monkeypatch):
    def closure(*args):
        raise AssertionError("closure ran on an order over the element cap")

    monkeypatch.setattr(lattice_mod, "_close", closure)
    labels = [f"c{i}" for i in range(600)]
    with pytest.raises(LatticeTooLarge, match="^600 elements exceeds the cap of 256$"):
        build_from_order(labels, zip(labels, labels[1:]))
    # an unknown label is still reported before the size
    with pytest.raises(ForeignElement):
        build_from_order(labels, [("c0", "nowhere")])


def test_max_lattice_env_override(monkeypatch):
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "4")
    with pytest.raises(LatticeTooLarge):
        powerset_lattice(["a", "b", "c"])
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "1024")
    assert powerset_lattice([f"w{i}" for i in range(9)]).n == 512


def test_max_lattice_env_ceiling(monkeypatch):
    # the largest carrier either backend builds is a 16-world powerset
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", str(2**16))
    assert lattice_mod.max_elements() == 2**16
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", str(2**16 + 1))
    message = "^ADJOINT_KIT_MAX_LATTICE=65537 is over the ceiling of 65536$"
    with pytest.raises(LatticeTooLarge, match=message):
        lattice_mod.max_elements()
    with pytest.raises(LatticeTooLarge, match=message):
        powerset_lattice(["a"])
    with pytest.raises(LatticeTooLarge, match=message):
        build_from_order(["a"], [])


def no_allocation(*args, **kwargs):
    raise AssertionError("per-element work ran over the limit")


def test_table_limit_is_checked_before_any_allocation(monkeypatch):
    # the closure builds the first per-element list, for build_from_order
    # and FiniteLattice alike
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "2048")
    monkeypatch.setattr(lattice_mod, "_close", no_allocation)
    labels = [f"c{i}" for i in range(lattice_mod.MAX_TABLE_ELEMENTS + 1)]
    message = "^1025 elements exceeds the limit of 1024 for lattice tables$"
    with pytest.raises(LatticeTooLarge, match=message):
        build_from_order(labels, zip(labels, labels[1:]))
    with pytest.raises(LatticeTooLarge, match=message):
        FiniteLattice(labels, None)


def grid(a, b):
    """The product of an a-chain and a b-chain, given by its covers."""
    labels = [f"g{x}_{y}" for x in range(a) for y in range(b)]
    pairs = ([(f"g{x}_{y}", f"g{x + 1}_{y}") for x in range(a - 1) for y in range(b)]
             + [(f"g{x}_{y}", f"g{x}_{y + 1}") for x in range(a) for y in range(b - 1)])
    return labels, pairs


def test_the_largest_explicit_orders_build(monkeypatch):
    # at the limit: a chain, where every pair is comparable; M_1022, whose
    # atoms make a million incomparable (element, irreducible) pairs; and a
    # 32 x 32 grid
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "1024")
    n = lattice_mod.MAX_TABLE_ELEMENTS
    labels = [f"c{i}" for i in range(n)]
    chain = build_from_order(labels, zip(labels, labels[1:]))
    assert (chain.height, chain.is_distributive, chain.is_boolean) == (n - 1, True, False)
    assert [e.name for e in chain.join_irreducibles()] == labels[1:]
    assert [e.name for e in chain.meet_irreducibles()] == labels[:-1]
    assert (chain.bottom.name, chain.top.name) == ("c0", f"c{n - 1}")

    labels, pairs = m_k(n - 2)
    mk = build_from_order(labels, pairs)
    assert (mk.n, mk.height, mk.is_distributive, mk.is_boolean) == (n, 2, False, False)
    assert [e.name for e in mk.join_irreducibles()] == labels[1:-1]
    assert [e.name for e in mk.meet_irreducibles()] == labels[1:-1]
    assert (mk.bottom.name, mk.top.name) == ("bot", "top")

    labels, pairs = grid(32, 32)
    g = build_from_order(labels, pairs)
    assert (g.n, g.height, g.is_distributive, g.is_boolean) == (n, 62, True, False)
    side = range(1, 32)
    assert {e.name for e in g.join_irreducibles()} == (
        {f"g{x}_0" for x in side} | {f"g0_{y}" for y in side})
    assert {e.name for e in g.meet_irreducibles()} == (
        {f"g{x - 1}_31" for x in side} | {f"g31_{y - 1}" for y in side})
    assert (g.bottom.name, g.top.name) == ("g0_0", "g31_31")
    a, b = g.element("g3_17"), g.element("g20_4")
    assert (g.join2(a, b).name, g.meet2(a, b).name) == ("g20_17", "g3_4")


def holds_a_table(lat):
    """Whether some attribute of lat holds n rows of n entries."""
    return any(
        isinstance(v, (list, tuple)) and len(v) == lat.n
        and all(isinstance(row, (list, tuple)) and len(row) == lat.n for row in v)
        for v in vars(lat).values()
    )


def test_lattices_hold_no_table_and_powersets_compute_on_masks(monkeypatch):
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "2048")
    lat = powerset_lattice([f"w{i}" for i in range(11)])
    a, b = lat.subset(["w0", "w3"]), lat.subset(["w3", "w10"])
    assert lat.join2(a, b) == lat.subset(["w0", "w3", "w10"])
    assert lat.leq_(lat.meet2(a, b), b) and not lat.leq_(a, b)
    assert lat.complement(lat.bottom) == lat.top and lat.height == 11
    small = powerset_lattice(["x", "y"])
    assert [[small.leq_index(i, j) for j in range(4)] for i in range(4)] == [
        [(i & ~j) == 0 for j in range(4)] for i in range(4)]
    assert [[small.join_index(i, j) for j in range(4)] for i in range(4)] == [
        [i | j for j in range(4)] for i in range(4)]
    assert [[small.meet_index(i, j) for j in range(4)] for i in range(4)] == [
        [i & j for j in range(4)] for i in range(4)]
    assert small.complement_table() == (3, 2, 1, 0)
    assert [e.index for e in small.meet_irreducibles()] == [1, 2]
    labels = [f"g{x}{y}" for x in range(6) for y in range(6)]
    grid = build_from_order(labels, [(f"g{x}{y}", f"g{x + dx}{y + dy}") for x in range(5)
                                     for y in range(5) for dx, dy in ((0, 1), (1, 0))]
                            + [(f"g5{y}", f"g5{y + 1}") for y in range(5)]
                            + [(f"g{x}5", f"g{x + 1}5") for x in range(5)])
    assert grid.n == 36 and grid.height == 10 and grid.is_distributive
    for carrier in (lat, small, grid):
        assert not holds_a_table(carrier)


def test_element_lookup_adds_no_state(chain3):
    before = set(vars(chain3))
    assert chain3.element("mid").name == "mid"
    with pytest.raises(ForeignElement):
        chain3.element("nowhere")
    assert set(vars(chain3)) == before


def test_elements_compare_by_identity(chain3):
    # a lattice makes each element once, so every lookup returns that object
    mid = chain3.element("mid")
    assert mid == mid and mid is chain3.element("mid") and hash(mid) == hash(mid)
    assert len({mid, chain3.element("mid")}) == 1
    # an equal lattice built again has its own elements
    twin = build_from_order(
        [e.name for e in chain3.elements],
        [(a.name, b.name) for a in chain3.elements for b in chain3.elements
         if chain3.leq_(a, b)],
    )
    assert twin.element("mid").name == "mid" and twin.element("mid").index == mid.index
    assert twin.element("mid") != mid
    assert powerset_lattice(["h", "t"]).top != powerset_lattice(["h", "t"]).top


# -- joins and meets ---------------------------------------------------------------


def test_empty_join_is_bottom_empty_meet_is_top(coin2):
    assert coin2.join([]) == coin2.bottom
    assert coin2.meet([]) == coin2.top


def test_binary_join_in_powerset(coin2):
    assert coin2.join([coin2.subset(["h"]), coin2.subset(["t"])]) == coin2.top


@pytest.mark.parametrize("seed", range(10))
def test_join_over_and_meet_over_match_brute_force(seed):
    rng = random.Random(700 + seed)
    for _ in range(20):
        lat = rng.choice([random_chain, random_downset_lattice, random_bounded_poset,
                          lambda rng: table_twin(random_powerset(rng, 4)),
                          lambda rng: rng.choice([m3_lattice, n5_lattice])()])(rng)
        assert lat.worlds is None
        el = lat.elements
        pairs = [(rng.randrange(lat.n), rng.randrange(lat.n))
                 for _ in range(rng.randint(0, 2 * lat.n))]
        joins = [lat.join(el[v] for k, v in pairs if lat.leq_(el[k], x)).index for x in el]
        meets = [lat.meet(el[v] for k, v in pairs if lat.leq_(x, el[k])).index for x in el]
        assert lat.join_over(pairs) == tuple(joins)
        assert lat.meet_over(pairs) == tuple(meets)


def test_foreign_element_rejected(coin2, coin3):
    with pytest.raises(ForeignElement):
        coin2.join2(coin2.top, coin3.top)


# -- classification -----------------------------------------------------------------


def test_powerset_is_boolean_with_set_complement(coin2):
    assert coin2.is_boolean and coin2.is_distributive
    table = coin2.complement_table()
    assert table[coin2.subset(["h"]).index] == coin2.subset(["t"]).index


def test_m3_not_distributive_vs_oracle():
    lat = m3_lattice()
    assert not brute_distributive(lat)
    assert lat.is_distributive is False
    assert lat.is_boolean is False


def test_n5_not_distributive_vs_oracle():
    lat = n5_lattice()
    assert not brute_distributive(lat)
    assert lat.is_distributive is False


@pytest.mark.parametrize("seed", range(12))
def test_classification_matches_brute_force(seed):
    lat = random_lattice(random.Random(seed))
    assert lat.is_distributive == brute_distributive(lat)


# -- Heyting operations ---------------------------------------------------------------


def test_heyting_implication_on_powerset_vs_oracle(coin2):
    h, t = coin2.subset(["h"]), coin2.subset(["t"])
    assert coin2.heyting_implication(h, t) == brute_heyting(coin2, h, t) == t


def test_heyting_self_implication_is_top(coin2, chain3):
    for lat in (coin2, chain3):
        for a in lat.elements:
            assert lat.heyting_implication(a, a) == lat.top


def test_chain_negation_not_involutive(chain3):
    mid = chain3.element("mid")
    assert chain3.heyting_negation(mid) == chain3.bottom
    assert chain3.heyting_negation(chain3.heyting_negation(mid)) == chain3.top
    assert brute_heyting(chain3, mid, chain3.bottom) == chain3.bottom


def test_heyting_requires_distributive():
    lat = m3_lattice()
    with pytest.raises(NotDistributive):
        lat.heyting_implication(lat.element("a"), lat.element("b"))


def test_complement_requires_boolean(chain3):
    with pytest.raises(NotBoolean):
        chain3.complement(chain3.element("mid"))


def test_boolean_heyting_negation_is_complement(coin2):
    for a in coin2.elements:
        assert coin2.heyting_negation(a) == coin2.complement(a)


@pytest.mark.parametrize("seed", range(12))
def test_heyting_on_distributive_orders_vs_oracle(seed):
    rng = random.Random(300 + seed)
    lat = rng.choice([random_chain, random_downset_lattice,
                      lambda rng: table_twin(random_powerset(rng, 4))])(rng)
    assert lat.worlds is None and lat.is_distributive
    for a in lat.elements:
        assert lat.heyting_negation(a) == brute_heyting(lat, a, lat.bottom)
        for b in lat.elements:
            assert lat.heyting_implication(a, b) == brute_heyting(lat, a, b)


# -- join-irreducibles -----------------------------------------------------------------


def test_powerset_irreducibles_are_singletons(coin2):
    assert set(coin2.join_irreducibles()) == {coin2.subset(["h"]), coin2.subset(["t"])}
    lat3 = powerset_lattice(["a", "b", "c"])
    assert {e.name for e in lat3.join_irreducibles()} == {"{a}", "{b}", "{c}"}


def test_chain_irreducibles_vs_direct_definition(chain3):
    assert list(chain3.join_irreducibles()) == brute_join_irreducibles(chain3)
    assert {e.name for e in chain3.join_irreducibles()} == {"mid", "top"}


@pytest.mark.parametrize("seed", range(12))
def test_irreducibles_match_direct_definition(seed):
    lat = random_lattice(random.Random(seed))
    assert list(lat.join_irreducibles()) == brute_join_irreducibles(lat)


@pytest.mark.parametrize("seed", range(10))
def test_every_element_is_join_of_irreducibles_below(seed):
    lat = random_lattice(random.Random(100 + seed))
    irr = lat.join_irreducibles()
    for x in lat.elements:
        assert lat.join(j for j in irr if lat.leq_(j, x)) == x


# -- table laws ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_order_and_table_laws(seed):
    lat = random_lattice(random.Random(200 + seed))
    assert lat.n <= 32
    leq = lat.leq_

    for x in lat.elements:
        assert leq(x, x)
        assert lat.join2(x, x) == x and lat.meet2(x, x) == x
        assert leq(lat.bottom, x) and leq(x, lat.top)
        for y in lat.elements:
            assert x is y or not (leq(x, y) and leq(y, x))
            assert lat.join2(x, y) == lat.join2(y, x)
            assert lat.meet2(x, y) == lat.meet2(y, x)
            assert lat.meet2(x, lat.join2(x, y)) == x
            assert lat.join2(x, lat.meet2(x, y)) == x
            for z in lat.elements:
                assert not (leq(x, y) and leq(y, z)) or leq(x, z)
                assert lat.join2(lat.join2(x, y), z) == lat.join2(x, lat.join2(y, z))
                assert lat.meet2(lat.meet2(x, y), z) == lat.meet2(x, lat.meet2(y, z))


# -- differential test against the pair-by-pair construction ------------------


def reference_analysis(names, leq):
    """Construction-time analysis done pair by pair and element by element
    on a square table of bools: the pairwise bound scan, the n-pass
    distributivity check and the per-element complement, irreducible and
    height loops. Returns what FiniteLattice exposes, or raises what it
    raises."""
    n = len(names)
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    if len(set(names)) != n:
        raise NotAPoset("element names must be distinct")
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i in range(n):
        if not leq[i][i]:
            raise NotAPoset(f"order not reflexive at {names[i]!r}")
    for i, j in cells:
        if i != j and leq[i][j] and leq[j][i]:
            raise NotAPoset(f"antisymmetry violated between {names[i]!r} and {names[j]!r}")
    for i, j in cells:
        if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in range(n)):
            raise NotAPoset(f"order not transitive: missing {names[i]!r} <= {names[j]!r}")

    jt = [[None] * n for _ in range(n)]
    mt = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = [leq[i][k] and leq[j][k] for k in range(n)]
            cands = [k for k in range(n)
                     if ub[k] and all(leq[k][m] or not ub[m] for m in range(n))]
            if len(cands) != 1:
                raise NotALattice(
                    f"pair ({names[i]!r}, {names[j]!r}) has no join",
                    pair=(names[i], names[j]),
                )
            jt[i][j] = jt[j][i] = cands[0]
            lb = [leq[k][i] and leq[k][j] for k in range(n)]
            cands = [k for k in range(n)
                     if lb[k] and all(leq[m][k] or not lb[m] for m in range(n))]
            if len(cands) != 1:
                raise NotALattice(
                    f"pair ({names[i]!r}, {names[j]!r}) has no meet",
                    pair=(names[i], names[j]),
                )
            mt[i][j] = mt[j][i] = cands[0]
    bot = next(i for i in range(n) if all(leq[i]))
    top = next(j for j in range(n) if all(leq[i][j] for i in range(n)))

    distributive = True
    for x in range(n):
        mx = mt[x]
        if any(mx[jt[i][j]] != jt[mx[i]][mx[j]] for i, j in cells):
            distributive = False
            break
    complements = None
    if distributive:
        complements = []
        for x in range(n):
            ys = [y for y in range(n) if mt[x][y] == bot and jt[x][y] == top]
            complements.append(ys[0] if ys else None)
    is_boolean = complements is not None and None not in complements

    irreducibles, meet_irreducibles = [], []
    for x in range(n):
        if x != bot:
            acc = bot
            for i in range(n):
                if leq[i][x] and i != x:
                    acc = jt[acc][i]
            if acc != x:
                irreducibles.append(x)
        if x != top:
            acc = top
            for i in range(n):
                if leq[x][i] and i != x:
                    acc = mt[acc][i]
            if acc != x:
                meet_irreducibles.append(x)

    depth = [0] * n
    for i in sorted(range(n), key=lambda i: sum(leq[k][i] for k in range(n))):
        depth[i] = 1 + max((depth[j] for j in range(n) if leq[j][i] and j != i), default=-1)

    return {
        "join": jt,
        "meet": mt,
        "bottom": bot,
        "top": top,
        "is_distributive": distributive,
        "is_boolean": is_boolean,
        "complements": tuple(complements) if is_boolean else None,
        "irreducibles": irreducibles,
        "meet_irreducibles": meet_irreducibles,
        "height": max(depth),
    }


def reference_from_order(labels, pairs):
    labels = list(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise NotAPoset("labels must be distinct")
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise ForeignElement(f"order pair ({a!r}, {b!r}) uses an unknown label")
        leq[pos[a]][pos[b]] = True
    while True:
        closed = [[any(leq[i][k] and leq[k][j] for k in range(n)) for j in range(n)]
                  for i in range(n)]
        if closed == leq:
            return reference_analysis(labels, leq)
        leq = closed


def analysis(lat):
    el = lat.elements
    return {
        "join": [[lat.join2(a, b).index for b in el] for a in el],
        "meet": [[lat.meet2(a, b).index for b in el] for a in el],
        "bottom": lat.bottom.index,
        "top": lat.top.index,
        "is_distributive": lat.is_distributive,
        "is_boolean": lat.is_boolean,
        "complements": lat.complement_table(),
        "irreducibles": [e.index for e in lat.join_irreducibles()],
        "meet_irreducibles": [e.index for e in lat.meet_irreducibles()],
        "height": lat.height,
    }


def outcome(build, *args):
    try:
        return build(*args)
    except AdjointKitError as err:
        return (type(err), str(err), getattr(err, "pair", None))


# an explicit order closes its pairs, so "not reflexive" and "not
# transitive" are no longer errors
ERROR_KINDS = ("antisymmetry", "no join", "no meet")
LATTICE_KINDS = ("boolean", "distributive", "plain lattice")


def kind_of(result):
    if isinstance(result, tuple):
        return next((k for k in ERROR_KINDS if k in result[1]), result[0].__name__)
    if result["is_boolean"]:
        return "boolean"
    return "distributive" if result["is_distributive"] else "plain lattice"


def closed(leq):
    """The reflexive and transitive closure of a square table of bools
    (Warshall)."""
    leq = [[b or i == j for j, b in enumerate(row)] for i, row in enumerate(leq)]
    for k in range(len(leq)):
        for i in range(len(leq)):
            if leq[i][k]:
                leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
    return leq


def index_pairs(rng, leq):
    """The pairs (i, j) with leq[i][j], shuffled, a quarter of them twice."""
    pairs = [(i, j) for i, row in enumerate(leq) for j, b in enumerate(row) if b]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return pairs


def random_order_table(rng):
    """A random square table of bools, labelled and shuffled: raw relations,
    posets, bounded posets (often lattices with M3 or N5 inside), bounded
    posets with one pair dropped, and lattices from the shared generators."""
    kind = rng.choice(["relation", "poset", "bounded", "dropped", "lattice", "lattice"])
    if kind == "lattice":
        lat = random_lattice(rng)
        leq = [[lat.leq_(a, b) for b in lat.elements] for a in lat.elements]
    else:
        n = rng.randint(1, 6) if kind == "relation" else rng.randint(1, 8)
        p = rng.choice([0.15, 0.3, 0.5])
        leq = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (kind == "relation" or i < j) and rng.random() < p:
                    leq[i][j] = True
        if kind == "relation" and rng.random() < 0.3:
            leq[rng.randrange(n)] = [False] * n
        if kind in ("bounded", "dropped"):
            # a new bottom row and a new top column around the table
            leq = ([[True] * (n + 2)] + [[False, *row, True] for row in leq]
                   + [[False] * (n + 1) + [True]])
            n += 2
        if kind != "relation":
            leq = closed(leq)
        if kind == "dropped":
            i, j = rng.choice([(i, j) for i in range(n) for j in range(n)
                               if leq[i][j] and i != j])
            leq[i][j] = False
    perm = list(range(len(leq)))
    rng.shuffle(perm)
    return [f"e{p}" for p in perm], [[leq[p][q] for q in perm] for p in perm]


def random_order_pairs(rng):
    """Random labels and order pairs, cycles and unknown labels included."""
    n = rng.randint(0, 8)
    labels = [f"v{i}" for i in range(n)]
    p = rng.choice([0.1, 0.2, 0.35])
    pairs = [(a, b) for a in labels for b in labels if a != b and rng.random() < p / 2]
    if n and rng.random() < 0.5:
        pairs += [("bot", a) for a in labels] + [(a, "top") for a in labels]
        labels += ["bot", "top"]
    if rng.random() < 0.05:
        pairs.append((rng.choice(labels or ["v0"]), "stray"))
    if rng.random() < 0.05 and labels:
        labels.append(labels[0])
    return labels, pairs


def test_bulk_analysis_matches_the_pairwise_reference():
    rng = random.Random(2002)
    kinds = Counter()
    for _ in range(500):
        names, leq = random_order_table(rng)
        pairs = index_pairs(rng, leq)
        expected = outcome(reference_analysis, names, closed(leq))
        got = outcome(lambda: analysis(FiniteLattice(names, pairs)))
        assert got == expected, (names, pairs)
        kinds[kind_of(expected)] += 1
    for _ in range(300):
        labels, pairs = random_order_pairs(rng)
        expected = outcome(reference_from_order, labels, pairs)
        got = outcome(lambda: analysis(build_from_order(labels, pairs)))
        assert got == expected, (labels, pairs)
        kinds[kind_of(expected)] += 1
    print(sorted(kinds.items()))
    for kind in ERROR_KINDS + LATTICE_KINDS:
        assert kinds[kind] >= 20, (kind, kinds)
