"""Galois adjoints, duals, map algebra and fixed points.

The adjoint tables for the coin maps are frozen from the defining
enumeration; the biconditional adjunction rule and composition corollaries
are then checked exhaustively as an independent route.
"""

import random

import pytest

from adjointkit import (
    JOIN_PRESERVING,
    MEET_PRESERVING,
    LatticeMismatch,
    NotBoolean,
    NotJoinPreserving,
    NotMeetPreserving,
    check_demorgan_lift,
    compose,
    de_morgan_dual,
    gfp_meet,
    identity_map,
    left_adjoint,
    lfp_join,
    lfp_join_reflexive,
    map_from_generators,
    map_from_table,
    pointwise_join,
    pointwise_meet,
    power,
    powerset_lattice,
    right_adjoint,
    validate_join_preserving,
    validate_meet_preserving,
    verify_adjunction,
)
from adjointkit.maps import LatticeMap, UNCLASSIFIED, constant_map
from adjointkit.errors import MissingGenerator
from conftest import (
    coin_appearance,
    m3_lattice,
    n5_lattice,
    random_bounded_poset,
    random_join_map,
    random_lattice,
    random_powerset,
    table_twin,
)


def brute_right_adjoint_table(lat, f):
    """f*(b) by the defining formula, computed with plain loops."""
    table = []
    for b in lat.elements:
        table.append(lat.join(bp for bp in lat.elements if lat.leq_(f(bp), b)).index)
    return tuple(table)


def brute_left_adjoint_table(lat, g):
    """g*(b) = meet of all b' with b <= g(b'), computed with plain loops."""
    table = []
    for b in lat.elements:
        table.append(lat.meet(bp for bp in lat.elements if lat.leq_(b, g(bp))).index)
    return tuple(table)


def brute_generator_table(lat, assignments):
    """f(x) = join of the images of the irreducibles below x, with plain
    loops."""
    table = []
    for x in lat.elements:
        table.append(lat.join(img for j, img in assignments.items() if lat.leq_(j, x)).index)
    return tuple(table)


def honest_update(lat3):
    s = lat3.subset
    return map_from_generators(
        lat3, {s(["h0"]): s(["h1"]), s(["t0"]): lat3.bottom, s(["h1"]): lat3.bottom}
    )


# -- generator construction ------------------------------------------------------


def test_coin_map_from_generators(coin2):
    f = coin_appearance(coin2)
    assert f(coin2.top) == coin2.top
    assert f(coin2.bottom) == coin2.bottom
    assert f(coin2.subset(["h"])) == coin2.top


def test_identity_from_generators(coin2):
    f = map_from_generators(coin2, {j: j for j in coin2.join_irreducibles()})
    assert f == identity_map(coin2)


def test_honest_update_closes_under_joins(coin3):
    h = honest_update(coin3)
    s = coin3.subset
    # independent closure: image of a set is the join of its singleton images
    for x in coin3.elements:
        singletons = [s([w]) for w in coin3.worlds if coin3.leq_(s([w]), x)]
        assert h(x) == coin3.join(h(e) for e in singletons)
    assert h(s(["h0", "t0"])) == s(["h1"])


def test_missing_and_extra_generators_rejected(coin2):
    with pytest.raises(MissingGenerator):
        map_from_generators(coin2, {coin2.subset(["h"]): coin2.top})
    with pytest.raises(MissingGenerator):
        map_from_generators(
            coin2,
            {
                coin2.subset(["h"]): coin2.top,
                coin2.subset(["t"]): coin2.top,
                coin2.top: coin2.top,
            },
        )


# -- preservation validation ---------------------------------------------------------


def test_generator_maps_validate(coin2):
    assert validate_join_preserving(coin_appearance(coin2)) is None


def test_join_violation_witness(coin2):
    h, t = coin2.subset(["h"]), coin2.subset(["t"])
    table = [coin2.bottom, coin2.top, coin2.top, h]  # f(top) = {h}, breaks at (h, t)
    bad = LatticeMap(coin2, [e.index for e in table], UNCLASSIFIED)
    violation = validate_join_preserving(bad)
    assert violation is not None
    assert violation.pair == (h, t)
    with pytest.raises(NotJoinPreserving):
        map_from_table(coin2, table, JOIN_PRESERVING)


def test_constant_bottom_is_join_preserving(coin2):
    assert validate_join_preserving(constant_map(coin2, coin2.bottom)) is None


def test_bottom_violation_reported(coin2):
    bad = LatticeMap(coin2, [coin2.top.index] * 4, UNCLASSIFIED)
    violation = validate_join_preserving(bad)
    assert violation is not None and violation.pair is None


# -- adjoints ---------------------------------------------------------------------------


def test_coin_right_adjoint_frozen_table(coin2):
    f = coin_appearance(coin2)
    pair = right_adjoint(f)
    assert pair.right.table == brute_right_adjoint_table(coin2, f)
    # frozen from the enumeration: {} -> {}, {h} -> {}, {t} -> {}, top -> top
    names = [coin2.elements[i].name for i in pair.right.table]
    assert names == ["{}", "{}", "{}", "{h,t}"]


def test_identity_adjoint_is_identity(coin2):
    pair = right_adjoint(identity_map(coin2))
    assert pair.right == identity_map(coin2, MEET_PRESERVING)


def test_honest_update_adjoint(coin3):
    pair = right_adjoint(honest_update(coin3))
    assert pair.right(coin3.subset(["h1"])) == coin3.top
    assert pair.right.table == brute_right_adjoint_table(coin3, pair.left)


def test_right_adjoint_demands_join_preserving(coin2):
    with pytest.raises(NotJoinPreserving):
        right_adjoint(identity_map(coin2, MEET_PRESERVING))


def test_left_adjoint_of_coin_dual(coin2):
    g = de_morgan_dual(coin_appearance(coin2))
    pair = left_adjoint(g)
    assert pair.left(coin2.subset(["h"])) == coin2.top
    assert pair.left(coin2.bottom) == coin2.bottom
    assert verify_adjunction(pair.left, pair.right) is None


def test_left_adjoint_of_constant_top(coin2):
    g = constant_map(coin2, coin2.top, MEET_PRESERVING)
    pair = left_adjoint(g)
    assert pair.left == constant_map(coin2, coin2.bottom, JOIN_PRESERVING)


def test_left_adjoint_demands_meet_preserving(coin2):
    with pytest.raises(NotMeetPreserving):
        left_adjoint(coin_appearance(coin2))


# -- de Morgan dual -----------------------------------------------------------------------


def test_coin_dual_frozen_table(coin2):
    g = de_morgan_dual(coin_appearance(coin2))
    names = [coin2.elements[i].name for i in g.table]
    assert names == ["{}", "{}", "{}", "{h,t}"]
    assert validate_meet_preserving(g) is None
    assert g.kind == MEET_PRESERVING


def test_dual_of_identity(coin2):
    assert de_morgan_dual(identity_map(coin2)).table == identity_map(coin2).table


def test_dual_needs_boolean(chain3):
    with pytest.raises(NotBoolean):
        de_morgan_dual(identity_map(chain3))


# -- verify_adjunction ----------------------------------------------------------------------


def test_adjunction_of_computed_pair(coin2):
    pair = right_adjoint(coin_appearance(coin2))
    assert verify_adjunction(pair.left, pair.right) is None


def test_adjunction_counterexample(coin2):
    f = coin_appearance(coin2)
    bad = verify_adjunction(f, identity_map(coin2, MEET_PRESERVING))
    assert bad == (coin2.subset(["h"]), coin2.subset(["h"]))


def test_adjunction_identity_pair(coin2):
    assert verify_adjunction(identity_map(coin2), identity_map(coin2)) is None


def test_adjunction_lattice_mismatch(coin2, coin3):
    with pytest.raises(LatticeMismatch):
        verify_adjunction(identity_map(coin2), identity_map(coin3))


# -- map algebra --------------------------------------------------------------------------------


def test_compose_identity_and_idempotence(coin2):
    f = coin_appearance(coin2)
    assert compose(identity_map(coin2), f) == f
    assert compose(f, identity_map(coin2)) == f
    assert compose(f, f) == f  # f(top) = top makes this f idempotent
    assert pointwise_join(f, f) == f


def test_power(coin2, coin3):
    f = coin_appearance(coin2)
    assert power(f, 0) == identity_map(coin2)
    assert power(f, 2) == f
    h = honest_update(coin3)
    assert power(h, 2)(coin3.subset(["h0"])) == coin3.bottom


def test_flavor_propagation(coin2):
    f = coin_appearance(coin2)
    g = de_morgan_dual(f)
    assert compose(f, f).kind == JOIN_PRESERVING
    assert compose(g, g).kind == MEET_PRESERVING
    assert compose(f, g).kind == UNCLASSIFIED
    assert pointwise_join(f, f).kind == JOIN_PRESERVING
    assert pointwise_meet(g, g).kind == MEET_PRESERVING


# -- fixed points ----------------------------------------------------------------------------------


def test_lfp_gfp_identity(coin2):
    assert lfp_join(identity_map(coin2)) == identity_map(coin2)
    assert gfp_meet(identity_map(coin2, MEET_PRESERVING)) == identity_map(coin2)


def test_lfp_coin_stabilizes_at_first_power(coin2):
    f = coin_appearance(coin2)
    assert lfp_join(f) == f


def test_lfp_honest_update(coin3):
    h = honest_update(coin3)
    star = lfp_join(h)
    # h({h0}) = {h1} and h^2({h0}) = {}, so the join stabilizes at {h1}
    assert star(coin3.subset(["h0"])) == coin3.subset(["h1"])
    # oracle: pointwise join of the powers until stable
    acc = h
    for i in range(2, coin3.n + 2):
        acc = pointwise_join(acc, power(h, i))
    assert star == acc


def test_reflexive_variants(coin3):
    h = honest_update(coin3)
    refl = lfp_join_reflexive(h)
    for e in coin3.elements:
        assert coin3.leq_(e, refl(e))
    assert refl == pointwise_join(identity_map(coin3), lfp_join(h))


@pytest.mark.parametrize("seed", range(15))
def test_adjoint_corollaries_random(seed):
    rng = random.Random(300 + seed)
    lat = random_lattice(rng)
    f = random_join_map(rng, lat)
    fstar = right_adjoint(f).right
    ident = identity_map(lat)
    ffs = compose(f, fstar)
    fsf = compose(fstar, f)
    for e in lat.elements:
        assert lat.leq_(ffs(e), e)
        assert lat.leq_(e, fsf(e))
    assert compose(f, fsf) == f
    assert compose(fstar, ffs) == fstar
    assert fstar.table[lat.top.index] == lat.top.index
    assert validate_meet_preserving(fstar) is None


@pytest.mark.parametrize("seed", range(10))
def test_adjoints_unique_roundtrip(seed):
    """The adjoints and the generator extension agree with the defining
    formulas on explicit orders of every kind, including M3, N5 and a
    powerset's twin in scrambled order, and on the powerset itself; every
    derived table is a tuple of Python ints."""
    rng = random.Random(400 + seed)
    pw = random_powerset(rng, max_worlds=4)
    scrambled = list(range(pw.n))
    rng.shuffle(scrambled)
    carriers = [random_lattice(rng), m3_lattice(), n5_lattice(), random_bounded_poset(rng),
                table_twin(pw, scrambled), pw]
    for lat in carriers:
        gens = {j: rng.choice(lat.elements) for j in lat.join_irreducibles()}
        brute = brute_generator_table(lat, gens)
        try:
            assert map_from_generators(lat, gens).table == brute
        except NotJoinPreserving:
            assert validate_join_preserving(LatticeMap(lat, brute)) is not None
        f = random_join_map(rng, lat)
        fstar = right_adjoint(f).right
        assert fstar.table == brute_right_adjoint_table(lat, f)
        assert left_adjoint(fstar).left == f
        assert left_adjoint(fstar).left.table == brute_left_adjoint_table(lat, fstar)
        derived = [f, fstar, left_adjoint(fstar).left, compose(f, fstar), pointwise_join(f, f),
                   pointwise_meet(fstar, fstar), lfp_join(f), gfp_meet(fstar)]
        for m in derived:
            assert type(m.table) is tuple and all(type(i) is int for i in m.table)


@pytest.mark.parametrize("seed", range(8))
def test_powers_and_fixpoints_stay_adjoint(seed):
    rng = random.Random(500 + seed)
    lat = random_lattice(rng)
    f = random_join_map(rng, lat)
    fstar = right_adjoint(f).right
    for i in range(6):
        assert verify_adjunction(power(f, i), power(fstar, i)) is None
    assert verify_adjunction(lfp_join(f), gfp_meet(fstar)) is None


# -- de Morgan lift ------------------------------------------------------------------------------------


def test_demorgan_lift_coin_and_identity(coin2):
    assert check_demorgan_lift(coin_appearance(coin2)) is None
    assert check_demorgan_lift(identity_map(coin2)) is None


def test_demorgan_lift_needs_boolean(chain3):
    with pytest.raises(NotBoolean):
        check_demorgan_lift(identity_map(chain3))


@pytest.mark.parametrize("seed", range(20))
def test_demorgan_lift_random_boolean(seed):
    rng = random.Random(600 + seed)
    lat = powerset_lattice([f"w{i}" for i in range(rng.randint(1, 4))])
    assert check_demorgan_lift(random_join_map(rng, lat)) is None


def test_heyting_witness_on_three_chain(chain3):
    """With intuitionistic negation the lift fails: search finds a witness."""
    neg = chain3.heyting_negation
    witnesses = []
    irr = chain3.join_irreducibles()
    for im_mid in chain3.elements:
        for im_top in chain3.elements:
            assignments = dict(zip(irr, (im_mid, im_top)))
            try:
                f = map_from_generators(chain3, assignments)
            except MissingGenerator:
                continue
            fstar = right_adjoint(f).right
            g_table = [neg(f(neg(b))).index for b in chain3.elements]
            g = LatticeMap(chain3, g_table)
            # g* by the defining formula, with no meet-preservation demand
            gstar = [
                chain3.meet(bp for bp in chain3.elements if chain3.leq_(b, g(bp)))
                for b in chain3.elements
            ]
            for b in chain3.elements:
                if fstar(b) != neg(gstar[b.index]):
                    witnesses.append((f.table, b.name))
    assert witnesses, "expected the de Morgan lift to fail somewhere on the 3-chain"
    # frozen instance: the identity map at b = mid
    ident = tuple(range(3))
    assert any(t == ident and b == "mid" for t, b in witnesses)
