"""MAMA operators: appearance, information, knowledge, belief, groups."""

import random

import pytest

from adjointkit import (
    EmptyGroup,
    NotBoolean,
    UnknownAgent,
    build_mama,
    check_coclosure_consequences,
    identity_map,
    verify_adjunction,
    power,
)
from adjointkit.dynamics import DynamicAlgebra
from adjointkit.epistemic import MAMA, CoclosureReport
from adjointkit.maps import right_adjoint
from adjointkit.semantics import evaluate
from adjointkit.terms import CK, Atom
from conftest import (
    coclosure_consequences_hold,
    random_decreasing_map,
    random_join_map,
    random_lattice,
    random_mama,
    reference_coclosure,
)


@pytest.fixture
def coin_mama(coin2):
    s = coin2.subset
    uncertain = {s(["h"]): coin2.top, s(["t"]): coin2.top}
    certain = {s(["h"]): s(["h"]), s(["t"]): s(["t"])}
    return build_mama(coin2, {"A": dict(uncertain), "B": dict(uncertain), "C": certain})


def identity_mama(lat):
    return build_mama(lat, {"A": {j: j for j in lat.join_irreducibles()}})


def test_build_mama_validates_adjunctions(coin_mama):
    for agent in coin_mama.agents:
        pair = coin_mama.pairs[agent]
        assert verify_adjunction(pair.left, pair.right) is None


def test_empty_agent_set_rejected(coin2):
    with pytest.raises(EmptyGroup):
        build_mama(coin2, {})


def test_unknown_agent(coin_mama, coin2):
    with pytest.raises(UnknownAgent):
        coin_mama.appearance("Z", coin2.top)


def test_coin_appearance_and_information(coin_mama, coin2):
    h = coin2.subset(["h"])
    assert coin_mama.appearance("A", h) == coin2.top
    assert coin_mama.information("A", coin2.top) == coin2.top
    # H <= f*_A(H \/ T): the agent is informed the coin is heads or tails
    assert coin2.leq_(h, coin_mama.information("A", coin2.top))
    # C tossed the coin: appearance compatible with reality
    assert coin_mama.appearance("C", h) == h


def test_identity_appearance_gives_identity_information(coin2):
    m = identity_mama(coin2)
    for e in coin2.elements:
        assert m.information("A", e) == e
        assert m.knowledge("A", e) == e
        assert m.belief("A", e) == e


def test_coin_knowledge(coin_mama, coin2):
    h = coin2.subset(["h"])
    assert coin_mama.knowledge("A", h) == coin2.bottom
    assert coin_mama.knowledge("A", coin2.top) == coin2.top
    assert coin_mama.knowledge("C", h) == h


def test_coin_belief(coin_mama, coin2):
    h = coin2.subset(["h"])
    # B_A({h}) = not K_A({t}) = not {} = top
    assert coin_mama.belief("A", h) == coin2.top


def test_belief_needs_boolean(chain3):
    m = identity_mama(chain3)
    with pytest.raises(NotBoolean):
        m.belief("A", chain3.top)


def test_knowledge_truthful_and_monotone(coin_mama, coin2):
    for agent in coin_mama.agents:
        for l in coin2.elements:
            k = coin_mama.knowledge(agent, l)
            assert coin2.leq_(k, l)
            for m in coin2.elements:
                if coin2.leq_(l, m):
                    assert coin2.leq_(k, coin_mama.knowledge(agent, m))


# -- groups ------------------------------------------------------------------


def test_singleton_group_equals_agent(coin_mama):
    assert coin_mama.group_appearance(["A"]) == coin_mama.appearance_map("A")
    assert coin_mama.group_information(["A"]) == coin_mama.information_map("A")


def test_identical_agents_join_idempotent(coin_mama):
    assert coin_mama.group_appearance(["A", "B"]) == coin_mama.appearance_map("A")


def test_mixed_group_pointwise(coin_mama, coin2):
    h = coin2.subset(["h"])
    f_beta = coin_mama.group_appearance(["A", "C"])
    fstar_beta = coin_mama.group_information(["A", "C"])
    assert f_beta(h) == coin2.top
    assert fstar_beta(h) == coin2.bottom
    assert verify_adjunction(f_beta, fstar_beta) is None


def test_empty_group_rejected(coin_mama):
    with pytest.raises(EmptyGroup):
        coin_mama.group_appearance([])


def test_group_of_unknown_agent(coin_mama):
    with pytest.raises(UnknownAgent):
        coin_mama.group_information(["A", "Z"])


# -- common information and knowledge ----------------------------------------------


def test_identity_common_operators(coin2):
    m = identity_mama(coin2)
    assert m.common_information(["A"]) == identity_map(coin2)
    assert m.common_knowledge(["A"]) == identity_map(coin2)


def test_coin_common_knowledge(coin_mama, coin2):
    h = coin2.subset(["h"])
    ck = coin_mama.common_knowledge(["A", "B"])
    assert ck(coin2.top) == coin2.top
    assert coin2.leq_(h, ck(coin2.top))
    # nested chain of Example 1: H <= f*_B f*_A f*_B (H \/ T)
    fA, fB = coin_mama.information_map("A"), coin_mama.information_map("B")
    assert coin2.leq_(h, fB(fA(fB(coin2.top))))
    assert ck(h) == coin2.bottom


def test_common_information_is_adjoint_to_accumulated_appearance(coin_mama):
    from adjointkit import lfp_join

    ci = coin_mama.common_information(["A", "B", "C"])
    acc = lfp_join(coin_mama.group_appearance(["A", "B", "C"]))
    assert verify_adjunction(acc, ci) is None


@pytest.mark.parametrize("seed", range(8))
def test_multi_fixedpoint_proposition_random(seed):
    rng = random.Random(700 + seed)
    lat = random_lattice(rng)
    m = random_mama(rng, lat, rng.randint(2, 4))
    group = list(m.agents)[: rng.randint(2, len(m.agents))]
    f_beta = m.group_appearance(group)
    fstar_beta = m.group_information(group)
    assert verify_adjunction(f_beta, fstar_beta) is None
    for i in range(5):
        assert verify_adjunction(power(f_beta, i), power(fstar_beta, i)) is None
    from adjointkit import gfp_meet, lfp_join

    assert verify_adjunction(lfp_join(f_beta), gfp_meet(fstar_beta)) is None


@pytest.mark.parametrize("seed", range(6))
def test_common_knowledge_below_information(seed):
    rng = random.Random(800 + seed)
    lat = random_lattice(rng)
    m = random_mama(rng, lat, 3)
    group = list(m.agents)
    ck = m.common_knowledge(group)
    gi = m.group_information(group)
    for agent in group:
        fi = m.information_map(agent)
        for e in lat.elements:
            assert lat.leq_(ck(e), gi(e))
            assert lat.leq_(gi(e), fi(e))


@pytest.mark.parametrize("seed", range(8))
def test_unbounded_ck_evaluates_to_common_knowledge(seed):
    """The evaluator meets the iterates of the group information map at the
    point; MAMA.common_knowledge iterates whole maps to their fixpoint."""
    rng = random.Random(900 + seed)
    lat = random_lattice(rng)
    m = random_mama(rng, lat, rng.randint(1, 3))
    alg = DynamicAlgebra(m, {}, {}, {}, ())
    for size in range(1, len(m.agents) + 1):
        group = tuple(rng.sample(m.agents, size))
        ck = m.common_knowledge(group)
        for e in lat.elements:
            assert evaluate(lat, {"x": e}, alg, CK(group, Atom("x"))) == ck(e)


# -- co-closure consequences -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_coclosure_matches_the_element_wise_check(seed):
    """The report's witness is the element-wise scan's first element against
    f_A <= id; where there is none, the scans find weak idempotence and
    every consequence on every element."""
    rng = random.Random(1000 + seed)
    lat = random_lattice(rng)
    make = random_decreasing_map if seed % 2 else random_join_map
    m = MAMA(lat, {"A": right_adjoint(make(rng, lat))})
    got, want = check_coclosure_consequences(m, "A"), reference_coclosure(m, "A")
    assert CoclosureReport.__slots__ == ("agent", "decreasing_witness")
    assert got.agent == "A"
    assert got.decreasing_witness is want["decreasing_witness"]
    assert got.hypotheses_hold is (want["decreasing_witness"] is None)
    if got.hypotheses_hold:
        assert coclosure_consequences_hold(want)
        assert (want["negative_introspection"] is None) is not lat.is_boolean


def test_coclosure_identity(coin2):
    m = identity_mama(coin2)
    rep = check_coclosure_consequences(m, "A")
    assert rep.hypotheses_hold and rep.decreasing_witness is None
    ref = reference_coclosure(m, "A")
    assert coclosure_consequences_hold(ref) and ref["negative_introspection"] is True


def test_coclosure_interior_map(coin2):
    s = coin2.subset
    m = build_mama(coin2, {"A": {s(["h"]): s(["h"]), s(["t"]): coin2.bottom}})
    rep = check_coclosure_consequences(m, "A")
    assert rep.hypotheses_hold
    ref = reference_coclosure(m, "A")
    assert coclosure_consequences_hold(ref) and ref["knowledge_fixpoint"] is True


def test_coclosure_coin_hypotheses_fail(coin_mama, coin2):
    rep = check_coclosure_consequences(coin_mama, "A")
    assert not rep.hypotheses_hold
    assert rep.decreasing_witness is coin2.subset(["h"])
    assert reference_coclosure(coin_mama, "A")["decreasing_witness"] is rep.decreasing_witness
