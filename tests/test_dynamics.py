"""Dynamic algebra validation: no-miracle, kernels, facts, eventually."""

import random

import pytest

from adjointkit import (
    ActionLabel,
    EmptyActionSet,
    NoMiracleViolation,
    UnknownAction,
    build_dynamic_algebra,
    build_mama,
    powerset_lattice,
)
from adjointkit.dynamics import DynamicAlgebra
from adjointkit.maps import right_adjoint
from conftest import honest_coin_model, random_join_map, random_lattice, random_mama


def reference_kernel(alg, action):
    """The kernel by a scan: every element the update sends to bottom."""
    h = alg.update_map(action)
    return tuple(e for e in alg.lattice.elements if h(e) is alg.lattice.bottom)


def reference_fact_stability(alg, converse=False):
    """Every (a, phi, l) against fact stability by a scan of all elements:
    l <= phi but not h_a(l) <= phi, or with converse h_a(l) <= phi but not
    l <= phi; communication actions, facts and elements in order."""
    lat = alg.lattice
    out = []
    for a in alg.communication_actions:
        h = alg.update_map(a)
        for phi in alg.facts:
            for l in lat.elements:
                below, image_below = lat.leq_(l, phi), lat.leq_(h(l), phi)
                if (image_below and not below) if converse else (below and not image_below):
                    out.append((a, phi, l))
    return tuple(out)


def random_unvalidated_algebra(rng):
    """Random updates, communication flags and facts on a random MAMA,
    built without the no-miracle and fact-stability checks."""
    lat = random_lattice(rng)
    mama = random_mama(rng, lat, rng.randint(1, 2))
    names = [f"a{i}" for i in range(rng.randint(1, 3))]
    labels = {a: ActionLabel(a, rng.random() < 0.7) for a in names}
    update = {a: right_adjoint(random_join_map(rng, lat)) for a in names}
    appearance = {agent: {a: a for a in names} for agent in mama.agents}
    facts = tuple(rng.choice(lat.elements) for _ in range(rng.randint(0, 3)))
    return DynamicAlgebra(mama, labels, update, appearance, facts)


def uncertainty_gens(lat):
    s = lat.subset
    return {
        s(["h0"]): s(["h0", "t0"]),
        s(["t0"]): s(["h0", "t0"]),
        s(["h1"]): s(["h1"]),
    }


def test_honest_coin_validates():
    alg = honest_coin_model()
    assert set(alg.actions) == {"a"}
    assert alg.communication_actions == ("a",)


def test_identity_appearance_tolerates_any_update(coin3):
    mama = build_mama(coin3, {"A": {j: j for j in coin3.join_irreducibles()}})
    s = coin3.subset
    updates = {"a": {s(["h0"]): s(["t0"]), s(["t0"]): coin3.top, s(["h1"]): s(["h0"])}}
    alg = build_dynamic_algebra(mama, [ActionLabel("a")], updates)
    assert not list(alg.no_miracle_violations(full_lattice=True))


def test_no_miracle_violation_with_witness(coin3):
    s = coin3.subset
    gens = uncertainty_gens(coin3)
    broken = dict(gens)
    broken[s(["h1"])] = s(["h0"])
    mama = build_mama(coin3, {"A": broken})
    updates = {"a": {s(["h0"]): s(["h1"]), s(["t0"]): coin3.bottom, s(["h1"]): coin3.bottom}}
    with pytest.raises(NoMiracleViolation) as err:
        build_dynamic_algebra(mama, [ActionLabel("a")], updates)
    assert err.value.agent == "A"
    assert err.value.element == s(["h0"])
    assert err.value.lhs == s(["h0"])
    assert err.value.rhs == s(["h1"])


def test_kernel_of_honest_action():
    alg = honest_coin_model()
    lat = alg.lattice
    kernel = alg.kernel("a")
    assert kernel == reference_kernel(alg, "a")
    dead = lat.subset(["t0", "h1"])
    assert set(kernel) == {e for e in lat.elements if lat.leq_(e, dead)}
    assert alg.declared_kernels == {"a": (lat.subset(["t0"]),)}


def test_kernel_downclosed_and_join_closed():
    alg = honest_coin_model()
    lat = alg.lattice
    kernel = set(alg.kernel("a"))
    assert lat.bottom in kernel
    for x in kernel:
        for y in lat.elements:
            if lat.leq_(y, x):
                assert y in kernel
        for y in kernel:
            assert lat.join2(x, y) in kernel


def test_kernel_identity_and_constant_bottom(coin2):
    mama = build_mama(coin2, {"A": {j: j for j in coin2.join_irreducibles()}})
    updates = {
        "id": {j: j for j in coin2.join_irreducibles()},
        "kill": {j: coin2.bottom for j in coin2.join_irreducibles()},
    }
    alg = build_dynamic_algebra(mama, ["id", "kill"], updates)
    assert alg.kernel("id") == (coin2.bottom,)
    assert alg.kernel("kill") == coin2.elements


def test_kernel_mismatch_reported():
    # the build takes declared kernels as given; scenario.instantiate is
    # where a declared atom outside the kernel is refused
    lat = powerset_lattice(["h0", "t0", "h1"])
    s = lat.subset
    mama = build_mama(lat, {"A": uncertainty_gens(lat)})
    updates = {"a": {s(["h0"]): s(["h1"]), s(["t0"]): lat.bottom, s(["h1"]): lat.bottom}}
    alg = build_dynamic_algebra(
        mama, [ActionLabel("a", True)], updates,
        facts=(s(["h0", "h1"]),),
        declared_kernels={"a": (s(["t0"]), s(["h0"]))},  # {h0} is not annihilated
    )
    kernel = alg.kernel("a")
    assert s(["t0"]) in kernel and s(["h0"]) not in kernel
    assert kernel == reference_kernel(alg, "a")


def test_unknown_action(coin3):
    alg = honest_coin_model()
    with pytest.raises(UnknownAction):
        alg.kernel("b")
    with pytest.raises(UnknownAction):
        alg.update_map("b")


def test_fact_stability_forward_and_strict():
    alg = honest_coin_model()
    lat = alg.lattice
    assert alg.fact_stability_report() == ()
    converse = alg.fact_stability_report(converse=True)
    assert converse
    assert ("a", lat.subset(["h0", "h1"]), lat.subset(["t0"])) in converse
    # each breach is one of the converse: h_a(l) <= phi but l is not
    for a, phi, l in converse:
        assert lat.leq_(alg.update_map(a)(l), phi) and not lat.leq_(l, phi)


def test_kernel_and_fact_stability_match_the_element_scans():
    rng = random.Random(4242)
    breached = {False: 0, True: 0}
    stable = nontrivial_kernels = 0
    for _ in range(150):
        alg = random_unvalidated_algebra(rng)
        for converse in (False, True):
            got = alg.fact_stability_report(converse=converse)
            assert got == reference_fact_stability(alg, converse)
            # a limited report is the full one cut short
            for limit in (1, 4):
                assert alg.fact_stability_report(converse, limit) == got[:limit]
            breached[converse] += bool(got)
            stable += not got and bool(alg.facts) and bool(alg.communication_actions)
        for a in alg.actions:
            kernel = alg.kernel(a)
            assert kernel == reference_kernel(alg, a)
            nontrivial_kernels += len(kernel) > 1
    assert min(breached.values()) >= 20 and stable >= 20 and nontrivial_kernels >= 20


def test_fact_stability_vacuous_without_facts(coin2):
    mama = build_mama(coin2, {"A": {j: j for j in coin2.join_irreducibles()}})
    updates = {"a": {j: coin2.bottom for j in coin2.join_irreducibles()}}
    alg = build_dynamic_algebra(mama, [ActionLabel("a", True)], updates)
    assert alg.fact_stability_report() == alg.fact_stability_report(converse=True) == ()


def test_update_result():
    alg = honest_coin_model()
    lat = alg.lattice
    h1 = lat.subset(["h1"])
    H = lat.subset(["h0", "h1"])
    assert alg.update_result("a", h1) == lat.top
    # the semantic counterpart of the announcement goal:
    # {h0} <= h*_a(f*_A(H)) with f*_A(H) = {h1}
    info_H = alg.mama.information("A", H)
    assert info_H == h1
    assert lat.leq_(lat.subset(["h0"]), alg.update_result("a", info_H))
    assert alg.update_result("a", lat.top) == lat.top


def test_update_identity_adjoint(coin2):
    mama = build_mama(coin2, {"A": {j: j for j in coin2.join_irreducibles()}})
    updates = {"a": {j: j for j in coin2.join_irreducibles()}}
    alg = build_dynamic_algebra(mama, ["a"], updates)
    for e in coin2.elements:
        assert alg.update_result("a", e) == e


def test_adjunction_corollaries_for_updates():
    alg = honest_coin_model()
    lat = alg.lattice
    h = alg.update_map("a")
    hstar = alg.after_map("a")
    for e in lat.elements:
        assert lat.leq_(h(hstar(e)), e)
        assert lat.leq_(e, hstar(h(e)))


def test_eventually():
    alg = honest_coin_model()
    lat = alg.lattice
    assert alg.eventually(["a"], lat.subset(["h1"])) == lat.top
    with pytest.raises(EmptyActionSet):
        alg.eventually([], lat.top)


def test_eventually_identity_and_constant(coin2):
    mama = build_mama(coin2, {"A": {j: j for j in coin2.join_irreducibles()}})
    updates = {
        "id": {j: j for j in coin2.join_irreducibles()},
        "kill": {j: coin2.bottom for j in coin2.join_irreducibles()},
    }
    alg = build_dynamic_algebra(mama, ["id", "kill"], updates)
    for e in coin2.elements:
        assert alg.eventually(["id"], e) == e
    # adjoint of constant-bottom is constant-top
    assert alg.eventually(["kill"], coin2.bottom) == coin2.top


@pytest.mark.parametrize("seed", range(6))
def test_generator_no_miracle_agrees_with_full_lattice(seed):
    rng = random.Random(900 + seed)
    lat = random_lattice(rng)
    mama = random_mama(rng, lat, 2)
    updates = {"a": random_join_map(rng, lat), "b": random_join_map(rng, lat)}
    appearance = {
        agent: {"a": rng.choice(["a", "b"]), "b": rng.choice(["a", "b"])}
        for agent in mama.agents
    }
    from adjointkit import right_adjoint
    from adjointkit.dynamics import DynamicAlgebra

    alg = DynamicAlgebra(
        mama,
        {n: ActionLabel(n) for n in updates},
        {n: right_adjoint(f) for n, f in updates.items()},
        appearance,
        (),
    )
    gen_violations = {(v.agent, v.action) for v in alg.no_miracle_violations()}
    full_violations = {
        (v.agent, v.action) for v in alg.no_miracle_violations(full_lattice=True)
    }
    assert gen_violations == full_violations
