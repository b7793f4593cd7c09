"""Edge paths not naturally hit by the main suites."""

import pytest

from adjointkit import (
    ForeignElement,
    NotMeetPreserving,
    ResolutionError,
    UnknownAction,
    build_from_order,
    gfp_meet_reflexive,
    identity_map,
    map_from_table,
    parse_scenario,
    powerset_lattice,
)
from adjointkit.maps import MEET_PRESERVING, pointwise_meet, right_adjoint
from adjointkit.quantale import ActionQuantale
from conftest import coin_appearance


def test_map_from_table_meet_claim_validated(coin2):
    h, t = coin2.subset(["h"]), coin2.subset(["t"])
    with pytest.raises(NotMeetPreserving):
        map_from_table(coin2, [coin2.bottom, h, t, h], MEET_PRESERVING)


def test_gfp_meet_reflexive(coin2):
    fstar = right_adjoint(coin_appearance(coin2)).right
    refl = gfp_meet_reflexive(fstar)
    for e in coin2.elements:
        assert coin2.leq_(refl(e), e)
    assert refl == pointwise_meet(identity_map(coin2, MEET_PRESERVING), fstar)


def test_element_lookup_by_name():
    lat = build_from_order(["x", "y"], [("x", "y")])
    assert lat.element("x") == lat.bottom
    with pytest.raises(ForeignElement):
        lat.element("zz")


def test_subset_unknown_world(coin2):
    with pytest.raises(ForeignElement):
        coin2.subset(["nope"])


def test_quantale_element_validation():
    q = ActionQuantale(["a"], 2)
    with pytest.raises(UnknownAction):
        q.element([("b",)])
    assert q.leq(q.singleton("a"), q.join(q.singleton("a"), q.unit))
    assert not q.leq(q.unit, q.bottom)


def test_semantic_action_appearance_resolution():
    from importlib import resources

    from adjointkit import instantiate
    from adjointkit.semantics import eval_term
    from adjointkit.terms import parse_term

    text = (resources.files("adjointkit") / "scenarios" / "coin-lying-model.scn").read_text()
    inst = instantiate(parse_scenario(text))
    model = inst.model
    # f'[A](abar) resolves to a: the two updates agree pointwise
    via_ref = eval_term(model, parse_term("upd[f'[A](abar)](H)"))
    direct = eval_term(model, parse_term("upd[a](H)"))
    assert via_ref == direct


def test_duplicate_declarations_rejected():
    base = "version 1\nscenario d\nmode semantic\nworlds w\n"
    with pytest.raises(ResolutionError):
        parse_scenario(base + "agent A\nend\nagent A\nend\n")
    with pytest.raises(ResolutionError):
        parse_scenario(base + "prop w = w\n")
    with pytest.raises(ResolutionError):
        parse_scenario(
            base + "agent A\n  sees w -> w\nend\n"
            "query q check w |= w\nquery q check w |= w\n"
        )
    repeats = [
        ("agent A\n  sees w -> w\n  sees w -> bot\nend\n", "agent 'A' repeats 'sees w'"),
        ("action a\n  update w -> w\n  update w -> bot\nend\n", "action 'a' repeats 'update w'"),
        ("agent A\n  sees w -> w\nend\naction a\n  update w -> w\n  appears A -> a\n"
         "  appears A -> a\nend\n", "action 'a' repeats 'appears A'"),
    ]
    for block, message in repeats:
        with pytest.raises(ResolutionError, match=message):
            parse_scenario(base + block)


def test_powerset_of_one_world():
    lat = powerset_lattice(["only"])
    assert lat.n == 2
    assert lat.is_boolean
    assert lat.join_irreducibles() == (lat.top,)


def test_bounded_ck_stops_at_the_first_repeated_iterate(monkeypatch):
    from importlib import resources
    from itertools import combinations

    from adjointkit import instantiate
    from adjointkit.epistemic import MAMA
    from adjointkit.semantics import SemanticModel, eval_term
    from adjointkit.terms import CK, Atom

    applied = 0
    group_information = MAMA.group_information

    def counted(self, group):
        g = group_information(self, group)

        def step(x):
            nonlocal applied
            applied += 1
            return g(x)

        return step

    for name in ("muddy-3.scn", "coin-lying-model.scn"):
        text = (resources.files("adjointkit") / "scenarios" / name).read_text()
        model = instantiate(parse_scenario(text)).model
        lat = model.lattice
        agents = model.algebra.mama.agents
        for x in lat.elements[:: max(1, lat.n // 16)]:
            at_x = SemanticModel(model.algebra, {"x": x})
            for size in range(1, len(agents) + 1):
                for group in combinations(agents, size):
                    # the meet of every iterate up to bound 64, with no early stop
                    g = group_information(model.algebra.mama, group)
                    want = cur = x
                    for _ in range(64):
                        cur = g(cur)
                        want = lat.meet2(want, cur)
                    with monkeypatch.context() as m:
                        m.setattr(MAMA, "group_information", counted)
                        applied = 0
                        got = eval_term(at_x, CK(group, Atom("x"), 2_000_000))
                    assert got == want == eval_term(at_x, CK(group, Atom("x"), 64))
                    assert applied <= lat.n
