"""Scenario format: parsing, serialization round-trips, instantiation."""

import random
from importlib import resources

import pytest

import adjointkit
from adjointkit import (
    KernelMismatch,
    NoMiracleViolation,
    ParseError,
    ResolutionError,
    instantiate,
    parse_scenario,
    serialize,
)
from adjointkit.scenario import ActionDecl, AgentDecl, Query, ScenarioDoc
from adjointkit import terms as T
from adjointkit.terms import Atom, Or
from conftest import ERROR_REPROS, repro_text


def fixture_text(name: str) -> str:
    return (resources.files("adjointkit") / "scenarios" / name).read_text()


FIXTURES = [
    "coin-honest.scn",
    "coin-lying.scn",
    "coin-lying-model.scn",
    "broken-miracle.scn",
    "muddy-3.scn",
    "muddy-3-lying.scn",
]


def test_coin_honest_parses():
    doc = parse_scenario(fixture_text("coin-honest.scn"))
    assert doc.name == "coin-honest"
    assert doc.mode == "both"
    assert len(doc.agents) == 3
    assert len(doc.actions) == 1
    assert len(doc.queries) == 13
    assert doc.facts == ("H", "T")


@pytest.mark.parametrize("repro", ERROR_REPROS, ids=lambda r: r["id"])
def test_error_repro_raises_its_error_and_message(repro):
    """Each checked-in error repro raises, from parse_scenario or from
    instantiate, its error class with its message, location included."""
    with pytest.raises(getattr(adjointkit, repro["error"])) as err:
        instantiate(parse_scenario(repro_text(repro)))
    assert type(err.value).__name__ == repro["error"]
    assert str(err.value) == repro["message"]


def test_typo_reports_line_and_column():
    text = repro_text("typo-agent")
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == 11
    assert err.value.column == 1
    lines = text.splitlines()
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1


def test_term_error_location_indexes_a_real_character():
    text = repro_text("bad-character-in-prop")
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    lines = text.splitlines()
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1


def test_prove_depth_below_one_is_a_located_parse_error():
    text = repro_text("prove-depth-below-one")
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (6, 29)
    assert "depth must be at least 1" in str(err.value)
    assert parse_scenario(text.replace("depth 0", "depth 1")).queries[0].depth == 1


def test_prove_depth_above_the_limit_is_a_located_parse_error():
    text = repro_text("prove-depth-above-the-limit")
    limit = T.MAX_PROOF_DEPTH
    assert f"depth {limit + 1}\n" in text
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (6, 29)
    assert f"depth must be at most {limit}" in str(err.value)
    text = text.replace(f"depth {limit + 1}", f"depth {limit}")
    assert parse_scenario(text).queries[0].depth == limit


def test_undeclared_action_in_query():
    with pytest.raises(ResolutionError) as err:
        parse_scenario(repro_text("undeclared-action-in-query"))
    assert "'b'" in str(err.value)


def test_version_header_required():
    with pytest.raises(ParseError):
        parse_scenario(repro_text("no-version-header"))


def test_mode_query_compatibility():
    for repro in ("check-in-symbolic", "prove-in-semantic", "evaluate-in-symbolic"):
        with pytest.raises(ResolutionError):
            parse_scenario(repro_text(repro))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name):
    doc = parse_scenario(fixture_text(name))
    assert parse_scenario(serialize(doc)) == doc


def test_serializer_is_stable():
    doc = parse_scenario(fixture_text("coin-honest.scn"))
    once = serialize(doc)
    assert serialize(parse_scenario(once)) == once


def test_poset_carrier_round_trip():
    text = "\n".join(
        [
            "version 1",
            "scenario chain",
            "mode semantic",
            "poset",
            "  b < m",
            "  m < t",
            "end",
            "agent A",
            "  sees m -> m",
            "  sees t -> t",
            "end",
            "query q1 check m |= t",
            "query q2 check t |= fi[A](m) expect fails",
        ]
    )
    doc = parse_scenario(text)
    assert doc.has_poset
    assert parse_scenario(serialize(doc)) == doc
    inst = instantiate(doc)
    assert inst.model.lattice.n == 3


def test_one_element_poset_scenario():
    text = "\n".join(
        [
            "version 1",
            "scenario point",
            "mode semantic",
            "poset",
            "  solo",
            "end",
            "agent A",
            "end",
            "query q1 check solo |= top",
        ]
    )
    doc = parse_scenario(text)
    assert parse_scenario(serialize(doc)) == doc
    inst = instantiate(doc)
    assert inst.model.lattice.n == 1
    assert inst.model.lattice.bottom == inst.model.lattice.top


def test_symbolic_doc_serializes_without_updates():
    doc = parse_scenario(fixture_text("coin-lying.scn"))
    text = serialize(doc)
    assert "update" not in text
    assert "sees" not in text


from hypothesis import given, settings, strategies as st


@given(st.text(alphabet=st.sampled_from(list("abfiK \n#<>[]()~/\\|=->:_0123q")), max_size=300))
@settings(max_examples=200, deadline=None)
def test_parser_rejects_garbage_gracefully(text):
    """Arbitrary input either parses or raises a located ParseError or a
    ResolutionError; nothing else escapes and locations stay in bounds."""
    try:
        parse_scenario(text)
    except ParseError as err:
        lines = text.splitlines() or [""]
        assert 1 <= err.line <= max(1, len(lines))
        assert 1 <= err.column <= len(lines[err.line - 1]) + 2
    except ResolutionError:
        pass


def _random_doc(rng: random.Random) -> ScenarioDoc:
    n_worlds = rng.randint(1, 3)
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    props = []
    pool = list(worlds)
    for i in range(rng.randint(0, 2)):
        t = Atom(rng.choice(pool))
        if rng.random() < 0.6:
            t = Or(t, Atom(rng.choice(pool)))
        props.append((f"p{i}", t))
        pool.append(f"p{i}")
    agents = tuple(
        AgentDecl(
            f"G{i}",
            sees=tuple((w, Atom(rng.choice(list(worlds)))) for w in worlds),
            defs=tuple(
                ((f"p{j}", Atom(rng.choice(list(worlds)))) for j in range(len(props)))
            )
            if rng.random() < 0.5
            else (),
        )
        for i in range(rng.randint(1, 2))
    )
    actions = ()
    if rng.random() < 0.5 and agents:
        actions = (
            ActionDecl(
                "act0",
                communication=rng.random() < 0.5,
                updates=tuple((w, Atom(rng.choice(list(worlds)))) for w in worlds),
                appears=tuple((a.name, "act0") for a in agents),
                kernel=(),
            ),
        )
    queries = (Query("q0", "evaluate", lhs=Atom(rng.choice(pool))),)
    return ScenarioDoc(
        name=f"rand{rng.randint(0, 999)}",
        mode="both",
        description="generated" if rng.random() < 0.5 else None,
        worlds=worlds,
        props=tuple(props),
        agents=agents,
        actions=actions,
        facts=(),
        queries=queries,
    )


@pytest.mark.parametrize("seed", range(30))
def test_random_doc_round_trip(seed):
    doc = _random_doc(random.Random(seed))
    assert parse_scenario(serialize(doc)) == doc


# -- instantiation -----------------------------------------------------------------


def test_instantiate_coin_honest():
    inst = instantiate(parse_scenario(fixture_text("coin-honest.scn")))
    assert inst.model is not None and inst.assumptions is not None
    assert inst.model.lattice.n == 8
    assert set(inst.model.algebra.actions) == {"a"}
    assert inst.assumptions.kernels["a"] == frozenset({"T"})
    # H is bound to {h0, h1}
    assert inst.model.atoms["H"].name == "{h0,h1}"
    # the known tension: f(T) definitions cannot be realized in this model
    assert len(inst.realization_warnings) == 3
    assert all("(T)" in w for w in inst.realization_warnings)


def test_instantiate_coin_lying_assumptions():
    inst = instantiate(parse_scenario(fixture_text("coin-lying.scn")))
    assert inst.model is None
    a = inst.assumptions
    assert a.action_appearance[("A", "abar")] == "a"
    assert a.action_appearance[("B", "abar")] == "a"
    assert a.action_appearance[("C", "abar")] == "abar"
    assert a.kernels["abar"] == frozenset({"H"})
    assert a.kernels["a"] == frozenset({"T"})
    assert a.facts == frozenset({"H", "T"})


def test_instantiate_muddy():
    inst = instantiate(parse_scenario(fixture_text("muddy-3.scn")))
    assert inst.model.lattice.n == 256
    assert len(inst.model.algebra.mama.agents) == 3
    assert not inst.model.algebra.actions


def test_lying_model_fixture_matches_the_reference_model():
    """The shipped 4-world scenario instantiates exactly the companion
    model the acceptance suite builds in code."""
    from conftest import lying_coin_model

    inst = instantiate(parse_scenario(fixture_text("coin-lying-model.scn")))
    reference = lying_coin_model()
    alg = inst.model.algebra
    assert set(alg.actions) == set(reference.actions)
    for name in alg.actions:
        assert alg.update_map(name).table == reference.update_map(name).table
    for agent in alg.mama.agents:
        assert (
            alg.mama.appearance_map(agent).table
            == reference.mama.appearance_map(agent).table
        )
        for action in alg.actions:
            assert alg.appeared_action(agent, action) == reference.appeared_action(
                agent, action
            )


def test_instantiate_broken_miracle_raises():
    with pytest.raises(NoMiracleViolation):
        instantiate(parse_scenario(fixture_text("broken-miracle.scn")))


def test_declared_kernel_must_be_realized():
    with pytest.raises(KernelMismatch, match=r"^action 'a': declared kernel atoms not "
                       r"annihilated: \{h0,h1\}$"):
        instantiate(parse_scenario(repro_text("kernel-not-annihilated")))
