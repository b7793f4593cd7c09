"""Bounded word quantale, appearance lifts, and the epistemic-system view."""

import random
import re
from argparse import Namespace
from collections import Counter
from itertools import product

import pytest

from adjointkit import (
    ActionLabel,
    ActionQuantale,
    AdjointPair,
    DynamicAlgebra,
    GeneratorMismatch,
    NotJoinPreserving,
    QuantaleLift,
    WordLengthExceeded,
    binary_to_indexed,
    build_dynamic_algebra,
    build_mama,
    check_epistemic_quantale,
    check_epistemic_system,
    check_quantale_laws,
    indexed_to_binary,
    lift_action_appearance,
    powerset_lattice,
    right_adjoint,
)
from adjointkit import cli, dynamics
from adjointkit.epistemic import MAMA
from adjointkit.maps import LatticeMap
from adjointkit.quantale import (
    EpistemicSystemView,
    LawCheck,
    fmt_q,
    fmt_word,
)
from adjointkit.scenario import Instantiated
from adjointkit.semantics import SemanticModel
from conftest import (
    built_models,
    honest_coin_model,
    random_join_map,
    scenario_texts,
    table_twin,
    twin_algebra,
)


@pytest.fixture
def two_gen():
    return ActionQuantale(["a", "abar"], max_word_length=2)


def test_unit_and_composition(two_gen):
    q = two_gen
    assert q.unit == frozenset({()})
    assert q.compose(q.singleton("a"), q.singleton("abar")) == frozenset({("a", "abar")})
    assert q.compose(q.unit, q.singleton("a")) == q.singleton("a")
    assert q.compose(q.singleton("a"), q.unit) == q.singleton("a")


def test_word_length_overflow(two_gen):
    q = two_gen
    aab = q.element([("a", "abar")])
    with pytest.raises(WordLengthExceeded):
        q.compose(q.singleton("a"), aab)
    with pytest.raises(WordLengthExceeded):
        q.element([("a", "a", "a")])


def test_join_is_union(two_gen):
    q = two_gen
    assert q.join(q.singleton("a"), q.singleton("abar")) == q.element([("a",), ("abar",)])
    assert q.join() == q.bottom


def test_quantale_laws(two_gen):
    assert check_quantale_laws(two_gen).ok


def lying_model():
    """Honest update plus a lying announcement that A and B hear as honest."""
    lat = powerset_lattice(["h0", "t0", "h1"])
    s = lat.subset
    gens = {
        s(["h0"]): s(["h0", "t0"]),
        s(["t0"]): s(["h0", "t0"]),
        s(["h1"]): s(["h1"]),
    }
    ident = {j: j for j in lat.join_irreducibles()}
    mama = build_mama(lat, {"A": dict(gens), "B": dict(gens), "C": ident})
    updates = {
        "a": {s(["h0"]): s(["h1"]), s(["t0"]): lat.bottom, s(["h1"]): lat.bottom},
        "abar": {s(["h0"]): lat.bottom, s(["t0"]): s(["h1"]), s(["h1"]): lat.bottom},
    }
    appearance = {
        "A": {"abar": "a"},
        "B": {"abar": "a"},
        "C": {},
    }
    return build_dynamic_algebra(
        mama,
        [ActionLabel("a", True), ActionLabel("abar", True)],
        updates,
        appearance,
    )


def test_letterwise_lift(two_gen):
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    lifts = lift_action_appearance(alg, q)
    assert lifts["A"].apply(q.element([("abar", "abar")])) == q.element([("a", "a")])
    assert lifts["C"].apply(q.element([("abar",)])) == q.element([("abar",)])
    assert lifts["A"].apply(q.unit) == q.unit


def test_lift_generator_mismatch(two_gen):
    alg = honest_coin_model()
    with pytest.raises(GeneratorMismatch):
        lift_action_appearance(alg, two_gen)


def test_epistemic_quantale_letterwise_passes_both_modes():
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    lifts = lift_action_appearance(alg, q)
    assert check_epistemic_quantale(q, lifts).ok
    assert check_epistemic_quantale(q, lifts, non_paranoid=True).ok


@pytest.mark.parametrize("non_paranoid", [False, True])
def test_epistemic_quantale_rows_are_named_by_the_system_laws(non_paranoid):
    # the CLI names its system rows by dynamics.system_laws, and
    # check_epistemic_quantale spells out its own: both reports must name
    # the same laws, per agent and in order
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    report = check_epistemic_quantale(q, lift_action_appearance(alg, q), non_paranoid)
    names = [c.name for c in report.checks]
    laws = dynamics.system_laws(alg.mama.agents, non_paranoid)
    assert [n for n in names if "[" in n] == [n for n in laws if "[" in n]
    assert names == list(laws[:len(names)])


def test_optimistically_paranoid_unit():
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    lifts = lift_action_appearance(alg, q)
    images = dict(lifts["A"].word_images)
    images[()] = q.join(q.unit, q.singleton("a"))  # f'(1) = {1, a}
    lifts = dict(lifts)
    lifts["A"] = QuantaleLift(q, images)
    lax = check_epistemic_quantale(q, lifts)
    assert lax.ok
    strict = check_epistemic_quantale(q, lifts, non_paranoid=True)
    assert not strict.ok
    assert any(c.name == "unit-equality[A]" for c in strict.failures())


def test_paranoid_unit_fails_with_witness():
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    lifts = lift_action_appearance(alg, q)
    images = dict(lifts["A"].word_images)
    images[()] = q.singleton("a")  # f'(1) = {a}: not even optimistic
    lifts = dict(lifts)
    lifts["A"] = QuantaleLift(q, images)
    report = check_epistemic_quantale(q, lifts)
    failures = report.failures()
    assert any(c.name == "unit-inclusion[A]" and c.witness for c in failures)


# -- epistemic system view ---------------------------------------------------------


def test_act_unit_law():
    alg = honest_coin_model()
    q = ActionQuantale(["a"], 3)
    view = indexed_to_binary(alg, q)
    for e in alg.lattice.elements:
        assert view.act(e, q.unit) == e


def test_act_on_generator_and_choice():
    alg = lying_model()
    lat = alg.lattice
    q = ActionQuantale(["a", "abar"], 2)
    view = indexed_to_binary(alg, q)
    h0 = lat.subset(["h0"])
    assert view.act(h0, q.singleton("a")) == lat.subset(["h1"])
    choice = q.join(q.singleton("a"), q.singleton("abar"))
    for e in lat.elements:
        expected = lat.join2(alg.update_map("a")(e), alg.update_map("abar")(e))
        assert view.act(e, choice) == expected


def test_act_composition_is_sequencing():
    alg = lying_model()
    lat = alg.lattice
    q = ActionQuantale(["a", "abar"], 2)
    view = indexed_to_binary(alg, q)
    word = q.element([("a", "abar")])
    for e in lat.elements:
        assert view.act(e, word) == alg.update_map("abar")(alg.update_map("a")(e))
    # updates that need not commute: every word applies its letters in order
    rng = random.Random(44)
    for _ in range(20):
        alg = random_informed_model(rng)
        q = ActionQuantale(alg.actions, 3)
        view = indexed_to_binary(alg, q)
        for w in q.words():
            for e in alg.lattice.elements:
                x = e
                for letter in w:
                    x = alg.update_map(letter)(x)
                assert view.act(e, frozenset({w})) == x


def test_round_trip_restores_generators():
    alg = lying_model()
    q = ActionQuantale(["a", "abar"], 2)
    back = binary_to_indexed(indexed_to_binary(alg, q))
    for name in alg.actions:
        assert back.update_map(name) == alg.update_map(name)
        assert back.after_map(name) == alg.after_map(name)


def test_epistemic_system_honest_coin_bound3():
    alg = honest_coin_model()
    q = ActionQuantale(["a"], 3)
    report = check_epistemic_system(indexed_to_binary(alg, q))
    assert report.ok, report.failures()


def test_epistemic_system_degenerate_identity(coin2):
    mama = build_mama(coin2, {"A": {j: j for j in coin2.join_irreducibles()}})
    updates = {"a": {j: j for j in coin2.join_irreducibles()}}
    alg = build_dynamic_algebra(mama, ["a"], updates)
    report = check_epistemic_system(indexed_to_binary(alg, ActionQuantale(["a"], 3)))
    assert report.ok


# -- word cap ----------------------------------------------------------------------


def test_word_cap_is_checked_before_any_word_is_listed(monkeypatch):
    def no_words(self):
        raise AssertionError("words() called before the cap was checked")

    monkeypatch.setattr(ActionQuantale, "words", no_words)
    with pytest.raises(WordLengthExceeded, match="more than 1024 words"):
        ActionQuantale(["a", "abar"], 64)
    with pytest.raises(WordLengthExceeded):
        ActionQuantale(["a", "abar"], 10)   # 2,047 words
    with pytest.raises(WordLengthExceeded):
        ActionQuantale(["a"], 1024)         # 1,025 words
    ActionQuantale(["a"], 1023)             # 1,024 words


def test_word_cap_admits_two_generators_at_bound_nine():
    q = ActionQuantale(["a", "abar"], 9)
    assert len(q.words()) == 1023


# -- free-monoid laws --------------------------------------------------------------


@pytest.mark.parametrize("generators, bound", [
    (["a"], 5), (["a", "b"], 3), (["a", "b", "c"], 2), (["a", "b", "c"], 3), (["a", "b"], 1),
])
def test_free_monoid_laws_on_composable_triples(generators, bound):
    """Concatenation of bounded words is associative, has the empty word as
    unit and distributes over union, on every triple that stays in bounds;
    check_quantale_laws reports exactly that."""
    q = ActionQuantale(generators, bound)
    words = q.words()
    triples = [(w, v, u) for w in words for v in words for u in words
               if len(w) + len(v) + len(u) <= bound]
    assert triples
    for w, v, u in triples:
        a, b, c = (frozenset({x}) for x in (w, v, u))
        assert q.compose(q.compose(a, b), c) == q.compose(a, q.compose(b, c)) == {w + v + u}
        assert q.compose(q.unit, a) == a == q.compose(a, q.unit)
        assert q.compose(a, q.join(b, c)) == q.join(q.compose(a, b), q.compose(a, c))
        assert q.compose(q.join(a, b), c) == q.join(q.compose(a, c), q.compose(b, c))
    report = check_quantale_laws(q)
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("compose-associative", True, None),
        ("unit-law", True, None),
        ("compose-distributes-over-union", True, None),
    ]
    assert report.checks == reference_quantale_laws(q)


# -- table-based system laws against the act loops ---------------------------------


def _canonical_unions(q):
    """Small deterministic family of non-singleton elements for union laws."""
    words = q.words()
    fam = [q.bottom, q.unit, frozenset(words)]
    for i in range(len(words) - 1):
        fam.append(frozenset({words[i], words[i + 1]}))
    return fam


def reference_quantale_laws(q):
    """check_quantale_laws as loops: associativity on every composable word
    triple, the unit laws and distribution over union on the canonical
    unions."""
    words = q.words()
    wit = None
    for w, v, u in product(words, repeat=3):
        if len(w) + len(v) + len(u) > q.max_word_length:
            continue
        a, b, c = (frozenset({x}) for x in (w, v, u))
        if q.compose(q.compose(a, b), c) != q.compose(a, q.compose(b, c)):
            wit = f"({fmt_word(w)}, {fmt_word(v)}, {fmt_word(u)})"
            break
    checks = [LawCheck("compose-associative", wit is None, wit)]

    wit = None
    for p in _canonical_unions(q):
        if q.compose(q.unit, p) != p or q.compose(p, q.unit) != p:
            wit = fmt_q(p)
            break
    checks.append(LawCheck("unit-law", wit is None, wit))

    wit = None
    for p in _canonical_unions(q):
        longest = max((len(w) for w in p), default=0)
        for v in words:
            if len(v) + longest > q.max_word_length:
                continue
            s = frozenset({v})
            rhs = q.join(*(q.compose(s, frozenset({w})) for w in p))
            if q.compose(s, p) != rhs:
                wit = f"{fmt_q(s)} . {fmt_q(p)}"
                break
        if wit:
            break
    checks.append(LawCheck("compose-distributes-over-union", wit is None, wit))
    return tuple(checks)


def reference_epistemic_quantale(q, lifts, non_paranoid=False):
    """check_epistemic_quantale as one loop per mode, judged through apply."""
    checks = list(reference_quantale_laws(q))
    for agent, lift in lifts.items():
        wit = None
        for p in _canonical_unions(q):
            parts = [lift.apply(frozenset({w})) for w in p]
            if lift.apply(p) != frozenset().union(*parts):
                wit = fmt_q(p)
                break
        checks.append(LawCheck(f"lift-join-preserving[{agent}]", wit is None, wit))

        unit_img = lift.apply(q.unit)
        ok = unit_img == q.unit if non_paranoid else q.unit <= unit_img
        checks.append(LawCheck(
            f"unit-{'equality' if non_paranoid else 'inclusion'}[{agent}]",
            ok, None if ok else f"f'({fmt_q(q.unit)}) = {fmt_q(unit_img)}",
        ))

        wit = None
        for w, v in product(q.words(), repeat=2):
            if len(w) + len(v) > q.max_word_length:
                continue
            lhs = lift.apply(frozenset({w + v}))
            try:
                rhs = q.compose(lift.apply(frozenset({w})), lift.apply(frozenset({v})))
            except WordLengthExceeded:
                continue
            if not (lhs == rhs if non_paranoid else lhs <= rhs):
                wit = f"f'({fmt_word(w)} . {fmt_word(v)}) = {fmt_q(lhs)} vs {fmt_q(rhs)}"
                break
        checks.append(LawCheck(
            f"compose-{'equality' if non_paranoid else 'lax'}[{agent}]", wit is None, wit,
        ))
    return tuple(checks)


def reference_epistemic_system(view, non_paranoid=False):
    """check_epistemic_system as element loops over view.act, on every
    composable word pair and every word."""
    alg, q, lat = view.algebra, view.quantale, view.lattice
    lifts = lift_action_appearance(alg, q)
    checks = list(reference_epistemic_quantale(q, lifts, non_paranoid))

    wit = None
    for e in lat.elements:
        if view.act(e, q.unit) != e:
            wit = e.name
            break
    checks.append(LawCheck("act-unit", wit is None, wit))

    wit = None
    for e in lat.elements:
        if view.act(e, q.bottom) != lat.bottom:
            wit = f"h({e.name}, 0)"
            break
        for p in _canonical_unions(q):
            if view.act(e, p) != lat.join([view.act(e, frozenset({w})) for w in p]):
                wit = f"h({e.name}, {fmt_q(p)})"
                break
        if wit:
            break
    checks.append(LawCheck("act-join-law", wit is None, wit))

    wit = None
    for w, v in product(q.words(), repeat=2):
        if len(w) + len(v) > q.max_word_length:
            continue
        for e in lat.elements:
            step = view.act(view.act(e, frozenset({w})), frozenset({v}))
            if step != view.act(e, frozenset({w + v})):
                wit = f"h({e.name}, {fmt_word(w)}.{fmt_word(v)})"
                break
        if wit:
            break
    checks.append(LawCheck("act-composition", wit is None, wit))

    wit = None
    for agent in alg.mama.agents:
        f = alg.mama.appearance_map(agent)
        seen_of = lifts[agent]
        for w in q.words():
            seen = seen_of.apply(frozenset({w}))
            for e in lat.elements:
                lhs = f(view.act(e, frozenset({w})))
                rhs = view.act(f(e), seen)
                if not (lhs == rhs if non_paranoid else lat.leq_(lhs, rhs)):
                    wit = f"agent {agent}, word {fmt_word(w)}, at {e.name}"
                    break
            if wit:
                break
        if wit:
            break
    checks.append(LawCheck("lifted-no-miracle", wit is None, wit))
    return tuple(checks)


def random_product_update(rng):
    """A product-update model (Baltag, Moss and Solecki): every action runs
    in one static state s and leads to the post world (s, a); an agent who
    sees s -> R(s) sees (s, a) -> (t, b) for b its appearance of a and t in
    R(s) where b runs. No-miracle holds world by world."""
    states = [f"s{k}" for k in range(rng.randint(1, 2))]
    actions = [f"a{k}" for k in range(rng.randint(1, 2))]
    agents = ["A", "B", "C"][:rng.randint(1, 3)]
    pre = {a: rng.choice(states) for a in actions}
    post = {a: f"{pre[a]}{a}" for a in actions}
    lat = powerset_lattice(states + [post[a] for a in actions])
    s = lat.subset
    sees = {A: {t: rng.sample(states, rng.randint(1, len(states))) for t in states}
            for A in agents}
    appears = {A: {a: rng.choice(actions) for a in actions} for A in agents}
    appearance = {}
    for A in agents:
        gens = {s([t]): s(sees[A][t]) for t in states}
        for a in actions:
            b = appears[A][a]
            gens[s([post[a]])] = s([post[b]] if pre[b] in sees[A][pre[a]] else [])
        appearance[A] = gens
    updates = {
        a: {**{s([t]): s([post[a]] if t == pre[a] else []) for t in states},
            **{s([post[b]]): lat.bottom for b in actions}}
        for a in actions
    }
    return build_dynamic_algebra(build_mama(lat, appearance), actions, updates, appears)


def random_informed_model(rng):
    """Random update maps that need not commute, watched by agents who see
    every world as it is, so no-miracle holds whatever the updates do."""
    worlds = [f"w{k}" for k in range(rng.randint(2, 3))]
    lat = powerset_lattice(worlds)
    s = lat.subset
    actions = [f"a{k}" for k in range(rng.randint(1, 2))]
    updates = {a: {s([w]): s(rng.sample(worlds, rng.randint(0, 2))) for w in worlds}
               for a in actions}
    agents = {A: {s([w]): s([w]) for w in worlds} for A in ["A", "B"][:rng.randint(1, 2)]}
    return build_dynamic_algebra(build_mama(lat, agents), actions, updates)


def unvalidated_algebra(rng, alg):
    """alg with one or two update or appearance maps replaced by random
    join-preserving ones, and maybe a new action appearance, with no
    validation: lifted no-miracle may fail, lax or only as an equality."""
    lat = alg.lattice
    update, pairs = dict(alg.update), dict(alg.mama.pairs)
    for _ in range(rng.randint(1, 2)):
        table = update if rng.random() < 0.5 else pairs
        table[rng.choice(sorted(table))] = right_adjoint(random_join_map(rng, lat))
    appearance = alg.action_appearance
    if rng.random() < 0.3:
        actions = sorted(alg.actions)
        appearance = {agent: {a: rng.choice(actions) for a in actions} for agent in pairs}
    return DynamicAlgebra(MAMA(lat, pairs), alg.actions, update, appearance, alg.facts)


def corrupt_lifts(rng, q, lifts):
    """lifts with one or two word images replaced: the lift laws may fail."""
    words, lifts = q.words(), dict(lifts)
    for _ in range(rng.randint(1, 2)):
        agent = rng.choice(sorted(lifts))
        images = dict(lifts[agent].word_images)
        w = () if rng.random() < 0.25 else rng.choice(words)
        images[w] = frozenset(rng.sample(words, rng.randint(0, 2)))
        lifts[agent] = QuantaleLift(q, images)
    return lifts


def twin_view(view, masks=None):
    """The view moved onto the table twin of its powerset carrier, its
    elements listed in mask order or in the order of the given masks."""
    twin = table_twin(view.lattice, masks)
    return EpistemicSystemView(twin_algebra(view.algebra, twin), view.quantale)


def witness_element(check):
    """The element named by the witness of a failing lifted-no-miracle row."""
    return check.witness.rsplit(" at ", 1)[1]      # agent A, word w, at l


def test_table_checks_match_the_act_loops():
    # built models and unvalidated ones, on their powerset and its table
    # twin: on each, the checker must agree with the act loops, in both modes
    rng = random.Random(20261018)
    failing = Counter()
    for _ in range(150):
        alg = rng.choice([random_product_update, random_informed_model])(rng)
        if rng.random() < 0.7:
            alg = unvalidated_algebra(rng, alg)
        q = ActionQuantale(alg.actions, rng.randint(1, 3))
        view = indexed_to_binary(alg, q)
        twin = twin_view(view)
        for non_paranoid in (False, True):
            report = check_epistemic_system(view, non_paranoid)
            assert report.checks == reference_epistemic_system(view, non_paranoid)
            # what the non-paranoid-equalities row reports
            assert report.equalities == (None if non_paranoid
                                         else check_epistemic_system(view, True))
            assert check_epistemic_system(twin, non_paranoid) == report
            failing.update((c.name, non_paranoid) for c in report.failures())
    assert failing[("lifted-no-miracle", False)] >= 5, failing
    assert failing[("lifted-no-miracle", True)] >= 5, failing
    assert {name for name, _ in failing} == {"lifted-no-miracle"}


def test_system_witnesses_follow_index_order_on_a_scrambled_carrier():
    # the powerset listed top first, the rest shuffled, as an explicit order:
    # index order is no linear extension, so a failing law's first element in
    # index order need not be join-irreducible
    rng = random.Random(918)
    scanned = 0
    for _ in range(100):
        alg = rng.choice([random_product_update, random_informed_model])(rng)
        if rng.random() < 0.7:
            alg = unvalidated_algebra(rng, alg)
        q = ActionQuantale(alg.actions, rng.randint(1, 3))
        view = indexed_to_binary(alg, q)
        masks = list(range(view.lattice.n - 1))
        rng.shuffle(masks)
        scrambled = twin_view(view, [view.lattice.n - 1, *masks])
        lat = scrambled.lattice
        assert lat.elements[0] == lat.top
        irreducibles = {e.name for e in lat.join_irreducibles()}
        for non_paranoid in (False, True):
            report = check_epistemic_system(scrambled, non_paranoid)
            assert report.checks == reference_epistemic_system(scrambled, non_paranoid)
            scanned += any(witness_element(c) not in irreducibles for c in report.failures())
    # bottom and the irreducibles decide the law, but its first witnesses in
    # index order are other elements
    assert scanned >= 5, scanned


def test_cli_system_rows_match_the_system_check():
    # the axiom pass reports lax lifted no-miracle from the build's verdict
    # and decides only the equality form; on built algebras, and on the same
    # algebras moved to a scrambled explicit order, its system rows must be
    # those of the library check on the quantale of the same bound
    rng = random.Random(1212)
    algebras = []
    for _, model in built_models(scenario_texts(dynamic_seeds=(901, 902))):
        alg = model.algebra
        if not alg.actions:
            continue
        masks = list(range(alg.lattice.n - 1))
        rng.shuffle(masks)
        twin = table_twin(alg.lattice, [alg.lattice.n - 1, *masks])
        algebras += [(alg, False), (twin_algebra(alg, twin), True)]
    assert len(algebras) >= 60
    equality_failures = scattered = 0
    for alg, scrambled in algebras:
        irreducibles = {e.name for e in alg.lattice.join_irreducibles()}
        for bound in (1, 2, 3):
            view = indexed_to_binary(alg, ActionQuantale(alg.actions, bound))
            for non_paranoid in (False, True):
                flags = Namespace(non_paranoid=non_paranoid, word_bound=bound,
                                  strict_facts=False)
                rows = cli._axiom_checks(Instantiated(None, SemanticModel(alg, {}), None), flags)
                report = check_epistemic_system(view, non_paranoid)
                expected = [(c.name, c.ok, c.witness or "") for c in report.checks]
                if not non_paranoid:
                    failed = report.equalities.failures()
                    expected.append(("non-paranoid-equalities", None,
                                     f"fail: {failed[0].name}" if failed else "hold"))
                start = [c.name for c in rows].index(expected[0][0])
                assert [(c.name, c.ok, c.detail)
                        for c in rows[start:start + len(expected)]] == expected
                if non_paranoid and not report.ok:
                    equality_failures += 1
                    scattered += scrambled and witness_element(report.checks[-1]) not in irreducibles
    assert equality_failures >= 5, equality_failures
    # the first witness in index order of a scrambled carrier need not be
    # join-irreducible, so the rows cannot come from the irreducible scan
    assert scattered >= 5, scattered


def test_epistemic_quantale_matches_its_loops():
    # arbitrary (paranoid) lifts: check_epistemic_quantale against its loops
    rng = random.Random(20261019)
    failing = Counter()
    for _ in range(150):
        alg = rng.choice([random_product_update, random_informed_model])(rng)
        q = ActionQuantale(alg.actions, rng.randint(1, 3))
        lifts = corrupt_lifts(rng, q, lift_action_appearance(alg, q))
        for non_paranoid in (False, True):
            report = check_epistemic_quantale(q, lifts, non_paranoid)
            assert report.checks == reference_epistemic_quantale(q, lifts, non_paranoid)
            if non_paranoid:
                assert report.equalities is None
            else:
                assert report.equalities.checks == reference_epistemic_quantale(q, lifts, True)
            failing.update(c.name.split("[")[0] for c in report.failures())
    for row in ("unit-inclusion", "unit-equality", "compose-lax", "compose-equality"):
        assert failing[row] >= 5, (row, failing)
    # a QuantaleLift is the pointwise extension of its word images, and words
    # form a free monoid, so these laws hold whatever the images are
    assert not failing.keys() & {"lift-join-preserving", "compose-associative",
                                 "unit-law", "compose-distributes-over-union"}


def broken_at_top(m):
    """m with its image of top moved, so that it no longer preserves joins
    on a powerset of two or more worlds."""
    lat = m.lattice
    table = list(m.table)
    top, bottom = lat.top.index, lat.bottom.index
    table[top] = bottom if table[top] != bottom else top
    return LatticeMap(lat, table)


def test_maps_that_do_not_preserve_joins_are_refused():
    # lifted no-miracle is decided on letters at bottom and the irreducibles,
    # which only join-preserving update and appearance maps allow
    alg = honest_coin_model()
    q = ActionQuantale(["a"], 2)
    pair = alg.update["a"]
    bad_update = DynamicAlgebra(
        alg.mama, alg.actions, {"a": AdjointPair(broken_at_top(pair.left), pair.right)},
        alg.action_appearance, alg.facts)
    pairs = dict(alg.mama.pairs)
    pairs["B"] = AdjointPair(broken_at_top(pairs["B"].left), pairs["B"].right)
    bad_appearance = DynamicAlgebra(MAMA(alg.lattice, pairs), alg.actions, alg.update,
                                    alg.action_appearance, alg.facts)
    for bad, name in ((bad_update, "upd[a]"), (bad_appearance, "f[B]")):
        for view in (indexed_to_binary(bad, q), twin_view(indexed_to_binary(bad, q))):
            for non_paranoid in (False, True):
                with pytest.raises(NotJoinPreserving, match=re.escape(f"; {name} is not")):
                    check_epistemic_system(view, non_paranoid)
