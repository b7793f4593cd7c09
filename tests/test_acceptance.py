"""Acceptance suite: one test per criterion, one PASS line each.

Random populations are seeded, so every run checks the same structures.
Expected values for the muddy-children scenarios are recomputed here by an
independent relational oracle (boxes over visibility relations on world
sets) before being compared with both the scenario files' expectations and
the algebra's verdicts.
"""

import random
import time
from importlib import resources

import pytest

from adjointkit import (
    ActionQuantale,
    ProofNode,
    check_demorgan_lift,
    check_epistemic_system,
    check_coclosure_consequences,
    compose,
    gfp_meet,
    indexed_to_binary,
    lfp_join,
    power,
    powerset_lattice,
    prove,
    right_adjoint,
    verify_adjunction,
    verify_tree,
)
from adjointkit.derivation import (
    ADJ_UNFOLD_AFTER,
    ADJ_UNFOLD_INFO,
    APP_SUBST,
    ACT_APP_SUBST,
    CASE_SPLIT,
    FACT_DISCHARGE,
    JOIN_DISTRIB,
    KERNEL_DISCHARGE,
    NO_MIRACLE,
    ORDER_AXIOM,
)
from adjointkit.scenario import instantiate, parse_scenario
from adjointkit.semantics import SemanticModel, entails, holds
from adjointkit import terms as T
from conftest import (
    honest_coin_model,
    lying_coin_model,
    random_decreasing_map,
    random_join_map,
    random_lattice,
    random_mama,
    reference_coclosure,
)


def announce(n, text):
    print(f"\nPASS criterion {n}: {text}")


def fixture_doc(name):
    return parse_scenario((resources.files("adjointkit") / "scenarios" / name).read_text())


@pytest.fixture(scope="module")
def population():
    """1000 join-preserving maps over a mixed pool of random lattices."""
    rng = random.Random(20240101)
    pool = [random_lattice(rng) for _ in range(60)]
    assert all(lat.n <= 32 for lat in pool)
    out = []
    for i in range(1000):
        lat = pool[i % len(pool)]
        out.append(random_join_map(rng, lat))
    return out


def test_criterion_1_adjunction_suite(population):
    start = time.perf_counter()
    failures = 0
    for f in population:
        lat = f.lattice
        pair = right_adjoint(f)
        if verify_adjunction(pair.left, pair.right) is not None:
            failures += 1
            continue
        ffs = compose(f, pair.right)
        fsf = compose(pair.right, f)
        for e in lat.elements:
            if not (lat.leq_(ffs(e), e) and lat.leq_(e, fsf(e))):
                failures += 1
                break
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    announce(1, f"adjunction rule + corollaries on {len(population)} maps in {elapsed:.1f}s")


def test_criterion_2_demorgan_lift_and_heyting_witness():
    rng = random.Random(20240202)
    failures = 0
    for _ in range(500):
        lat = powerset_lattice([f"w{i}" for i in range(rng.randint(1, 4))])
        f = random_join_map(rng, lat)
        if check_demorgan_lift(f) is not None:
            failures += 1
    assert failures == 0

    # Heyting side: with the non-involutive negation of the 3-chain the
    # lift must fail somewhere; the identity map at mid is a witness.
    from adjointkit import build_from_order, map_from_generators
    from adjointkit.maps import LatticeMap

    chain = build_from_order(["b", "m", "t"], [("b", "m"), ("m", "t")])
    neg = chain.heyting_negation
    found = False
    for im_m in chain.elements:
        for im_t in chain.elements:
            try:
                f = map_from_generators(
                    chain, dict(zip(chain.join_irreducibles(), (im_m, im_t)))
                )
            except Exception:
                continue
            fstar = right_adjoint(f).right
            g = LatticeMap(chain, [neg(f(neg(b))).index for b in chain.elements])
            gstar = [
                chain.meet(bp for bp in chain.elements if chain.leq_(b, g(bp)))
                for b in chain.elements
            ]
            if any(fstar(b) != neg(gstar[b.index]) for b in chain.elements):
                found = True
    assert found
    announce(2, "de Morgan lift exact on 500 Boolean maps; Heyting witness found on the 3-chain")


def test_criterion_3_fixed_points(population):
    for f in population:
        fstar = right_adjoint(f).right
        for i in range(6):
            assert verify_adjunction(power(f, i), power(fstar, i)) is None
        assert verify_adjunction(lfp_join(f), gfp_meet(fstar)) is None
    announce(3, f"power and fixed-point adjunctions on {len(population)} maps")


def test_criterion_4_group_operators():
    rng = random.Random(20240404)
    for _ in range(120):
        lat = random_lattice(rng)
        m = random_mama(rng, lat, rng.randint(2, 4))
        group = list(m.agents)[: rng.randint(2, len(m.agents))]
        f_beta = m.group_appearance(group)
        fstar_beta = m.group_information(group)
        assert verify_adjunction(f_beta, fstar_beta) is None
        for i in range(5):
            assert verify_adjunction(power(f_beta, i), power(fstar_beta, i)) is None
        assert verify_adjunction(lfp_join(f_beta), gfp_meet(fstar_beta)) is None
    announce(4, "group appearance/information adjunctions on 120 random MAMAs")


def test_criterion_5_coclosure_consequences():
    rng = random.Random(20240505)
    from adjointkit.epistemic import MAMA

    checked = boolean_checked = 0
    for _ in range(200):
        boolean_case = rng.random() < 0.5
        if boolean_case:
            lat = powerset_lattice([f"w{i}" for i in range(rng.randint(1, 4))])
        else:
            lat = random_lattice(rng)
        f = random_decreasing_map(rng, lat)
        m = MAMA(lat, {"A": right_adjoint(f)})
        assert check_coclosure_consequences(m, "A").hypotheses_hold
        # the consequences, each by a scan of every element
        ref = reference_coclosure(m, "A")
        assert ref["decreasing_witness"] is None
        assert ref["idempotent_witness"] is None, "decreasing implies weak idempotence"
        assert ref["info_weakly_idempotent"]
        assert ref["knowledge_weakly_idempotent"]
        assert ref["knowledge_fixpoint"], "K_A(l) = l must hold under the hypotheses"
        checked += 1
        if lat.is_boolean:
            assert ref["negative_introspection"] is True
            boolean_checked += 1
    assert checked == 200 and boolean_checked > 50
    announce(5, f"S4/S5 consequences on {checked} decreasing maps ({boolean_checked} Boolean)")


GOLDEN_SEQUENCE = (
    ADJ_UNFOLD_AFTER,
    ADJ_UNFOLD_INFO,
    NO_MIRACLE,
    ACT_APP_SUBST,
    APP_SUBST,
    JOIN_DISTRIB,
    CASE_SPLIT,
    FACT_DISCHARGE,
    ORDER_AXIOM,
    KERNEL_DISCHARGE,
)


def test_criterion_6_golden_honest_coin():
    inst = instantiate(fixture_doc("coin-honest.scn"))
    model, assumptions = inst.model, inst.assumptions
    checks = [q for q in inst.queries if q.kind == "check"]
    proves = [q for q in inst.queries if q.kind == "prove"]
    assert len(checks) == 6 and len(proves) == 6
    for q in checks:
        assert entails(model, q.lhs, q.rhs), f"{q.id} must hold in the 3-world model"
    trees = {}
    for q in proves:
        tree = prove(T.Sequent(q.lhs, q.rhs), assumptions, max_depth=16)
        assert isinstance(tree, ProofNode), f"{q.id} must prove with depth <= 16"
        trees[q.id] = tree
    assert trees["p1"].rules_used() == GOLDEN_SEQUENCE
    # the rendered proof carries the same rule sequence, in order
    from adjointkit import render_proof

    rendered = render_proof(trees["p1"], "text")
    tags = [line.split("]")[0].strip(" [") for line in rendered.splitlines()
            if line.lstrip().startswith("[")]
    assert tuple(tags) == GOLDEN_SEQUENCE
    announce(6, "honest coin: 6 semantic goals hold, 6 proofs at depth<=16, golden rule sequence")


def test_criterion_7_golden_lying_coin():
    inst = instantiate(fixture_doc("coin-lying.scn"))
    assumptions = inst.assumptions
    proves = [q for q in inst.queries if q.kind == "prove"]
    assert len(proves) == 3
    for q in proves:
        short = prove(T.Sequent(q.lhs, q.rhs), assumptions, 16)
        assert isinstance(short, ProofNode)
        assert KERNEL_DISCHARGE in short.rules_used()
        assert NO_MIRACLE not in short.rules_used()

        long = prove(T.Sequent(q.lhs, q.rhs), assumptions, 16, no_kernel_shortcut=True)
        assert isinstance(long, ProofNode)
        assert NO_MIRACLE in long.rules_used()
    # the A-route proofs reach the two worked cases
    for qid in ("q2", "q3"):
        q = next(x for x in proves if x.id == qid)
        tree = prove(T.Sequent(q.lhs, q.rhs), assumptions, 16, no_kernel_shortcut=True)
        rendered = {s.render() for s in tree.sequents()}
        assert "upd[a](H) |= H" in rendered and "upd[a](T) |= H" in rendered
    announce(7, "lying coin: 3 properties proved via shortcut and via the no-miracle route")


def test_criterion_8_epistemic_system():
    alg = honest_coin_model()
    q = ActionQuantale(alg.actions, max_word_length=3)
    report = check_epistemic_system(indexed_to_binary(alg, q))
    assert report.ok, report.failures()
    names = {c.name for c in report.checks}
    assert {"act-unit", "act-composition", "act-join-law",
            "unit-inclusion[A]", "compose-lax[A]"} <= names
    announce(8, "epistemic system laws on the honest coin model at word bound 3")


def test_criterion_9_soundness_cross_check():
    # honest corpus against the scenario's own model
    inst = instantiate(fixture_doc("coin-honest.scn"))
    proved = []
    for q in [x for x in inst.queries if x.kind == "prove"]:
        tree = prove(T.Sequent(q.lhs, q.rhs), inst.assumptions, 16)
        assert isinstance(tree, ProofNode)
        assert verify_tree(tree, inst.assumptions) is None
        assert holds(inst.model, tree.sequent)
        proved.append((tree, inst.assumptions))

    # lying corpus against the 4-world companion model built here
    lying = instantiate(fixture_doc("coin-lying.scn"))
    companion = lying_coin_model()
    lat = companion.lattice
    model = SemanticModel(
        companion,
        {"H": lat.subset(["h0", "h1"]), "T": lat.subset(["t0", "t1"])},
    )
    for q in [x for x in lying.queries if x.kind == "prove"]:
        for flag in (False, True):
            tree = prove(
                T.Sequent(q.lhs, q.rhs), lying.assumptions, 16, no_kernel_shortcut=flag
            )
            assert isinstance(tree, ProofNode)
            assert verify_tree(tree, lying.assumptions) is None
            assert holds(model, tree.sequent)
            proved.append((tree, lying.assumptions))

    # mutation tests: corrupting any single rule application is caught
    mutants = 0
    for tree, assumptions in proved[:6]:
        nodes = _all_nodes(tree)
        victim = nodes[len(nodes) // 2]
        forged = ProofNode(
            victim.sequent,
            KERNEL_DISCHARGE if victim.rule != KERNEL_DISCHARGE else ORDER_AXIOM,
            victim.note,
            victim.children,
        )
        mutant = _swap(tree, victim, forged)
        assert verify_tree(mutant, assumptions) is not None
        mutants += 1
    announce(9, f"{len(proved)} proved sequents hold semantically; {mutants} mutants caught")


def _all_nodes(tree):
    out = [tree]
    for c in tree.children:
        out.extend(_all_nodes(c))
    return out


def _swap(tree, target, new):
    if tree is target:
        return new
    kids = tuple(_swap(c, target, new) for c in tree.children)
    return ProofNode(tree.sequent, tree.rule, tree.note, kids)


# -- criterion 10: muddy children with a relational oracle ------------------------


def _muddy_oracle(lying: bool):
    """Worlds are (m1, m2, m3) bit triples; visibility R_i joins a world
    with its own-flag flip, after C3's misreading of C2 when lying."""
    worlds = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]

    def flip(w, i):
        return tuple(b ^ 1 if k == i else b for k, b in enumerate(w))

    rel = {}
    for i in range(3):
        rel[i] = {}
        for w in worlds:
            seen = w
            if lying and i == 2:
                seen = (w[0], 0, w[2])
            rel[i][w] = {seen, flip(seen, i)}
    return worlds, rel


def _oracle_eval(term, worlds, rel, props):
    full = set(worlds)

    def box(i, S):
        return {w for w in worlds if rel[i][w] <= S}

    def rec(t):
        if isinstance(t, T.Atom):
            return props[t.name]
        if isinstance(t, T.Top):
            return set(full)
        if isinstance(t, T.Bot):
            return set()
        if isinstance(t, T.Or):
            return rec(t.left) | rec(t.right)
        if isinstance(t, T.And):
            return rec(t.left) & rec(t.right)
        if isinstance(t, T.Not):
            return full - rec(t.arg)
        if isinstance(t, T.Info):
            return box(_agent_index(t.agent), rec(t.arg))
        if isinstance(t, T.Know):
            s = rec(t.arg)
            return box(_agent_index(t.agent), s) & s
        if isinstance(t, T.Believe):
            not_arg = full - rec(t.arg)
            know_not = box(_agent_index(t.agent), not_arg) & not_arg
            return full - know_not
        if isinstance(t, T.CK):
            idxs = [_agent_index(a) for a in t.agents]
            s = rec(t.arg)
            acc = set(s)
            cur = set(s)
            rounds = t.depth if t.depth is not None else 2 ** len(worlds)
            for _ in range(rounds):
                nxt = set.intersection(*(box(i, cur) for i in idxs))
                if t.depth is None and nxt == cur:
                    break
                cur = nxt
                acc &= cur
            return acc
        raise AssertionError(f"oracle cannot evaluate {t!r}")

    return rec(term)


def _agent_index(name):
    return {"C1": 0, "C2": 1, "C3": 2}[name]


@pytest.mark.parametrize("fixture,lying", [("muddy-3.scn", False), ("muddy-3-lying.scn", True)])
def test_criterion_10_muddy_children(fixture, lying):
    start = time.perf_counter()
    worlds, rel = _muddy_oracle(lying)
    props = {
        "m1": {w for w in worlds if w[0]},
        "m2": {w for w in worlds if w[1]},
        "m3": {w for w in worlds if w[2]},
    }
    inst = instantiate(fixture_doc(fixture))
    model = inst.model
    assert model.lattice.n == 256 and len(model.algebra.mama.agents) == 3

    checked = 0
    for q in inst.queries:
        if q.kind != "check":
            continue
        lhs = _oracle_eval(q.lhs, worlds, rel, props)
        rhs = _oracle_eval(q.rhs, worlds, rel, props)
        oracle_verdict = lhs <= rhs
        # the fixture's frozen expectation must match the oracle
        assert oracle_verdict == (q.expect == "holds"), q.id
        # and the algebra's verdict must match both
        assert entails(model, q.lhs, q.rhs) == oracle_verdict, q.id
        checked += 1
    assert checked >= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(10, f"{fixture}: {checked} entailments agree with the relational oracle "
                 f"in {elapsed:.1f}s")
