"""Shared fixtures and random-structure generators.

The random generators are seeded by the tests that use them, so failures
reproduce. Lattice sources: powersets (Boolean, on bitmasks), their table
twins (the same powersets built as explicit orders, so they take the
bit-row path), chains and products of chains, downset lattices of random
posets (distributive by construction), and bounded random posets
rejection-sampled until every pair has a join and a meet (these routinely
contain M3/N5, so the non-distributive territory is covered too).
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from importlib import resources
from itertools import combinations, product
from pathlib import Path

import pytest

from adjointkit import (
    NotALattice,
    build_from_order,
    build_mama,
    map_from_generators,
    powerset_lattice,
)
from adjointkit.lattice import FiniteLattice


# -- canonical small lattices -------------------------------------------------


@pytest.fixture
def coin2():
    """Powerset of {h, t}: the static coin-toss carrier."""
    return powerset_lattice(["h", "t"])


@pytest.fixture
def coin3():
    """Powerset of {h0, t0, h1}: the pre/post announcement carrier."""
    return powerset_lattice(["h0", "t0", "h1"])


@pytest.fixture
def chain3():
    return build_from_order(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])


def m3_lattice():
    labels = ["bot", "a", "b", "c", "top"]
    pairs = [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"]
    return build_from_order(labels, pairs)


def n5_lattice():
    labels = ["bot", "a", "c", "b", "top"]
    pairs = [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")]
    return build_from_order(labels, pairs)


def coin_appearance(lat):
    """f_A of the 2-world coin example: every singleton appears as top."""
    return map_from_generators(
        lat, {lat.subset(["h"]): lat.top, lat.subset(["t"]): lat.top}
    )


def honest_coin_model():
    """The validated 3-world honest announcement algebra used all over."""
    from adjointkit import ActionLabel, build_dynamic_algebra

    lat = powerset_lattice(["h0", "t0", "h1"])
    s = lat.subset
    uncertainty = {
        s(["h0"]): s(["h0", "t0"]),
        s(["t0"]): s(["h0", "t0"]),
        s(["h1"]): s(["h1"]),
    }
    mama = build_mama(lat, {"A": dict(uncertainty), "B": dict(uncertainty), "C": dict(uncertainty)})
    updates = {"a": {s(["h0"]): s(["h1"]), s(["t0"]): lat.bottom, s(["h1"]): lat.bottom}}
    H, T = s(["h0", "h1"]), s(["t0"])
    return build_dynamic_algebra(
        mama,
        [ActionLabel("a", is_communication=True)],
        updates,
        facts=(H, T),
        declared_kernels={"a": (T,)},
    )


def lying_coin_model():
    """A 4-world pre/post model realizing the lying-announcement assumptions.

    t1 is the world where heads was announced while the coin lies tails;
    A and B, not suspecting the lie, see t1 exactly as the honest post
    world h1.
    """
    from adjointkit import ActionLabel, build_dynamic_algebra

    lat = powerset_lattice(["h0", "t0", "h1", "t1"])
    s = lat.subset
    duped = {
        s(["h0"]): s(["h0", "t0"]),
        s(["t0"]): s(["h0", "t0"]),
        s(["h1"]): s(["h1"]),
        s(["t1"]): s(["h1"]),
    }
    ident = {j: j for j in lat.join_irreducibles()}
    mama = build_mama(lat, {"A": dict(duped), "B": dict(duped), "C": ident})
    bot = lat.bottom
    updates = {
        "a": {s(["h0"]): s(["h1"]), s(["t0"]): bot, s(["h1"]): bot, s(["t1"]): bot},
        "abar": {s(["h0"]): bot, s(["t0"]): s(["t1"]), s(["h1"]): bot, s(["t1"]): bot},
    }
    H, T = s(["h0", "h1"]), s(["t0", "t1"])
    return build_dynamic_algebra(
        mama,
        [ActionLabel("a", True), ActionLabel("abar", True)],
        updates,
        {"A": {"abar": "a"}, "B": {"abar": "a"}},
        facts=(H, T),
        declared_kernels={"a": (T,), "abar": (H,)},
    )


# -- scenarios: shipped and generated --------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A module of the benchmark harness, whose directory is not a package."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    return importlib.import_module(name)


def scenario_texts(dynamic_seeds=(), epistemic_seeds=()):
    """(name, text) of every shipped scenario, then of the benchmark's
    generated dynamic-words and epistemic-256 scenarios of the given seeds."""
    shipped = resources.files("adjointkit") / "scenarios"
    out = [(p.name, p.read_text(encoding="utf-8"))
           for p in sorted(shipped.iterdir(), key=lambda p: p.name) if p.name.endswith(".scn")]
    if dynamic_seeds or epistemic_seeds:
        gen = perfbench_module("gen")
        for seed in dynamic_seeds:
            out += [(f"{c.name}@{seed}", c.text) for c in gen.dynamic_cases(random.Random(seed))]
        for seed in epistemic_seeds:
            out += [(f"{c.name}@{seed}", c.text) for c in gen.epistemic_cases(random.Random(seed))]
    return out


ERROR_REPROS = json.loads(
    (Path(__file__).resolve().parent / "error_repros.json").read_text(encoding="utf-8"))


def repro_text(repro: dict | str) -> str:
    """The scenario text of an entry of error_repros.json, or of the entry
    with that id. Each entry holds the text as a list of lines, the exit
    code of `run`, `run --json` and `validate` on it, and the class and
    message of the error that parse_scenario or instantiate raises."""
    if isinstance(repro, str):
        (repro,) = [r for r in ERROR_REPROS if r["id"] == repro]
    return "\n".join(repro["lines"]) + "\n"


def built_models(texts):
    """(name, SemanticModel) of each scenario text whose model builds."""
    from adjointkit import AdjointKitError, instantiate, parse_scenario

    out = []
    for name, text in texts:
        try:
            inst = instantiate(parse_scenario(text))
        except AdjointKitError:
            continue
        if inst.model is not None:
            out.append((name, inst.model))
    return out


# -- random structure generators ------------------------------------------------


def random_powerset(rng: random.Random, max_worlds=5) -> FiniteLattice:
    k = rng.randint(1, max_worlds)
    return powerset_lattice([f"w{i}" for i in range(k)])


def table_twin(lat: FiniteLattice, masks=None) -> FiniteLattice:
    """A powerset built again as an explicit order: labels in mask order, or
    in the order of the given masks, and the inclusion pairs. The twin takes
    the bit-row path of explicit orders, with the same element names; in mask order, also with
    the same element indices."""
    names = [e.name for e in lat.elements]
    pairs = [(names[a], names[b]) for a in range(lat.n) for b in range(lat.n) if a & ~b == 0]
    return build_from_order([names[m] for m in (masks or range(lat.n))], pairs)


def on_twin(m, twin: FiniteLattice):
    """The map with m's images and kind, on a carrier with the same element
    names."""
    from adjointkit.maps import LatticeMap

    src = m.lattice
    table = [0] * twin.n
    for e in src.elements:
        table[twin.element(e.name).index] = twin.element(src.elements[m.table[e.index]].name).index
    return LatticeMap(twin, table, m.kind)


def twin_algebra(alg, twin: FiniteLattice):
    """A dynamic algebra moved onto the table twin of its carrier, map by
    map, with no re-validation."""
    from adjointkit import AdjointPair, DynamicAlgebra
    from adjointkit.epistemic import MAMA

    def pair(p):
        return AdjointPair(on_twin(p.left, twin), on_twin(p.right, twin))

    def elements(xs):
        return tuple(twin.element(x.name) for x in xs)

    mama = MAMA(twin, {agent: pair(p) for agent, p in alg.mama.pairs.items()})
    return DynamicAlgebra(
        mama, alg.actions, {a: pair(p) for a, p in alg.update.items()},
        alg.action_appearance, elements(alg.facts),
        {a: elements(k) for a, k in alg.declared_kernels.items()},
    )


def random_chain(rng: random.Random, max_len=8) -> FiniteLattice:
    k = rng.randint(2, max_len)
    labels = [f"c{i}" for i in range(k)]
    return build_from_order(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def grid(*sizes):
    """Labels and cover pairs of the product of chains of the given sizes:
    point (x, y, ...) is labelled gx_y_..., below its successor on each axis
    in turn."""
    points = list(product(*map(range, sizes)))
    label = {p: "g" + "_".join(map(str, p)) for p in points}
    pairs = [(label[p], label[p[:d] + (p[d] + 1,) + p[d + 1:]])
             for d, size in enumerate(sizes) for p in points if p[d] + 1 < size]
    return list(label.values()), pairs


def random_downset_lattice(rng: random.Random, max_points=5) -> FiniteLattice:
    """Lattice of down-closed subsets of a random poset: distributive."""
    k = rng.randint(1, max_points)
    below = {i: {i} for i in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.4:
                below[j] |= below[i]
    # transitive closure of the random edges
    changed = True
    while changed:
        changed = False
        for j in range(k):
            for i in list(below[j]):
                if not below[i] <= below[j]:
                    below[j] |= below[i]
                    changed = True

    points = list(range(k))
    downsets = []
    for r in range(k + 1):
        for sel in combinations(points, r):
            ds = set(sel)
            if all(below[p] <= ds for p in ds):
                downsets.append(frozenset(ds))
    labels = ["d" + "".join(str(p) for p in sorted(ds)) for ds in downsets]
    pairs = [
        (labels[i], labels[j])
        for i in range(len(downsets))
        for j in range(len(downsets))
        if downsets[i] <= downsets[j]
    ]
    return build_from_order(labels, pairs)


def random_bounded_poset(rng: random.Random, max_mid=6) -> FiniteLattice:
    """Random mid-layer DAG with forced bounds; retried until a lattice."""
    while True:
        k = rng.randint(2, max_mid)
        mids = [f"x{i}" for i in range(k)]
        pairs = []
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.3:
                    pairs.append((mids[i], mids[j]))
        labels = ["bot", *mids, "top"]
        pairs += [("bot", m) for m in mids] + [(m, "top") for m in mids]
        try:
            return build_from_order(labels, pairs)
        except NotALattice:
            continue


def random_lattice(rng: random.Random) -> FiniteLattice:
    roll = rng.random()
    if roll < 0.30:
        lat = random_powerset(rng)
        return table_twin(lat) if roll < 0.10 else lat
    if roll < 0.45:
        return random_chain(rng)
    if roll < 0.55:
        return m3_lattice() if rng.random() < 0.5 else n5_lattice()
    if roll < 0.80:
        return random_downset_lattice(rng)
    return random_bounded_poset(rng)


def random_join_map(rng: random.Random, lat: FiniteLattice):
    """Random join-preserving map.

    Random generator assignments, rejection-sampled: on non-distributive
    carriers not every assignment extends to a join-preserving map. The
    identity assignment always does, so the fallback is total.
    """
    from adjointkit import NotJoinPreserving

    for _ in range(64):
        gens = {j: rng.choice(lat.elements) for j in lat.join_irreducibles()}
        try:
            return map_from_generators(lat, gens)
        except NotJoinPreserving:
            continue
    return map_from_generators(lat, {j: j for j in lat.join_irreducibles()})


def random_decreasing_map(rng: random.Random, lat: FiniteLattice):
    """Random join-preserving decreasing map (each irreducible maps below
    itself). Decreasing implies weak idempotence, so these satisfy the weak
    co-closure hypotheses by construction."""
    from adjointkit import NotJoinPreserving

    for _ in range(64):
        gens = {}
        for j in lat.join_irreducibles():
            down = [e for e in lat.elements if lat.leq_(e, j)]
            gens[j] = rng.choice(down)
        try:
            return map_from_generators(lat, gens)
        except NotJoinPreserving:
            continue
    return map_from_generators(lat, {j: j for j in lat.join_irreducibles()})


def random_mama(rng: random.Random, lat: FiniteLattice, n_agents: int):
    from adjointkit import right_adjoint
    from adjointkit.epistemic import MAMA

    pairs = {
        f"A{i}": right_adjoint(random_join_map(rng, lat)) for i in range(n_agents)
    }
    return MAMA(lat, pairs)


def reference_coclosure(m, agent) -> dict:
    """The co-closure laws of one agent by element-wise scans: the first
    element, in index order, against f_A <= id and against weak idempotence
    f_A(f_A(l)) <= f_A(l) (None where none fails), and whether each
    consequence holds on every element: f*_A <= f*_A o f*_A,
    K_A <= K_A o K_A, K_A = id and, on Boolean carriers only (else None),
    negative introspection not K_A(l) <= K_A(not K_A(l))."""
    lat = m.lattice
    leq = lat.leq_
    f, fstar = m.appearance_map(agent), m.information_map(agent)

    def know(e):
        return m.knowledge(agent, e)

    def first(bad):
        return next((e for e in lat.elements if bad(e)), None)

    neg_intro = None
    if lat.is_boolean:
        neg = lat.complement
        neg_intro = all(leq(neg(know(e)), know(neg(know(e)))) for e in lat.elements)
    return {
        "decreasing_witness": first(lambda e: not leq(f(e), e)),
        "idempotent_witness": first(lambda e: not leq(f(f(e)), f(e))),
        "info_weakly_idempotent": all(leq(fstar(e), fstar(fstar(e))) for e in lat.elements),
        "knowledge_weakly_idempotent": all(leq(know(e), know(know(e))) for e in lat.elements),
        "knowledge_fixpoint": all(know(e) is e for e in lat.elements),
        "negative_introspection": neg_intro,
    }


def coclosure_consequences_hold(ref: dict) -> bool:
    """Whether a reference_coclosure scan found every consequence of the
    hypotheses to hold."""
    return (ref["idempotent_witness"] is None and ref["info_weakly_idempotent"]
            and ref["knowledge_weakly_idempotent"] and ref["knowledge_fixpoint"]
            and ref["negative_introspection"] is not False)
