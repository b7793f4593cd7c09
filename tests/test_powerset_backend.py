"""The powerset backend against its table twin.

A powerset carrier computes on bitmasks; its table twin is the same
powerset built as an explicit order (labels in mask order, the inclusion
pairs), so it takes the bit-row path of explicit orders with the same
element indices and names. Every lattice analysis, every maps function (results, violation
pairs and messages) and the epistemic-system rows must come out the same on
both, on random maps and on maps corrupted to break their laws.
"""

import random
from collections import Counter

import pytest

from adjointkit import (
    JOIN_PRESERVING,
    MEET_PRESERVING,
    UNCLASSIFIED,
    AdjointKitError,
    AdjointPair,
    ActionQuantale,
    Element,
    LatticeMap,
    check_epistemic_system,
    indexed_to_binary,
    powerset_lattice,
)
from adjointkit import maps
from adjointkit.maps import PreservationViolation
from conftest import on_twin, random_join_map, table_twin
from test_quantale import (
    random_informed_model, random_product_update, twin_view, unvalidated_algebra,
)


def normal(x):
    """A carrier-free form of a result, comparable across the twins."""
    if isinstance(x, Element):
        return x.index, x.name
    if isinstance(x, LatticeMap):
        return "map", x.kind, x.table
    if isinstance(x, AdjointPair):
        return "pair", normal(x.left), normal(x.right)
    if isinstance(x, PreservationViolation):
        return "violation", normal(x.pair), normal(x.lhs), normal(x.rhs), x.describe()
    if isinstance(x, tuple):
        return tuple(normal(y) for y in x)
    return x


def outcome(fn, *args):
    try:
        return normal(fn(*args))
    except AdjointKitError as err:
        violation = getattr(err, "violation", None)
        return type(err).__name__, str(err), normal(violation)


# -- lattice analysis ------------------------------------------------------------


def analysis(lat):
    el = lat.elements
    joins = [(5 * k + 3) % lat.n for k in range(len(lat.join_irreducibles()))]
    meets = [(3 * k + 1) % lat.n for k in range(len(lat.meet_irreducibles()))]
    return {
        "names": [e.name for e in el],
        "bottom": lat.bottom.index,
        "top": lat.top.index,
        "is_distributive": lat.is_distributive,
        "is_boolean": lat.is_boolean,
        "complement_table": lat.complement_table(),
        "irreducibles": [e.index for e in lat.join_irreducibles()],
        "meet_irreducibles": [e.index for e in lat.meet_irreducibles()],
        "join_extension": lat.join_extension(joins),
        "meet_extension": lat.meet_extension(meets),
        "right_adjoint_table": lat.right_adjoint_table(lat.join_extension(joins)),
        "left_adjoint_table": lat.left_adjoint_table(lat.meet_extension(meets)),
        "height": lat.height,
        "repr": repr(lat),
        "ops": [
            (lat.leq_(a, b), normal(lat.join2(a, b)), normal(lat.meet2(a, b)),
             normal(lat.heyting_implication(a, b)), normal(lat.complement(a)),
             normal(lat.heyting_negation(a)))
            for a in el for b in el
        ],
    }


@pytest.mark.parametrize("k", range(6))
def test_powerset_analysis_matches_its_table_twin(k):
    lat = powerset_lattice([f"w{i}" for i in range(k)])
    twin = table_twin(lat)
    assert lat.worlds is not None and twin.worlds is None
    assert analysis(lat) == analysis(twin)


def _subset_name(worlds, mask):
    """A subset's name as PowersetLattice built it one mask at a time."""
    return "{" + ",".join(w for k, w in enumerate(worlds) if mask >> k & 1) + "}"


@pytest.mark.parametrize("k", range(11))
def test_subset_names_match_the_naming_by_mask(k, monkeypatch):
    monkeypatch.setenv("ADJOINT_KIT_MAX_LATTICE", "1024")
    worlds = [f"w{i}" if i % 3 else f"h_{i}'" for i in range(k)]
    lat = powerset_lattice(worlds)
    assert [e.name for e in lat.elements] == [_subset_name(worlds, m) for m in range(1 << k)]


# -- maps -------------------------------------------------------------------------


def random_table(rng, lat):
    return [rng.randrange(lat.n) for _ in range(lat.n)]


def corrupted(rng, m):
    """m's table with one entry moved, sometimes the one at bottom or top."""
    table = list(m.table)
    i = rng.choice([0, m.lattice.n - 1, rng.randrange(m.lattice.n)])
    table[i] = rng.randrange(m.lattice.n)
    return LatticeMap(m.lattice, table, rng.choice([JOIN_PRESERVING, MEET_PRESERVING,
                                                    UNCLASSIFIED]))


def random_maps(rng, lat):
    """Join- and meet-preserving maps with their true kinds, and arbitrary
    or corrupted tables under any claimed kind."""
    f = random_join_map(rng, lat)
    g = maps.right_adjoint(random_join_map(rng, lat)).right
    lawful = [f, g, maps.de_morgan_dual(f), maps.identity_map(lat),
              maps.constant_map(lat, lat.bottom, JOIN_PRESERVING),
              maps.constant_map(lat, lat.top, MEET_PRESERVING)]
    lawless = [corrupted(rng, f), corrupted(rng, g),
               LatticeMap(lat, random_table(rng, lat), rng.choice([JOIN_PRESERVING,
                                                                   MEET_PRESERVING,
                                                                   UNCLASSIFIED]))]
    return lawful, lawless


def maps_outcomes(lat, lawful, lawless, assignments):
    """Every maps function on the given maps. right_adjoint, left_adjoint and
    check_demorgan_lift trust the claimed kind, so they get lawful maps."""
    el = lat.elements
    out = []
    for gens in assignments:
        out.append(outcome(maps.map_from_generators, lat, {el[k]: el[v] for k, v in gens}))
    for m in lawful:
        out += [outcome(maps.right_adjoint, m), outcome(maps.left_adjoint, m),
                outcome(maps.check_demorgan_lift, m)]
    for m in lawful + lawless:
        images = [el[i] for i in m.table]
        out += [
            outcome(maps.validate_join_preserving, m),
            outcome(maps.validate_meet_preserving, m),
            outcome(maps.preserves_joins, m),
            outcome(maps.map_from_table, lat, images, JOIN_PRESERVING),
            outcome(maps.map_from_table, lat, images, MEET_PRESERVING),
            outcome(maps.de_morgan_dual, m),
            outcome(maps.power, m, 3),
            outcome(maps.lfp_join, m),
            outcome(maps.gfp_meet, m),
            outcome(maps.lfp_join_reflexive, m),
            outcome(maps.gfp_meet_reflexive, m),
        ]
        for other in lawful + lawless:
            out += [
                outcome(maps.verify_adjunction, m, other),
                outcome(maps.compose, m, other),
                outcome(maps.pointwise_join, m, other),
                outcome(maps.pointwise_meet, m, other),
            ]
    for m in lawful[:1]:
        out.append(outcome(maps.verify_adjunction, m, maps.right_adjoint(m).right))
    return out


def test_maps_match_the_table_twin():
    rng = random.Random(8080)
    kinds = Counter()
    for _ in range(60):
        lat = powerset_lattice([f"w{i}" for i in range(rng.randint(0, 4))])
        twin = table_twin(lat)
        lawful, lawless = random_maps(rng, lat)
        atoms = [e.index for e in lat.join_irreducibles()]
        assignments = [[(a, rng.randrange(lat.n)) for a in atoms]]
        if lat.n > 1:
            # a missing generator, and a non-irreducible one
            assignments += [assignments[0][1:], assignments[0] + [(lat.n - 1, 0)]]
        got = maps_outcomes(lat, lawful, lawless, assignments)
        expected = maps_outcomes(twin, [on_twin(m, twin) for m in lawful],
                                 [on_twin(m, twin) for m in lawless], assignments)
        assert got == expected
        for result in got:
            head = result[0] if isinstance(result, tuple) and result else result
            kinds["adjunction witness" if isinstance(head, tuple) else head] += 1
    # the corrupted maps do break the laws, with witnesses and errors
    assert kinds["violation"] >= 100 and kinds["adjunction witness"] >= 100
    assert kinds["NotJoinPreserving"] >= 50 and kinds["NotMeetPreserving"] >= 50
    assert kinds["MissingGenerator"] >= 50 and kinds[True] >= 50 and kinds[False] >= 50


def test_system_rows_match_the_table_twin():
    rng = random.Random(31337)
    failing = Counter()
    for _ in range(120):
        alg = unvalidated_algebra(rng, rng.choice([random_product_update, random_informed_model])(rng))
        q = ActionQuantale(alg.actions, rng.randint(1, 3))
        view = indexed_to_binary(alg, q)
        twin = twin_view(view)
        for non_paranoid in (False, True):
            report = check_epistemic_system(view, non_paranoid)
            assert check_epistemic_system(twin, non_paranoid) == report
            failing.update(c.name for c in report.failures())
    # the only system law the view does not build in
    assert set(failing) == {"lifted-no-miracle"} and failing["lifted-no-miracle"] >= 10, failing
