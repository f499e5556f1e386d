"""Typed quivers on abelian quotients and the residual C3/S3 action."""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay.errors import InternalInvariantViolation, PreconditionFailed
from mckay.lattice import AbelianQuotient, LatticeBasis
from mckay.mckay_quiver import (
    ActionElement,
    Arrow,
    GroupAction,
    _assert_automorphisms,
    build_quiver,
    commutativity_squares,
    elementary_cycles,
    k_action,
)


def _quiver(a, b, c):
    return build_quiver(AbelianQuotient(LatticeBasis(a, b, c)))


def test_vertex_and_arrow_counts():
    for (a, b, c), n in [((3, 0, 3), 9), ((2, 0, 2), 4), ((3, 2, 1), 3)]:
        q = _quiver(a, b, c)
        assert len(q.vertices) == n
        assert len(q.arrows) == 3 * n


def test_targets_frozen():
    q = _quiver(3, 0, 3)
    assert q.target(Arrow((0, 0), 1)) == (1, 0)
    assert q.target(Arrow((0, 0), 2)) == (0, 1)
    assert q.target(Arrow((0, 0), 3)) == (2, 2)
    assert q.target(Arrow((2, 2), 3)) == (1, 1)


def test_three_regular_in_and_out():
    q = _quiver(6, 4, 2)
    out = Counter(a.source for a in q.arrows)
    into = Counter(q.target(a) for a in q.arrows)
    assert set(out.values()) == {3}
    assert set(into.values()) == {3}


def test_cycle_counts_frozen():
    assert len(elementary_cycles(_quiver(3, 0, 3))) == 18
    assert len(elementary_cycles(_quiver(2, 0, 2))) == 8
    assert len(elementary_cycles(_quiver(3, 2, 1))) == 6


def test_cycles_have_three_distinct_types():
    for cyc in elementary_cycles(_quiver(3, 0, 3)):
        types = sorted(a.type for a in cyc.arrows)
        assert types == [1, 2, 3]
        # closing the walk returns to the start
        q = _quiver(3, 0, 3)
        v = cyc.arrows[0].source
        for a in cyc.arrows:
            assert a.source == v
            v = q.target(a)
        assert v == cyc.arrows[0].source


def test_each_arrow_in_two_cycles_and_four_squares():
    q = _quiver(2, 0, 2)
    in_cycles = Counter()
    for cyc in elementary_cycles(q):
        for a in cyc.arrows:
            in_cycles[a] += 1
    assert set(in_cycles.values()) == {2}
    assert sum(in_cycles.values()) == 2 * len(q.arrows)

    in_squares = Counter()
    for sq in commutativity_squares(q):
        for a in set(sq.first_path) | set(sq.second_path):
            in_squares[a] += 1
    assert set(in_squares.values()) == {4}


def test_square_counts_frozen():
    assert len(commutativity_squares(_quiver(3, 0, 3))) == 27
    assert len(commutativity_squares(_quiver(2, 0, 2))) == 12
    assert len(commutativity_squares(_quiver(3, 2, 1))) == 9


def test_squares_commute():
    q = _quiver(3, 2, 1)
    for sq in commutativity_squares(q):
        a1, a2 = sq.first_path
        b1, b2 = sq.second_path
        assert a1.source == b1.source
        assert q.target(a2) == q.target(b2)
        assert {a1.type, a2.type} == {b1.type, b2.type}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.integers(1, 4))
def test_counts_scale_with_determinant(a, b, c):
    basis = LatticeBasis(a, b % a, c)
    q = build_quiver(AbelianQuotient(basis))
    n = basis.det
    assert len(elementary_cycles(q)) == 2 * n
    assert len(commutativity_squares(q)) == 3 * n


def test_arrow_index_is_a_bijection():
    q = _quiver(3, 0, 3)
    ids = {q.arrow_index(a) for a in q.arrows}
    assert ids == set(range(27))


def test_k_action_fixed_vertices():
    q = _quiver(3, 0, 3)
    act = k_action(q, "C")
    assert act.fixed_vertices("t") == ((0, 0), (1, 2), (2, 1))
    orbits = act.group.orbits
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 1, 1, 3, 3]


def test_k_action_2i():
    q = _quiver(2, 0, 2)
    act = k_action(q, "C")
    assert act.fixed_vertices("t") == ((0, 0),)
    assert sorted(len(o) for o in act.group.orbits) == [1, 3]
    act_d = k_action(q, "D")
    assert len(act_d.elements) == 6
    assert sorted(len(o) for o in act_d.group.orbits) == [1, 3]
    # the free C3 orbit keeps size 3 under S3, so stabilizers have order 2
    orbit = next(o for o in act_d.group.orbits if len(o) == 3)
    for v in orbit:
        assert len(act_d.group.stabilizer(v)) == 2


def test_group_law_of_the_action():
    q = _quiver(3, 0, 3)
    group = k_action(q, "D").group
    assert len(group.names) == 6
    t, s = group.names.index("t"), group.names.index("s")

    def mul(x, y):
        return group.table[x][y]

    ident = 0
    assert group.names[ident] == "1"
    assert mul(t, mul(t, t)) == ident
    assert mul(s, s) == ident
    # every element has a two-sided inverse
    for x in range(6):
        assert mul(x, group.inverse[x]) == ident
        assert mul(group.inverse[x], x) == ident
    # associativity over all triples
    for x in range(6):
        for y in range(6):
            for z in range(6):
                assert mul(mul(x, y), z) == mul(x, mul(y, z))


@pytest.mark.parametrize(
    "keys, modulus",
    [((0, 1, 1), 3), ((0, 1, 2), 4), ((1, 0, 2), 3)],
    ids=["not-distinct", "not-closed", "identity-not-first"],
)
def test_group_action_rejects_non_groups(keys, modulus):
    with pytest.raises(InternalInvariantViolation):
        GroupAction.from_keys(
            "abc", keys, lambda a, b: (a + b) % modulus, ((), (), ()), ()
        )


def test_action_type_maps():
    q = _quiver(2, 0, 2)
    act = k_action(q, "D")
    assert act.element("t").type_map == (2, 3, 1)
    assert act.element("s").type_map == (2, 1, 3)
    # the type maps realize S3 faithfully
    assert len({e.type_map for e in act.elements}) == 6


def test_action_permutes_arrows():
    q = _quiver(3, 0, 3)
    act = k_action(q, "C")
    for e in act.elements:
        image = {e.act_arrow(a) for a in q.arrows}
        assert image == set(q.arrows)


def test_action_commutes_with_targets():
    q = _quiver(6, 4, 2)
    act = k_action(q, "D")
    for e in act.elements:
        for a in q.arrows:
            assert e.vertex_map[q.target(a)] == q.target(e.act_arrow(a))


def _tampered(element, vertex_map):
    return ActionElement(element.name, vertex_map, element.type_map, element.type_scalars)


def test_automorphism_check_rejects_tampered_vertex_maps():
    q = _quiver(3, 0, 3)
    t = k_action(q, "D").element("t")
    _assert_automorphisms(q, [t])
    # t sends (1,0) to (0,1) and (2,0) to (0,2); swapping the two images
    # keeps a bijection but breaks the type-1 arrow (0,0) -> (1,0).
    swapped = dict(t.vertex_map)
    swapped[(1, 0)], swapped[(2, 0)] = swapped[(2, 0)], swapped[(1, 0)]
    with pytest.raises(InternalInvariantViolation) as info:
        _assert_automorphisms(q, [t, _tampered(t, swapped)])
    assert str(info.value) == (
        "t does not commute with targets on Arrow(source=(0, 0), type=1)"
    )
    merged = dict(t.vertex_map)
    merged[(1, 0)] = merged[(2, 0)]
    with pytest.raises(InternalInvariantViolation) as info:
        _assert_automorphisms(q, [_tampered(t, merged)])
    assert str(info.value) == "t is not a vertex bijection"


def test_action_requires_admissibility():
    q = _quiver(5, 1, 1)
    with pytest.raises(PreconditionFailed, match="^rotation condition fails: k1=5 "):
        k_action(q, "C")
    q = _quiver(7, 3, 1)
    with pytest.raises(PreconditionFailed, match="^swap condition fails: k1=7 "):
        k_action(q, "D")


def test_involution_scalars_depend_on_exponents():
    q = _quiver(2, 0, 2)
    act = k_action(q, "D")  # default scalars at root order 2
    s = act.element("s")
    assert s.type_scalars == (1, 1, 1)
    act12 = k_action(q, "D", scalars=(1, 11, 6), root_order=12)
    s12 = act12.element("s")
    assert s12.type_scalars == ((1 + 2 * 6) % 12, (1 + 2 * 11) % 12, 6)
