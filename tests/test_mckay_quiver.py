"""Typed quivers on abelian quotients and the residual C3/S3 action."""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay.errors import InternalInvariantViolation, PreconditionFailed
from mckay.lattice import AbelianQuotient, LatticeBasis, admissible_bases
from mckay.mckay_quiver import (
    STEPS,
    GroupAction,
    TypedQuiver,
    _assert_automorphisms,
    build_quiver,
    k_action,
)


def _quiver(a, b, c):
    return build_quiver(AbelianQuotient(LatticeBasis(a, b, c)))


def test_vertex_and_arrow_counts():
    for (a, b, c), n in [((3, 0, 3), 9), ((2, 0, 2), 4), ((3, 2, 1), 3)]:
        q = _quiver(a, b, c)
        assert len(q.vertices) == n
        assert len(q.head) == 3 * n


def _target(q, x, t):
    """The head coset of the type-t arrow from the coset x."""
    return q.vertices[q.head[3 * q.quotient.index_of(x) + t - 1]]


def test_targets_frozen():
    q = _quiver(3, 0, 3)
    assert _target(q, (0, 0), 1) == (1, 0)
    assert _target(q, (0, 0), 2) == (0, 1)
    assert _target(q, (0, 0), 3) == (2, 2)
    assert _target(q, (2, 2), 3) == (1, 1)


def test_three_regular_in_and_out():
    q = _quiver(6, 4, 2)
    out = Counter(i // 3 for i in range(len(q.head)))
    into = Counter(q.head)
    assert set(out.values()) == {3}
    assert set(into.values()) == {3}


def test_build_quiver_refuses_type_steps_that_do_not_close_up(monkeypatch):
    # Swapping the heads of the type-1 arrows from vertices 0 and 1 keeps
    # every in-degree at 3, but the type-1 step from 0 no longer returns.
    quotient = AbelianQuotient(LatticeBasis(3, 0, 3))
    head = list(TypedQuiver(quotient).head)
    head[0], head[3] = head[3], head[0]
    monkeypatch.setattr(TypedQuiver, "head", property(lambda self: tuple(head)))
    assert set(Counter(head).values()) == {3}
    with pytest.raises(InternalInvariantViolation, match="^type steps failed to close up$"):
        build_quiver(quotient)


def test_cycle_counts_frozen():
    assert len(_quiver(3, 0, 3).constraint_tables[1]) == 18
    assert len(_quiver(2, 0, 2).constraint_tables[1]) == 8
    assert len(_quiver(3, 2, 1).constraint_tables[1]) == 6


def test_cycles_have_three_distinct_types():
    q = _quiver(3, 0, 3)
    head, cycles, _ = q.constraint_tables
    for cyc in cycles:
        assert sorted(i % 3 for i in cyc) == [0, 1, 2]
        # closing the walk returns to the start
        v = cyc[0] // 3
        for i in cyc:
            assert i // 3 == v
            v = head[i]
        assert v == cyc[0] // 3


def test_each_arrow_in_two_cycles_and_four_squares():
    q = _quiver(2, 0, 2)
    _, cycles, squares = q.constraint_tables
    in_cycles = Counter(i for cyc in cycles for i in cyc)
    assert set(in_cycles.values()) == {2}
    assert sum(in_cycles.values()) == 2 * len(q.head)

    in_squares = Counter(i for sq in squares for i in set(sq))
    assert set(in_squares.values()) == {4}


def test_square_counts_frozen():
    assert len(_quiver(3, 0, 3).constraint_tables[2]) == 27
    assert len(_quiver(2, 0, 2).constraint_tables[2]) == 12
    assert len(_quiver(3, 2, 1).constraint_tables[2]) == 9


def test_squares_commute():
    q = _quiver(3, 2, 1)
    head, _, squares = q.constraint_tables
    for a1, a2, b1, b2 in squares:
        assert a1 // 3 == b1 // 3
        assert head[a1] == a2 // 3 and head[b1] == b2 // 3
        assert head[a2] == head[b2]
        assert {a1 % 3, a2 % 3} == {b1 % 3, b2 % 3}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.integers(1, 4))
def test_counts_scale_with_determinant(a, b, c):
    basis = LatticeBasis(a, b % a, c)
    q = build_quiver(AbelianQuotient(basis))
    n = basis.det
    _, cycles, squares = q.constraint_tables
    assert len(cycles) == 2 * n
    assert len(squares) == 3 * n


def _brute_maps(quotient):
    """Each K-element's map on coset tuples, by name, from the rotation
    (x1, x2) -> (-x2, x1 - x2) and the swap (x1, x2) -> (x2, x1)."""
    red = quotient.reduce

    def rot(x):
        return red((-x[1], x[0] - x[1]))

    def swap(x):
        return red((x[1], x[0]))

    return {
        "1": red,
        "t": rot,
        "t^2": lambda x: rot(rot(x)),
        "s": swap,
        "ts": lambda x: rot(rot(swap(rot(x)))),
        "st": lambda x: rot(swap(rot(rot(x)))),
    }


def test_index_layer_matches_the_coset_definitions():
    # The head table, the vertex permutations, orbits, stabilizers and
    # transversals on vertex indices, against the definitions on cosets.
    checked = 0
    for kind in ("C", "D"):
        for basis in admissible_bases(36, kind):
            quotient = AbelianQuotient(basis)
            q = build_quiver(quotient)
            cosets = quotient.cosets
            index_of = quotient.index_of
            assert q.vertices == cosets
            assert [index_of(x) for x in cosets] == list(range(len(cosets)))
            assert q.head == tuple(
                index_of((x1 + dx, x2 + dy))
                for x1, x2 in cosets
                for dx, dy in STEPS.values()
            ), basis
            act = k_action(q, kind)
            group = act.group
            brute = _brute_maps(quotient)
            for name, perm in zip(group.names, group.maps):
                assert perm == tuple(index_of(brute[name](x)) for x in cosets), (
                    basis, kind, name,
                )
            maps = [brute[name] for name in group.names]
            orbits = sorted({tuple(sorted({g(x) for g in maps})) for x in cosets})
            assert [tuple(cosets[u] for u in o) for o in group.orbits] == orbits
            for v, x in enumerate(cosets):
                orbit = next(o for o in orbits if x in o)
                assert tuple(cosets[u] for u in group.orbit_of[v]) == orbit
                assert group.stabilizer(v) == tuple(
                    g for g, f in enumerate(maps) if f(x) == x
                )
                assert group.transversal[v] == next(
                    g for g, f in enumerate(maps) if f(orbit[0]) == x
                )
            checked += 1
    assert checked == 28  # 20 bases of kind C, 8 of kind D


def test_arrow_index_is_a_bijection():
    # Arrow 3v + t is the type-(t + 1) arrow from coset vertices[v]; the
    # indices are (source coset, type) pairs in their lexicographic order,
    # the order a cut's sorted indices rely on.
    q = _quiver(3, 0, 3)
    pairs = [(x, t) for x in q.quotient.cosets for t in (1, 2, 3)]
    assert pairs == sorted(pairs)
    assert [3 * q.quotient.index_of(x) + t - 1 for x, t in pairs] == list(range(27))


def _vertex_map(act, name):
    return act.group.maps[act.group.names.index(name)]


def _fixed_cosets(act, name):
    perm = _vertex_map(act, name)
    return tuple(act.quiver.vertices[v] for v, w in enumerate(perm) if v == w)


def test_k_action_fixed_vertices():
    q = _quiver(3, 0, 3)
    act = k_action(q, "C")
    assert _fixed_cosets(act, "t") == ((0, 0), (1, 2), (2, 1))
    orbits = act.group.orbits
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 1, 1, 3, 3]


def test_k_action_2i():
    q = _quiver(2, 0, 2)
    act = k_action(q, "C")
    assert _fixed_cosets(act, "t") == ((0, 0),)
    assert sorted(len(o) for o in act.group.orbits) == [1, 3]
    act_d = k_action(q, "D")
    assert len(act_d.group.names) == 6
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
            "abc", keys, lambda a, b: (a + b) % modulus, ((), (), ())
        )


def test_action_type_maps():
    q = _quiver(2, 0, 2)
    act = k_action(q, "D")
    type_maps = dict(zip(act.group.names, act.type_maps))
    assert type_maps["t"] == (2, 3, 1)
    assert type_maps["s"] == (2, 1, 3)
    # the type maps realize S3 faithfully
    assert len(set(act.type_maps)) == 6


def _act_arrow(perm, sigma, a):
    """The image of arrow (x, i): (g(x), sigma(i)), on the quiver's arrows."""
    return 3 * perm[a // 3] + sigma[a % 3] - 1


def test_action_permutes_arrows():
    q = _quiver(3, 0, 3)
    act = k_action(q, "C")
    for perm, sigma in zip(act.group.maps, act.type_maps):
        image = {_act_arrow(perm, sigma, a) for a in range(len(q.head))}
        assert image == set(range(len(q.head)))


def test_action_commutes_with_targets():
    q = _quiver(6, 4, 2)
    act = k_action(q, "D")
    for perm, sigma in zip(act.group.maps, act.type_maps):
        for a, w in enumerate(q.head):
            assert perm[w] == q.head[_act_arrow(perm, sigma, a)]


def test_automorphism_check_rejects_tampered_vertex_maps():
    q = _quiver(3, 0, 3)
    t = _vertex_map(k_action(q, "D"), "t")
    _assert_automorphisms(q, ["t"], [t], [(2, 3, 1)])
    # t sends (1,0) to (0,1) and (2,0) to (0,2), that is vertex 3 to 1 and
    # 6 to 2; swapping the two images keeps a bijection but breaks the
    # type-1 arrow (0,0) -> (1,0).
    assert (t[3], t[6]) == (1, 2)
    swapped = list(t)
    swapped[3], swapped[6] = swapped[6], swapped[3]
    with pytest.raises(InternalInvariantViolation) as info:
        _assert_automorphisms(q, ["t", "t"], [t, tuple(swapped)], [(2, 3, 1)] * 2)
    assert str(info.value) == (
        "t does not commute with targets on the type-1 arrow from (0, 0)"
    )
    merged = list(t)
    merged[3] = merged[6]
    with pytest.raises(InternalInvariantViolation) as info:
        _assert_automorphisms(q, ["t"], [tuple(merged)], [(2, 3, 1)])
    assert str(info.value) == "t is not a vertex bijection"


def test_action_requires_admissibility():
    q = _quiver(5, 1, 1)
    with pytest.raises(PreconditionFailed, match="^rotation condition fails: k1=5 "):
        k_action(q, "C")
    q = _quiver(7, 3, 1)
    with pytest.raises(PreconditionFailed, match="^swap condition fails: k1=7 "):
        k_action(q, "D")
