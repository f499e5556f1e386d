"""Skew-group quivers, loop witnesses, cut transport and the dual-twist round trip."""
from __future__ import annotations

import itertools
import sys
import types
from collections import Counter

import numpy as np
import pytest

from conftest import (
    np_class_count,
    np_loop_profile,
    np_power_sums,
    reduce_mod_cyclotomic,
    to_complex,
)
from mckay import skew
from mckay.cuts import Cut, _degrees, build_cut, cut_type, invariant_cut
from mckay.errors import InternalInvariantViolation, PreconditionFailed
from mckay.graphiso import find_isomorphism
from mckay.lattice import AbelianQuotient, LatticeBasis, admissible_bases
from mckay.mckay_quiver import build_quiver, k_action
from mckay.monomial_group import conjugacy_classes, group_from_basis
from mckay.skew import (
    _LABELS_BY_ORDER,
    SkewVertex,
    _char_value,
    _demonet,
    _dual_twist,
    _quiver_blocks,
    _transport,
    _transport_cut,
    loop_witness,
    skew_quiver,
    transport_cut,
    unskew_round_trip,
)


def _quiver(basis):
    return build_quiver(AbelianQuotient(basis))


def _action(basis, kind):
    return k_action(_quiver(basis), kind)


def _skew(basis, kind):
    act = _action(basis, kind)
    return act.quiver, act, skew_quiver(act)


def test_skew_2i_kind_c():
    q, _, s = _skew(LatticeBasis(2, 0, 2), "C")
    assert [(q.vertices[v.orbit_rep], v.irrep, v.dimension, v.orbit_size) for v in s.vertices] == [
        ((0, 0), "triv", 1, 1),
        ((0, 0), "omega", 1, 1),
        ((0, 0), "omega2", 1, 1),
        ((0, 1), "triv", 3, 3),
    ]
    assert s.mult == {
        (0, 3): 1, (1, 3): 1, (2, 3): 1,
        (3, 0): 1, (3, 1): 1, (3, 2): 1, (3, 3): 2,
    }
    assert s.loops() == ((3, 2),)
    assert sum(v.dimension ** 2 for v in s.vertices) == 12 == s.group_size


def test_skew_2i_kind_d():
    q, _, s = _skew(LatticeBasis(2, 0, 2), "D")
    assert [(q.vertices[v.orbit_rep], v.irrep, v.dimension) for v in s.vertices] == [
        ((0, 0), "triv", 1),
        ((0, 0), "sgn", 1),
        ((0, 0), "std", 2),
        ((0, 1), "triv", 3),
        ((0, 1), "sgn", 3),
    ]
    # each three-dimensional vertex carries a single loop
    assert s.loops() == ((3, 1), (4, 1))
    assert sum(v.dimension ** 2 for v in s.vertices) == 24 == s.group_size
    assert s.mult == {
        (0, 4): 1, (1, 3): 1, (2, 3): 1, (2, 4): 1,
        (3, 1): 1, (3, 2): 1, (3, 3): 1, (3, 4): 1,
        (4, 0): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1,
    }


def test_skew_3i_kind_c():
    _, _, s = _skew(LatticeBasis(3, 0, 3), "C")
    assert len(s.vertices) == 11
    assert sorted(v.dimension for v in s.vertices) == [1] * 9 + [3, 3]
    assert s.loops() == ()
    assert sum(v.dimension ** 2 for v in s.vertices) == 27


def test_skew_3i_kind_d():
    _, _, s = _skew(LatticeBasis(3, 0, 3), "D")
    assert len(s.vertices) == 10
    assert sorted(v.dimension for v in s.vertices) == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert sum(v.dimension ** 2 for v in s.vertices) == 54


def test_skew_abelian_case():
    _, _, s = _skew(LatticeBasis(3, 2, 1), "C")
    assert len(s.vertices) == 9
    assert {v.dimension for v in s.vertices} == {1}


def test_vertex_count_equals_class_count():
    from mckay.lattice import is_admissible

    for basis in admissible_bases(16, "C"):
        for kind in ("C", "D"):
            factor = {"C": 3, "D": 6}[kind]
            if basis.det * factor > 200 or not is_admissible(basis, kind):
                continue
            _, _, s = _skew(basis, kind)
            g = group_from_basis(basis, kind)
            assert len(s.vertices) == len(conjugacy_classes(g))
            assert sum(v.dimension ** 2 for v in s.vertices) == g.order == s.group_size


def test_class_count_against_numeric_oracle():
    for basis, kind in [(LatticeBasis(6, 4, 2), "C"), (LatticeBasis(6, 4, 2), "D")]:
        _, _, s = _skew(basis, kind)
        g = group_from_basis(basis, kind)
        assert len(s.vertices) == np_class_count([to_complex(x, g.root_order) for x in g.keys])


# The kind-D scalar choices of the golden corpus: (basis, root order, scalars).
_GOLDEN_SCALARS = [
    (LatticeBasis(2, 0, 2), 4, (1, 0, 1)), (LatticeBasis(2, 0, 2), 4, (2, 2, 2)),
    (LatticeBasis(3, 0, 3), 6, (1, 1, 1)), (LatticeBasis(3, 0, 3), 12, (5, 7, 6)),
    (LatticeBasis(4, 0, 4), 8, (3, 0, 1)), (LatticeBasis(4, 0, 4), 8, (4, 4, 4)),
    (LatticeBasis(6, 4, 2), 12, (1, 2, 3)), (LatticeBasis(6, 0, 6), 12, (6, 6, 6)),
]


def _times(p, q, m):
    """The product of two count vectors over Z/m."""
    out = Counter()
    for a, x in p.items():
        for b, y in q.items():
            out[(a + b) % m] += x * y
    return out


def _class_sum_mismatches(n, mult, group, kmax=6):
    """The k <= kmax at which tr(M^k), M the multiplicity matrix on n
    vertices, differs from the sum over the closure's conjugacy classes of
    chi_V(g)^k.

    chi_V(g) is the sum of zeta^exps[i] over the fixed points i of the
    key's permutation, zeta a primitive root of unity of the closure's
    root order m; its powers are summed as counts over Z/m and reduced
    exactly.  By column orthogonality the class sum is
    sum_i <chi_V^k chi_i, chi_i>, the trace of M^k, with no character table.
    """
    m = group.root_order
    chis = [
        Counter(e for i, e in enumerate(exps) if perm[i] == i)
        for (perm, exps), *_ in conjugacy_classes(group)
    ]
    matrix = np.zeros((n, n), dtype=np.int64)
    for (i, j), count in mult.items():
        matrix[i, j] = count
    powers = [Counter({0: 1})] * len(chis)
    power = np.eye(n, dtype=np.int64)
    mismatches = []
    for k in range(1, kmax + 1):
        powers = [_times(p, chi, m) for p, chi in zip(powers, chis)]
        total = Counter()
        for p in powers:
            total.update(p)
        power = power @ matrix
        coords = reduce_mod_cyclotomic(m, total)
        if coords != (int(np.trace(power)),) + (0,) * (len(coords) - 1):
            mismatches.append(k)
    return mismatches


def test_class_sums_match_the_closure_exactly():
    # An oracle outside the engine: the vertex count is the closure's class
    # count, and tr(M^k) its class sum of chi_V^k for k <= 6, on every
    # admissible basis with det <= 45 and on the golden kind-D scalars that
    # group-info accepts (the others enlarge the diagonal subgroup).  The
    # skew quiver takes no scalars, so each choice's closure is compared
    # with the one scalar-free quiver.
    cases = [(b, kind, {}) for kind in ("C", "D") for b in admissible_bases(45, kind)]
    for basis, m, scalars in _GOLDEN_SCALARS:
        try:
            group_from_basis(basis, "D", root_order=m, scalars=scalars)
        except PreconditionFailed:
            continue
        cases.append((basis, "D", {"root_order": m, "scalars": scalars}))
    assert len(cases) == 34 + 4
    for basis, kind, kw in cases:
        _, _, s = _skew(basis, kind)
        g = group_from_basis(basis, kind, **kw)
        assert len(s.vertices) == len(conjugacy_classes(g)), (basis, kind, kw)
        assert _class_sum_mismatches(len(s.vertices), s.mult, g) == [], (basis, kind, kw)
    # One multiplicity raised by one is seen.
    _, _, s = _skew(LatticeBasis(3, 0, 3), "C")
    first = min(s.mult)
    tampered = {**s.mult, first: s.mult[first] + 1}
    group = group_from_basis(LatticeBasis(3, 0, 3), "C")
    assert _class_sum_mismatches(len(s.vertices), tampered, group) == [3, 6]


def _signed_permutations_det_1():
    """The rotation group of the cube, S4, as explicit complex matrices."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                m[perm[j], j] = signs[j]
            if np.isclose(np.linalg.det(m), 1):
                out.append(m)
    return out


def _accepted_scalars(basis, m):
    """Every kind-D scalar choice (p, q, s) at root order m that
    group_from_basis accepts for the basis."""
    out = []
    for p, q in itertools.product(range(m), repeat=2):
        scalars = (p, q, (m // 2 - p - q) % m)
        try:
            group_from_basis(basis, "D", root_order=m, scalars=scalars)
        except PreconditionFailed:
            continue
        out.append(scalars)
    return out


def test_loop_profile_against_numeric_oracle():
    # B = 2I: kind C gives A4 (3 x 3 = 1 + 1' + 1'' + 3 + 3, one vertex with two
    # loops); kind D gives S4 with V = std x sgn for every admissible choice
    # of scalars (std and std' carry one loop each).  At B = 3I, 3 divides
    # |N| and there is no loop.  Each scalar choice the closure accepts is
    # compared with the closure, the independent check of the trace sign
    # the carrier gives every involution: a sign of +1 keeps the loop
    # profiles and vertex counts but moves tr(M^3) at 3I from 78 to 84.
    # The skew quiver takes no scalars, so every choice meets the one
    # scalar-free quiver of its basis.
    two, three = LatticeBasis(2, 0, 2), LatticeBasis(3, 0, 3)
    cases = [(two, "C", {}, [(3, 2)])]
    s4 = [(3, 1), (3, 1)]
    for basis, m, expected in [(two, 2, s4), (two, 4, s4), (three, 6, [])]:
        for scalars in _accepted_scalars(basis, m):
            cases.append((basis, "D", {"root_order": m, "scalars": scalars}, expected))
    assert len(cases) == 1 + 17  # of 4 + 16 + 36 kind-D choices
    for basis, kind, kw, expected in cases:
        _, _, s = _skew(basis, kind)
        profile = sorted((s.vertices[i].dimension, m) for i, m in s.loops())
        g = group_from_basis(basis, kind, **kw)
        elements = [to_complex(x, g.root_order) for x in g.keys]
        assert profile == expected, (basis, kw)
        assert np_loop_profile(elements) == expected, (basis, kw)
        assert len(s.vertices) == np_class_count(elements), (basis, kw)
        matrix = np.zeros((len(s.vertices),) * 2, dtype=np.int64)
        for (i, j), count in s.mult.items():
            matrix[i, j] = count
        powers = itertools.accumulate([matrix] * 3, np.matmul)
        assert [int(np.trace(p)) for p in powers] == np_power_sums(elements, 3), (basis, kw)
    assert np_loop_profile(_signed_permutations_det_1()) == [(3, 1), (3, 1)]


def test_an_involution_traces_its_fixed_type_by_minus_one():
    # At 2I the three arrows from vertex 0 have distinct heads; s fixes
    # vertex 0 and type 3 and acts there by -1 whatever the scalars.
    act = _action(LatticeBasis(2, 0, 2), "D")
    w = act.quiver.head[2]  # the type-3 arrow from vertex 0
    s = act.group.names.index("s")
    assert act.group.maps[s][0] == 0
    row = _quiver_blocks(act)(0)[w]
    assert row[s] == ((0, -1),)
    assert row[0] == ((0, 1),)


def test_every_trace_is_reduced_in_the_field_of_cube_roots():
    # Every trace lies in Z[omega], whatever the scalars: only the identity
    # and the involutions fix a type, and an involution acts there by -1.
    # The literal was captured from the earlier power-basis engine with
    # scalars (1, 1, 4094) at root order 8192, which took 25 s.
    act = _action(LatticeBasis(3, 0, 3), "D")
    s = skew_quiver(act)
    vertices = act.quiver.vertices
    assert [(vertices[v.orbit_rep], v.irrep, v.dimension) for v in s.vertices] == [
        ((0, 0), "triv", 1), ((0, 0), "sgn", 1), ((0, 0), "std", 2),
        ((0, 1), "triv", 3), ((0, 1), "sgn", 3), ((0, 2), "triv", 3),
        ((0, 2), "sgn", 3), ((1, 2), "triv", 2), ((1, 2), "omega", 2),
        ((1, 2), "omega2", 2),
    ]
    assert sorted(s.mult.items()) == [
        ((0, 4), 1), ((1, 3), 1), ((2, 3), 1), ((2, 4), 1), ((3, 5), 1),
        ((3, 6), 2), ((4, 5), 2), ((4, 6), 1), ((5, 1), 1), ((5, 2), 1),
        ((5, 7), 1), ((5, 8), 1), ((5, 9), 1), ((6, 0), 1), ((6, 2), 1),
        ((6, 7), 1), ((6, 8), 1), ((6, 9), 1), ((7, 3), 1), ((7, 4), 1),
        ((8, 3), 1), ((8, 4), 1), ((9, 3), 1), ((9, 4), 1),
    ]


def _stabilizer_carriers():
    """The groups whose stabilizers the skew engine meets: kinds C and D on
    3I, [[6,4],[0,2]], 2I and 4I, and the dual twist of 3I."""
    for basis in (LatticeBasis(3, 0, 3), LatticeBasis(6, 4, 2), LatticeBasis(2, 0, 2),
                  LatticeBasis(4, 0, 4)):
        for kind in ("C", "D"):
            yield _action(basis, kind).group
    _, act, s = _skew(LatticeBasis(3, 0, 3), "C")
    yield _dual_twist(s, act)[0]


def test_stabilizer_characters_satisfy_the_orthogonality_relations():
    # The rows of _char_value on each distinct stabilizer H, with no help
    # from the engine: sum_h chi_a(h) conj(chi_b(h)) = |H| delta_ab, summed
    # exactly in Z[omega] as counts over the exponents mod 3, and chi(1) is
    # the degree listed for the label.
    orders = set()
    for group in _stabilizer_carriers():
        for st in {group.stabilizers[orbit[0]] for orbit in group.orbits}:
            assert st[0] == 0  # the identity
            labels = _LABELS_BY_ORDER[len(st)]
            rows = [[_char_value(group, st, label, h) for h in st] for label, _ in labels]
            assert [row[0] for row in rows] == [(deg, 0) for _, deg in labels]
            for a, row_a in enumerate(rows):
                for b, row_b in enumerate(rows):
                    counts = [0, 0, 0]
                    for (ca, ka), (cb, kb) in zip(row_a, row_b):
                        counts[(ka - kb) % 3] += ca * cb
                    coords = (counts[0] - counts[2], counts[1] - counts[2])
                    assert coords == (len(st) if a == b else 0, 0), (group.names, st, a, b)
            orders.add(len(st))
    assert orders == {1, 2, 3, 6}


def test_weighted_three_regularity():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "D"),
        (LatticeBasis(3, 0, 3), "C"),
        (LatticeBasis(7, 3, 1), "C"),
    ]:
        _, _, s = _skew(basis, kind)
        dim = {i: v.dimension for i, v in enumerate(s.vertices)}
        for i in dim:
            out = sum(m * dim[j] for (a, j), m in s.mult.items() if a == i)
            into = sum(m * dim[a] for (a, j), m in s.mult.items() if j == i)
            assert out == 3 * dim[i]
            assert into == 3 * dim[i]


def test_loop_witness_frozen():
    w = loop_witness(_action(LatticeBasis(2, 0, 2), "C"))
    assert w.k == 1
    assert w.vertex == (0, 1)
    assert set(w.orbit) == {(0, 1), (1, 0), (1, 1)}
    assert w.orbit_size == 3
    assert not w.special_c2xc2

    wd = loop_witness(_action(LatticeBasis(2, 0, 2), "D"))
    assert wd.orbit_size == 3
    assert wd.special_c2xc2

    w7 = loop_witness(_action(LatticeBasis(7, 3, 1), "C"))
    assert w7.k == 2
    assert set(w7.orbit) == {(5, 0), (6, 0), (3, 0)}


def test_loop_witness_target_stays_in_orbit():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "C"),
        (LatticeBasis(7, 3, 1), "C"),
        (LatticeBasis(7, 5, 1), "C"),
        (LatticeBasis(4, 0, 4), "D"),
        (LatticeBasis(5, 0, 5), "D"),
    ]:
        w = loop_witness(_action(basis, kind))
        q = AbelianQuotient(basis)
        x = w.vertex
        target = q.basis.reduce((x[0] + 1, x[1]))  # type-1 arrow endpoint
        assert target in w.orbit
        expected = 3 if kind == "C" else (3 if w.special_c2xc2 else 6)
        assert w.orbit_size == expected


def test_loop_witness_requires_non_divisibility():
    with pytest.raises(PreconditionFailed, match=r"^3 divides det\(B\) = 9; no loop witness exists$"):
        loop_witness(_action(LatticeBasis(3, 0, 3), "C"))


def test_witness_vertex_carries_a_loop():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "C"),
        (LatticeBasis(2, 0, 2), "D"),
        (LatticeBasis(7, 3, 1), "C"),
    ]:
        w = loop_witness(_action(basis, kind))
        q, _, s = _skew(basis, kind)
        loops = s.loops()
        assert loops
        loop_reps = {q.vertices[s.vertices[i].orbit_rep] for i, _ in loops}
        assert set(w.orbit) & loop_reps


def test_no_loops_when_divisible():
    for basis, kind in [(LatticeBasis(3, 0, 3), "C"), (LatticeBasis(9, 6, 3), "D")]:
        _, _, s = _skew(basis, kind)
        assert s.loops() == ()


def test_transport_cut_3i():
    basis = LatticeBasis(3, 0, 3)
    q, act, s = _skew(basis, "C")
    cut = invariant_cut(act)
    st = transport_cut(s, act, cut)
    assert st.degrees is not None
    assert set(st.degrees.values()) <= {0, 1}
    assert set(st.degrees) == set(st.mult)
    assert sum(1 for d in st.degrees.values() if d == 1) == 9
    # the degree-0 part has no directed cycle
    edges = [(i, j) for (i, j), d in st.degrees.items() if d == 0]
    assert _acyclic(len(st.vertices), edges)


def _acyclic(n, edges):
    out = {i: [] for i in range(n)}
    for i, j in edges:
        out[i].append(j)
    state = [0] * n
    def dfs(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and dfs(w)):
                return True
        state[v] = 2
        return False
    return not any(state[v] == 0 and dfs(v) for v in range(n))


def test_transport_matches_brute_force_degrees():
    # Each block's degree is the one degree of every arrow from a member of
    # its source orbit to a member of its target orbit, read arrow by arrow.
    checked = 0
    for kind in ("C", "D"):
        for basis in admissible_bases(36, kind):
            if basis.det % 3:
                continue
            q, act, s = _skew(basis, kind)
            cut = invariant_cut(act)
            st = transport_cut(s, act, cut)
            assert set(st.degrees) == set(st.mult)
            orbit_of = act.group.orbit_of
            degree = _degrees(q, cut)
            for ai, bi in st.mult:
                o1 = {q.vertices[u] for u in orbit_of[st.vertices[ai].orbit_rep]}
                o2 = {q.vertices[u] for u in orbit_of[st.vertices[bi].orbit_rep]}
                brute = {
                    degree[a]
                    for a, w in enumerate(q.head)
                    if q.vertices[a // 3] in o1 and q.vertices[w] in o2
                }
                assert brute == {st.degrees[(ai, bi)]}, (basis, kind, ai, bi)
                checked += 1
    assert checked == 388


def _block_sets(basis):
    """(reps, mult, edge_reps, edges) of each block set that one transport
    serves, by name: S over the arrows of Q_N, the double skew over the
    blocks of S, and Q_N's own blocks over one-point orbits, with the
    invariant cut's degrees on the edges."""
    q, act, s = _skew(basis, "C")
    cut = invariant_cut(act)
    degree = _degrees(q, cut)
    arrow_edges = [(a // 3, y, degree[a]) for a, y in enumerate(q.head)]
    s = _transport_cut(s, act, degree)
    twist, blocks = _dual_twist(s, act)
    vertices2, mult2 = _demonet(twist, blocks)
    points = range(len(q.vertices))
    return {
        "S": (
            [v.orbit_rep for v in s.vertices], s.mult,
            [orbit[0] for orbit in act.group.orbit_of], arrow_edges,
        ),
        "double": (
            [v.orbit_rep for v in vertices2], mult2,
            [orbit[0] for orbit in twist.orbit_of],
            [(i, j, d) for (i, j), d in s.degrees.items()],
        ),
        "Q_N": (points, Counter((a // 3, y) for a, y in enumerate(q.head)), points, arrow_edges),
    }


@pytest.mark.parametrize(
    "name, block, degrees, message",
    [
        ("S", (0, 1), set(), "block (0, 3) has multiplicity 1 but no underlying arrows"),
        ("S", (0, 1), {0, 1}, "arrows between orbits of 0 and 1 carry mixed degrees [0, 1]"),
        ("double", (0, 3), set(), "block (0, 1) has multiplicity 1 but no underlying arrows"),
        ("double", (0, 3), {0, 1}, "arrows between orbits of 0 and 3 carry mixed degrees [0, 1]"),
        ("Q_N", (0, 1), set(), "block (0, 1) has multiplicity 1 but no underlying arrows"),
        ("Q_N", (0, 1), {0, 1}, "arrows between orbits of 0 and 1 carry mixed degrees [0, 1]"),
    ],
    ids=["empty", "mixed", "double-empty", "double-mixed", "Q_N-empty", "Q_N-mixed"],
)
def test_transport_names_an_empty_or_mixed_block(name, block, degrees, message):
    # At 3I the first block of each set lies over the orbit representatives
    # `block`; edges of no degree or of both degrees between them trip it.
    reps, mult, edge_reps, _ = _block_sets(LatticeBasis(3, 0, 3))[name]
    (ai, bi), _ = min(mult.items())
    assert (reps[ai], reps[bi]) == block
    with pytest.raises(InternalInvariantViolation) as raised:
        _transport(reps, mult, edge_reps, [(*block, d) for d in degrees])
    assert str(raised.value) == message


@pytest.mark.parametrize("name", ["S", "double", "Q_N"])
def test_transport_refuses_a_degree_0_cycle(name):
    # At 3I each set transports the invariant cut; with every edge at
    # degree 0, every block is at degree 0 and the quiver's cycles remain.
    reps, mult, edge_reps, edges = _block_sets(LatticeBasis(3, 0, 3))[name]
    assert set(_transport(reps, mult, edge_reps, edges).values()) == {0, 1}
    with pytest.raises(InternalInvariantViolation, match=r"^degree-0 part has a cycle through \["):
        _transport(reps, mult, edge_reps, [(x, y, 0) for x, y, _ in edges])


def test_a_cut_splitting_a_block_of_q_n_mixes_its_degrees():
    # On [[3,2],[0,1]] the arrows 3v and 3v + 1 share a head, so a cut that
    # holds only arrow 0 gives Q_N's block from vertex 0 both degrees.
    q = _quiver(LatticeBasis(3, 2, 1))
    assert q.head[0] == q.head[1] == 1
    cut = Cut.of([0])
    points = range(len(q.vertices))
    arrows = Counter((a // 3, y) for a, y in enumerate(q.head))
    degree = _degrees(q, cut)
    edges = [(a // 3, y, degree[a]) for a, y in enumerate(q.head)]
    with pytest.raises(InternalInvariantViolation) as raised:
        _transport(points, arrows, points, edges)
    assert str(raised.value) == "arrows between orbits of 0 and 1 carry mixed degrees [0, 1]"


def test_transport_rejects_non_invariant_cut():
    basis = LatticeBasis(7, 3, 1)
    q, act, s = _skew(basis, "C")
    cut = build_cut(q, (1, 4, 2))
    with pytest.raises(PreconditionFailed, match="^the cut is not stable under the symmetry action$"):
        transport_cut(s, act, cut)


@pytest.mark.parametrize("arrow", [27, -1], ids=["out-of-range", "not-canonical"])
def test_transport_rejects_arrows_outside_the_quiver(arrow):
    # 3I has the arrows 0, ..., 26.  27 is past the end, and -1 would index
    # arrow 26 from the back, a second name for it; both are refused before
    # any degree is read.
    _, act, s = _skew(LatticeBasis(3, 0, 3), "C")
    with pytest.raises(ValueError, match="^cut contains arrows outside the quiver$"):
        transport_cut(s, act, Cut.of([arrow]))


def test_dual_twist_structure():
    basis = LatticeBasis(3, 0, 3)
    _, act, s = _skew(basis, "C")
    tw, _ = _dual_twist(s, act)
    perm = tw.maps[1]
    n = len(perm)
    # order three exactly
    def apply3(i):
        for _ in range(3):
            i = perm[i]
        return i
    assert [apply3(i) for i in range(n)] == list(range(n))
    fixed = [i for i in range(n) if perm[i] == i]
    assert fixed == [
        i for i, v in enumerate(s.vertices) if v.orbit_size == 3
    ]
    assert len(fixed) == 2


def test_round_trip_det3():
    report = unskew_round_trip(_quiver(LatticeBasis(3, 2, 1)))
    assert report.cut_recovered
    assert report.skew_vertex_count == 9
    assert report.double_skew_vertex_count == 3
    assert report.recovered_cut == report.original_cut


def test_round_trip_3i():
    report = unskew_round_trip(_quiver(LatticeBasis(3, 0, 3)))
    assert report.cut_recovered
    assert report.skew_vertex_count == 11
    assert report.double_skew_vertex_count == 9
    assert cut_type(report.recovered_cut) == (3, 3, 3)


def test_round_trip_det12():
    report = unskew_round_trip(_quiver(LatticeBasis(6, 4, 2)))
    assert report.cut_recovered
    assert report.double_skew_vertex_count == 12


def test_round_trip_needs_divisibility():
    with pytest.raises(PreconditionFailed, match=r"^3 does not divide det\(B\) = 4$"):
        unskew_round_trip(_quiver(LatticeBasis(2, 0, 2)))


def _quiver_carrier(basis, kind):
    act = _action(basis, kind)
    return act.group, _quiver_blocks(act)


def _twist_carriers(bound):
    """The dual-twist carriers of every admissible kind-C basis with 3 | det
    up to the bound."""
    bases = [b for b in admissible_bases(bound, "C") if b.det % 3 == 0]
    assert bases
    for basis in bases:
        _, act, s = _skew(basis, "C")
        yield _dual_twist(s, act)


def _tampered(blocks, g, block, terms):
    """The blocks, except that the trace of element g on the block (v, w) is
    replaced by the given terms."""
    v0, w0 = block

    def tampered(v):
        out = blocks(v)
        if v == v0:
            row = list(out[w0])
            row[g] = terms
            out = {**out, w0: row}
        return out

    return tampered


def _every_point(group, blocks):
    """The blocks, with an empty row for every point that no arrow reaches,
    which forces the engine to visit all pairs."""
    empty = [()] * len(group.names)

    def every(v):
        out = blocks(v)
        return {w: out.get(w, empty) for w in group.points}

    return every


def _counting(blocks):
    """The blocks, and a one-item list counting the rows read from them."""
    reads = [0]

    class Rows(dict):
        def __getitem__(self, w):
            reads[0] += 1
            return super().__getitem__(w)

    return (lambda v: Rows(blocks(v))), reads


@pytest.mark.parametrize(
    "g, terms, coords",
    [
        # The involution fixing (0, 1), vertex 1, scales the arrow by -1;
        # as omega the triv -> triv inner product is 1 + omega.
        (4, ((1, 1),), "(1, 1)"),
        # Two arrows at the identity, one at the involution: 2 - 1 = 1,
        # an integer but not a multiple of |joint| = 2.
        (0, ((0, 2),), "(1, 0)"),
        # Minus one arrow at the identity, one at the involution: -1 - 1 =
        # -2, a multiple of |joint| = 2 but negative.
        (0, ((0, -1),), "(-2, 0)"),
    ],
)
def test_a_tampered_trace_is_a_non_integral_multiplicity(g, terms, coords):
    group, blocks = _quiver_carrier(LatticeBasis(2, 0, 2), "D")
    block = (0, 1)  # the cosets (0, 0) and (0, 1)
    assert group.stabilizers[1] == (0, 4)
    assert blocks(0)[1][4] == ((0, -1),)
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(group, _tampered(blocks, g, block, terms))
    assert str(raised.value) == (
        "block (0/triv -> 1/triv) pair 0->1: inner "
        f"product {coords} is not a non-negative integer multiple of 2"
    )


def test_a_missing_irrep_breaks_the_square_sum(monkeypatch):
    # Without omega2, each of the three points of 3I that C3 fixes loses a
    # one-dimensional skew vertex.
    monkeypatch.setitem(_LABELS_BY_ORDER, 3, (("triv", 1), ("omega", 1)))
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(*_quiver_carrier(LatticeBasis(3, 0, 3), "C"))
    assert str(raised.value) == "sum of squared dimensions 24 != |V| * |K| = 27"


def test_an_extra_arrow_breaks_weighted_three_regularity(monkeypatch):
    # Vertex 1 of 3I has a trivial stabilizer, so the identity's trace is
    # the block's one term; doubling it gives each skew vertex over 0 a
    # second arrow into the skew vertex over 1, an integral multiplicity.
    real = skew._quiver_blocks
    monkeypatch.setattr(
        skew, "_quiver_blocks", lambda act: _tampered(real(act), 0, (0, 1), ((0, 2),))
    )
    with pytest.raises(InternalInvariantViolation) as raised:
        skew_quiver(_action(LatticeBasis(3, 0, 3), "C"))
    assert str(raised.value) == "vertex 0: weighted degree (6, 3) != 3*1"


def _assert_same_as_all_pairs(group, blocks):
    vertices, mult = _demonet(group, blocks)
    all_vertices, all_mult = _demonet(group, _every_point(group, blocks))
    assert vertices == all_vertices
    assert list(mult.items()) == list(all_mult.items())


@pytest.mark.parametrize("kind", ["C", "D"])
def test_adjacent_pairs_match_all_pairs(kind):
    for basis in admissible_bases(36, kind):
        _assert_same_as_all_pairs(*_quiver_carrier(basis, kind))


def test_adjacent_pairs_match_all_pairs_for_the_twist():
    for group, blocks in _twist_carriers(36):
        _assert_same_as_all_pairs(group, blocks)


def test_skew_work_grows_linearly():
    # Row reads, counted rather than timed: quadrupling det(B) should
    # about quadruple them (the all-pairs sweep grows them about 16-fold).
    calls = []
    for k in (15, 30):
        group, blocks = _quiver_carrier(LatticeBasis(k, 0, k), "C")
        blocks, reads = _counting(blocks)
        _demonet(group, blocks)
        calls.append(reads[0])
    assert calls[1] <= 5 * calls[0]


@pytest.mark.parametrize("kind, calls", [("C", 900), ("D", 465)])
def test_block_lookups_at_30i(kind, calls):
    # One row read per representative pair.  Looking each block up once per
    # pair of skew vertices over its orbits took 912 (kind C) and 622 (kind
    # D); a transversal of every diagonal orbit took 2,691 and 2,842,
    # 1,779 and 2,220 of them on empty blocks.
    group, blocks = _quiver_carrier(LatticeBasis(30, 0, 30), kind)
    blocks, reads = _counting(blocks)
    _demonet(group, blocks)
    assert reads[0] == calls


def test_twist_weights_are_checked_on_every_block():
    # Each block between twist-fixed vertices has its weights counted
    # against its multiplicity, also one read after another such block of
    # the same skew vertex.
    _, act, s = _skew(LatticeBasis(6, 0, 6), "C")
    twist, _ = _dual_twist(s, act)
    p = twist.maps[1]
    v, (w1, w2) = next(
        (v, ws[:2])
        for v in twist.points
        if p[v] == v and len(ws := [w for x, w in s.mult if x == v and p[w] == w]) > 1
    )
    m = s.mult[(v, w2)]
    tampered = s._replace(mult={**s.mult, (v, w2): m + 1})
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(*_dual_twist(tampered, act))
    assert str(raised.value) == (
        f"weight decomposition of block ({v}, {w2}) sums to {m}, multiplicity is {m + 1}"
    )


def _orbit_pairs(group, rep, stab, neighbours) -> dict[int, list[int]]:
    """The pairs (rep, u2) that stand for the diagonal orbits meeting
    {rep} x neighbours, as the points u2 grouped by their orbit's
    representative.

    `stab` is the stabilizer of rep.  Each u2 is the least point of its
    orbit under it, and each orbit's points are sorted.
    """
    maps, orbit_of = group.maps, group.orbit_of
    least = {min([maps[h][u] for h in stab]) for u in neighbours}
    out: dict[int, list[int]] = {}
    for u in sorted(least):
        out.setdefault(orbit_of[u][0], []).append(u)
    return out


def reference_demonet(group, blocks) -> tuple[tuple[SkewVertex, ...], dict]:
    """Skew vertices and multiplicities, one skew-vertex pair at a time.

    For each skew vertex a over r and each skew vertex b over an orbit met
    by r's out-neighbours, sum the Hom dimensions of the blocks (r, u2),
    one per representative pair with u2 in b's orbit, each inner product
    summed and reduced on its own.  Multiplicities are inserted a by a,
    then b in ascending order.
    """
    maps, table, inverse = group.maps, group.table, group.inverse
    transversal = group.transversal

    stab = {orbit[0]: group.stabilizers[orbit[0]] for orbit in group.orbits}

    skew_vertices: list[SkewVertex] = []
    rows: list[list] = []  # chi(h) of each skew vertex, by element h of its stabilizer
    over: dict[int, range] = {}  # skew-vertex indices over each orbit representative
    for orbit in group.orbits:
        rep = orbit[0]
        first = len(skew_vertices)
        for label, deg in _LABELS_BY_ORDER[len(stab[rep])]:
            skew_vertices.append(
                SkewVertex(
                    orbit_rep=rep,
                    irrep=label,
                    orbit_size=len(orbit),
                    dimension=len(orbit) * deg,
                )
            )
            row: list = [None] * len(table)
            for h in stab[rep]:
                row[h] = _char_value(group, stab[rep], label, h)
            rows.append(row)
        over[rep] = range(first, len(skew_vertices))

    block_rows = {rep: blocks(rep) for rep in stab}

    def block_terms(u1: int, u2: int) -> tuple:
        """(h, h2, trace) per element h of the joint stabilizer of the
        representative u1 and u2, h2 being h moved into the stabilizer of
        u2's representative."""
        g2 = transversal[u2]
        g2i = inverse[g2]
        return tuple(
            (h, table[g2i][table[h][g2]], block_rows[u1][u2][h])
            for h in stab[u1]
            if maps[h][u2] == u2
        )

    pairs = {rep: _orbit_pairs(group, rep, stab[rep], block_rows[rep]) for rep in stab}
    targets = {
        rep: sorted(bi for r2 in pairs[rep] for bi in over[r2]) for rep in stab
    }

    # A memo local to this call, so a one-shot call gets the whole gain.
    block_cache: dict[tuple[int, int], tuple] = {}
    mult: dict[tuple[int, int], int] = {}
    for ai, va in enumerate(skew_vertices):
        u1 = va.orbit_rep
        row_a = rows[ai]
        for bi in targets[u1]:
            vb = skew_vertices[bi]
            row_b = rows[bi]
            total = 0
            for u2 in pairs[u1][vb.orbit_rep]:
                # one term per joint stabilizer element
                joint = block_cache.get((u1, u2))
                if joint is None:
                    joint = block_cache[(u1, u2)] = block_terms(u1, u2)
                counts: dict[int, int] = {}
                for h1, h2, trace in joint:
                    # conj(chi_a(h1)) * chi_b(h2); conjugation negates the exponent
                    ca, ka = row_a[h1]
                    cb, kb = row_b[h2]
                    c = ca * cb
                    if c:
                        for e, n in trace:
                            i = (kb - ka + e) % 3
                            counts[i] = counts.get(i, 0) + c * n
                coords = reduce_mod_cyclotomic(3, counts)
                if any(coords[1:]) or coords[0] < 0 or coords[0] % len(joint):
                    raise InternalInvariantViolation(
                        f"block ({va.orbit_rep}/{va.irrep} -> "
                        f"{vb.orbit_rep}/{vb.irrep}) pair {u1}->{u2}: inner "
                        f"product {coords} is not a non-negative integer "
                        f"multiple of {len(joint)}"
                    )
                total += coords[0] // len(joint)
            if total:
                mult[(ai, bi)] = total

    expected = len(group.points) * len(group.names)
    square_sum = sum(v.dimension ** 2 for v in skew_vertices)
    if square_sum != expected:
        raise InternalInvariantViolation(
            f"sum of squared dimensions {square_sum} != |V| * |K| = {expected}"
        )
    return tuple(skew_vertices), mult


def _assert_same_as_reference(group, blocks):
    vertices, mult = _demonet(group, blocks)
    ref_vertices, ref_mult = reference_demonet(group, blocks)
    assert vertices == ref_vertices
    assert list(mult.items()) == list(ref_mult.items())


@pytest.mark.parametrize("kind", ["C", "D"])
def test_block_major_engine_matches_the_reference(kind):
    for basis in admissible_bases(36, kind):
        _assert_same_as_reference(*_quiver_carrier(basis, kind))


def test_block_major_engine_matches_the_reference_for_the_twist():
    for group, blocks in _twist_carriers(36):
        _assert_same_as_reference(group, blocks)


def test_block_classes_are_keyed_by_their_terms():
    # At 3I of kind C the block 7 -> 1 is the last one visited, and its
    # clean class, with the stabilizers and terms of the block 0 -> 1, was
    # memoised on the first.  A tampered trace on it must be summed afresh.
    group, blocks = _quiver_carrier(LatticeBasis(3, 0, 3), "C")
    assert group.stabilizers[7] == group.stabilizers[0] == (0, 1, 2)
    assert group.stabilizers[1] == (0,)
    assert blocks(7)[1][0] == blocks(0)[1][0] == ((0, 1),)
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(group, _tampered(blocks, 0, (7, 1), ((1, 1),)))
    assert str(raised.value) == (
        "block (7/triv -> 1/triv) pair 7->1: inner product (0, 1) is not a "
        "non-negative integer multiple of 1"
    )


def test_isomorphism_checks_grow_linearly(monkeypatch):
    # Anchored candidates: each vertex tries only the neighbours of its
    # anchor's image, so the round trip's search makes about one check per
    # vertex.  Scanning the whole signature group made 34 (21I) to 159
    # (45I) per vertex.
    check = next(
        c for c in find_isomorphism.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == "check"
    )
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is check:
            calls[0] += 1

    def counting(*args):
        sys.setprofile(profile)
        try:
            return find_isomorphism(*args)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(skew, "find_isomorphism", counting)
    for k in (21, 30, 45):
        calls[0] = 0
        report = unskew_round_trip(_quiver(LatticeBasis(k, 0, k)))
        assert report.cut_recovered
        assert 0 < calls[0] <= 2 * k * k, (k, calls[0])
