"""Skew-group quivers, loop witnesses, cut transport and the dual-twist round trip."""
from __future__ import annotations

import itertools
import sys
import types

import numpy as np
import pytest

from conftest import np_class_count, np_loop_profile, np_power_sums, to_complex
from mckay import skew
from mckay.cuts import Cut, build_cut, cut_type, invariant_cut
from mckay.cyclotomic import reduce_mod_cyclotomic
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
    _orbit_pairs,
    _QuiverCarrier,
    _transport,
    _TwistCarrier,
    dual_twist_action,
    loop_witness,
    skew_quiver,
    transport_cut,
    unskew_round_trip,
)


def _quiver(basis):
    return build_quiver(AbelianQuotient(basis))


def _action(basis, kind, **kw):
    return k_action(_quiver(basis), kind, **kw)


def _skew(basis, kind, **kw):
    act = _action(basis, kind, **kw)
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
    two, three = LatticeBasis(2, 0, 2), LatticeBasis(3, 0, 3)
    cases = [(two, "C", {}, [(3, 2)])]
    s4 = [(3, 1), (3, 1)]
    for basis, m, expected in [(two, 2, s4), (two, 4, s4), (three, 6, [])]:
        for scalars in _accepted_scalars(basis, m):
            cases.append((basis, "D", {"root_order": m, "scalars": scalars}, expected))
    assert len(cases) == 1 + 17  # of 4 + 16 + 36 kind-D choices
    for basis, kind, kw, expected in cases:
        _, _, s = _skew(basis, kind, **kw)
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


@pytest.mark.parametrize("kw", [{}, {"root_order": 12, "scalars": (1, 11, 6)}])
def test_an_involution_traces_its_fixed_type_by_minus_one(kw):
    # At 2I the three arrows from vertex 0 have distinct heads; s fixes
    # vertex 0 and type 3 and acts there by -1 whatever the scalars.
    act = _action(LatticeBasis(2, 0, 2), "D", **kw)
    carrier = _QuiverCarrier(act)
    w = act.quiver.head[2]  # the type-3 arrow from vertex 0
    s = act.group.names.index("s")
    assert act.group.maps[s][0] == 0
    assert carrier.block_trace(s, 0, w) == ((0, -1),)
    assert carrier.block_trace(0, 0, w) == ((0, 1),)


def test_every_trace_is_reduced_in_the_field_of_cube_roots(monkeypatch):
    # Default kind D scalars are all -1, whatever the root order.
    basis = LatticeBasis(3, 0, 3)
    s = skew_quiver(_action(basis, "D", root_order=8192))
    _, _, small = _skew(basis, "D", root_order=2)
    assert s.vertices == small.vertices and s.mult == small.mult
    # Scalars of order 8192 still give traces in Z[omega]: only the identity
    # and the involutions fix a type, and an involution acts there by -1.
    # The literal was captured from the earlier power-basis engine, which
    # took 25 s here.
    high = _action(basis, "D", root_order=8192, scalars=(1, 1, 4094))
    orders = set()

    def reduce(order, counts):
        orders.add(order)
        return reduce_mod_cyclotomic(order, counts)

    monkeypatch.setattr(skew, "reduce_mod_cyclotomic", reduce)
    s = skew_quiver(high)
    assert orders == {3}
    vertices = high.quiver.vertices
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


def test_a_huge_root_order_builds_no_field_of_its_order():
    # No scalar enters a trace, only the sign -1 of an involution on the
    # type it fixes, so a root order of 2,000,000 gives the quiver of the
    # golden 2I case at root order 4;
    # the engine never reduces modulo a cyclotomic polynomial of order M.
    basis = LatticeBasis(2, 0, 2)
    _, _, huge = _skew(basis, "D", root_order=2_000_000, scalars=(1, 0, 999_999))
    _, _, small = _skew(basis, "D", root_order=4, scalars=(1, 0, 1))
    assert huge.vertices == small.vertices and huge.mult == small.mult


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
        target = q.reduce((x[0] + 1, x[1]))  # type-1 arrow endpoint
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
            for ai, bi in st.mult:
                o1 = {q.vertices[u] for u in orbit_of[st.vertices[ai].orbit_rep]}
                o2 = {q.vertices[u] for u in orbit_of[st.vertices[bi].orbit_rep]}
                brute = {
                    cut.degree(a)
                    for a, w in enumerate(q.head)
                    if q.vertices[a // 3] in o1 and q.vertices[w] in o2
                }
                assert brute == {st.degrees[(ai, bi)]}, (basis, kind, ai, bi)
                checked += 1
    assert checked == 388


@pytest.mark.parametrize(
    "degrees, message",
    [
        (set(), "block (0, 3) has multiplicity 1 but no underlying arrows"),
        ({0, 1}, "arrows between orbits of 0 and 1 carry mixed degrees [0, 1]"),
    ],
    ids=["empty", "mixed"],
)
def test_transport_names_an_empty_or_mixed_block(degrees, message):
    _, act, s = _skew(LatticeBasis(3, 0, 3), "C")
    assert min(s.mult.items()) == ((0, 3), 1)
    edges = [(0, 1, d) for d in degrees]  # 0 and 1 represent the block's orbits
    with pytest.raises(InternalInvariantViolation) as raised:
        _transport(s.vertices, s.mult, act.group.orbit_of, edges)
    assert str(raised.value) == message


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
    _, _, s = _skew(basis, "C")
    tw = dual_twist_action(s)
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


def test_dual_twist_needs_kind_c():
    _, _, s = _skew(LatticeBasis(3, 0, 3), "D")
    with pytest.raises(ValueError):
        dual_twist_action(s)


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


class _Wrapped:
    """A carrier passing blocks through to another; `every_point` makes its
    out-neighbours every point, which forces the engine to visit all pairs."""

    def __init__(self, inner, every_point=False):
        self.inner = inner
        self.group = inner.group
        self.every_point = every_point
        self.block_dim_calls = 0

    def block_dim(self, v, w):
        self.block_dim_calls += 1
        return self.inner.block_dim(v, w)

    def block_trace(self, g, v, w):
        return self.inner.block_trace(g, v, w)

    def out_neighbours(self, v):
        return self.group.points if self.every_point else self.inner.out_neighbours(v)


class _Tampered(_Wrapped):
    """A carrier passing blocks through to another, except that the trace of
    element g on one block is replaced by the given terms."""

    def __init__(self, inner, g, block, terms):
        super().__init__(inner)
        self.tampered = (g, *block)
        self.terms = terms

    def block_trace(self, g, v, w):
        if (g, v, w) == self.tampered:
            return self.terms
        return self.inner.block_trace(g, v, w)


@pytest.mark.parametrize(
    "g, terms, coords",
    [
        # The involution fixing (0, 1), vertex 1, scales the arrow by -1;
        # as omega the triv -> triv inner product is 1 + omega.
        (4, ((1, 1),), "(1, 1)"),
        # Two arrows at the identity, one at the involution: 2 - 1 = 1,
        # an integer but not a multiple of |joint| = 2.
        (0, ((0, 2),), "(1, 0)"),
    ],
)
def test_a_tampered_trace_is_a_non_integral_multiplicity(g, terms, coords):
    inner = _QuiverCarrier(_action(LatticeBasis(2, 0, 2), "D"))
    block = (0, 1)  # the cosets (0, 0) and (0, 1)
    assert inner.group.stabilizer(1) == (0, 4)
    assert inner.block_trace(4, *block) == ((0, -1),)
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(_Tampered(inner, g, block, terms))
    assert str(raised.value) == (
        "block (0/triv -> 1/triv) pair 0->1: inner "
        f"product {coords} is not a non-negative integer multiple of 2"
    )


def _assert_same_as_all_pairs(carrier):
    vertices, mult = _demonet(carrier)
    all_vertices, all_mult = _demonet(_Wrapped(carrier, every_point=True))
    assert vertices == all_vertices
    assert list(mult.items()) == list(all_mult.items())


@pytest.mark.parametrize(
    "kind, kw", [("C", {}), ("D", {}), ("D", {"root_order": 4, "scalars": (2, 0, 0)})]
)
def test_adjacent_pairs_match_all_pairs(kind, kw):
    for basis in admissible_bases(36, kind):
        _assert_same_as_all_pairs(_QuiverCarrier(_action(basis, kind, **kw)))


def test_adjacent_pairs_match_all_pairs_for_the_twist():
    bases = [b for b in admissible_bases(36, "C") if b.det % 3 == 0]
    assert bases
    for basis in bases:
        _, act, s = _skew(basis, "C")
        _assert_same_as_all_pairs(_TwistCarrier(s, dual_twist_action(s), act))


def test_skew_work_grows_linearly():
    # Block lookups, counted rather than timed: quadrupling det(B) should
    # about quadruple them (the all-pairs sweep grows them about 16-fold).
    calls = []
    for k in (15, 30):
        carrier = _Wrapped(_QuiverCarrier(_action(LatticeBasis(k, 0, k), "C")))
        _demonet(carrier)
        calls.append(carrier.block_dim_calls)
    assert calls[1] <= 5 * calls[0]


class _CountingEmpty(_Wrapped):
    """A carrier passing blocks through to another, counting the block
    lookups that find no arrows."""

    def __init__(self, inner):
        super().__init__(inner)
        self.empty_calls = 0

    def block_dim(self, v, w):
        dim = super().block_dim(v, w)
        self.empty_calls += dim == 0
        return dim


def test_the_engine_looks_up_no_empty_block():
    for kind in ("C", "D"):
        for basis in admissible_bases(36, kind):
            carrier = _CountingEmpty(_QuiverCarrier(_action(basis, kind)))
            _demonet(carrier)
            assert carrier.empty_calls == 0, (basis, kind)
    for basis in admissible_bases(36, "C"):
        if basis.det % 3 == 0:
            _, act, s = _skew(basis, "C")
            carrier = _CountingEmpty(_TwistCarrier(s, dual_twist_action(s), act))
            _demonet(carrier)
            assert carrier.empty_calls == 0, basis


@pytest.mark.parametrize("kind, calls", [("C", 900), ("D", 465)])
def test_block_lookups_at_30i(kind, calls):
    # One lookup per representative pair.  Looking each up once per pair of
    # skew vertices over its orbits took 912 (kind C) and 622 (kind D); a
    # transversal of every diagonal orbit took 2,691 and 2,842, 1,779 and
    # 2,220 of them on empty blocks.
    carrier = _Wrapped(_QuiverCarrier(_action(LatticeBasis(30, 0, 30), kind)))
    _demonet(carrier)
    assert carrier.block_dim_calls == calls


def test_twist_weights_are_checked_on_every_block():
    # Each block's weights are checked against its multiplicity, also a
    # block read after another block of the same skew vertex.
    _, act, s = _skew(LatticeBasis(3, 0, 3), "C")
    v, (w1, w2) = next(
        (v, ws[:2])
        for v in range(len(s.vertices))
        if len(ws := [w for (x, w), m in s.mult.items() if x == v and m]) > 1
    )
    m = s.mult[(v, w2)]
    tampered = s._replace(mult={**s.mult, (v, w2): m + 1})
    carrier = _TwistCarrier(tampered, dual_twist_action(tampered), act)
    carrier._weights(v, w1)
    with pytest.raises(InternalInvariantViolation) as raised:
        carrier._weights(v, w2)
    assert str(raised.value) == (
        f"weight decomposition of block ({v}, {w2}) sums to {m}, multiplicity is {m + 1}"
    )


def reference_demonet(carrier) -> tuple[tuple[SkewVertex, ...], dict]:
    """Skew vertices and multiplicities, one skew-vertex pair at a time.

    For each skew vertex a over r and each skew vertex b over an orbit met
    by r's out-neighbours, sum the Hom dimensions of the blocks (r, u2),
    one per representative pair with u2 in b's orbit, each inner product
    summed and reduced on its own.  Multiplicities are inserted a by a,
    then b in ascending order.
    """
    group = carrier.group
    maps, table, inverse = group.maps, group.table, group.inverse
    transversal = group.transversal

    stab = {orbit[0]: group.stabilizer(orbit[0]) for orbit in group.orbits}

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
                    degree=deg,
                    orbit_size=len(orbit),
                    dimension=len(orbit) * deg,
                )
            )
            row: list = [None] * len(table)
            for h in stab[rep]:
                row[h] = _char_value(group, stab[rep], label, h)
            rows.append(row)
        over[rep] = range(first, len(skew_vertices))

    def block_terms(u1: int, u2: int) -> tuple:
        """(h, h2, trace) per element h of the joint stabilizer of the
        representative u1 and u2, h2 being h moved into the stabilizer of
        u2's representative."""
        g2 = transversal[u2]
        g2i = inverse[g2]
        return tuple(
            (h, table[g2i][table[h][g2]], carrier.block_trace(h, u1, u2))
            for h in stab[u1]
            if maps[h][u2] == u2
        )

    pairs = {
        rep: _orbit_pairs(group, rep, stab[rep], carrier.out_neighbours(rep))
        for rep in stab
    }
    targets = {
        rep: sorted(bi for r2 in pairs[rep] for bi in over[r2]) for rep in stab
    }

    # A memo local to this call, so a one-shot call gets the whole gain.
    block_cache: dict[tuple[int, int], tuple] = {}
    block_dim = carrier.block_dim
    mult: dict[tuple[int, int], int] = {}
    for ai, va in enumerate(skew_vertices):
        u1 = va.orbit_rep
        row_a = rows[ai]
        for bi in targets[u1]:
            vb = skew_vertices[bi]
            row_b = rows[bi]
            total = 0
            for u2 in pairs[u1][vb.orbit_rep]:
                if block_dim(u1, u2) == 0:
                    continue
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


def _assert_same_as_reference(carrier):
    vertices, mult = _demonet(carrier)
    ref_vertices, ref_mult = reference_demonet(carrier)
    assert vertices == ref_vertices
    assert list(mult.items()) == list(ref_mult.items())


@pytest.mark.parametrize(
    "kind, kw", [("C", {}), ("D", {}), ("D", {"root_order": 4, "scalars": (2, 0, 0)})]
)
def test_block_major_engine_matches_the_reference(kind, kw):
    for basis in admissible_bases(36, kind):
        _assert_same_as_reference(_QuiverCarrier(_action(basis, kind, **kw)))


def test_block_major_engine_matches_the_reference_for_the_twist():
    bases = [b for b in admissible_bases(36, "C") if b.det % 3 == 0]
    assert bases
    for basis in bases:
        _, act, s = _skew(basis, "C")
        _assert_same_as_reference(_TwistCarrier(s, dual_twist_action(s), act))


def test_block_classes_are_keyed_by_their_terms():
    # At 3I of kind C the block 7 -> 1 is the last one visited, and its
    # clean class, with the stabilizers and terms of the block 0 -> 1, was
    # memoised on the first.  A tampered trace on it must be summed afresh.
    inner = _QuiverCarrier(_action(LatticeBasis(3, 0, 3), "C"))
    group = inner.group
    assert group.stabilizer(7) == group.stabilizer(0) == (0, 1, 2)
    assert group.stabilizer(1) == (0,)
    assert inner.block_trace(0, 7, 1) == inner.block_trace(0, 0, 1) == ((0, 1),)
    with pytest.raises(InternalInvariantViolation) as raised:
        _demonet(_Tampered(inner, 0, (7, 1), ((1, 1),)))
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
