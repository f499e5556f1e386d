"""Cut existence, construction, validation and exhaustive enumeration."""
from __future__ import annotations

import collections
import itertools
import random
import re

import pytest

from mckay import cuts
from mckay.cuts import (
    DEFAULT_ENUMERATION_LIMIT,
    Cut,
    _has_cycle,
    build_cut,
    cut_exists,
    cut_type,
    enumerate_cuts,
    invariant_cut,
    realized_types,
    validate_cut,
)
from mckay.errors import InternalInvariantViolation, PreconditionFailed
from mckay.lattice import AbelianQuotient, LatticeBasis
from mckay.mckay_quiver import STEPS, TypedQuiver, build_quiver, k_action


def _quiver(a, b, c):
    return build_quiver(AbelianQuotient(LatticeBasis(a, b, c)))


def _step(q, x, t):
    """The coset x + e_t."""
    dx, dy = STEPS[t]
    return q.quotient.reduce((x[0] + dx, x[1] + dy))


def _arrow(q, x, t):
    """The index of the type-t arrow from the coset x."""
    return 3 * q.quotient.index_of(x) + t - 1


def brute_cycles(q):
    """Every 3-cycle whose arrows use each type once, as arrow indices
    starting at the least one, in sorted order; read on coset tuples."""
    found = set()
    for x in q.vertices:
        for order in itertools.permutations((1, 2, 3)):
            walk, y = [], x
            for t in order:
                walk.append(_arrow(q, y, t))
                y = _step(q, y, t)
            if y == x:
                k = walk.index(min(walk))
                found.add(tuple(walk[k:] + walk[:k]))
    return tuple(sorted(found))


def brute_squares(q):
    """Every pair of two-step paths x -> x+e_i -> x+e_i+e_j and
    x -> x+e_j -> x+e_i+e_j, i < j, as arrow indices, by x and (i, j)."""
    return tuple(
        (
            _arrow(q, x, i),
            _arrow(q, _step(q, x, i), j),
            _arrow(q, x, j),
            _arrow(q, _step(q, x, j), i),
        )
        for x in q.vertices
        for i, j in ((1, 2), (1, 3), (2, 3))
    )


def test_cut_exists_frozen():
    b = LatticeBasis(3, 0, 3)
    assert cut_exists(b, (3, 3, 3))
    assert not cut_exists(b, (1, 4, 4))
    assert not cut_exists(b, (3, 3, 2))  # wrong total
    assert not cut_exists(b, (0, 4, 5))  # zero part
    assert not cut_exists(b, (-1, 5, 5))
    b7 = LatticeBasis(7, 3, 1)
    assert cut_exists(b7, (1, 4, 2))
    assert cut_exists(b7, (2, 1, 4))
    assert cut_exists(b7, (4, 2, 1))
    assert not cut_exists(b7, (1, 2, 4))
    assert not cut_exists(b7, (3, 3, 1))


def test_build_cut_3i():
    basis = LatticeBasis(3, 0, 3)
    q = build_quiver(AbelianQuotient(basis))
    cut = build_cut(q, (3, 3, 3))
    assert len(cut.arrows) == 9
    assert cut_type(cut) == (3, 3, 3)
    # degree-1 arrows leave exactly the cosets with x1 + x2 = 2 mod 3
    sources = {q.vertices[i // 3] for i in cut.arrows}
    assert sources == {(0, 2), (1, 1), (2, 0)}
    assert validate_cut(q, cut).passed


def test_build_cut_reports_nonexistence():
    with pytest.raises(PreconditionFailed, match=re.escape("no cut of type (1, 4, 4) exists on det 9")):
        build_cut(_quiver(3, 0, 3), (1, 4, 4))


def test_build_cut_soundness_sweep():
    # all admissible types on small quotients give valid cuts of that type
    for a, b, c in [(3, 2, 1), (2, 0, 2), (7, 3, 1), (3, 0, 3), (6, 4, 2)]:
        basis = LatticeBasis(a, b % a, c)
        q = build_quiver(AbelianQuotient(basis))
        n = basis.det
        for g1 in range(1, n - 1):
            for g2 in range(1, n - g1):
                gamma = (g1, g2, n - g1 - g2)
                if gamma[2] < 1 or not cut_exists(basis, gamma):
                    continue
                cut = build_cut(q, gamma)
                assert cut_type(cut) == gamma
                assert validate_cut(q, cut).passed


def test_validate_rejects_trivial_cuts():
    q = _quiver(3, 2, 1)
    empty = validate_cut(q, Cut.of([]))
    assert not empty.passed
    assert not empty.cycles_unit_degree
    full = validate_cut(q, Cut.of(range(len(q.head))))
    assert not full.passed
    assert full.witnesses


def test_validate_rejects_unbalanced_square():
    q = _quiver(3, 0, 3)
    good = build_cut(q, (3, 3, 3))
    # dropping a single arrow unbalances squares and breaks a cycle
    broken = Cut.of(list(good.arrows)[1:])
    report = validate_cut(q, broken)
    assert not report.passed
    assert not report.squares_balanced or not report.cycles_unit_degree


def reference_validate_cut(q, cut):
    """validate_cut on the constraint tables, as first written."""
    cuts._check_arrows(q, cut)
    head, cycles, squares = q.constraint_tables
    degree = cuts._degrees(q, cut)
    vertices = q.vertices
    witnesses: list[str] = []

    squares_ok = True
    for a, b, c, d in squares:
        d1 = degree[a] + degree[b]
        d2 = degree[c] + degree[d]
        if d1 != d2:
            squares_ok = False
            witnesses.append(
                f"square at {vertices[a // 3]} types {(a % 3 + 1, c % 3 + 1)}: "
                f"path degrees {d1} != {d2}"
            )
            break

    cycles_ok = True
    for cyc in cycles:
        a, b, c = cyc
        d = degree[a] + degree[b] + degree[c]
        if d != 1:
            cycles_ok = False
            witnesses.append(
                f"elementary cycle at {vertices[a // 3]} order "
                f"{tuple(i % 3 + 1 for i in cyc)}: degree {d} != 1"
            )
            break

    degree_zero = [(i // 3, w) for i, w in enumerate(head) if not degree[i]]
    cyclic, walk = _has_cycle(len(vertices), degree_zero)
    acyclic_ok = not cyclic
    if cyclic:
        witnesses.append(f"degree-0 cycle through {[vertices[x] for x in walk]}")

    return cuts.ValidationReport(
        squares_balanced=squares_ok,
        cycles_unit_degree=cycles_ok,
        degree_zero_acyclic=acyclic_ok,
        witnesses=tuple(witnesses),
    )


def test_validation_matches_the_constraint_table_reference():
    # Every arrow subset of two small quivers, then seeded random subsets
    # (sparse, even and dense) and every one-arrow change of a valid cut on
    # larger ones: failing squares and cycles that are not first in table
    # order, and degree-0 cycles, must be named by the same witnesses.
    witnesses = set()
    passed = 0
    for abc in [(3, 2, 1), (2, 0, 2)]:
        q = _quiver(*abc)
        na = len(q.head)
        for bits in range(1 << na):
            cut = Cut.of(i for i in range(na) if bits >> i & 1)
            report = validate_cut(q, cut)
            assert report == reference_validate_cut(q, cut), (abc, cut)
            witnesses.update(report.witnesses)
            passed += report.passed
    rng = random.Random(29)
    for abc, gamma in [((3, 0, 3), (3, 3, 3)), ((4, 0, 4), (4, 4, 8)), ((6, 4, 2), (4, 4, 4))]:
        q = _quiver(*abc)
        na = len(q.head)
        subsets = [
            [i for i in range(na) if rng.random() < p]
            for p in (0.2, 1 / 3, 0.5, 0.8)
            for _ in range(75)
        ]
        valid = build_cut(q, gamma).arrows
        subsets += [valid] + [sorted(set(valid) ^ {i}) for i in range(na)]
        for arrows in subsets:
            cut = Cut.of(arrows)
            report = validate_cut(q, cut)
            assert report == reference_validate_cut(q, cut), (abc, cut)
            witnesses.update(report.witnesses)
            passed += report.passed
    assert passed >= 6
    # Distinct witnesses of each axiom, most of them not first in table order.
    kinds = collections.Counter(w.split()[0] for w in witnesses)
    assert min(kinds["square"], kinds["elementary"], kinds["degree-0"]) > 20, kinds


def test_invariant_cut_types():
    assert cut_type(invariant_cut(k_action(_quiver(3, 2, 1), "C"))) == (1, 1, 1)
    assert cut_type(invariant_cut(k_action(_quiver(3, 0, 3), "C"))) == (3, 3, 3)
    assert cut_type(invariant_cut(k_action(_quiver(3, 0, 3), "D"))) == (3, 3, 3)
    assert cut_type(invariant_cut(k_action(_quiver(6, 4, 2), "C"))) == (4, 4, 4)


def test_invariant_cut_is_action_stable():
    for a, b, c, kind in [
        (3, 2, 1, "C"), (3, 0, 3, "C"), (3, 0, 3, "D"),
        (6, 4, 2, "C"), (6, 4, 2, "D"), (9, 6, 3, "D"),
    ]:
        basis = LatticeBasis(a, b, c)
        q = build_quiver(AbelianQuotient(basis))
        act = k_action(q, kind)
        cut = invariant_cut(act)
        assert act.is_arrow_set_invariant(cut.arrows)
        assert validate_cut(q, cut).passed


def test_invariant_cut_needs_divisibility():
    with pytest.raises(PreconditionFailed, match=re.escape("3 does not divide det(B) = 4")):
        invariant_cut(k_action(_quiver(2, 0, 2), "C"))
    with pytest.raises(PreconditionFailed, match=re.escape("3 does not divide det(B) = 7")):
        invariant_cut(k_action(_quiver(7, 3, 1), "C"))


def test_enumerate_frozen_det3():
    q = _quiver(3, 2, 1)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 3
    assert {cut_type(c) for c in cuts} == {(1, 1, 1)}
    # each cut takes all three arrows out of a single coset
    for c in cuts:
        assert len({i // 3 for i in c.arrows}) == 1


def test_enumerate_frozen_no_cuts():
    assert enumerate_cuts(_quiver(2, 0, 2)) == ()
    assert enumerate_cuts(_quiver(4, 0, 1), limit=12) == ()


def test_enumerate_frozen_det7():
    q = _quiver(7, 3, 1)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 21
    types = {cut_type(c) for c in cuts}
    assert types == {(1, 4, 2), (2, 1, 4), (4, 2, 1)}
    for t in types:
        assert sum(1 for c in cuts if cut_type(c) == t) == 7
    for c in cuts:
        assert validate_cut(q, c).passed


def test_enumerate_matches_brute_force():
    # independent oracle: test every arrow subset on tiny quotients
    for a, b, c in [(3, 2, 1), (2, 0, 2), (4, 2, 1), (2, 1, 2)]:
        q = _quiver(a, b, c)
        arrows = range(len(q.head))
        brute = set()
        for bits in itertools.product((0, 1), repeat=len(arrows)):
            chosen = Cut.of(a for a, keep in zip(arrows, bits) if keep)
            if validate_cut(q, chosen).passed:
                brute.add(chosen.arrows)
        fast = {c.arrows for c in enumerate_cuts(q, limit=len(arrows))}
        assert fast == brute


def test_enumeration_order_is_deterministic():
    q = _quiver(7, 3, 1)
    first = [c.arrows for c in enumerate_cuts(q)]
    second = [c.arrows for c in enumerate_cuts(q)]
    assert first == second
    assert first == sorted(first)


def _strictly_increasing(arrows):
    return all(a < b for a, b in zip(arrows, arrows[1:]))


def test_cuts_are_strictly_increasing_arrow_indices():
    # Sorted indices are the canonical (source coset, type) order, since
    # vertex v = x1 c + x2 numbers the cosets in their lexicographic order.
    for a, b, c, kind in [(3, 2, 1, "C"), (3, 0, 3, "D"), (6, 4, 2, "C"), (7, 3, 1, None)]:
        q = _quiver(a, b, c)
        n = a * c
        types = [(g1, g2, n - g1 - g2) for g1 in range(1, n) for g2 in range(1, n - g1)]
        found = [build_cut(q, g) for g in types if cut_exists(q.quotient.basis, g)]
        assert found
        found += enumerate_cuts(q, limit=3 * n)
        if kind is not None:
            found.append(invariant_cut(k_action(q, kind)))
        for cut in found:
            assert isinstance(cut.arrows, tuple)
            assert all(isinstance(i, int) and 0 <= i < 3 * n for i in cut.arrows)
            assert _strictly_increasing(cut.arrows), (a, b, c, cut)


def test_realized_types_closed_under_rotation():
    for a, b, c in [(7, 3, 1), (3, 2, 1), (3, 0, 3)]:
        q = _quiver(a, b, c)
        types = realized_types(q)
        for g1, g2, g3 in types:
            assert (g2, g3, g1) in types


def test_too_large_guard():
    q = _quiver(10, 0, 1)
    with pytest.raises(ValueError, match="^30 arrows exceeds the enumeration guard 27$"):
        enumerate_cuts(q)
    # raising the limit lets the search run; this quotient has no cuts, and
    # realized_types, which has no guard, finds no type
    assert enumerate_cuts(q, limit=30) == ()
    assert realized_types(q) == set()


def test_criterion_is_sharp_on_non_admissible_quotients():
    # the existence criterion speaks about every abelian quotient
    for a, b, c in [(4, 0, 1), (5, 0, 1), (6, 2, 1), (4, 2, 1)]:
        basis = LatticeBasis(a, b, c)
        q = build_quiver(AbelianQuotient(basis))
        n = basis.det
        predicted = {
            (g1, g2, n - g1 - g2)
            for g1 in range(1, n)
            for g2 in range(1, n - g1)
            if n - g1 - g2 >= 1 and cut_exists(basis, (g1, g2, n - g1 - g2))
        }
        assert realized_types(q) == predicted


# The search as it was before degree-0 cycles were rejected during
# propagation, kept verbatim (apart from its name, its guard's error, now
# a plain ValueError, its cycles and squares, now read from the
# brute-force definitions above, and its arrows, now arrow indices whose
# heads are stepped on coset tuples) as the reference that the pruned
# search must reproduce cut for cut and in the same order.
def reference_enumerate_cuts(q: TypedQuiver, limit: int = DEFAULT_ENUMERATION_LIMIT) -> tuple[Cut, ...]:
    """All valid cuts, by exhaustive backtracking over arrow degrees.

    Elementary cycles give exactly-one constraints that drive unit
    propagation; squares prune by degree intervals; leaves are checked
    for degree-0 acyclicity.  Cuts are emitted in lexicographic order of
    their sorted arrow-index lists.
    """
    na = 3 * len(q.vertices)
    if na > limit:
        raise ValueError(f"{na} arrows exceeds the enumeration guard {limit}")
    cycles = list(brute_cycles(q))
    squares = [((a, b), (c, d)) for a, b, c, d in brute_squares(q)]
    in_cycles: list[list[int]] = [[] for _ in range(na)]
    for ci, cyc in enumerate(cycles):
        for ai in cyc:
            in_cycles[ai].append(ci)
    in_squares: list[list[int]] = [[] for _ in range(na)]
    for si, (p1, p2) in enumerate(squares):
        for ai in (*p1, *p2):
            in_squares[ai].append(si)

    assign = [-1] * na
    trail: list[int] = []
    results: list[Cut] = []

    def set_value(ai: int, value: int) -> bool:
        if assign[ai] != -1:
            return assign[ai] == value
        assign[ai] = value
        trail.append(ai)
        queue = [ai]
        while queue:
            x = queue.pop()
            for ci in in_cycles[x]:
                ones = sum(1 for y in cycles[ci] if assign[y] == 1)
                undecided = [y for y in cycles[ci] if assign[y] == -1]
                if ones > 1 or (ones == 0 and not undecided):
                    return False
                if ones == 1:
                    for y in undecided:
                        assign[y] = 0
                        trail.append(y)
                        queue.append(y)
                elif ones == 0 and len(undecided) == 1:
                    y = undecided[0]
                    assign[y] = 1
                    trail.append(y)
                    queue.append(y)
            for si in in_squares[x]:
                p1, p2 = squares[si]
                lo1 = sum(1 for y in p1 if assign[y] == 1)
                hi1 = lo1 + sum(1 for y in p1 if assign[y] == -1)
                lo2 = sum(1 for y in p2 if assign[y] == 1)
                hi2 = lo2 + sum(1 for y in p2 if assign[y] == -1)
                if lo1 > hi2 or lo2 > hi1:
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            assign[trail.pop()] = -1

    def leaf_ok() -> bool:
        for p1, p2 in squares:
            if sum(assign[y] for y in p1) != sum(assign[y] for y in p2):
                return False
        degree_zero = [
            (i // 3, q.quotient.index_of(_step(q, q.vertices[i // 3], i % 3 + 1)))
            for i in range(na)
            if assign[i] == 0
        ]
        cyclic, _ = _has_cycle(len(q.vertices), degree_zero)
        return not cyclic

    def dfs(pos: int) -> None:
        while pos < na and assign[pos] != -1:
            pos += 1
        if pos == na:
            if leaf_ok():
                results.append(
                    Cut.of(i for i in range(na) if assign[i] == 1)
                )
            return
        for value in (1, 0):
            mark = len(trail)
            if set_value(pos, value):
                dfs(pos + 1)
            undo(mark)

    dfs(0)
    return tuple(results)


def _hnf_bases(max_det):
    for a in range(1, max_det + 1):
        for c in range(1, max_det // a + 1):
            for b in range(a):
                yield LatticeBasis(a, b, c)


def test_search_matches_the_reference():
    for basis in _hnf_bases(10):
        q = build_quiver(AbelianQuotient(basis))
        limit = 3 * basis.det
        reference = reference_enumerate_cuts(q, limit)
        assert enumerate_cuts(q, limit) == reference, basis
        assert realized_types(q) == {cut_type(cut) for cut in reference}, basis
        # A zero component would make every e_t-orbit a degree-0 cycle.  So
        # a translate of every cut holds the origin's type-1 arrow, which is
        # the one arrow realized_types fixes before it searches.
        assert all(min(cut_type(cut)) > 0 for cut in reference), basis
    for a, b, c in [(19, 8, 1), (4, 0, 4)]:
        q = _quiver(a, b, c)
        reference = reference_enumerate_cuts(q, 3 * a * c)
        assert realized_types(q) == {cut_type(cut) for cut in reference}


@pytest.mark.parametrize("abc", [(13, 0, 1), (1, 0, 12)])
def test_degree_zero_cycles_fail_before_the_leaves(monkeypatch, abc):
    # Type-2 (resp. type-1) arrows are loops here, so no cut exists; the
    # leaf check used to run on 8,193 (resp. 4,097) complete assignments.
    calls = []

    def counting(nv, edges):
        calls.append(1)
        return _has_cycle(nv, edges)

    monkeypatch.setattr(cuts, "_has_cycle", counting)
    q = _quiver(*abc)
    assert enumerate_cuts(q, limit=40) == ()
    assert realized_types(q) == set()
    assert len(calls) <= 1


def test_realized_types_are_the_types_of_the_enumerated_cuts():
    for basis in _hnf_bases(12):
        q = build_quiver(AbelianQuotient(basis))
        limit = 3 * basis.det
        expected = {cut_type(cut) for cut in enumerate_cuts(q, limit)}
        assert realized_types(q) == expected, basis


@pytest.mark.parametrize("abc, leaves", [((9, 6, 3), 10), ((5, 0, 5), 6), ((7, 3, 1), 3)])
def test_type_directed_search_reaches_one_leaf_per_type(monkeypatch, abc, leaves):
    # The leaf check runs _has_cycle once per leaf whose squares balance.
    calls = []

    def counting(nv, edges):
        calls.append(1)
        return _has_cycle(nv, edges)

    monkeypatch.setattr(cuts, "_has_cycle", counting)
    q = _quiver(*abc)
    assert len(realized_types(q)) == leaves
    assert len(calls) == leaves


def test_a_leaf_off_its_forced_type_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(cuts, "_forced_type", lambda n, walks, assign: (0, 0, n))
    with pytest.raises(InternalInvariantViolation) as raised:
        realized_types(_quiver(3, 2, 1))
    assert str(raised.value) == (
        "cut search on basis ((3, 2), (0, 1)): a leaf of type (1, 1, 1), "
        "but its two closed walks force (0, 0, 3)"
    )


@pytest.mark.parametrize("abc", [(39, 16, 1), (9, 6, 3)])
def test_walk_sum_boxes_prune_before_the_forced_type(monkeypatch, abc):
    # The box test runs at every node; without it before the forced-type
    # point, the nodes at or past that point alone number 838 and 247.
    # The forced type itself is evaluated once per leaf, one leaf per type.
    nodes = []
    forced = []
    search = cuts._search
    forced_type = cuts._forced_type

    def counting_search(*args, keep, **kwargs):
        def counting_keep(assign):
            nodes.append(1)
            return keep(assign)

        return search(*args, keep=counting_keep, **kwargs)

    def counting_forced_type(n, walks, assign):
        forced.append(1)
        return forced_type(n, walks, assign)

    monkeypatch.setattr(cuts, "_search", counting_search)
    monkeypatch.setattr(cuts, "_forced_type", counting_forced_type)
    q = _quiver(*abc)
    types = realized_types(q)
    assert len(nodes) <= 240
    assert len(forced) == len(types)


def test_closed_walks_fix_the_type_of_every_cut():
    # n times a walk's degree sum is m . gamma on every valid cut, and the
    # two walks' lattice vectors (m1 - m3, m2 - m3) span a lattice of index n.
    cuts_seen = 0
    for basis in _hnf_bases(10):
        q = build_quiver(AbelianQuotient(basis))
        n = basis.det
        head, _, _ = q.constraint_tables
        walks = cuts._closed_walks(q)
        for arrows, m in walks:
            assert [sum(1 for i in arrows if i % 3 == t) for t in range(3)] == list(m)
            vertex = 0
            for i in arrows:
                assert i // 3 == vertex, basis
                vertex = head[i]
            assert vertex == 0, basis
        (_, (a1, a2, a3)), (_, (b1, b2, b3)) = walks
        assert abs((a1 - a3) * (b2 - b3) - (a2 - a3) * (b1 - b3)) == n, basis
        for cut in enumerate_cuts(q, 3 * n):
            degree = [0] * (3 * n)
            for a in cut.arrows:
                degree[a] = 1
            gamma = cut_type(cut)
            for arrows, m in walks:
                assert n * sum(degree[i] for i in arrows) == sum(
                    mt * gt for mt, gt in zip(m, gamma)
                ), (basis, cut)
            assert cuts._forced_type(n, walks, degree) == gamma
            cuts_seen += 1
    assert cuts_seen == 1914
    # [[3, 2], [0, 1]] reduces to (1, -1) and (1, 2); the first needs an e_3 step.
    assert [m for _, m in cuts._closed_walks(_quiver(3, 2, 1))] == [(2, 0, 1), (1, 2, 0)]


@pytest.mark.parametrize("abc", [(3, 2, 1), (3, 0, 3), (7, 3, 1), (6, 4, 2), (2, 1, 1), (4, 2, 3)])
def test_constraint_tables_match_the_definition(abc):
    q = _quiver(*abc)
    head, cycles, squares = q.constraint_tables
    index_of = q.quotient.index_of
    assert head == tuple(index_of(_step(q, x, t)) for x in q.vertices for t in (1, 2, 3))
    assert cycles == brute_cycles(q)
    assert squares == brute_squares(q)
    assert q.constraint_tables is q.constraint_tables
