"""Cut existence, construction, validation and exhaustive enumeration."""
from __future__ import annotations

import itertools

import pytest

from mckay.cuts import (
    Cut,
    build_cut,
    cut_exists,
    cut_type,
    enumerate_cuts,
    invariant_cut,
    realized_types,
    validate_cut,
)
from mckay.errors import CriterionFailed, NotDivisible, TooLarge
from mckay.lattice import AbelianQuotient, LatticeBasis
from mckay.mckay_quiver import build_quiver, k_action


def _quiver(a, b, c):
    return build_quiver(AbelianQuotient(LatticeBasis(a, b, c)))


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
    assert len(cut) == 9
    assert cut_type(cut) == (3, 3, 3)
    # degree-1 arrows leave exactly the cosets with x1 + x2 = 2 mod 3
    sources = {a.source for a in cut.arrows}
    assert sources == {(0, 2), (1, 1), (2, 0)}
    assert validate_cut(q, cut).passed


def test_build_cut_reports_nonexistence():
    with pytest.raises(CriterionFailed):
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
    full = validate_cut(q, Cut.of(q.arrows))
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
    with pytest.raises(NotDivisible):
        invariant_cut(k_action(_quiver(2, 0, 2), "C"))
    with pytest.raises(NotDivisible):
        invariant_cut(k_action(_quiver(7, 3, 1), "C"))


def test_enumerate_frozen_det3():
    q = _quiver(3, 2, 1)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 3
    assert {cut_type(c) for c in cuts} == {(1, 1, 1)}
    # each cut takes all three arrows out of a single coset
    for c in cuts:
        assert len({a.source for a in c.arrows}) == 1


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
        arrows = q.arrows
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
    ids = [tuple(q.arrow_index(a) for a in arrows) for arrows in first]
    assert ids == sorted(ids)


def test_realized_types_closed_under_rotation():
    for a, b, c in [(7, 3, 1), (3, 2, 1), (3, 0, 3)]:
        q = _quiver(a, b, c)
        types = realized_types(q, limit=27)
        for g1, g2, g3 in types:
            assert (g2, g3, g1) in types


def test_too_large_guard():
    q = _quiver(10, 0, 1)
    with pytest.raises(TooLarge):
        enumerate_cuts(q)
    # raising the limit lets the search run; this quotient has no cuts
    assert enumerate_cuts(q, limit=30) == ()


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
        assert realized_types(q, limit=3 * n) == predicted
