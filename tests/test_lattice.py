"""Hermite/Smith forms, coset arithmetic and the admissibility criterion."""
from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import lattice
from mckay.errors import InternalInvariantViolation, PreconditionFailed
from mckay.lattice import (
    ROTATION_MATRIX,
    SWAP_MATRIX,
    AbelianQuotient,
    LatticeBasis,
    admissible_bases,
    check_admissible,
    conjugate_is_integral,
    hermite_normal_form,
    is_admissible,
)


def test_hnf_frozen_examples():
    assert hermite_normal_form([(2, 0), (3, 1)]) == LatticeBasis(2, 1, 1)
    assert hermite_normal_form([(0, -2), (2, 0)]) == LatticeBasis(2, 0, 2)
    assert hermite_normal_form([(3, 0), (2, 1)]) == LatticeBasis(3, 2, 1)


def test_hnf_rejects_singular():
    with pytest.raises(ValueError, match="^generators span a rank < 2 sublattice$"):
        hermite_normal_form([(2, 4), (1, 2)])
    with pytest.raises(ValueError, match="^generators span a rank < 2 sublattice$"):
        hermite_normal_form([(0, 0), (0, 0)])


unimodular = st.sampled_from(
    [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)), ((2, 1), (1, 1)),
     ((1, 3), (0, 1)), ((-1, 0), (0, -1)), ((5, 2), (2, 1))]
)
small_cols = st.tuples(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)


def _matmul(cols, u):
    # postcompose with the unimodular matrix: new columns are combinations
    (a, c), (b, d) = cols
    (u11, u21), (u12, u22) = u
    return (
        (a * u11 + b * u21, c * u11 + d * u21),
        (a * u12 + b * u22, c * u12 + d * u22),
    )


@settings(max_examples=300, deadline=None)
@given(small_cols, unimodular)
def test_hnf_is_a_lattice_invariant(cols, u):
    det = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
    if det == 0:
        with pytest.raises(ValueError, match="^generators span a rank < 2 sublattice$"):
            hermite_normal_form(cols)
        return
    h1 = hermite_normal_form(cols)
    h2 = hermite_normal_form(_matmul(cols, u))
    assert h1 == h2
    assert h1.det == abs(det)
    assert 0 <= h1.b < h1.a and h1.c > 0


def test_hnf_output_spans_same_lattice():
    cols = ((4, 2), (6, 5))
    h = hermite_normal_form(cols)
    for col in cols:
        assert h.reduce(col) == (0, 0)


def test_smith_invariants():
    assert LatticeBasis(3, 2, 1).smith_invariants() == (1, 3)
    assert LatticeBasis(2, 0, 2).smith_invariants() == (2, 2)
    assert LatticeBasis(3, 0, 3).smith_invariants() == (3, 3)
    assert LatticeBasis(6, 4, 2).smith_invariants() == (2, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 8), st.integers(1, 9))
def test_smith_divisibility(a, b, c):
    b %= a
    basis = LatticeBasis(a, b, c)
    d1, d2 = basis.smith_invariants()
    assert d1 * d2 == basis.det
    assert d2 % d1 == 0


def test_reduce_frozen(basis_2i):
    q = AbelianQuotient(basis_2i)
    assert q.basis.reduce((3, 5)) == (1, 1)
    assert q.basis.reduce((0, 0)) == (0, 0)
    assert q.basis.reduce((-1, -1)) == (1, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), st.integers(0, 5), st.integers(1, 6),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_reduce_is_a_retraction(a, b, c, x):
    basis = LatticeBasis(a, b % a, c)
    q = AbelianQuotient(basis)
    r = q.basis.reduce(x)
    assert r in q.basis.cosets()
    assert q.basis.reduce(r) == r
    # x - r is in the lattice
    assert basis.reduce((x[0] - r[0], x[1] - r[1])) == (0, 0)


def test_cosets_and_indexing(basis_3i):
    q = AbelianQuotient(basis_3i)
    assert q.order == 9
    assert len(q.basis.cosets()) == 9
    assert q.basis.cosets() == tuple(sorted(q.basis.cosets()))
    assert sorted(q.index_of(v) for v in q.basis.cosets()) == list(range(9))


def test_translation_compatibility(basis_321):
    q = AbelianQuotient(basis_321)
    for v in q.basis.cosets():
        for w in q.basis.cosets():
            direct = q.basis.reduce((v[0] + w[0], v[1] + w[1]))
            assert direct in q.basis.cosets()


def test_admissibility_frozen():
    assert is_admissible(LatticeBasis(3, 2, 1), "C")
    assert is_admissible(LatticeBasis(3, 2, 1), "D")
    assert is_admissible(LatticeBasis(2, 0, 2), "D")
    assert is_admissible(LatticeBasis(7, 3, 1), "C")
    assert not is_admissible(LatticeBasis(7, 3, 1), "D")
    assert not is_admissible(LatticeBasis(5, 1, 1), "C")
    assert not is_admissible(LatticeBasis(3, 1, 1), "C")
    assert is_admissible(LatticeBasis(6, 4, 2), "D")


def test_admissibility_report_routes_agree():
    # The verdict of both routes equals direct conjugation computed here,
    # and check_admissible refuses (index >= 2) exactly what it rejects.
    for a in range(1, 8):
        for b in range(a):
            for c in range(1, 8):
                basis = LatticeBasis(a, b, c)
                for kind in ("A", "C", "D"):
                    direct = kind == "A" or (
                        conjugate_is_integral(basis, ROTATION_MATRIX)
                        and (kind == "C" or conjugate_is_integral(basis, SWAP_MATRIX))
                    )
                    assert is_admissible(basis, kind) == direct
                    if basis.det < 2:
                        continue
                    try:
                        check_admissible(basis, kind)
                        refused = False
                    except PreconditionFailed:
                        refused = True
                    assert refused == (not direct)


def test_admissibility_routes_that_disagree_are_internal(monkeypatch):
    monkeypatch.setattr(lattice, "conjugate_is_integral", lambda basis, matrix: False)
    message = (
        r"^admissibility routes disagree on LatticeBasis\(a=3, b=2, c=1\) kind C: "
        r"divisibility=True, conjugation=False$"
    )
    with pytest.raises(InternalInvariantViolation, match=message):
        is_admissible(LatticeBasis(3, 2, 1), "C")
    with pytest.raises(InternalInvariantViolation, match=message):
        check_admissible(LatticeBasis(3, 2, 1), "C")


def test_direct_route_is_matrix_conjugation():
    # rotation invariance alone distinguishes C from A
    basis = LatticeBasis(7, 3, 1)
    assert conjugate_is_integral(basis, ((0, -1), (1, -1)))
    assert not conjugate_is_integral(basis, ((0, 1), (1, 0)))


def test_check_admissible_failures():
    with pytest.raises(PreconditionFailed, match="^index 1 sublattice has trivial quotient$"):
        check_admissible(LatticeBasis(1, 0, 1), "C")
    with pytest.raises(PreconditionFailed, match="^rotation condition fails: "):
        check_admissible(LatticeBasis(5, 1, 1), "C")
    with pytest.raises(PreconditionFailed, match="^swap condition fails: "):
        check_admissible(LatticeBasis(7, 3, 1), "D")
    with pytest.raises(PreconditionFailed, match=r"^basis .* does not factor as ") as e:
        check_admissible(LatticeBasis(3, 1, 2), "C")
    assert "c=2 does not divide both 3 and 1" in str(e.value)
    # admissible inputs pass silently
    check_admissible(LatticeBasis(3, 2, 1), "D")


def test_admissible_bases_catalog():
    c_bases = admissible_bases(48, "C")
    d_bases = admissible_bases(48, "D")
    assert len(c_bases) == 27
    assert len(d_bases) == 9
    assert set(d_bases) <= set(c_bases)
    assert [(b.a, b.b, b.c) for b in c_bases[:5]] == [
        (3, 2, 1), (2, 0, 2), (7, 3, 1), (7, 5, 1), (3, 0, 3)
    ]
    assert [(b.a, b.b, b.c) for b in d_bases] == [
        (3, 2, 1), (2, 0, 2), (3, 0, 3), (6, 4, 2), (4, 0, 4),
        (5, 0, 5), (9, 6, 3), (6, 0, 6), (12, 8, 4),
    ]
    # the determinant of a rotation-admissible basis is never 2 mod 3
    assert all(b.det % 3 != 2 for b in c_bases)


def _triple_scan(max_det, kind):
    """(det, a, b, c) of every Hermite basis with 2 <= det <= max_det that
    the direct route alone admits, sorted."""
    found = []
    for a in range(1, max_det + 1):
        for c in range(1, max_det // a + 1):
            for b in range(a):
                basis = LatticeBasis(a, b, c)
                if basis.det < 2:
                    continue
                if kind in ("C", "D") and not conjugate_is_integral(basis, ROTATION_MATRIX):
                    continue
                if kind == "D" and not conjugate_is_integral(basis, SWAP_MATRIX):
                    continue
                found.append((basis.det, a, b, c))
    return sorted(found)


def test_admissible_bases_match_a_triple_scan(monkeypatch):
    scans = {kind: _triple_scan(150, kind) for kind in "ACD"}
    direct = lattice.conjugate_is_integral
    calls = []

    def counting(basis, matrix):
        calls.append(basis)
        return direct(basis, matrix)

    monkeypatch.setattr(lattice, "conjugate_is_integral", counting)
    for kind, scan in scans.items():
        dets = [t[0] for t in scan]
        for bound in range(2, 151):
            calls.clear()
            got = [(b.det, b.a, b.b, b.c) for b in admissible_bases(bound, kind)]
            assert got == scan[: bisect_right(dets, bound)], (kind, bound)
            if kind in ("C", "D"):
                # one direct check per symmetry, on every emitted basis
                assert len(calls) == len(got) * (1 if kind == "C" else 2)
                assert {(b.det, b.a, b.b, b.c) for b in calls} == set(got)
    # Kind A's bases are built past the constructor, so they are checked against it.
    kind_a = admissible_bases(150, "A")
    assert all(type(b) is LatticeBasis and b == LatticeBasis(*b) for b in kind_a)


def test_basis_constructor_guards():
    with pytest.raises(ValueError, match="^degenerate basis a=0, c=1$"):
        LatticeBasis(0, 0, 1)
    with pytest.raises(ValueError, match="^degenerate basis a=2, c=0$"):
        LatticeBasis(2, 0, 0)
    with pytest.raises(ValueError):
        LatticeBasis(2, 2, 1)  # b must be reduced below a
    with pytest.raises(ValueError, match="^degenerate basis a=0, c=3$"):
        LatticeBasis(3, 0, 3)._replace(a=0)
    with pytest.raises(ValueError, match="^off-diagonal 3 not reduced modulo 3$"):
        LatticeBasis._make((3, 3, 1))
    assert LatticeBasis(3, 0, 3)._replace(b=2) == LatticeBasis(3, 2, 3)


def test_basis_entries_are_read_as_exact_integers():
    # ints, bools and numpy ints pass, and are stored as plain ints
    basis = LatticeBasis(np.int64(3), True, np.int32(3))
    assert basis == (3, 1, 3) and {type(x) for x in basis} == {int}
    assert type(basis.det) is int
    for entries in [(3.0, 0, 3), (3, 0.0, 3), (3, 0, "3"), (3, 0, np.float64(3))]:
        with pytest.raises(ValueError) as raised:
            LatticeBasis(*entries)
        assert str(raised.value) == f"basis entries {entries} must be integers"
    with pytest.raises(ValueError, match=r"^basis entries \(3, 0, 2\.0\) must be integers$"):
        LatticeBasis(3, 0, 3)._replace(c=2.0)
    with pytest.raises(ValueError, match=r"^basis entries \(3, '1', 3\) must be integers$"):
        LatticeBasis._make((3, "1", 3))


def test_hnf_reads_columns_as_exact_integers():
    assert hermite_normal_form([(np.int64(3), False), (0, np.int16(3))]) == LatticeBasis(3, 0, 3)
    for cols in [[(1.5, 0), (0, 2)], [(3.0, 0), (0, 3)], [("3", "0"), ("0", "3")]]:
        with pytest.raises(ValueError, match="^generator entries must be integers$"):
            hermite_normal_form(cols)
