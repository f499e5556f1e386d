"""Monomial matrices and finite closures against a dense complex oracle."""
from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _mat_key, _np_classes, np_class_count, np_closure, to_complex
from mckay.lattice import LatticeBasis
from mckay.monomial_group import (
    MonomialMatrix,
    _conj,
    closure,
    closure_cap,
    conjugacy_classes,
    diagonal_generators_from_basis,
    diagonal_subgroup,
    group_from_basis,
    product,
    semidirect_check,
)


def _random_special(rng: random.Random, m: int) -> MonomialMatrix:
    perm = rng.choice(
        [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        + ([(0, 2, 1), (2, 1, 0), (1, 0, 2)] if m % 2 == 0 else [])
    )
    e1, e2 = rng.randrange(m), rng.randrange(m)
    target = 0 if perm in {(0, 1, 2), (1, 2, 0), (2, 0, 1)} else m // 2
    e3 = (target - e1 - e2) % m
    return MonomialMatrix(m, perm, (e1, e2, e3))


def test_conjugation_on_keys_matches_oracle():
    rng = random.Random(11)
    for m in (2, 3, 4, 6, 12):
        for _ in range(40):
            h, y = _random_special(rng, m), _random_special(rng, m)
            got = MonomialMatrix(m, *_conj(h.key(), y.key(), m))
            want = to_complex(h) @ to_complex(y) @ np.linalg.inv(to_complex(h))
            assert np.allclose(to_complex(got), want)
            assert got == h * y * h.inverse()


def test_multiplication_matches_oracle():
    rng = random.Random(7)
    for m in (2, 3, 4, 6, 12):
        for _ in range(40):
            a, b = _random_special(rng, m), _random_special(rng, m)
            np.testing.assert_allclose(
                to_complex(a * b), to_complex(a) @ to_complex(b), atol=1e-9
            )


def test_inverse_and_determinant():
    rng = random.Random(11)
    for m in (2, 4, 6):
        for _ in range(25):
            g = _random_special(rng, m)
            assert (g * g.inverse()).is_identity
            assert abs(np.linalg.det(to_complex(g)) - 1) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3, 4, 6, 12)))
def test_associativity(seed, m):
    rng = random.Random(seed)
    a, b, c = (_random_special(rng, m) for _ in range(3))
    assert (a * b) * c == a * (b * c)


_VIOLATES_111_MOD_4 = re.escape(
    "scalar exponents (1, 1, 1) violate alpha*beta*gamma = -1 modulo 4"
)


def test_special_linear_guard():
    with pytest.raises(ValueError, match="has determinant != 1 at root order 3$"):
        closure([MonomialMatrix(3, (0, 1, 2), (1, 0, 0))])
    # an odd permutation cannot be special linear at odd root order
    with pytest.raises(ValueError, match="^kind D needs an even root order, got 3$"):
        MonomialMatrix.transposition(3, 1, 1, 1)
    with pytest.raises(ValueError, match=_VIOLATES_111_MOD_4):
        MonomialMatrix.transposition(4, 1, 1, 1)  # sum 3 != 2 mod 4


def test_transposition_squares_to_identity():
    r = MonomialMatrix.transposition(2, 1, 1, 1)
    assert (r * r).is_identity
    assert r.sign == -1


def test_rotation_rows():
    t = MonomialMatrix.rotation(6)
    assert to_complex(t).real.astype(int).tolist() == [
        [0, 0, 1], [1, 0, 0], [0, 1, 0]
    ]
    assert (t * t * t).is_identity


def test_diagonal_generators_from_basis():
    gens = diagonal_generators_from_basis(LatticeBasis(3, 2, 1), 3)
    assert all(g.is_diagonal and g.is_special for g in gens)
    g = closure(gens)
    assert g.order == 3


def test_group_orders():
    assert group_from_basis(LatticeBasis(2, 0, 2), "A").order == 4
    assert group_from_basis(LatticeBasis(2, 0, 2), "C").order == 12
    assert group_from_basis(LatticeBasis(2, 0, 2), "D").order == 24
    assert group_from_basis(LatticeBasis(3, 0, 3), "A").order == 9
    assert group_from_basis(LatticeBasis(3, 0, 3), "C").order == 27
    assert group_from_basis(LatticeBasis(3, 0, 3), "D").order == 54
    assert group_from_basis(LatticeBasis(3, 2, 1), "C").order == 9


def test_orders_match_oracle_closure():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "C"),
        (LatticeBasis(2, 0, 2), "D"),
        (LatticeBasis(3, 2, 1), "C"),
        (LatticeBasis(6, 4, 2), "C"),
    ]:
        g = group_from_basis(basis, kind)
        oracle = np_closure([to_complex(x) for x in g.generators])
        assert len(oracle) == g.order


def test_every_element_is_special_linear():
    g = group_from_basis(LatticeBasis(3, 0, 3), "D")
    for x in g.elements:
        assert x.is_special
        assert abs(np.linalg.det(to_complex(x)) - 1) < 1e-9


def test_class_counts_frozen():
    # C2 x C2 with the 3-cycle is A4; adding the involution gives S4,
    # whose five classes (sizes 1, 3, 6, 6, 8) pin down the group.
    g12 = group_from_basis(LatticeBasis(2, 0, 2), "C")
    assert len(conjugacy_classes(g12)) == 4
    g24 = group_from_basis(LatticeBasis(2, 0, 2), "D")
    classes = conjugacy_classes(g24)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    g27 = group_from_basis(LatticeBasis(3, 0, 3), "C")
    assert len(conjugacy_classes(g27)) == 11


def test_class_counts_match_oracle():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "C"),
        (LatticeBasis(2, 0, 2), "D"),
        (LatticeBasis(3, 0, 3), "C"),
        (LatticeBasis(3, 0, 3), "D"),
        (LatticeBasis(7, 3, 1), "C"),
    ]:
        g = group_from_basis(basis, kind)
        oracle = np_class_count([to_complex(x) for x in g.elements])
        assert len(conjugacy_classes(g)) == oracle


def test_kind_d_group_of_order_216_matches_oracle():
    # The oracles above stop at |G| = 54; 6I of kind D has |G| = 216.
    g = group_from_basis(LatticeBasis(6, 0, 6), "D")
    assert g.order == 216
    elements = [to_complex(x) for x in g.elements]
    oracle = np_closure([to_complex(x) for x in g.generators])
    assert {_mat_key(x) for x in elements} == {_mat_key(x) for x in oracle}
    assert sorted(len(c) for c in conjugacy_classes(g)) == sorted(
        len(c) for c in _np_classes(elements)
    )


def test_class_equation():
    g = group_from_basis(LatticeBasis(3, 0, 3), "D")
    classes = conjugacy_classes(g)
    assert sum(len(c) for c in classes) == g.order
    assert all(g.order % len(c) == 0 for c in classes)


def test_diagonal_subgroup_order_is_det():
    for basis, kind in [
        (LatticeBasis(2, 0, 2), "D"),
        (LatticeBasis(3, 2, 1), "C"),
        (LatticeBasis(9, 6, 3), "C"),
    ]:
        g = group_from_basis(basis, kind)
        n = diagonal_subgroup(g)
        assert n.order == basis.det
        assert all(x.is_diagonal for x in n.elements)


def test_semidirect_kind_c():
    g = group_from_basis(LatticeBasis(3, 2, 1), "C")
    report = semidirect_check(g, "C")
    assert report.complement.order == 3
    assert report.diagonal_order == 3
    assert report.i1 is None


def test_involution_closed_forms():
    # i1 = t r^2 t^-1 r and i2 = t^2 r^2 t^-1 r t^-1 are the honest
    # involutions hiding inside the possibly non-involutive generator r
    for m, p, q, s in [(12, 1, 2, 3), (2, 1, 1, 1), (6, 1, 1, 1), (12, 5, 0, 1)]:
        t = MonomialMatrix.rotation(m)
        r = MonomialMatrix.transposition(m, p, q, s)
        tinv = t.inverse()
        i1 = product([t, r, r, tinv, r])
        i2 = product([t, t, r, r, tinv, r, tinv])
        assert i1 == MonomialMatrix(
            m, (1, 0, 2), ((p + 2 * q) % m, (p + 2 * s) % m, m // 2)
        )
        assert i2 == MonomialMatrix(
            m, (0, 2, 1), (m // 2, (p + 2 * q) % m, (p + 2 * s) % m)
        )
        assert (i1 * i1).is_identity
        assert (i2 * i2).is_identity
        assert ((i1 * i2) ** 3).is_identity


def test_semidirect_kind_d_involutions():
    # 12I contains r^2 = diag(z^3, z^3, z^6) for p=1, q=2, s=3, so the
    # non-involutive generator still yields a split S3 complement
    g = group_from_basis(
        LatticeBasis(12, 0, 12), "D", root_order=12, scalars=(1, 2, 3)
    )
    assert g.order == 6 * 144
    report = semidirect_check(g, "D")
    assert report.complement.order == 6
    i1, i2 = report.i1, report.i2
    assert i1 == MonomialMatrix(12, (1, 0, 2), (5, 7, 6))
    assert i2 == MonomialMatrix(12, (0, 2, 1), (6, 5, 7))
    assert (i1 * i1).is_identity
    assert ((i1 * i2) ** 3).is_identity
    # r itself has order 4 here; its square is swallowed by the diagonal part
    r = next(x for x in g.generators if x.sign == -1)
    assert not (r * r).is_identity
    assert (r * r).is_diagonal


def test_semidirect_factorization_witnesses():
    g = group_from_basis(LatticeBasis(2, 0, 2), "D")
    report = semidirect_check(g, "D")
    d_t, k_t = report.t_factorization
    assert d_t.is_diagonal
    assert d_t * k_t == MonomialMatrix.rotation(g.root_order)
    d_r, k_r = report.r_factorization
    assert d_r.is_diagonal
    assert k_r in report.complement.elements
    # each complement element is an honest product of a diagonal and itself
    for x in report.complement.elements:
        assert x in g.elements


def test_complement_meets_diagonal_trivially():
    g = group_from_basis(LatticeBasis(3, 0, 3), "D")
    report = semidirect_check(g, "D")
    for x in report.complement.elements:
        assert not (x.is_diagonal and not x.is_identity)
    assert report.complement.order * report.diagonal_order == g.order


def test_explosion_guard_and_env_override(monkeypatch):
    gens = [MonomialMatrix.rotation(3)]
    with pytest.raises(ValueError, match="^closure exceeded 2 elements"):
        closure(gens, max_elements=2)
    monkeypatch.setenv("MCKAY_MAX_CLOSURE", "2")
    assert closure_cap() == 2
    with pytest.raises(ValueError, match="^closure exceeded 2 elements"):
        closure(gens)
    monkeypatch.setenv("MCKAY_MAX_CLOSURE", "abc")
    with pytest.raises(ValueError):
        closure_cap()


def test_scalar_constraint_rejected():
    # p + q + s must be half the root order for the involution generator
    with pytest.raises(ValueError, match=_VIOLATES_111_MOD_4):
        group_from_basis(LatticeBasis(2, 0, 2), "D", root_order=4, scalars=(1, 1, 1))


def test_product_helper():
    t = MonomialMatrix.rotation(2)
    assert product([t, t, t]).is_identity
    with pytest.raises(ValueError):
        product([])
