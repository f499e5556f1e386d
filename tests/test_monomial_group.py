"""Monomial-matrix keys and finite closures against a dense complex oracle."""
from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _mat_key, _np_classes, np_class_count, np_closure, to_complex
from mckay.errors import PreconditionFailed
from mckay.lattice import AbelianQuotient, LatticeBasis, env_cap, is_admissible
from mckay.mckay_quiver import build_quiver, k_action
from mckay.monomial_group import (
    DEFAULT_CLOSURE_CAP,
    _conj,
    _inv,
    _is_special,
    _mul,
    closure,
    conjugacy_classes,
    diagonal_generators_from_basis,
    diagonal_subgroup,
    group_from_basis,
    involution_scalars,
    semidirect_check,
)

IDENTITY = ((0, 1, 2), (0, 0, 0))
ROTATION = ((1, 2, 0), (0, 0, 0))
EVEN = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
ODD = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]


def _random_key(rng: random.Random, m: int, special: bool = True):
    """A random (perm, exps) key at root order m, special linear unless
    `special` is false, when its exponents are arbitrary."""
    perm = rng.choice(EVEN + (ODD if m % 2 == 0 or not special else []))
    e1, e2 = rng.randrange(m), rng.randrange(m)
    target = 0 if perm in EVEN else m // 2
    e3 = (target - e1 - e2) % m if special else rng.randrange(m)
    return (perm, (e1, e2, e3))


def _power(key, n: int, m: int):
    out = IDENTITY
    for _ in range(n):
        out = _mul(out, key, m)
    return out


def _transposition(m: int, p: int, q: int, s: int):
    """The kind-D generator with alpha = zeta^p at (1,2), beta = zeta^q at
    (2,1) and gamma = zeta^s at (3,3) [1-based]."""
    p, q, s = involution_scalars("D", m, (p, q, s))
    return ((1, 0, 2), (q, p, s))


def test_conjugation_on_keys_matches_oracle():
    rng = random.Random(11)
    for m in (2, 3, 4, 6, 12):
        for _ in range(40):
            h, y = _random_key(rng, m), _random_key(rng, m)
            got = _conj(h, y, m)
            want = to_complex(h, m) @ to_complex(y, m) @ np.linalg.inv(to_complex(h, m))
            assert np.allclose(to_complex(got, m), want)
            assert got == _mul(_mul(h, y, m), _inv(h, m), m)


def test_multiplication_matches_oracle():
    rng = random.Random(7)
    for m in (2, 3, 4, 6, 12):
        for _ in range(40):
            a, b = _random_key(rng, m), _random_key(rng, m)
            np.testing.assert_allclose(
                to_complex(_mul(a, b, m), m), to_complex(a, m) @ to_complex(b, m), atol=1e-9
            )


def test_inverse_and_determinant():
    rng = random.Random(11)
    for m in (2, 4, 6):
        for _ in range(25):
            g = _random_key(rng, m)
            assert _mul(g, _inv(g, m), m) == IDENTITY
            assert _mul(_inv(g, m), g, m) == IDENTITY
            assert abs(np.linalg.det(to_complex(g, m)) - 1) < 1e-9


def test_special_linear_test_matches_the_determinant():
    rng = random.Random(5)
    for m in (1, 2, 3, 4, 6, 12):
        for _ in range(60):
            g = _random_key(rng, m, special=False)
            det = np.linalg.det(to_complex(g, m))
            assert _is_special(g, m) == bool(abs(det - 1) < 1e-9), (g, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3, 4, 6, 12)))
def test_associativity(seed, m):
    rng = random.Random(seed)
    a, b, c = (_random_key(rng, m) for _ in range(3))
    assert _mul(_mul(a, b, m), c, m) == _mul(a, _mul(b, c, m), m)


_VIOLATES_111_MOD_4 = re.escape(
    "scalar exponents (1, 1, 1) violate alpha*beta*gamma = -1 modulo 4"
)


def test_special_linear_guard():
    with pytest.raises(ValueError, match="has determinant != 1 at root order 3$"):
        closure([((0, 1, 2), (1, 0, 0))], 3)
    # an odd permutation cannot be special linear at odd root order
    with pytest.raises(ValueError, match="has determinant != 1 at root order 3$"):
        closure([ROTATION, ((1, 0, 2), (1, 1, 1))], 3)
    with pytest.raises(ValueError, match="^kind D needs an even root order, got 3$"):
        _transposition(3, 1, 1, 1)
    with pytest.raises(ValueError, match=_VIOLATES_111_MOD_4):
        _transposition(4, 1, 1, 1)  # sum 3 != 2 mod 4


def test_transposition_squares_to_identity():
    r = _transposition(2, 1, 1, 1)
    assert r == ((1, 0, 2), (1, 1, 1))
    assert _mul(r, r, 2) == IDENTITY
    assert abs(np.linalg.det(to_complex(r, 2)) - 1) < 1e-9
    assert np.allclose(to_complex(r, 2) @ to_complex(r, 2), np.eye(3))


def test_rotation_rows():
    g = group_from_basis(LatticeBasis(2, 0, 2), "C", root_order=6)
    assert ROTATION in g.generator_keys
    assert to_complex(ROTATION, 6).real.astype(int).tolist() == [
        [0, 0, 1], [1, 0, 0], [0, 1, 0]
    ]
    assert _power(ROTATION, 3, 6) == IDENTITY


def test_diagonal_generators_from_basis():
    gens = diagonal_generators_from_basis(LatticeBasis(3, 2, 1), 3)
    assert all(g[0] == (0, 1, 2) and _is_special(g, 3) for g in gens)
    g = closure(gens, 3)
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
        oracle = np_closure([to_complex(x, g.root_order) for x in g.generator_keys])
        assert len(oracle) == g.order


def test_every_element_is_special_linear():
    g = group_from_basis(LatticeBasis(3, 0, 3), "D")
    for x in g.keys:
        assert _is_special(x, g.root_order)
        assert abs(np.linalg.det(to_complex(x, g.root_order)) - 1) < 1e-9


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
        oracle = np_class_count([to_complex(x, g.root_order) for x in g.keys])
        assert len(conjugacy_classes(g)) == oracle


def test_kind_d_group_of_order_216_matches_oracle():
    # The oracles above stop at |G| = 54; 6I of kind D has |G| = 216.
    g = group_from_basis(LatticeBasis(6, 0, 6), "D")
    assert g.order == 216
    elements = [to_complex(x, g.root_order) for x in g.keys]
    oracle = np_closure([to_complex(x, g.root_order) for x in g.generator_keys])
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
        assert all(perm == (0, 1, 2) for perm, _ in n.keys)


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
        t = to_complex(ROTATION, m)
        r = to_complex(_transposition(m, p, q, s), m)
        tinv = np.linalg.inv(t)
        i1 = t @ r @ r @ tinv @ r
        i2 = t @ t @ r @ r @ tinv @ r @ tinv
        want1 = ((1, 0, 2), ((p + 2 * q) % m, (p + 2 * s) % m, m // 2))
        want2 = ((0, 2, 1), (m // 2, (p + 2 * q) % m, (p + 2 * s) % m))
        assert np.allclose(i1, to_complex(want1, m))
        assert np.allclose(i2, to_complex(want2, m))
        assert _mul(want1, want1, m) == IDENTITY
        assert _mul(want2, want2, m) == IDENTITY
        assert _power(_mul(want1, want2, m), 3, m) == IDENTITY
        g = group_from_basis(LatticeBasis(m, 0, m), "D", root_order=m, scalars=(p, q, s))
        assert _transposition(m, p, q, s) in g.generator_keys
        report = semidirect_check(g, "D")
        assert (report.i1, report.i2) == (want1, want2)


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
    assert i1 == ((1, 0, 2), (5, 7, 6))
    assert i2 == ((0, 2, 1), (6, 5, 7))
    assert _mul(i1, i1, 12) == IDENTITY
    assert _power(_mul(i1, i2, 12), 3, 12) == IDENTITY
    # r itself has order 4 here; its square is swallowed by the diagonal part
    r = next(x for x in g.generator_keys if x[0] in ODD)
    assert _mul(r, r, 12) != IDENTITY
    assert _mul(r, r, 12)[0] == (0, 1, 2)


def test_semidirect_factorization_witnesses():
    g = group_from_basis(LatticeBasis(2, 0, 2), "D")
    report = semidirect_check(g, "D")
    m = g.root_order
    d_t, k_t = report.t_factorization
    assert d_t[0] == (0, 1, 2)
    assert _mul(d_t, k_t, m) == ROTATION
    assert np.allclose(to_complex(d_t, m) @ to_complex(k_t, m), to_complex(ROTATION, m))
    d_r, k_r = report.r_factorization
    assert d_r[0] == (0, 1, 2)
    assert k_r in report.complement.keys
    r = next(x for x in g.generator_keys if x[0] in ODD)
    assert np.allclose(to_complex(d_r, m) @ to_complex(k_r, m), to_complex(r, m))
    # each complement element is an honest product of a diagonal and itself
    for x in report.complement.keys:
        assert x in g.keys


def test_complement_meets_diagonal_trivially():
    g = group_from_basis(LatticeBasis(3, 0, 3), "D")
    report = semidirect_check(g, "D")
    for x in report.complement.keys:
        assert not (x[0] == (0, 1, 2) and x != IDENTITY)
    assert report.complement.order * report.diagonal_order == g.order


@pytest.mark.parametrize("kind, order", [("C", 27), ("D", 54)])
def test_a_group_short_of_its_complement_is_refused(kind, order):
    # One non-diagonal element dropped: N and the complement still check,
    # the group no longer has |K| * |N| elements.
    g = group_from_basis(LatticeBasis(3, 0, 3), kind)
    assert g.order == order and g.keys[-1][0] != (0, 1, 2)
    with pytest.raises(PreconditionFailed) as refused:
        semidirect_check(g._replace(keys=g.keys[:-1]), kind)
    index = order // 9
    assert str(refused.value) == f"|G| = {order - 1} is not {index} * |N| = {order}"


def test_the_kind_guards_share_one_message():
    basis = LatticeBasis(3, 0, 3)
    for refuse in (
        lambda: semidirect_check(group_from_basis(basis, "A"), "A"),
        lambda: k_action(build_quiver(AbelianQuotient(basis)), "A"),
    ):
        with pytest.raises(ValueError) as refused:
            refuse()
        assert str(refused.value) == "unknown kind 'A'; expected one of 'C', 'D'"
    with pytest.raises(ValueError) as refused:
        is_admissible(basis, "B")
    assert str(refused.value) == "unknown kind 'B'; expected one of 'A', 'C', 'D'"


def test_explosion_guard_and_env_override(monkeypatch):
    with pytest.raises(ValueError, match="^closure exceeded 2 elements"):
        closure([ROTATION], 3, max_elements=2)
    monkeypatch.setenv("MCKAY_MAX_CLOSURE", "2")
    assert env_cap("MCKAY_MAX_CLOSURE", DEFAULT_CLOSURE_CAP) == 2
    with pytest.raises(ValueError, match="^closure exceeded 2 elements"):
        closure([ROTATION], 3)
    monkeypatch.setenv("MCKAY_MAX_CLOSURE", "abc")
    with pytest.raises(ValueError):
        env_cap("MCKAY_MAX_CLOSURE", DEFAULT_CLOSURE_CAP)


def test_scalar_constraint_rejected():
    # p + q + s must be half the root order for the involution generator
    with pytest.raises(ValueError, match=_VIOLATES_111_MOD_4):
        group_from_basis(LatticeBasis(2, 0, 2), "D", root_order=4, scalars=(1, 1, 1))

