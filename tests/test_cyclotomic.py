"""The exact cyclotomic oracle of the skew tests against a floating-point one."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclotomic_polynomial, reduce_mod_cyclotomic

ORDERS = (1, 2, 3, 4, 6, 12, 24)

# Classical table of the first few cyclotomic polynomials, low degree first.
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def to_complex(order: int, counts: dict[int, int]) -> complex:
    """sum c * zeta^k over the items (k, c), zeta = exp(2 pi i / order)."""
    zeta = np.exp(2j * np.pi / order)
    return sum(c * zeta ** k for k, c in counts.items())


def test_polynomial_table():
    for order, coeffs in KNOWN.items():
        assert cyclotomic_polynomial(order) == coeffs


def test_polynomial_roots_are_primitive():
    for order in (3, 4, 6, 8, 12):
        coeffs = cyclotomic_polynomial(order)
        for k in range(order):
            z = np.exp(2j * np.pi * k / order)
            value = sum(c * z ** i for i, c in enumerate(coeffs))
            if math.gcd(k, order) == 1:
                assert abs(value) < 1e-9
            else:
                assert abs(value) > 1e-9


def test_power_sum_vanishes():
    for order in (2, 3, 4, 6, 12, 24):
        coords = reduce_mod_cyclotomic(order, dict.fromkeys(range(order), 1))
        assert coords == (0,) * (len(cyclotomic_polynomial(order)) - 1)


def test_integer_detection():
    # 2 + zeta + zeta^2 = 1 for a primitive cube root of unity zeta.
    assert reduce_mod_cyclotomic(3, {0: 2, 1: 1, 2: 1}) == (1, 0)
    assert reduce_mod_cyclotomic(3, {1: 1}) == (0, 1)


def count_dicts(order: int):
    return st.tuples(
        st.just(order),
        st.dictionaries(
            st.integers(min_value=0, max_value=3 * order),
            st.integers(min_value=-5, max_value=5),
            max_size=8,
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(count_dicts))
def test_reduction_matches_complex_oracle(case):
    order, counts = case
    coords = reduce_mod_cyclotomic(order, counts)
    assert len(coords) == len(cyclotomic_polynomial(order)) - 1
    reduced = dict(enumerate(coords))
    assert to_complex(order, reduced) == pytest.approx(
        to_complex(order, counts), abs=1e-8
    )


def count_dict_pairs(order: int):
    return st.tuples(count_dicts(order), count_dicts(order)).map(
        lambda pair: (order, pair[0][1], pair[1][1])
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(count_dict_pairs))
def test_ring_ops_match_complex_oracle(case):
    # Sums add counts; products add exponents pairwise.  Both must reduce
    # to the sum and product of the complex values.
    order, a, b = case
    total: dict[int, int] = dict(a)
    for k, c in b.items():
        total[k] = total.get(k, 0) + c
    product: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            product[ka + kb] = product.get(ka + kb, 0) + ca * cb
    negated = {k: -c for k, c in a.items()}
    za, zb = to_complex(order, a), to_complex(order, b)
    for counts, expected in ((total, za + zb), (product, za * zb), (negated, -za)):
        coords = dict(enumerate(reduce_mod_cyclotomic(order, counts)))
        assert to_complex(order, coords) == pytest.approx(expected, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(count_dicts))
def test_conjugate_matches_oracle(case):
    # Negating every exponent is complex conjugation.
    order, counts = case
    conjugate = reduce_mod_cyclotomic(order, {-k: c for k, c in counts.items()})
    assert to_complex(order, dict(enumerate(conjugate))) == pytest.approx(
        np.conj(to_complex(order, counts)), abs=1e-8
    )
