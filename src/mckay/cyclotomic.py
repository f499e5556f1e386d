"""Exact reduction of integer combinations of roots of unity.

A value sum c_k z^k, z a primitive W-th root of unity, is held as a sparse
count dict {k: c_k}.  Reducing it modulo the W-th cyclotomic polynomial
gives its coordinates in the power basis 1, z, ..., z^(d-1), d = phi(W):
two count dicts name the same number exactly when their reductions agree,
and the number is a rational integer exactly when every coordinate past
the first is 0.  No floating point is involved.
"""
from __future__ import annotations

from functools import lru_cache

__all__ = ["cyclotomic_polynomial", "reduce_mod_cyclotomic"]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the order-th cyclotomic polynomial.

    Computed by repeatedly dividing x^order - 1 by the cyclotomic
    polynomials of the proper divisors; all divisions are exact.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    # num = x^order - 1
    num = [-1] + [0] * (order - 1) + [1]
    for div in range(1, order):
        if order % div == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(div)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of num by monic den; raises if the division leaves a remainder."""
    if den[-1] != 1:
        raise ValueError("divisor polynomial must be monic")
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1]
        out[k] = coeff
        if coeff:
            for j, d in enumerate(den):
                num[k + j] -= coeff * d
    if any(num[: len(den) - 1]):
        raise ValueError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _reduction_rule(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree d of the order-th cyclotomic polynomial and its nonzero
    coefficients below z^d, as (exponent, coefficient) pairs."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    return d, tuple((j, c) for j, c in enumerate(phi[:d]) if c)


def reduce_mod_cyclotomic(order: int, counts: dict[int, int]) -> tuple[int, ...]:
    """Power-basis coordinates of sum c z^k over the items (k, c) of counts.

    Exponents are taken mod order, then the polynomial is divided by the
    order-th cyclotomic polynomial from the top down, in O(order) steps.
    """
    d, low = _reduction_rule(order)
    raw = [0] * order
    for k, c in counts.items():
        raw[k % order] += c
    # z^k = z^(k-d) * z^d = -z^(k-d) * (phi[0] + ... + phi[d-1] z^(d-1))
    for k in range(order - 1, d - 1, -1):
        c = raw[k]
        if c:
            for j, p in low:
                raw[k - d + j] -= c * p
    return tuple(raw[:d])
