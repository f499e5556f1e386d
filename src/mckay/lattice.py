"""Finite-index sublattices of Z^2 and their symmetry constraints.

A sublattice is stored by its column-style Hermite normal form

    B = [[a, b],
         [0, c]],   a > 0, c > 0, 0 <= b < a,

whose columns (a, 0) and (b, c) generate it.  Coset representatives of
Z^2 / B are the pairs (x1, x2) with 0 <= x1 < a, 0 <= x2 < c.

The two coordinate symmetries that matter downstream are the order-3
rotation (x1, x2) -> (-x2, x1 - x2) and the swap (x1, x2) -> (x2, x1).
A basis is admissible for kind "C" when the rotation maps the lattice
into itself, and for kind "D" when the swap does too.  Admissibility is
decided by an explicit divisibility criterion and cross-checked against
direct integrality of B^-1 T B; disagreement is a bug, not bad input.
"""
from __future__ import annotations

import os
from collections import namedtuple
from itertools import product
from math import gcd
from operator import index
from typing import Iterable, Sequence

from .errors import InternalInvariantViolation, PreconditionFailed

__all__ = [
    "LatticeBasis",
    "AbelianQuotient",
    "hermite_normal_form",
    "ROTATION_MATRIX",
    "SWAP_MATRIX",
    "conjugate_is_integral",
    "check_admissible",
    "is_admissible",
    "admissible_bases",
    "env_cap",
]

# Induced action on exponent vectors of the cyclic coordinate rotation
# and of the coordinate swap, as 2x2 integer row tuples.
ROTATION_MATRIX: tuple[tuple[int, int], tuple[int, int]] = ((0, -1), (1, -1))
SWAP_MATRIX: tuple[tuple[int, int], tuple[int, int]] = ((0, 1), (1, 0))


class LatticeBasis(namedtuple("LatticeBasis", "a b c")):
    """Hermite-normal generator matrix [[a, b], [0, c]] of a rank-2 sublattice.

    A validated (a, b, c) tuple of ints, read by `operator.index`, so
    equality, ordering and hashing are the triple's, also against a plain
    tuple.  `_make`, and `_replace` through it, check as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> LatticeBasis:
        try:
            a, b, c = index(a), index(b), index(c)
        except TypeError:
            raise ValueError(f"basis entries {(a, b, c)} must be integers") from None
        if a <= 0 or c <= 0:
            raise ValueError(f"degenerate basis a={a}, c={c}")
        if not 0 <= b < a:
            raise ValueError(f"off-diagonal {b} not reduced modulo {a}")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> LatticeBasis:
        return cls(*iterable)

    @property
    def det(self) -> int:
        return self.a * self.c

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (0, self.c))

    def reduce(self, x: Sequence[int]) -> tuple[int, int]:
        """Canonical coset representative of x in Z^2 / B."""
        x1, x2 = x
        r2 = x2 % self.c
        q = (x2 - r2) // self.c
        r1 = (x1 - q * self.b) % self.a
        return (r1, r2)

    def cosets(self) -> tuple[tuple[int, int], ...]:
        """All coset representatives in lexicographic order."""
        return tuple(product(range(self.a), range(self.c)))

    def smith_invariants(self) -> tuple[int, int]:
        """Invariant factors (d1, d2), d1 | d2, of Z^2 / B."""
        d1 = gcd(gcd(self.a, self.b), self.c)
        return (d1, self.det // d1)


class AbelianQuotient(namedtuple("AbelianQuotient", "basis")):
    """The finite group Z^2 / B: its order and the vertex numbering of its
    cosets.  Its name and `order` stay because `perfbench/tracing.py` reads
    them from `build_quiver`'s argument."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.basis.det

    def index_of(self, x: Sequence[int]) -> int:
        """Dense id of the coset of x in the lexicographic representative order."""
        r1, r2 = self.basis.reduce(x)
        return r1 * self.basis.c + r2


def hermite_normal_form(columns: Iterable[Sequence[int]]) -> LatticeBasis:
    """Hermite normal form of the lattice generated by the given columns,
    whose entries are read by `operator.index`."""
    try:
        gens = [(index(v[0]), index(v[1])) for v in columns]
    except TypeError:
        raise ValueError("generator entries must be integers") from None
    if not gens:
        raise ValueError("no generators")
    # c = gcd of the second coordinates, realized by one combined vector w.
    w = (0, 0)
    for v in gens:
        w = _merge(w, v)
    if w[1] == 0:
        raise ValueError("generators span a rank < 2 sublattice")
    c = w[1]
    # Clear second coordinates; the leftovers generate the (a, 0) line.
    a = 0
    for v in gens:
        q = v[0] - (v[1] // c) * w[0]
        a = gcd(a, q)
    if a == 0:
        raise ValueError("generators span a rank < 2 sublattice")
    return LatticeBasis(a, w[0] % a, c)


def _merge(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Combination of u and v whose second coordinate is gcd(u2, v2) >= 0."""
    u1, u2 = u
    v1, v2 = v
    while v2:
        q = u2 // v2
        u1, u2, v1, v2 = v1, v2, u1 - q * v1, u2 - q * v2
    if u2 < 0:
        u1, u2 = -u1, -u2
    return (u1, u2)


def conjugate_is_integral(
    basis: LatticeBasis, matrix: tuple[tuple[int, int], tuple[int, int]]
) -> bool:
    """Whether B^-1 . matrix . B has integer entries (i.e. matrix preserves the lattice)."""
    (a, b), (_, c) = basis.rows
    det = basis.det
    # adj(B) . matrix . B, all integral; divisibility by det is the test.
    (t11, t12), (t21, t22) = matrix
    # adj(B) = [[c, -b], [0, a]]
    m11 = c * t11 - b * t21
    m12 = c * t12 - b * t22
    m21 = a * t21
    m22 = a * t22
    # multiply by B on the right
    e11 = m11 * a
    e12 = m11 * b + m12 * c
    e21 = m21 * a
    e22 = m21 * b + m22 * c
    return all(e % det == 0 for e in (e11, e12, e21, e22))


def env_cap(variable: str, default: int) -> int:
    """A size bound: the environment variable's value if it is set, which
    must be a positive integer, else the default."""
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{variable} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{variable} must be positive, got {cap}")
    return cap


def _check_kind(kind: str, kinds: tuple[str, ...] = ("A", "C", "D")) -> None:
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(map(repr, kinds))}")


def _refusal(basis: LatticeBasis, kind: str) -> str | None:
    """Why the closed form in a, b, c refuses the basis for the kind, or None.

    The closed form is cross-checked against direct integrality of
    B^-1 T B for the rotation (and, for kind D, the swap); disagreement
    raises InternalInvariantViolation.
    """
    _check_kind(kind)
    a, b, c = basis.a, basis.b, basis.c
    reason = None
    if kind != "A" and (a % c or b % c):
        reason = (
            f"basis {basis.rows} does not factor as [[k1*c, k2*c], [0, c]]: "
            f"c={c} does not divide both {a} and {b}"
        )
    elif kind != "A":
        k1, k2 = a // c, b // c
        if (k2 * k2 - k2 + 1) % k1:
            reason = f"rotation condition fails: k1={k1} does not divide k2^2-k2+1={k2 * k2 - k2 + 1}"
        elif kind == "D" and ((k2 - 2) % k1 or 3 % k1):
            reason = f"swap condition fails: k1={k1} does not divide gcd(k2-2, 3) with k2={k2}"
    direct = kind == "A" or (
        conjugate_is_integral(basis, ROTATION_MATRIX)
        and (kind == "C" or conjugate_is_integral(basis, SWAP_MATRIX))
    )
    if (reason is None) != direct:
        raise InternalInvariantViolation(
            f"admissibility routes disagree on {basis} kind {kind}: "
            f"divisibility={reason is None}, conjugation={direct}"
        )
    return reason


def is_admissible(basis: LatticeBasis, kind: str) -> bool:
    """Both admissibility routes, cross-checked; True iff the basis is admissible."""
    return _refusal(basis, kind) is None


def check_admissible(basis: LatticeBasis, kind: str) -> None:
    """Raise PreconditionFailed unless the basis supports the requested kind.

    Index-1 sublattices are rejected as well: the quotient is trivial,
    so there is no diagonal part to build a group from.
    """
    if basis.det < 2:
        raise PreconditionFailed(f"index {basis.det} sublattice has trivial quotient")
    reason = _refusal(basis, kind)
    if reason is not None:
        raise PreconditionFailed(reason)


def admissible_bases(max_det: int, kind: str) -> list[LatticeBasis]:
    """All admissible bases with 2 <= det <= max_det, sorted by (det, a, b, c).

    Kind A admits every basis, so every triple is emitted, already in order and
    valid, so unchecked: for each det n, each divisor a of n, each b < a.  For
    kinds C and D the bases come from the closed form: (k1*c, k2*c, c) with
    k1*c^2 <= max_det, 0 <= k2 < k1, k1 | k2^2 - k2 + 1 and, for D, the swap
    condition k1 | gcd(k2 - 2, 3).  Each emitted basis still runs both
    admissibility routes; a basis either route rejects is an internal error.
    """
    _check_kind(kind)
    if kind == "A":
        divisors: list[list[int]] = [[] for _ in range(max_det + 1)]
        for a in range(1, max_det + 1):
            for n in range(a, max_det + 1, a):
                divisors[n].append(a)
        return [
            tuple.__new__(LatticeBasis, (a, b, n // a))
            for n in range(2, max_det + 1)
            for a in divisors[n]
            for b in range(a)
        ]
    found: list[tuple[int, int, int, int]] = []
    c = 1
    while c * c <= max_det:
        # k2^2 - k2 + 1 is odd, so only odd k1 can divide it.
        for k1 in range(1, max_det // (c * c) + 1, 2):
            if kind == "D" and 3 % k1:
                continue
            roots = [k2 for k2 in range(k1) if (k2 * k2 - k2 + 1) % k1 == 0]
            for k2 in roots:
                if kind == "D" and (k2 - 2) % k1:
                    continue
                basis = LatticeBasis(k1 * c, k2 * c, c)
                if basis.det < 2:
                    continue
                if not is_admissible(basis, kind):
                    raise InternalInvariantViolation(
                        f"closed-form generator emitted {basis}, "
                        f"which is not admissible for kind {kind}"
                    )
                found.append((basis.det, basis.a, basis.b, basis.c))
        c += 1
    found.sort()
    return [LatticeBasis(a, b, c) for _, a, b, c in found]
