"""Exact 3x3 monomial matrices over roots of unity and finite group closure.

A monomial matrix at root order m is the key (perm, exps): column j
carries the scalar zeta^exps[j] into row perm[j], zeta a fixed primitive
m-th root of unity.  Scalar exponents are plain integers reduced modulo
m, so all group arithmetic is exact integer arithmetic on keys.

Special-linear membership is the exact exponent identity
sign(perm) * zeta^(e1+e2+e3) = 1: even permutations need the exponent
sum to vanish, odd permutations need it to equal m/2 (which forces an
even root order).

Closures, classes, the splitting check and its witnesses are all keys at
one root order; a document prints a key as its perm and exps lists.
"""
from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import lcm
from typing import Sequence

from .errors import PreconditionFailed
from .lattice import _check_kind, env_cap

__all__ = [
    "FiniteMatrixGroup",
    "ComplementReport",
    "closure",
    "diagonal_subgroup",
    "conjugacy_classes",
    "semidirect_check",
    "diagonal_generators_from_basis",
    "group_from_basis",
    "involution_scalars",
    "DEFAULT_CLOSURE_CAP",
]

DEFAULT_CLOSURE_CAP = 10000

_IDENTITY_PERM = (0, 1, 2)
_EVEN_PERMS = frozenset({_IDENTITY_PERM, (1, 2, 0), (2, 0, 1)})
_ALL_PERMS = _EVEN_PERMS | frozenset({(0, 2, 1), (2, 1, 0), (1, 0, 2)})
_INVERSE_PERM = {p: (p.index(0), p.index(1), p.index(2)) for p in _ALL_PERMS}

Key = tuple[tuple[int, int, int], tuple[int, int, int]]
_IDENTITY: Key = (_IDENTITY_PERM, (0, 0, 0))


def _mul(a: Key, b: Key, m: int) -> Key:
    """The key of the product of the elements with keys a and b at root order m."""
    (pa, ea), (pb, eb) = a, b
    b0, b1, b2 = pb
    return (
        (pa[b0], pa[b1], pa[b2]),
        ((ea[b0] + eb[0]) % m, (ea[b1] + eb[1]) % m, (ea[b2] + eb[2]) % m),
    )


def _inv(a: Key, m: int) -> Key:
    """The key of the inverse of the element with key a at root order m."""
    p, e = a
    perm = [0, 0, 0]
    exps = [0, 0, 0]
    for j in range(3):
        perm[p[j]] = j
        exps[p[j]] = -e[j] % m
    return (tuple(perm), tuple(exps))  # type: ignore[return-value]


def _conj(h: Key, y: Key, m: int) -> Key:
    """The key of h y h^-1 at root order m.  Column j of the product is
    column k = h^-1(j) of y, moved to row h(y(k)); its exponent gains h's
    exponent in column y(k) and loses h's exponent in column k."""
    (ph, eh), (py, ey) = h, y
    k0, k1, k2 = _INVERSE_PERM[ph]
    a, b, c = py[k0], py[k1], py[k2]
    return (
        (ph[a], ph[b], ph[c]),
        (
            (eh[a] + ey[k0] - eh[k0]) % m,
            (eh[b] + ey[k1] - eh[k1]) % m,
            (eh[c] + ey[k2] - eh[k2]) % m,
        ),
    )


def _is_special(key: Key, m: int) -> bool:
    """Exact determinant-1 test of the element with key `key` at root order m."""
    perm, exps = key
    total = sum(exps) % m
    if perm in _EVEN_PERMS:
        return total == 0
    return m % 2 == 0 and total == m // 2


class FiniteMatrixGroup(namedtuple("FiniteMatrixGroup", "root_order generator_keys keys")):
    """A multiplicatively closed finite set of monomial matrices, held as
    sorted (perm, exps) keys at one root order, with the keys of the
    generators it was closed from."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.keys)


def closure(
    gen_keys: Sequence[Key], m: int, max_elements: int | None = None
) -> FiniteMatrixGroup:
    """Breadth-first multiplicative closure of the generator keys at root
    order m.

    Every generator must be special linear; the closure is aborted with
    ValueError once it exceeds the element cap (argument, else the
    MCKAY_MAX_CLOSURE environment variable, else 10000).
    """
    if not gen_keys:
        raise ValueError("need at least one generator")
    for g in gen_keys:
        if not _is_special(g, m):
            raise ValueError(f"generator {g} has determinant != 1 at root order {m}")
    cap = max_elements
    if cap is None:
        cap = env_cap("MCKAY_MAX_CLOSURE", DEFAULT_CLOSURE_CAP)
    seen = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        nxt: list[Key] = []
        for g in frontier:
            for h in gen_keys:
                w = _mul(g, h, m)
                if w not in seen:
                    if len(seen) >= cap:
                        raise ValueError(
                            f"closure exceeded {cap} elements; raise the cap "
                            f"if the group really is this large"
                        )
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return FiniteMatrixGroup(m, tuple(gen_keys), tuple(sorted(seen)))


def diagonal_subgroup(g: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """The subgroup of diagonal elements; asserted abelian and normal in g."""
    m = g.root_order
    diag = tuple(k for k in g.keys if k[0] == _IDENTITY_PERM)
    # Diagonal monomial matrices commute entrywise; normality still needs g.
    members = set(diag)
    for h in g.generator_keys:
        for d in diag:
            if _conj(h, d, m) not in members:
                raise PreconditionFailed(
                    "diagonal part is not normal; the closure is inconsistent"
                )
    return FiniteMatrixGroup(m, diag, diag)


def conjugacy_classes(g: FiniteMatrixGroup) -> list[tuple[Key, ...]]:
    """Partition of the element keys into conjugacy classes, listed by their
    least member; the members of a class are in no particular order."""
    m = g.root_order
    gens = g.generator_keys
    remaining = set(g.keys)
    classes: list[tuple[Key, ...]] = []
    for x in g.keys:
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for h in gens:
                z = _conj(h, y, m)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        classes.append(tuple(orbit))
    return classes


class ComplementReport(namedtuple(
    "ComplementReport",
    "diagonal_order complement i1 i2 t_factorization r_factorization",
)):
    """Witnesses for the semidirect splitting G = N x| K: the complement as a
    FiniteMatrixGroup and the involutions and factorization pairs as keys at
    the group's root order; the kind-D witnesses are None for kind C."""

    __slots__ = ()


def _find_generator(g: FiniteMatrixGroup, even: bool) -> Key:
    for x in g.generator_keys:
        if even and x[0] == (1, 2, 0):
            return x
        if not even and x[0] not in _EVEN_PERMS:
            return x
    raise PreconditionFailed(
        "generators contain no "
        + ("3-cycle permutation part" if even else "odd permutation part")
    )


def _complement(
    g: FiniteMatrixGroup, n: FiniteMatrixGroup, gens: list[Key], name: str, order: int
) -> FiniteMatrixGroup:
    """The closure of gens, named `name` in errors, checked to have the given
    order, no diagonal element besides the identity, and order |G| / |N|."""
    complement = closure(gens, g.root_order, max_elements=order + 1)
    if complement.order != order:
        raise PreconditionFailed(f"{name} has order {complement.order}, expected {order}")
    if any(p == _IDENTITY_PERM and any(e) for p, e in complement.keys):
        raise PreconditionFailed(f"{name} meets the diagonal subgroup nontrivially")
    if n.order * order != g.order:
        raise PreconditionFailed(f"|G| = {g.order} is not {order} * |N| = {order * n.order}")
    return complement


def semidirect_check(g: FiniteMatrixGroup, kind: str) -> ComplementReport:
    """Verify G = N x| K and return the complement with factorization witnesses.

    For kind C the complement is the cyclic group on the 3-cycle generator t.
    For kind D it is generated by the two involutions

        i1 = t r^2 t^-1 r        i2 = t^2 r^2 t^-1 r t^-1

    which must satisfy i1^2 = i2^2 = (i1 i2)^3 = 1; the witnesses express
    t = (t i2^-1 i1^-1) (i1 i2) and r = (t r^-2 t^-1) i1 with diagonal left
    factors, exhibiting the original generators inside N * K.
    """
    _check_kind(kind, ("C", "D"))
    m = g.root_order
    n = diagonal_subgroup(g)
    t = _find_generator(g, even=True)
    if kind == "C":
        return ComplementReport(
            diagonal_order=n.order,
            complement=_complement(g, n, [t], "<t>", 3),
            i1=None,
            i2=None,
            t_factorization=(_IDENTITY, t),
            r_factorization=None,
        )

    def product(*factors: Key) -> Key:
        return reduce(lambda a, b: _mul(a, b, m), factors)

    r = _find_generator(g, even=False)
    tinv, rinv = _inv(t, m), _inv(r, m)
    i1 = product(t, r, r, tinv, r)
    i2 = product(t, t, r, r, tinv, r, tinv)
    pair = product(i1, i2)
    if product(i1, i1) != _IDENTITY or product(i2, i2) != _IDENTITY:
        raise PreconditionFailed("i1 or i2 is not an involution; bad scalar input")
    if product(pair, pair, pair) != _IDENTITY:
        raise PreconditionFailed("(i1 i2)^3 != 1; bad scalar input")
    complement = _complement(g, n, [i1, i2], "<i1, i2>", 6)
    # t = d_t * (i1 i2) and r = d_r * i1 with diagonal d_t, d_r.
    d_t = product(t, _inv(i2, m), _inv(i1, m))
    d_r = product(t, rinv, rinv, tinv)
    if d_t[0] != _IDENTITY_PERM or d_r[0] != _IDENTITY_PERM:
        raise PreconditionFailed("factorization witnesses are not diagonal")
    if product(d_t, pair) != t or product(d_r, i1) != r:
        raise PreconditionFailed("factorization witnesses do not recompose")
    return ComplementReport(
        diagonal_order=n.order,
        complement=complement,
        i1=i1,
        i2=i2,
        t_factorization=(d_t, pair),
        r_factorization=(d_r, i1),
    )


def involution_scalars(
    kind: str, root_order: int, scalars: Sequence[int] | None = None
) -> tuple[int, int, int] | None:
    """The kind-D involution exponents (p, q, s) of alpha, beta, gamma,
    reduced modulo the root order; alpha = beta = gamma = -1 when omitted.
    None for the kinds without an involution.

    The one home of the scalar contract, checked in this order: only kind D
    admits scalars, the root order is positive, and for kind D it is even
    (alpha*beta*gamma = -1) and p + q + s is congruent to root_order/2.
    """
    if scalars is not None and kind != "D":
        raise ValueError(f"kind {kind} admits no involution scalars")
    m = root_order
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    if kind != "D":
        return None
    if m % 2:
        raise ValueError(f"kind D needs an even root order, got {m}")
    if scalars is None:
        return (m // 2, m // 2, m // 2)
    p, q, s = (x % m for x in scalars)
    if (p + q + s) % m != m // 2:
        raise ValueError(
            f"scalar exponents ({p}, {q}, {s}) violate alpha*beta*gamma = -1 "
            f"modulo {m}"
        )
    return (p, q, s)


def diagonal_generators_from_basis(basis, root_order: int) -> list[Key]:
    """Keys of the diagonal generators of the group dual to Z^2/B at the
    given root order.

    The exponent vectors are root_order * B^-T applied to the standard
    basis; the third exponent is forced by the determinant condition.
    """
    a, b, c = basis.a, basis.b, basis.c
    det = basis.det
    raw = [(root_order * c, -root_order * b), (0, root_order * a)]
    gens: list[Key] = []
    for u, v in raw:
        if u % det or v % det:
            raise ValueError(
                f"root order {root_order} is not a multiple of the quotient "
                f"exponent; generators are not integral"
            )
        e1, e2 = u // det, v // det
        exps = (e1 % root_order, e2 % root_order, (-e1 - e2) % root_order)
        gens.append((_IDENTITY_PERM, exps))
    return gens


def group_from_basis(
    basis,
    kind: str,
    root_order: int | None = None,
    scalars: tuple[int, int, int] | None = None,
) -> FiniteMatrixGroup:
    """Build the monomial group of the given kind over the quotient Z^2/B.

    kind "A" gives the diagonal group alone, "C" adjoins the 3-cycle t,
    and "D" also adjoins the monomial involution r with the given scalar
    exponents (alpha = beta = gamma = -1 when omitted).  The closure is
    verified to split off the expected diagonal subgroup.
    """
    _check_kind(kind)
    _, d2 = basis.smith_invariants()
    m = root_order
    if m is None:  # the smallest root order carrying the diagonal group (and -1 for kind D)
        m = lcm(d2, 2) if kind == "D" else d2
    exponents = involution_scalars(kind, m, scalars)
    if m % d2:
        raise ValueError(
            f"root order {m} cannot represent a quotient of exponent {d2}"
        )
    gens = diagonal_generators_from_basis(basis, m)
    if kind in ("C", "D"):
        # the 3-cycle t: e1 -> e2 -> e3 -> e1, scalar-free
        gens.append(((1, 2, 0), (0, 0, 0)))
    if kind == "D":
        # the involution with alpha = zeta^p at (1,2), beta = zeta^q at
        # (2,1) and gamma = zeta^s at (3,3) [1-based]
        p, q, s = exponents
        gens.append(((1, 0, 2), (q, p, s)))
    g = closure(gens, m)
    expected = {"A": 1, "C": 3, "D": 6}[kind] * basis.det
    diag = sum(1 for p, _ in g.keys if p == _IDENTITY_PERM)
    if diag != basis.det:
        raise PreconditionFailed(
            f"diagonal part has order {diag}, expected {basis.det}; "
            f"the involution scalars enlarge the diagonal subgroup"
        )
    if g.order != expected:
        raise PreconditionFailed(
            f"|G| = {g.order}, expected {expected} for kind {kind}"
        )
    return g
