"""Shared fixtures, independent numeric oracles and an exact cyclotomic one.

The numeric oracles deliberately avoid the package's exact-arithmetic
path: matrices become dense complex arrays and group bookkeeping hashes
rounded entries, so agreement is meaningful.  The exact oracle reduces
modulo the cyclotomic polynomial of any order, a route the package, which
sums in Z[omega] only, does not take.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from mckay.lattice import LatticeBasis


def to_complex(key, m: int) -> np.ndarray:
    """The matrix of the (perm, exps) key at root order m: column j carries
    zeta^exps[j] into row perm[j], zeta = exp(2 pi i / m)."""
    perm, exps = key
    zeta = np.exp(2j * np.pi / m)
    out = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        out[perm[j], j] = zeta ** exps[j]
    return out


def _mat_key(m: np.ndarray) -> tuple:
    return tuple(np.round(m, 9).reshape(-1).view(float))


def np_closure(mats: list[np.ndarray], cap: int = 100000) -> list[np.ndarray]:
    """Multiplicative closure over rounded complex matrices."""
    ident = np.eye(3, dtype=complex)
    seen = {_mat_key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in mats:
                w = g @ h
                k = _mat_key(w)
                if k not in seen:
                    assert len(seen) < cap, "oracle closure runaway"
                    seen[k] = w
                    nxt.append(w)
        frontier = nxt
    return list(seen.values())


def _np_classes(elements: list[np.ndarray]) -> list[list[int]]:
    """Conjugacy classes, as element indices, by brute-force orbit partition."""
    inverses = [np.linalg.inv(g) for g in elements]
    index = {_mat_key(g): i for i, g in enumerate(elements)}
    unassigned = set(range(len(elements)))
    classes = []
    while unassigned:
        i = min(unassigned)
        orbit = {
            index[_mat_key(g @ elements[i] @ gi)]
            for g, gi in zip(elements, inverses)
        }
        unassigned -= orbit
        classes.append(sorted(orbit))
    return classes


def np_class_count(elements: list[np.ndarray]) -> int:
    """Conjugacy class count by brute-force orbit partition."""
    return len(_np_classes(elements))


def np_power_sums(elements: list[np.ndarray], kmax: int) -> list[int]:
    """Sum over conjugacy classes of chi_V(g)^k for k = 1, ..., kmax.

    By column orthogonality this is tr(M^k) for McKay's matrix M, whose
    entry (i, j) is <chi_V chi_i, chi_j>; it sees the labels that the loop
    profile does not, such as V against V tensor a sign character.
    """
    chi = [np.trace(elements[c[0]]) for c in _np_classes(elements)]
    return [_near_int(sum(x ** k for x in chi), "power sum") for k in range(1, kmax + 1)]


def _near_int(x: complex, what: str) -> int:
    r = round(x.real)
    assert abs(x - r) < 1e-6, f"{what} {x} is not an integer"
    return r


def np_loop_profile(elements: list[np.ndarray]) -> list[tuple[int, int]]:
    """Sorted (dim, loops) over the McKay-quiver vertices that carry loops.

    The elements are the complex matrices of G acting on V = C^3. The
    irreducible characters come from Dixon's class-algebra method: the
    central characters w_i(K_t) = |C_t| chi_i(g_t) / chi_i(1) are the
    common right eigenvectors of the class-multiplication matrices
    (M_r)[s, t] = #{x in C_r : x^-1 g_t in C_s}, separated by a random
    combination of the M_r. Vertex chi_i carries <chi_V chi_i, chi_i>
    loops.
    """
    order = len(elements)
    classes = _np_classes(elements)
    index = {_mat_key(g): i for i, g in enumerate(elements)}
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    sizes = np.array([len(c) for c in classes], dtype=float)
    reps = [elements[c[0]] for c in classes]
    k = len(classes)
    mult = np.zeros((k, k, k))
    for t, z in enumerate(reps):
        for r, members in enumerate(classes):
            for x in members:
                y = np.linalg.inv(elements[x]) @ z
                mult[r, class_of[index[_mat_key(y)]], t] += 1
    weights = np.random.default_rng(0).standard_normal(k)
    _, vecs = np.linalg.eig(np.tensordot(weights, mult, axes=1))
    identity = class_of[index[_mat_key(np.eye(3, dtype=complex))]]
    chi_v = np.array([np.trace(g) for g in reps])
    dims, profile = [], []
    for i in range(k):
        central = vecs[:, i] / vecs[identity, i]
        dim = _near_int(
            np.sqrt(order / np.sum(np.abs(central) ** 2 / sizes)), "degree"
        )
        chi = dim * central / sizes
        loops = _near_int(
            np.sum(sizes * chi_v * np.abs(chi) ** 2) / order, "loop count"
        )
        dims.append(dim)
        if loops:
            profile.append((dim, loops))
    assert sum(d * d for d in dims) == order, "characters not separated"
    return sorted(profile)


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


def reduce_mod_cyclotomic(order: int, counts: dict[int, int]) -> tuple[int, ...]:
    """Power-basis coordinates of sum c z^k over the items (k, c) of counts,
    z a primitive order-th root of unity.

    Exponents are taken mod order, then the polynomial is divided by the
    order-th cyclotomic polynomial from the top down.  Two count dicts name
    the same number exactly when their reductions agree, and the number is a
    rational integer exactly when every coordinate past the first is 0.
    """
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    raw = [0] * order
    for k, c in counts.items():
        raw[k % order] += c
    # z^k = z^(k-d) * z^d = -z^(k-d) * (phi[0] + ... + phi[d-1] z^(d-1))
    for k in range(order - 1, d - 1, -1):
        c = raw[k]
        if c:
            for j, p in enumerate(phi[:d]):
                raw[k - d + j] -= c * p
    return tuple(raw[:d])


@pytest.fixture
def basis_2i() -> LatticeBasis:
    return LatticeBasis(2, 0, 2)


@pytest.fixture
def basis_3i() -> LatticeBasis:
    return LatticeBasis(3, 0, 3)


@pytest.fixture
def basis_321() -> LatticeBasis:
    return LatticeBasis(3, 2, 1)
