"""McKay quiver of an abelian quotient Z^2/B with typed arrows and its symmetry action.

Vertices are the cosets of Z^2/B, numbered once in coset order: (x1, x2)
is vertex x1 c + x2 for B = [[a, b], [0, c]].  From every vertex three
arrows leave, one per type: type 1 steps by e1 = (1, 0), type 2 by e2 =
(0, 1), type 3 by e3 = (-1, -1); the steps sum to zero, so following the
three types in any cyclic order closes up.  The arrow of type t + 1 from
vertex v is the index 3v + t, so index order is (source coset, type)
order.  Every stage after the quiver reads the flat head table and vertex
permutations on these indices, and cuts are sets of arrow indices; coset
tuples remain only where documents name vertices.

The symmetry action is generated by the order-3 rotation t (e1 -> e2 ->
e3 -> e1) and, for kind D, the involution s fixing type 3 and swapping
types 1 and 2.  An element is its type permutation sigma: it maps the
arrow (x, i) to (g(x), sigma(i)), where g is the linear map sending each
step e_i to e_sigma(i).  The kind-D arrow scalars are not carried; the
skew side needs only which types an element fixes (see `mckay.skew`), and
the command line validates and prints them.
"""
from __future__ import annotations

from collections import namedtuple
from operator import itemgetter
from typing import Iterable

from .errors import InternalInvariantViolation
from .lattice import AbelianQuotient, LatticeBasis, _check_kind, check_admissible, env_cap

__all__ = [
    "STEPS",
    "DEFAULT_VERTEX_CAP",
    "TypedQuiver",
    "GroupAction",
    "QuiverAction",
    "build_quiver",
    "k_action",
]

STEPS = {1: (1, 0), 2: (0, 1), 3: (-1, -1)}
DEFAULT_VERTEX_CAP = 100_000


class TypedQuiver(namedtuple("TypedQuiver", "quotient vertices head")):
    """The McKay quiver of Z^2/B on vertex indices.

    Vertex v is the coset `vertices[v]`, numbered in coset order, and arrow
    3v + t leaves v with type t + 1; `head[3v + t]` is its head.  Coset
    tuples are only the boundary that documents read.  Only `build_quiver`
    builds one, after checking the head table.
    """

    __slots__ = ()


def _head_table(basis: LatticeBasis) -> tuple[int, ...]:
    """Each arrow's head vertex, by arrow index.

    Coset (x1, x2) is vertex v = x1 c + x2, so a step inside the range
    0 <= x1 < a, 0 <= x2 < c adds c (e1), 1 (e2) or -c - 1 (e3) to v mod
    n.  A step that leaves it wraps by one column of B, set row by row:
    x2 = c is (x1 - b, 0) and x2 = -1 is (x1 + b, c - 1), x1 mod a.
    """
    a, b, c = basis.a, basis.b, basis.c
    n = a * c

    def shifted(k: int) -> list[int]:
        k %= n
        return [*range(k, n), *range(k)]

    up = shifted(1)
    up[c - 1::c] = [(x1 - b) % a * c for x1 in range(a)]  # (x1, c)
    down = shifted(-c - 1)
    down[::c] = [(x1 - 1 + b) % a * c + c - 1 for x1 in range(a)]  # (x1 - 1, -1)
    head = [0] * (3 * n)
    head[0::3] = shifted(c)
    head[1::3] = up
    head[2::3] = down
    return tuple(head)


def build_quiver(quotient: AbelianQuotient) -> TypedQuiver:
    """Construct Q for the quotient; check 3-regularity in both directions
    and that the type steps close up into the elementary cycles.

    A quotient of more cosets than the vertex cap (MCKAY_MAX_VERTICES, else
    100000) is refused with ValueError before anything per coset is built.
    """
    cap = env_cap("MCKAY_MAX_VERTICES", DEFAULT_VERTEX_CAP)
    if quotient.order > cap:
        raise ValueError(
            f"det(B) = {quotient.order} exceeds the vertex cap of {cap}; "
            f"raise MCKAY_MAX_VERTICES if the quiver really is this large"
        )
    head = _head_table(quotient.basis)
    n = quotient.order
    indeg = [0] * n
    for w in head:
        indeg[w] += 1
    if indeg.count(3) != n:
        raise InternalInvariantViolation("in-degrees are not all 3")
    # from every v, the steps of types 1, 2, 3 and of types 1, 3, 2 return to v
    h1, h2, h3 = head[0::3], head[1::3], head[2::3]
    identity = list(range(n))
    if [h3[h2[x]] for x in h1] != identity or [h2[h3[x]] for x in h1] != identity:
        raise InternalInvariantViolation("type steps failed to close up")
    return TypedQuiver(quotient, quotient.basis.cosets(), head)


class GroupAction(namedtuple(
    "GroupAction",
    "names table maps points inverse orders orbits orbit_of transversal stabilizers",
)):
    """A finite group acting on the points 0, ..., n - 1.

    Elements are indices into `names`, in element order with the identity
    first; `table[a][b]` is the index of a after b, and `maps[g][v]` is the
    image of the point v under element g.  `inverse` and `orders` are by
    element.  `orbits` are sorted tuples listed by their least member, the
    orbit representative; `orbit_of[v]` is v's orbit, `transversal[v]` the
    first element mapping v's representative to v, and `stabilizers[v]` the
    elements fixing v when v is a representative, None otherwise.
    """

    __slots__ = ()

    @classmethod
    def from_keys(cls, names, keys, compose, maps) -> GroupAction:
        """The action, on the points the maps permute, whose Cayley table is
        read off distinct element keys under their composition; raises
        unless they close up into a group with the first key as identity.
        The orbit fields come from one pass over the representatives."""
        index = {k: i for i, k in enumerate(keys)}
        if len(index) != len(keys):
            raise InternalInvariantViolation("group elements are not distinct")
        try:
            table = tuple(tuple(index[compose(a, b)] for b in keys) for a in keys)
        except KeyError:
            raise InternalInvariantViolation("group elements are not closed") from None
        if table[0] != tuple(range(len(keys))):
            raise InternalInvariantViolation("the first element is not the identity")
        inverse = tuple(row.index(0) for row in table)
        orders = []
        for g in range(len(keys)):
            k, x = 1, g
            while x != 0:
                x, k = table[x][g], k + 1
            orders.append(k)
        points = tuple(range(len(maps[0])))
        orbit_of: list = [None] * len(points)
        transversal = [0] * len(points)
        stabilizers: list = [None] * len(points)
        orbits = []
        for v in points:
            if orbit_of[v] is not None:
                continue
            images = [m[v] for m in maps]
            orbit = tuple(sorted(set(images)))
            for u in orbit:
                orbit_of[u] = orbit
            for g in reversed(range(len(images))):
                transversal[images[g]] = g
            stabilizers[v] = tuple(g for g, u in enumerate(images) if u == v)
            orbits.append(orbit)
        return cls(
            tuple(names), table, tuple(maps), points, inverse, tuple(orders),
            tuple(orbits), tuple(orbit_of), tuple(transversal), tuple(stabilizers),
        )


class QuiverAction(namedtuple("QuiverAction", "quiver kind type_maps group")):
    """The symmetry group (C3 for kind C, S3 for kind D) acting on a quiver;
    `type_maps[g]` is the type permutation of element g of `group`, whose
    vertex maps `group.maps` follow the same element order.

    Only `k_action` builds one, after checking that the basis is admissible
    for the kind, so every stage that takes an action may rely on that.
    """

    __slots__ = ()

    def is_arrow_set_invariant(self, arrows: Iterable[int]) -> bool:
        """Whether every element maps the set of arrow indices onto itself:
        arrow 3v + t goes to 3 perm[v] + sigma(t)."""
        ids = list(arrows)
        s = set(ids)
        return all(
            s.issuperset([3 * perm[i // 3] + sigma[i % 3] - 1 for i in ids])
            for perm, sigma in zip(self.group.maps, self.type_maps)
        )


def _assert_automorphisms(q: TypedQuiver, names, maps, type_maps) -> None:
    """Check that each element, given by its name, vertex map and type map,
    permutes the vertices and maps the type-i arrow from v onto the
    type-sigma(i) arrow from its image, target included:
    perm[head[3v + i]] == head[3 perm[v] + sigma(i)].  Both sides are
    gathered over all v by `itemgetter`, as tuples: an action has n >= 2."""
    head = q.head
    by_type = [head[i::3] for i in range(3)]
    at_heads = [itemgetter(*heads) for heads in by_type]
    identity = list(range(len(q.vertices)))
    for name, perm, type_map in zip(names, maps, type_maps):
        if sorted(perm) != identity:
            raise InternalInvariantViolation(f"{name} is not a vertex bijection")
        at_images = itemgetter(*perm)
        for i in range(3):
            if at_heads[i](perm) != at_images(by_type[type_map[i] - 1]):
                sigma = [j - 1 for j in type_map]
                v, j = next(
                    (v, j) for v in identity for j in range(3)
                    if perm[head[3 * v + j]] != head[3 * perm[v] + sigma[j]]
                )
                raise InternalInvariantViolation(
                    f"{name} does not commute with targets on the type-{j + 1} "
                    f"arrow from {q.vertices[v]}"
                )


def _linear_map(q: TypedQuiver, type_map: tuple[int, int, int]) -> tuple[int, ...]:
    """The vertex permutation of x -> x1 g(e1) + x2 g(e2), where g sends the
    step of each type i to the step of type type_map[i - 1].

    Vertex x1 c + x2 is reached from vertex 0 by x1 steps of e1 and then x2
    of e2, so its image is the walk of x1 steps of type g(1) and x2 of type
    g(2) on the head table.
    """
    head, c = q.head, q.quotient.basis.c
    # each vertex's head along the steps of types g(1) and g(2)
    step1, step2 = head[type_map[0] - 1::3], head[type_map[1] - 1::3]
    perm = [0] * len(q.vertices)
    for v in range(1, len(perm)):
        perm[v] = step2[perm[v - 1]] if v % c else step1[perm[v - c]]
    return tuple(perm)


# The type permutation of each element, by name, in element order: the
# rotation t sends type i to i + 1, and s swaps types 1 and 2.
_TYPE_MAPS = {
    "C": {"1": (1, 2, 3), "t": (2, 3, 1), "t^2": (3, 1, 2)},
    "D": {
        "1": (1, 2, 3), "t": (2, 3, 1), "s": (2, 1, 3),
        "t^2": (3, 1, 2), "ts": (3, 2, 1), "st": (1, 3, 2),
    },
}


def k_action(q: TypedQuiver, kind: str) -> QuiverAction:
    """The C3 (kind C) or S3 (kind D) action on the quiver.

    t is the rotation (x1, x2) -> (-x2, x1 - x2) and s the swap
    (x1, x2) -> (x2, x1); each element's vertex permutation is the linear
    map of its type permutation, checked to be a quiver automorphism.
    The kind-D arrow scalars (p, q, s) at a root order M take no part: no
    skew multiplicity depends on them, because every involution acts by -1
    on the type it fixes whatever they are (see `mckay.skew`).
    """
    _check_kind(kind, ("C", "D"))
    check_admissible(q.quotient.basis, kind)

    points = tuple(range(len(q.vertices)))
    names, type_maps = zip(*_TYPE_MAPS[kind].items())
    maps = [_linear_map(q, sigma) for sigma in type_maps]
    _assert_automorphisms(q, names, maps, type_maps)
    for name, perm, sigma in zip(names, maps, type_maps):
        involution = sigma in ((2, 1, 3), (3, 2, 1), (1, 3, 2))
        if involution and itemgetter(*perm)(perm) != points:
            raise InternalInvariantViolation(
                f"involution {name} does not square to the identity"
            )
    # Group relations on the type permutations: distinct and closed.
    group = GroupAction.from_keys(
        names,
        type_maps,
        lambda a, b: tuple(a[b[i] - 1] for i in range(3)),
        maps,
    )
    return QuiverAction(quiver=q, kind=kind, type_maps=type_maps, group=group)
