"""McKay quiver of an abelian quotient Z^2/B with typed arrows and its symmetry action.

Vertices are the cosets of Z^2/B.  From every vertex three arrows leave,
one per type: type 1 steps by e1 = (1, 0), type 2 by e2 = (0, 1), type 3
by e3 = (-1, -1); the steps sum to zero, so following the three types in
any cyclic order closes up.

The symmetry action is generated by the order-3 rotation t (e1 -> e2 ->
e3 -> e1) and, for kind D, the involution fixing type 3 and swapping
types 1 and 2.  An action element maps the arrow (x, i) to (g(x), sigma(i))
and multiplies its basis vector by a root-of-unity scalar depending only
on the type i; scalars are carried as exponents.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InternalInvariantViolation
from .lattice import AbelianQuotient, check_admissible
from .monomial_group import involution_scalars

__all__ = [
    "ARROW_TYPES",
    "STEPS",
    "Arrow",
    "TypedQuiver",
    "ElementaryCycle",
    "CommutativitySquare",
    "ActionElement",
    "GroupAction",
    "QuiverAction",
    "build_quiver",
    "elementary_cycles",
    "commutativity_squares",
    "k_action",
]

ARROW_TYPES = (1, 2, 3)
STEPS = {1: (1, 0), 2: (0, 1), 3: (-1, -1)}


class Arrow(NamedTuple):
    source: tuple[int, int]
    type: int


@dataclass(frozen=True)
class TypedQuiver:
    """The McKay quiver of Z^2/B: all (coset, type) arrows with implied targets."""

    quotient: AbelianQuotient

    @cached_property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        return self.quotient.cosets

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        return tuple(
            Arrow(v, i) for v in self.vertices for i in ARROW_TYPES
        )

    @cached_property
    def successors(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Each vertex's three arrow targets, in type order."""
        red = self.quotient.reduce
        return {
            (x, y): tuple(red((x + dx, y + dy)) for dx, dy in STEPS.values())
            for x, y in self.vertices
        }

    def target(self, arrow: Arrow) -> tuple[int, int]:
        return self.successors[arrow.source][arrow.type - 1]

    def arrow_index(self, arrow: Arrow) -> int:
        return self.quotient.index_of(arrow.source) * 3 + (arrow.type - 1)

    @cached_property
    def constraint_tables(
        self,
    ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, int, int, int], ...]]:
        """The cut constraints as arrow indices: each arrow's head vertex, the
        elementary cycles and the commutativity squares.

        Arrow i leaves vertex i // 3 with type i % 3 + 1, and vertices are
        numbered in coset order, so index order is arrow order: the cycles come
        in the order of `elementary_cycles`, each starting at its least arrow,
        and the squares in the order of `commutativity_squares`.  A square
        (a, b, c, d) is the 2-paths a.b and c.d.
        """
        index_of = self.quotient.index_of
        head = tuple(index_of(w) for v in self.vertices for w in self.successors[v])
        nv = len(head) // 3
        seen: set[tuple[int, ...]] = set()
        for v in range(nv):
            for order in ((0, 1, 2), (0, 2, 1)):
                walk = []
                x = v
                for t in order:
                    walk.append(3 * x + t)
                    x = head[3 * x + t]
                if x != v:
                    raise InternalInvariantViolation("type steps failed to close up")
                k = walk.index(min(walk))
                seen.add(tuple(walk[k:] + walk[:k]))
        cycles = tuple(sorted(seen))
        if len(cycles) != 2 * nv:
            raise InternalInvariantViolation(
                f"{len(cycles)} elementary cycles, expected {2 * nv}"
            )
        squares = tuple(
            (3 * v + i, 3 * head[3 * v + i] + j, 3 * v + j, 3 * head[3 * v + j] + i)
            for v in range(nv)
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        return head, cycles, squares


def build_quiver(quotient: AbelianQuotient) -> TypedQuiver:
    """Construct Q for the quotient and check 3-regularity in both directions."""
    q = TypedQuiver(quotient)
    indeg: dict[tuple[int, int], int] = {v: 0 for v in q.vertices}
    for targets in q.successors.values():
        for w in targets:
            indeg[w] += 1
    if any(d != 3 for d in indeg.values()):
        raise InternalInvariantViolation("in-degrees are not all 3")
    return q


@dataclass(frozen=True, order=True)
class ElementaryCycle:
    """A 3-cycle using each arrow type once, canonicalized up to rotation."""

    arrows: tuple[Arrow, Arrow, Arrow]

    @property
    def start(self) -> tuple[int, int]:
        return self.arrows[0].source


def _canonical_rotation(arrows: tuple[Arrow, ...]) -> tuple[Arrow, ...]:
    rotations = [arrows[k:] + arrows[:k] for k in range(len(arrows))]
    return min(rotations)


def elementary_cycles(q: TypedQuiver) -> tuple[ElementaryCycle, ...]:
    """All 3-cycles with pairwise distinct types, up to rotation; 2 det(B) of them."""
    seen: set[tuple[Arrow, ...]] = set()
    for v in q.vertices:
        for order in ((1, 2, 3), (1, 3, 2)):
            walk: list[Arrow] = []
            x = v
            for i in order:
                a = Arrow(x, i)
                walk.append(a)
                x = q.target(a)
            if x != v:
                raise InternalInvariantViolation("type steps failed to close up")
            seen.add(_canonical_rotation(tuple(walk)))
    cycles = tuple(ElementaryCycle(c) for c in sorted(seen))  # type: ignore[arg-type]
    if len(cycles) != 2 * q.quotient.order:
        raise InternalInvariantViolation(
            f"{len(cycles)} elementary cycles, expected {2 * q.quotient.order}"
        )
    return cycles


@dataclass(frozen=True, order=True)
class CommutativitySquare:
    """The two 2-paths x -> x+e_i -> x+e_i+e_j and x -> x+e_j -> x+e_i+e_j."""

    start: tuple[int, int]
    types: tuple[int, int]
    first_path: tuple[Arrow, Arrow]
    second_path: tuple[Arrow, Arrow]


def commutativity_squares(q: TypedQuiver) -> tuple[CommutativitySquare, ...]:
    """One square per vertex and unordered type pair; 3 det(B) of them."""
    squares = []
    for v in q.vertices:
        for i, j in ((1, 2), (1, 3), (2, 3)):
            ai = Arrow(v, i)
            aj = Arrow(v, j)
            squares.append(
                CommutativitySquare(
                    start=v,
                    types=(i, j),
                    first_path=(ai, Arrow(q.target(ai), j)),
                    second_path=(aj, Arrow(q.target(aj), i)),
                )
            )
    return tuple(squares)


@dataclass(frozen=True, eq=False)
class ActionElement:
    """One symmetry of the quiver: vertex map, type permutation, per-type scalars."""

    name: str
    vertex_map: dict[tuple[int, int], tuple[int, int]]
    type_map: tuple[int, int, int]
    type_scalars: tuple[int, int, int]

    def act_type(self, i: int) -> int:
        return self.type_map[i - 1]

    def act_arrow(self, a: Arrow) -> Arrow:
        return Arrow(self.vertex_map[a.source], self.type_map[a.type - 1])

    def scalar_exp(self, arrow_type: int) -> int:
        return self.type_scalars[arrow_type - 1]


def _compose(
    f: ActionElement, g: ActionElement, name: str, root_order: int
) -> ActionElement:
    """The element acting as f after g."""
    vmap = {v: f.vertex_map[g.vertex_map[v]] for v in g.vertex_map}
    tmap = tuple(f.type_map[g.type_map[i] - 1] for i in range(3))
    scal = tuple(
        (g.type_scalars[i] + f.type_scalars[g.type_map[i] - 1]) % root_order
        for i in range(3)
    )
    return ActionElement(name, vmap, tmap, scal)  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A finite group acting on a finite point set.

    Elements are indices into `names`, in element order with the identity
    first; `table[a][b]` is the index of a after b, and `maps[g][v]` is the
    image of the point v under element g.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    maps: tuple
    points: tuple

    @classmethod
    def from_keys(cls, names, keys, compose, maps, points) -> GroupAction:
        """The action whose Cayley table is read off distinct element keys
        under their composition; raises unless they close up into a group
        with the first key as identity."""
        index = {k: i for i, k in enumerate(keys)}
        if len(index) != len(keys):
            raise InternalInvariantViolation("group elements are not distinct")
        try:
            table = tuple(tuple(index[compose(a, b)] for b in keys) for a in keys)
        except KeyError:
            raise InternalInvariantViolation("group elements are not closed") from None
        if table[0] != tuple(range(len(keys))):
            raise InternalInvariantViolation("the first element is not the identity")
        return cls(tuple(names), table, tuple(maps), tuple(points))

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        out = []
        for g in range(len(self.names)):
            k, x = 1, g
            while x != 0:
                x, k = self.table[x][g], k + 1
            out.append(k)
        return tuple(out)

    @cached_property
    def orbits(self) -> tuple[tuple, ...]:
        """Orbits as sorted tuples, listed by their least member, which is
        the orbit representative."""
        seen: set = set()
        orbits = []
        for v in self.points:
            if v in seen:
                continue
            orbit = tuple(sorted({m[v] for m in self.maps}))
            seen.update(orbit)
            orbits.append(orbit)
        return tuple(orbits)

    @cached_property
    def orbit_of(self) -> dict:
        return {v: orbit for orbit in self.orbits for v in orbit}

    def stabilizer(self, v) -> tuple[int, ...]:
        return tuple(g for g, m in enumerate(self.maps) if m[v] == v)

    def transversal_element(self, v) -> int:
        """First element, in element order, mapping v's representative to v."""
        rep = self.orbit_of[v][0]
        return next(g for g, m in enumerate(self.maps) if m[rep] == v)


@dataclass(frozen=True, eq=False)
class QuiverAction:
    """The symmetry group (C3 for kind C, S3 for kind D) acting on a quiver;
    `group` holds its table and vertex maps in the order of `elements`.

    Only `k_action` builds one, after checking that the basis is admissible
    for the kind, so every stage that takes an action may rely on that.
    """

    quiver: TypedQuiver
    kind: str
    root_order: int
    scalars: tuple[int, int, int] | None
    elements: tuple[ActionElement, ...]
    group: GroupAction

    @cached_property
    def _by_name(self) -> dict[str, ActionElement]:
        return {e.name: e for e in self.elements}

    def element(self, name: str) -> ActionElement:
        return self._by_name[name]

    def fixed_vertices(self, name: str) -> tuple[tuple[int, int], ...]:
        e = self._by_name[name]
        return tuple(v for v in self.quiver.vertices if e.vertex_map[v] == v)

    def is_arrow_set_invariant(self, arrows: Iterable[Arrow]) -> bool:
        """Whether every element maps the arrow set onto itself, read on
        arrow indices: the type-t arrow from v goes to the type-sigma(t)
        arrow from v's image."""
        arrows = tuple(arrows)
        s = {self.quiver.arrow_index(a) for a in arrows}
        index_of = self.quiver.quotient.index_of
        return all(
            3 * index_of(e.vertex_map[a.source]) + e.type_map[a.type - 1] - 1 in s
            for e in self.elements
            for a in arrows
        )


def _assert_automorphisms(q: TypedQuiver, elements: Iterable[ActionElement]) -> None:
    """Check that each element permutes the vertices and maps the type-i
    arrow from v onto the type-sigma(i) arrow from its image, target
    included, on vertex indices: perm[succ[v][i]] == succ[perm[v]][sigma(i)]."""
    vertices = q.vertices
    index = {v: k for k, v in enumerate(vertices)}
    succ = [tuple(index[w] for w in q.successors[v]) for v in vertices]
    identity = list(range(len(vertices)))
    for e in elements:
        perm = [index.get(e.vertex_map.get(v), -1) for v in vertices]
        if sorted(perm) != identity:
            raise InternalInvariantViolation(f"{e.name} is not a vertex bijection")
        sigma = tuple(i - 1 for i in e.type_map)
        for v, (pv, sv) in enumerate(zip(perm, succ)):
            image = succ[pv]
            for i in range(3):
                if perm[sv[i]] != image[sigma[i]]:
                    raise InternalInvariantViolation(
                        f"{e.name} does not commute with targets on "
                        f"{Arrow(vertices[v], i + 1)}"
                    )


def k_action(
    q: TypedQuiver,
    kind: str,
    scalars: tuple[int, int, int] | None = None,
    root_order: int | None = None,
) -> QuiverAction:
    """The C3 (kind C) or S3 (kind D) action on the quiver.

    For kind D, scalars = (p, q, s) are the exponents of the involution
    generator's matrix entries (alpha, beta, gamma with alpha*beta*gamma
    = -1); the induced arrow scalars by type are alpha*gamma^2,
    alpha*beta^2, -1.  Omitted scalars default to alpha = beta = gamma
    = -1 at root order 2.  Kind C carries no scalars.
    """
    if kind not in ("C", "D"):
        raise ValueError(f"kind must be 'C' or 'D', got {kind!r}")
    check_admissible(q.quotient.basis, kind)
    red = q.quotient.reduce

    m = root_order if root_order is not None else {"C": 1, "D": 2}[kind]
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    if kind == "C" and scalars is not None:
        raise ValueError("kind C admits no involution scalars")
    if kind == "D":
        scalars = involution_scalars(m, scalars)

    identity = ActionElement(
        "1", {v: v for v in q.vertices}, (1, 2, 3), (0, 0, 0)
    )
    t = ActionElement(
        "t",
        {v: red((-v[1], v[0] - v[1])) for v in q.vertices},
        (2, 3, 1),
        (0, 0, 0),
    )
    t2 = _compose(t, t, "t^2", m)
    elements = [identity, t, t2]
    if kind == "D":
        p, qq, s = scalars  # type: ignore[misc]
        swap = ActionElement(
            "s",
            {v: red((v[1], v[0])) for v in q.vertices},
            (2, 1, 3),
            ((p + 2 * s) % m, (p + 2 * qq) % m, m // 2),
        )
        # Scalar-honest transpositions come from conjugate words t s t^2
        # and t^2 s t, not from the short words ts and st.
        ts = _compose(t2, _compose(swap, t, "_", m), "ts", m)
        st = _compose(t, _compose(swap, t2, "_", m), "st", m)
        elements = [identity, t, swap, t2, ts, st]

    if _compose(t2, t, "_", m).type_map != (1, 2, 3):
        raise InternalInvariantViolation("t^3 != 1 on types")
    _assert_automorphisms(q, elements)
    for e in elements:
        if sorted(e.type_map) != [1, 2, 3]:
            raise InternalInvariantViolation(f"{e.name} does not permute types")
        # Involutions must square to the identity with scalars included;
        # this pins the conjugate-word convention.
        sq = _compose(e, e, "_", m)
        if e.type_map in ((2, 1, 3), (3, 2, 1), (1, 3, 2)):
            if sq.type_map != (1, 2, 3) or any(sq.type_scalars) or any(
                sq.vertex_map[v] != v for v in q.vertices
            ):
                raise InternalInvariantViolation(
                    f"involution {e.name} does not square to the identity"
                )
    # Group relations on the permutation parts: distinct and closed.
    group = GroupAction.from_keys(
        (e.name for e in elements),
        [e.type_map for e in elements],
        lambda a, b: tuple(a[b[i] - 1] for i in range(3)),
        (e.vertex_map for e in elements),
        q.vertices,
    )
    return QuiverAction(
        quiver=q, kind=kind, root_order=m, scalars=scalars,
        elements=tuple(elements), group=group,
    )
