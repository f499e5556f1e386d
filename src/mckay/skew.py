"""Skew-group quivers by orbit, stabilizer and exact character arithmetic.

Vertices of the skewed quiver are pairs (orbit representative, irreducible
character of the stabilizer); the arrow multiplicity between two such
vertices is a sum of Hom-space dimensions, one per diagonal orbit that
carries arrows, each computed as an exact character inner product over the
joint stabilizer.  All of this arithmetic lies in Z[omega], omega a
primitive cube root of unity: every character value is c * omega^k and
every trace a sum of (exponent mod 3, count) terms, so each block's inner
product is summed exactly as three counts over Z/3, read once in the basis
(1, omega); blocks with the same stabilizers and terms share one such sum.
A multiplicity that is not a non-negative integer can only mean a
bookkeeping bug and is raised, never rounded.

Both skews of the unskew round trip run through the same engine on plain
data: a GroupAction on the points 0, ..., n - 1 (element names, integer
Cayley table and vertex permutations, with orbits, stabilizers and
transversals) and a function `blocks(v)` mapping each out-neighbour w of an
orbit representative v to the block's trace row, row[h] the terms of h for
each h fixing v and w; the engine never looks at what the points stand for.
The first skew uses the C3 / S3 action on the vertex indices of Q_N (see
`_quiver_blocks`: its traces are signs, and no arrow scalar enters them),
the second the dual C3 acting on skew-vertex indices (see `_dual_twist`).
One degree-transport routine gives the blocks of S and of the double skew
the degrees of a cut of Q_N's arrow indices, while Q_N's own labels are
read off its head table; the round trip recovers the cut as arrow indices
too.  Coset tuples return only in `loop_witness`, whose record a document
prints.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Sequence

from .cuts import Cut, _check_arrows, _degrees, _has_cycle, invariant_cut, validate_cut
from .errors import InternalInvariantViolation, PreconditionFailed
from .graphiso import find_isomorphism
from .mckay_quiver import GroupAction, QuiverAction, TypedQuiver, k_action

__all__ = [
    "SkewVertex",
    "SkewQuiver",
    "LoopWitness",
    "RoundTripReport",
    "skew_quiver",
    "loop_witness",
    "transport_cut",
    "unskew_round_trip",
]


# ---------------------------------------------------------------------------
# Characters of the possible stabilizers (subgroups of S3).

_LABELS_BY_ORDER = {
    1: (("triv", 1),),
    2: (("triv", 1), ("sgn", 1)),
    3: (("triv", 1), ("omega", 1), ("omega2", 1)),
    6: (("triv", 1), ("sgn", 1), ("std", 2)),
}


def _char_value(
    group: GroupAction, subgroup: tuple[int, ...], label: str, h: int
) -> tuple[int, int]:
    """chi_label(h) for the stabilizer subgroup as a term (c, k): c * omega^k."""
    order = len(subgroup)
    if label == "triv":
        return 1, 0
    if order == 2:
        if label != "sgn":
            raise ValueError(f"unknown order-2 label {label}")
        return (1 if h == 0 else -1), 0
    if order == 3:
        gen = subgroup[1]
        k = {0: 0, gen: 1, group.table[gen][gen]: 2}.get(h)
        if k is None:
            raise InternalInvariantViolation(
                f"{group.names[h]} is not a power of {group.names[gen]}"
            )
        j = {"omega": 1, "omega2": 2}[label]
        return 1, (j * k) % 3
    if order == 6:
        o = group.orders[h]
        if label == "sgn":
            return (-1 if o == 2 else 1), 0
        if label == "std":
            return {1: 2, 3: -1}.get(o, 0), 0
    raise ValueError(f"unknown label {label} for a stabilizer of order {order}")


# ---------------------------------------------------------------------------
# Skew quiver data.


class SkewVertex(namedtuple("SkewVertex", "orbit_rep irrep orbit_size dimension")):
    """(orbit representative, stabilizer irreducible) with its induced dimension."""

    __slots__ = ()


class SkewQuiver(namedtuple("SkewQuiver", "vertices mult degrees group_size")):
    """Vertices with dimensions, arrow multiplicities and optional degrees,
    both dicts keyed by vertex-index pairs."""

    __slots__ = ()

    def loops(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, m) for (i, j), m in sorted(self.mult.items()) if i == j and m > 0
        )


# blocks(v): each out-neighbour w of the orbit representative v -> its trace row
Blocks = Callable[[int], dict]


def _demonet(group: GroupAction, blocks: Blocks) -> tuple[tuple[SkewVertex, ...], dict]:
    """Core skewing engine; returns vertices and multiplicities.

    The group is transitive on an orbit O1 with representative r, so every
    diagonal orbit on O1 x O2 holds a pair (r, u2), and exactly one with u2
    the least point of its orbit under the stabilizer of r.  A diagonal
    orbit can carry arrows only when its u2 is a key of `blocks(r)`, so only
    those pairs are visited, each once and in increasing u2, block-major: a
    pair adds its block's nonzero Hom dimensions to their pairs of skew
    vertices over O1 and O2.  Each skew vertex reads its character values
    from one row indexed by group element, built once per stabilizer.

    A block's table of Hom dimensions depends only on the stabilizers of r
    and of u2's representative and on its (h, h2, trace) terms, h2 being h
    moved into the stabilizer of u2's representative, so the table is
    summed and checked once per distinct such key, in a memo local to the
    call that keeps only its nonzero entries.
    """
    maps, table, inverse = group.maps, group.table, group.inverse
    transversal, orbit_of = group.transversal, group.orbit_of

    stab = {orbit[0]: group.stabilizer(orbit[0]) for orbit in group.orbits}

    # (label, degree, row of chi(h) by element h) per irreducible of each stabilizer
    irreps: dict[tuple[int, ...], list] = {}
    skew_vertices: list[SkewVertex] = []
    rows: list[list] = []  # the character row of each skew vertex
    over: dict[int, range] = {}  # skew-vertex indices over each orbit representative
    for orbit in group.orbits:
        rep, size = orbit[0], len(orbit)
        st = stab[rep]
        if st not in irreps:
            irreps[st] = []
            for label, deg in _LABELS_BY_ORDER[len(st)]:
                row: list = [None] * len(table)
                for h in st:
                    row[h] = _char_value(group, st, label, h)
                irreps[st].append((label, deg, row))
        first = len(skew_vertices)
        for label, deg, row in irreps[st]:
            skew_vertices.append(SkewVertex(rep, label, size, size * deg))
            rows.append(row)
        over[rep] = range(first, len(skew_vertices))

    def block_values(u1: int, u2: int, rep2: int, joint: tuple) -> tuple:
        """The nonzero Hom dimensions between the skew vertices over the
        orbits of u1 and u2 (representative rep2), as (i, j, m): m between
        the i-th over u1 and the j-th over rep2, in that order.  Each inner
        product is summed as counts over Z/3, read in the basis (1, omega)
        once and checked."""
        values = []
        for i, ai in enumerate(over[u1]):
            row_a = rows[ai]
            for j, bi in enumerate(over[rep2]):
                row_b = rows[bi]
                counts = [0, 0, 0]
                for h1, h2, trace in joint:
                    # conj(chi_a(h1)) * chi_b(h2); conjugation negates the exponent
                    ca, ka = row_a[h1]
                    cb, kb = row_b[h2]
                    c = ca * cb
                    if c:
                        for e, n in trace:
                            counts[(kb - ka + e) % 3] += c * n
                # coordinates in the basis (1, omega): omega^2 = -1 - omega
                coords = (counts[0] - counts[2], counts[1] - counts[2])
                if any(coords[1:]) or coords[0] < 0 or coords[0] % len(joint):
                    va, vb = skew_vertices[ai], skew_vertices[bi]
                    raise InternalInvariantViolation(
                        f"block ({va.orbit_rep}/{va.irrep} -> "
                        f"{vb.orbit_rep}/{vb.irrep}) pair {u1}->{u2}: inner "
                        f"product {coords} is not a non-negative integer "
                        f"multiple of {len(joint)}"
                    )
                if coords[0]:
                    values.append((i, j, coords[0] // len(joint)))
        return tuple(values)

    # A memo local to this call, so a one-shot call gets the whole gain.
    classes: dict[tuple, tuple] = {}
    mult: dict[tuple[int, int], int] = {}
    for orbit in group.orbits:
        u1 = orbit[0]
        block = blocks(u1)
        st = stab[u1]
        st_maps = [maps[h] for h in st]
        first = over[u1].start
        totals: dict[tuple[int, int], int] = {}
        for u2 in sorted({min([m[u] for m in st_maps]) for u in block}):
            rep2 = orbit_of[u2][0]
            row = block[u2]
            g2 = transversal[u2]
            back = table[inverse[g2]]
            joint = tuple([
                (h, back[table[h][g2]], row[h])
                for h, m in zip(st, st_maps)
                if m[u2] == u2
            ])
            key = (st, stab[rep2], joint)
            values = classes.get(key)
            if values is None:
                values = classes[key] = block_values(u1, u2, rep2, joint)
            first2 = over[rep2].start
            for i, j, m in values:
                pair = (first + i, first2 + j)
                totals[pair] = totals.get(pair, 0) + m
        for pair in sorted(totals):
            mult[pair] = totals[pair]

    expected = len(group.points) * len(group.names)
    square_sum = sum(v.dimension ** 2 for v in skew_vertices)
    if square_sum != expected:
        raise InternalInvariantViolation(
            f"sum of squared dimensions {square_sum} != |V| * |K| = {expected}"
        )
    return tuple(skew_vertices), mult


# ---------------------------------------------------------------------------
# First skew: the McKay quiver of Q_N under the C3 / S3 action.


def _quiver_blocks(action: QuiverAction) -> Blocks:
    """The blocks of Q_N with the K-action: points are vertex indices, and
    blocks(v) maps each head of v's three arrows to its trace row.

    An arrow adds to a trace only on a type its element fixes, and then by
    its arrow scalar.  Only the identity and the three involutions fix a
    type.  Whatever the kind-D scalars (p, q, s) at root order M are, s
    acts on type 3, the type it fixes, with exponent M/2, that is by -1;
    ts and st are the conjugates of s by the scalar-free rotation t, so
    they too act by -1 on the type they fix.  So a trace is (0, 1) per
    arrow for the identity and (0, -1) per arrow for every other element,
    and the skew quiver does not depend on the scalars.  A row depends only
    on the set of types whose arrows share the head, so the rows are built
    once per action, one per set.
    """
    head = action.quiver.head
    # Per element: the types it fixes, the only ones that add to a trace.
    fixed = [tuple(i for i in range(3) if sigma[i] == i + 1) for sigma in action.type_maps]
    # The trace row of a block, by the bit mask of the types of its arrows.
    rows = [
        [
            tuple((0, 1 if g == 0 else -1) for i in types if mask >> i & 1)
            for g, types in enumerate(fixed)
        ]
        for mask in range(8)
    ]

    def blocks(v: int) -> dict:
        a, b, c = head[3 * v:3 * v + 3]
        masks = {a: 1}
        masks[b] = masks.get(b, 0) | 2
        masks[c] = masks.get(c, 0) | 4
        return {w: rows[mask] for w, mask in masks.items()}

    return blocks


def skew_quiver(action: QuiverAction) -> SkewQuiver:
    """The quiver of the skew-group algebra for the K-action on Q_N.

    Vertex orbit representatives are vertex indices of Q_N.  Checks the
    completeness identity (sum of squared dimensions equals |N| * |K|) and
    3-regularity weighted by dimensions at every vertex.
    """
    vertices, mult = _demonet(action.group, _quiver_blocks(action))
    s = SkewQuiver(
        vertices=vertices,
        mult=mult,
        degrees=None,
        group_size=len(action.quiver.vertices) * len(action.group.names),
    )
    dims = [v.dimension for v in s.vertices]
    out_sum = [0] * len(dims)
    in_sum = [0] * len(dims)
    for (a, j), m in mult.items():
        out_sum[a] += m * dims[j]
        in_sum[j] += m * dims[a]
    expected = [3 * d for d in dims]
    if out_sum != expected or in_sum != expected:
        i = next(i for i, d in enumerate(expected) if out_sum[i] != d or in_sum[i] != d)
        raise InternalInvariantViolation(
            f"vertex {i}: weighted degree ({out_sum[i]}, {in_sum[i]}) != 3*{dims[i]}"
        )
    return s


class LoopWitness(namedtuple("LoopWitness", "k vertex orbit special_c2xc2")):
    """The coset witnessing a loop when 3 does not divide |N|."""

    __slots__ = ()

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


def loop_witness(action: QuiverAction) -> LoopWitness:
    """The witness coset x1 = (-k-1, k) with 3k+1 = 0 mod n, whose K-orbit
    contains x1 + e1; its full connected orbit forces a loop on the skew quiver.

    Orbit size is 3 for kind C and 6 for kind D, except for the C2 x C2
    quotient in kind D where the orbit has size 3 and is flagged special.
    """
    quotient = action.quiver.quotient
    n = quotient.order
    if n % 3 == 0:
        raise PreconditionFailed(f"3 divides det(B) = {n}; no loop witness exists")
    k = (-pow(3, -1, n)) % n
    if (3 * k + 1) % n:
        raise InternalInvariantViolation("modular inverse of 3 is wrong")
    v1 = quotient.index_of((-k - 1, k))
    vertices = action.quiver.vertices
    x1 = vertices[v1]
    orbit = tuple(vertices[u] for u in action.group.orbit_of[v1])
    x2 = vertices[action.quiver.head[3 * v1]]  # x1 + e1
    if x2 not in orbit:
        raise InternalInvariantViolation(f"{x2} escaped the orbit of {x1}")
    special = action.kind == "D" and quotient.basis.smith_invariants() == (2, 2)
    expected = 3 if action.kind == "C" or special else 6
    if len(orbit) != expected:
        raise InternalInvariantViolation(
            f"orbit of {x1} has size {len(orbit)}, expected {expected}"
        )
    return LoopWitness(k=k, vertex=x1, orbit=orbit, special_c2xc2=special)


# ---------------------------------------------------------------------------
# Cut transport.


def transport_cut(s: SkewQuiver, action: QuiverAction, cut: Cut) -> SkewQuiver:
    """Assign degrees to the skew quiver blocks from an invariant cut.

    Each multiplicity block inherits the common degree of the underlying
    arrows between the two vertex orbits; invariance makes this well
    defined, and the degree-0 part must stay acyclic.
    """
    quiver = action.quiver
    _check_arrows(quiver, cut)
    if not action.is_arrow_set_invariant(cut.arrows):
        raise PreconditionFailed("the cut is not stable under the symmetry action")
    report = validate_cut(quiver, cut)
    if not report.passed:
        raise ValueError(f"cut fails validation: {report.witnesses}")
    return _transport_cut(s, action, _degrees(quiver, cut))


def _transport_cut(s: SkewQuiver, action: QuiverAction, degree: Sequence[int]) -> SkewQuiver:
    """transport_cut for the arrow degrees of a cut already checked
    invariant and valid, as `invariant_cut` returns it."""
    head = action.quiver.head
    edges = zip([a // 3 for a in range(len(head))], head, degree)
    reps = [v.orbit_rep for v in s.vertices]
    orbit_reps = [orbit[0] for orbit in action.group.orbit_of]
    return s._replace(degrees=_transport(reps, s.mult, orbit_reps, edges))


def _transport(
    reps: Sequence[int],
    mult: dict[tuple[int, int], int],
    edge_reps: Sequence[int],
    edges: Iterable[tuple[int, int, int]],
) -> dict[tuple[int, int], int]:
    """Degrees of the blocks (i, j) of mult, whose ends lie over the orbit
    representatives reps[i] and reps[j]: each block takes the common degree
    of the underlying edges (x, y, degree) from its source's orbit into its
    target's, the orbit of the point x being that of edge_reps[x].  The
    edges are read once into the first degree of each orbit pair, with a
    degree set only for a pair that meets a second one, and the degree-0
    part must stay acyclic.  A fault names the least block that has it."""
    table: dict[tuple[int, int], int] = {}
    mixed: dict[tuple[int, int], set[int]] = {}
    for x, y, d in edges:
        key = (edge_reps[x], edge_reps[y])
        first = table.setdefault(key, d)
        if first != d:
            mixed.setdefault(key, {first}).add(d)
    degrees: dict[tuple[int, int], int] = {}
    zero = []
    for block, m in sorted(mult.items()):
        ai, bi = block
        key = (reps[ai], reps[bi])
        d = table.get(key)
        if d is None:
            raise InternalInvariantViolation(
                f"block ({ai}, {bi}) has multiplicity {m} but no underlying arrows"
            )
        if key in mixed:
            raise InternalInvariantViolation(
                f"arrows between orbits of {key[0]} and {key[1]} carry mixed "
                f"degrees {sorted(mixed[key])}"
            )
        degrees[block] = d
        if d == 0:
            zero.append(block)
    cyclic, walk = _has_cycle(len(reps), zero)
    if cyclic:
        raise InternalInvariantViolation(
            f"degree-0 part has a cycle through {walk}"
        )
    return degrees


# ---------------------------------------------------------------------------
# Dual twist and the unskew round trip (kind C).

_C3_LABEL_CYCLE = {"triv": "omega", "omega": "omega2", "omega2": "triv"}


def _dual_twist(s: SkewQuiver, action: QuiverAction) -> tuple[GroupAction, Blocks]:
    """The character group of C3 acting on the skew-vertex indices of
    S = Q_N * C3 by label twist, with the blocks of S for it.

    Generator: (u, phi) -> (u, phi tensor lambda), lambda the weight-one
    character of the acting C3 pulled back to the whole group; it is
    trivial on the diagonal part, so only the stabilizer-irrep label moves,
    and free-orbit vertices are fixed.  Only the identity fixes a block with
    a moved end; its trace is the multiplicity.  A block between fixed
    vertices lies over free C3-orbits, so each head u2 of an arrow from v's
    representative u1 into w's vertex orbit stands for its own diagonal
    orbit, and the block splits into weight spaces: that arrow has weight
    g2^-1 g1 in the original C3, the inverse of u2's transversal element
    since u1 is reached by the identity, and g acts on weight k by
    omega^(gk).  The weights are counted against the multiplicity on every
    such block.  Elements of both C3s are indexed by their exponent of the
    generator.
    """
    index = {(v.orbit_rep, v.irrep): i for i, v in enumerate(s.vertices)}
    # A vertex over a free orbit has one irrep, fixed by the twist.
    p = tuple(
        i if v.orbit_size == 3 else index[(v.orbit_rep, _C3_LABEL_CYCLE[v.irrep])]
        for i, v in enumerate(s.vertices)
    )
    p2 = tuple(p[i] for i in p)
    points = tuple(range(len(p)))
    if tuple(p[i] for i in p2) != points:
        raise InternalInvariantViolation("dual twist does not have order 3")
    twist = GroupAction.from_keys(
        ("1", "g", "g^2"), (0, 1, 2), lambda a, b: (a + b) % 3, (points, p, p2)
    )
    group, head = action.group, action.quiver.head
    inverse, transversal, orbit_of = group.inverse, group.transversal, group.orbit_of
    reps = [v.orbit_rep for v in s.vertices]
    successors: list[dict[int, int]] = [{} for _ in points]
    for (i, j), m in s.mult.items():
        successors[i][j] = m

    def blocks(v: int) -> dict:
        out = {}
        fixed = p[v] == v
        for w, m in successors[v].items():
            row = [((0, m),)]
            if fixed and p[w] == w:
                u1, rep2 = reps[v], reps[w]
                weights = [
                    inverse[transversal[u2]]
                    for u2 in head[3 * u1:3 * u1 + 3]
                    if orbit_of[u2][0] == rep2
                ]
                if len(weights) != m:
                    raise InternalInvariantViolation(
                        f"weight decomposition of block ({v}, {w}) sums to "
                        f"{len(weights)}, multiplicity is {m}"
                    )
                row += [tuple([((g * k) % 3, 1) for k in weights]) for g in (1, 2)]
            out[w] = row
        return out

    return twist, blocks


class RoundTripReport(namedtuple(
    "RoundTripReport",
    "skew_vertex_count double_skew_vertex_count isomorphism cut_recovered"
    " original_cut recovered_cut",
)):
    """Outcome of skewing by C3 and unskewing by its character group."""

    __slots__ = ()


def unskew_round_trip(quiver: TypedQuiver) -> RoundTripReport:
    """Skew Q_N by the rotation action, skew again by the dual group, and
    match the result with Q_N carrying the invariant cut.

    The isomorphism is searched over vertex bijections preserving
    multiplicities and transported degrees; exhaustion is an error, the
    recovered cut is compared arrow by arrow.
    """
    action = k_action(quiver, "C")
    cut = invariant_cut(action)  # raises PreconditionFailed unless 3 | n
    n = quiver.quotient.order
    degree = _degrees(quiver, cut)
    s = _transport_cut(skew_quiver(action), action, degree)

    twist, blocks = _dual_twist(s, action)
    vertices2, mult2 = _demonet(twist, blocks)
    # A double-skew block inherits the common degree of the S-blocks
    # joining the two twist orbits.
    degrees2 = _transport(
        [v.orbit_rep for v in vertices2],
        mult2,
        [orbit[0] for orbit in twist.orbit_of],
        ((i, j, d) for (i, j), d in s.degrees.items()),
    )

    if len(vertices2) != n:
        raise InternalInvariantViolation(
            f"double skew has {len(vertices2)} vertices, Q_N has {n}"
        )

    # Label maps for the isomorphism search: (multiplicity, degree) per pair.
    # Q_N's are counted off the head table in one pass.  Its parallel arrows
    # lie in one pair of K-orbits, where S's transport found a single degree
    # on this cut, and `invariant_cut` has checked its degree-0 part acyclic.
    labels_a = {block: (mult2[block], d) for block, d in degrees2.items()}
    head = quiver.head
    labels_b: dict[tuple[int, int], tuple[int, int]] = {}
    for a, y in enumerate(head):
        m, _ = labels_b.get((a // 3, y), (0, 0))
        labels_b[(a // 3, y)] = (m + 1, degree[a])

    mapping = find_isomorphism(n, labels_a, labels_b)
    if mapping is None:
        raise InternalInvariantViolation(
            "no multiplicity- and degree-preserving bijection between the "
            "double skew and the original quiver"
        )

    # Pull the double-skew degrees back to arrows and compare with the cut.
    rev = [0] * n
    for i, u in enumerate(mapping):
        rev[u] = i
    recovered_cut = Cut.of(
        a for a, y in enumerate(head) if degrees2.get((rev[a // 3], rev[y])) == 1
    )
    return RoundTripReport(
        skew_vertex_count=len(s.vertices),
        double_skew_vertex_count=len(vertices2),
        isomorphism=tuple(mapping),
        cut_recovered=recovered_cut == cut,
        original_cut=cut,
        recovered_cut=recovered_cut,
    )
