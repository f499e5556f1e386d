"""Degree-1 arrow subsets (cuts) of the McKay quiver: criterion, construction,
validation, and exhaustive search.

A cut selects the arrows of degree 1.  Validity is the three weak-cut
axioms: every commutativity square is balanced (the two parallel 2-paths
carry equal total degree), every elementary cycle carries total degree
exactly 1, and the arrows of degree 0 form an acyclic subquiver.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import InternalInvariantViolation, PreconditionFailed

if TYPE_CHECKING:
    from .lattice import LatticeBasis
    from .mckay_quiver import QuiverAction, TypedQuiver

__all__ = [
    "Cut",
    "ValidationReport",
    "cut_type",
    "cut_exists",
    "check_cut_exists",
    "build_cut",
    "validate_cut",
    "symmetric_type",
    "invariant_cut",
    "enumerate_cuts",
    "realized_types",
    "DEFAULT_ENUMERATION_LIMIT",
]

DEFAULT_ENUMERATION_LIMIT = 27


class Cut(namedtuple("Cut", "arrows")):
    """The set of degree-1 arrows as sorted arrow indices.  Arrow 3v + t
    leaves vertex v with type t + 1 and vertices are numbered in coset
    order, so index order is the canonical (source coset, type) order."""

    __slots__ = ()

    @staticmethod
    def of(arrows: Iterable[int]) -> Cut:
        return Cut(tuple(sorted(set(arrows))))


def cut_type(cut: Cut) -> tuple[int, int, int]:
    """Per-type count of the cut arrows."""
    counts = [0, 0, 0]
    for i in cut.arrows:
        counts[i % 3] += 1
    return tuple(counts)  # type: ignore[return-value]


def cut_exists(basis: LatticeBasis, gamma: Sequence[int]) -> bool:
    """Closed-form criterion: positive components summing to n with
    (gamma1, gamma2) . B vanishing modulo n."""
    g1, g2, g3 = gamma
    n = basis.det
    if g1 <= 0 or g2 <= 0 or g3 <= 0 or g1 + g2 + g3 != n:
        return False
    return (g1 * basis.a) % n == 0 and (g1 * basis.b + g2 * basis.c) % n == 0


def check_cut_exists(basis: LatticeBasis, gamma: Sequence[int]) -> None:
    """Raise PreconditionFailed unless the criterion admits a cut of type gamma."""
    if not cut_exists(basis, gamma):
        raise PreconditionFailed(
            f"no cut of type {tuple(gamma)} exists on det {basis.det}"
        )


def build_cut(q: TypedQuiver, gamma: Sequence[int]) -> Cut:
    """Construct the cut of type gamma on q: arrows whose source value exceeds
    the target value under v(x) = ((gamma1 x1 + gamma2 x2) mod n) / gcd(gamma).

    The criterion makes v well defined on cosets; smallest nonnegative
    representatives give the comparison.
    """
    check_cut_exists(q.quotient.basis, gamma)
    g1, g2, g3 = gamma
    n = q.quotient.order
    g = gcd(gcd(g1, g2), g3)
    v = [((g1 * x1 + g2 * x2) % n) // g for (x1, x2) in q.vertices]
    cut = Cut.of([i for i, w in enumerate(q.head) if v[i // 3] > v[w]])
    if cut_type(cut) != tuple(gamma):
        raise InternalInvariantViolation(
            f"constructed cut has type {cut_type(cut)}, wanted {tuple(gamma)}"
        )
    return cut


class ValidationReport(namedtuple(
    "ValidationReport", "squares_balanced cycles_unit_degree degree_zero_acyclic witnesses"
)):
    """Pass/fail per weak-cut axiom, with a witness string for each failure."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.squares_balanced
            and self.cycles_unit_degree
            and self.degree_zero_acyclic
        )


def _has_cycle(nv: int, edges: Iterable[tuple[int, int]]) -> tuple[bool, list[int]]:
    """Iterative 3-color cycle detection on the vertices 0, ..., nv - 1;
    returns a witness cycle if found."""
    out: list[list[int]] = [[] for _ in range(nv)]
    for s, t in edges:
        out[s].append(t)
    color = [0] * nv
    parent = [0] * nv
    for root in range(nv):
        if color[root]:
            continue
        stack = [(root, iter(out[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(out[w])))
                    break
                if color[w] == 1:
                    cycle = [w, v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    return True, cycle[::-1]
            else:  # no neighbour left to enter: v is finished
                color[v] = 2
                stack.pop()
    return False, []


def _degrees(q: TypedQuiver, cut: Cut) -> list[int]:
    """The degree of every arrow of q under the cut, by arrow index."""
    degree = [0] * (3 * q.quotient.order)
    for i in cut.arrows:
        degree[i] = 1
    return degree


def _check_arrows(q: TypedQuiver, cut: Cut) -> None:
    """Raise ValueError unless every arrow index of the cut is an arrow of
    q, that is in range(3n)."""
    na = 3 * q.quotient.order
    if not all(0 <= i < na for i in cut.arrows):
        raise ValueError("cut contains arrows outside the quiver")


def validate_cut(q: TypedQuiver, cut: Cut) -> ValidationReport:
    """Check the three weak-cut axioms, reporting witnesses for failures.

    Reads the head table by type, one pass per square type and cycle
    orientation; every elementary cycle has one type-1 arrow, so each is
    visited once.  A failure names the least failing square in (vertex,
    types) order and the least failing cycle under its least rotation.
    """
    _check_arrows(q, cut)
    head = q.head
    degree = _degrees(q, cut)
    vertices = q.vertices
    nv = len(head) // 3
    # by_type[t][v] and heads[t][v]: the degree and head of v's type-t arrow
    by_type = [degree[t::3] for t in range(3)]
    heads = [head[t::3] for t in range(3)]
    witnesses: list[str] = []

    failed = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        di, dj, hi, hj = by_type[i], by_type[j], heads[i], heads[j]
        d1 = [di[v] + dj[hi[v]] for v in range(nv)]
        d2 = [dj[v] + di[hj[v]] for v in range(nv)]
        if d1 != d2:
            v = next(v for v in range(nv) if d1[v] != d2[v])
            failed.append((v, i, j, d1[v], d2[v]))
    squares_ok = not failed
    if failed:
        v, i, j, d1, d2 = min(failed)
        witnesses.append(
            f"square at {vertices[v]} types {(i + 1, j + 1)}: path degrees {d1} != {d2}"
        )

    failed = []
    d0, h1 = by_type[0], heads[0]
    for s, t in ((1, 2), (2, 1)):
        # the type-1 arrow from v, then types s, t; build_quiver checked they close up
        ds, dt, hs = by_type[s], by_type[t], heads[s]
        sums = [d + ds[x] + dt[hs[x]] for d, x in zip(d0, h1)]
        if sums.count(1) != nv:
            for v, d in enumerate(sums):
                if d != 1:
                    a, b, c = 3 * v, 3 * h1[v] + s, 3 * hs[h1[v]] + t
                    failed.append((min((a, b, c), (b, c, a), (c, a, b)), d))
    cycles_ok = not failed
    if failed:
        cyc, d = min(failed)
        witnesses.append(
            f"elementary cycle at {vertices[cyc[0] // 3]} order "
            f"{tuple(i % 3 + 1 for i in cyc)}: degree {d} != 1"
        )

    degree_zero = [(i // 3, w) for i, w, d in zip(range(3 * nv), head, degree) if not d]
    cyclic, walk = _has_cycle(nv, degree_zero)
    if cyclic:
        witnesses.append(f"degree-0 cycle through {[vertices[x] for x in walk]}")
    return ValidationReport(squares_ok, cycles_ok, not cyclic, tuple(witnesses))


def symmetric_type(basis: LatticeBasis) -> tuple[int, int, int]:
    """The type (n/3, n/3, n/3) of the symmetric cut; raise
    PreconditionFailed unless 3 divides n = det(B)."""
    n = basis.det
    if n % 3:
        raise PreconditionFailed(f"3 does not divide det(B) = {n}")
    return (n // 3, n // 3, n // 3)


def invariant_cut(action: QuiverAction) -> Cut:
    """The symmetric cut of type (n/3, n/3, n/3) on the acted-on quiver,
    checked K-invariant.

    Exists exactly when 3 divides n = det(B); the admissibility an action
    carries makes the criterion and the invariance provable, so their
    failure is an internal error, not an input error.
    """
    q = action.quiver
    basis = q.quotient.basis
    gamma = symmetric_type(basis)
    if not cut_exists(basis, gamma):
        raise InternalInvariantViolation(
            f"symmetric type {gamma} fails the criterion on an admissible basis"
        )
    cut = build_cut(q, gamma)
    if not action.is_arrow_set_invariant(cut.arrows):
        raise InternalInvariantViolation("symmetric cut is not K-invariant")
    report = validate_cut(q, cut)
    if not report.passed:
        raise InternalInvariantViolation(
            f"symmetric cut fails validation: {report.witnesses}"
        )
    return cut


def _constraint_tables(
    head: Sequence[int],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, int]]]:
    """The cut constraints on the head table, as arrow indices: the
    elementary cycles and the commutativity squares.

    Every elementary cycle uses each type once, so it holds one type-1
    arrow a and is listed from a, by vertex and then types 2, 3 before
    types 3, 2; build_quiver checked that both close up.  A square
    (a, b, c, d) is the pair of 2-paths a.b and c.d from a vertex v, a of
    type i and c of type j > i, in order of v and (i, j).
    """
    cycles = []
    for a in range(0, len(head), 3):
        for s, t in ((1, 2), (2, 1)):
            b = 3 * head[a] + s
            cycles.append((a, b, 3 * head[b] + t))
    squares = [
        (3 * v + i, 3 * head[3 * v + i] + j, 3 * v + j, 3 * head[3 * v + j] + i)
        for v in range(len(head) // 3)
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    return cycles, squares


def _search(
    q: TypedQuiver,
    emit: Callable[[list[int]], None],
    fixed: Iterable[tuple[int, int]] = (),
    first: Sequence[int] = (),
    keep: Callable[[list[int]], bool] | None = None,
) -> None:
    """Backtracking over arrow degrees: call emit(degrees) at every valid
    leaf.  The arrows in `first` are decided first, the others in index
    order, so with no `first` the leaves come in lexicographic order of the
    cut's arrow-index list.

    The (arrow index, degree) pairs of `fixed` are set and propagated
    before the first decision.  Elementary cycles give exactly-one
    constraints that drive unit propagation; squares prune by degree
    intervals; an arrow u -> v fixed to degree 0 fails at once when v
    already reaches u through degree-0 arrows (a loop fails outright),
    because such a cycle survives every completion.  Each node asks
    keep(degrees), undecided arrows at -1, and drops its subtree on a
    false answer.  Leaves are checked again for balanced squares and
    degree-0 acyclicity.
    """
    na = 3 * q.quotient.order
    head = q.head
    cycles, squares = _constraint_tables(head)
    in_cycles: list[list[int]] = [[] for _ in range(na)]
    for ci, cyc in enumerate(cycles):
        for ai in cyc:
            in_cycles[ai].append(ci)
    in_squares: list[list[int]] = [[] for _ in range(na)]
    for si, sq in enumerate(squares):
        for ai in sq:
            in_squares[ai].append(si)
    order = [*first, *sorted(set(range(na)) - set(first))]
    nv = na // 3

    assign = [-1] * na
    trail: list[int] = []

    def zero_path(start: int, goal: int) -> bool:
        """Whether goal is reachable from start along degree-0 arrows."""
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            for ai in range(3 * v, 3 * v + 3):
                w = head[ai]
                if assign[ai] == 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def set_value(ai: int, value: int) -> bool:
        if assign[ai] != -1:
            return assign[ai] == value
        assign[ai] = value
        trail.append(ai)
        queue = [ai]
        while queue:
            x = queue.pop()
            if assign[x] == 0 and zero_path(head[x], x // 3):
                return False
            for ci in in_cycles[x]:
                ones = 0
                undecided = []
                for y in cycles[ci]:
                    if assign[y] == 1:
                        ones += 1
                    elif assign[y] == -1:
                        undecided.append(y)
                if ones > 1 or (ones == 0 and not undecided):
                    return False
                if ones == 1:
                    for y in undecided:
                        assign[y] = 0
                        trail.append(y)
                        queue.append(y)
                elif ones == 0 and len(undecided) == 1:
                    y = undecided[0]
                    assign[y] = 1
                    trail.append(y)
                    queue.append(y)
            for si in in_squares[x]:
                # Each path's degree lies between its count of degree-1
                # arrows and its count of arrows not fixed to 0.
                a, b, c, d = squares[si]
                a, b, c, d = assign[a], assign[b], assign[c], assign[d]
                if (a == 1) + (b == 1) > (c != 0) + (d != 0) or (
                    (c == 1) + (d == 1) > (a != 0) + (b != 0)
                ):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            assign[trail.pop()] = -1

    def leaf_ok() -> bool:
        for a, b, c, d in squares:
            if assign[a] + assign[b] != assign[c] + assign[d]:
                return False
        degree_zero = [(i // 3, head[i]) for i in range(na) if assign[i] == 0]
        cyclic, _ = _has_cycle(nv, degree_zero)
        return not cyclic

    def dfs(pos: int) -> None:
        while pos < na and assign[order[pos]] != -1:
            pos += 1
        if keep is not None and not keep(assign):
            return
        if pos == na:
            if leaf_ok():
                emit(assign)
            return
        ai = order[pos]
        for value in (1, 0):
            mark = len(trail)
            if set_value(ai, value):
                dfs(pos + 1)
            undo(mark)

    if all(set_value(ai, value) for ai, value in fixed):
        dfs(0)


def enumerate_cuts(q: TypedQuiver, limit: int = DEFAULT_ENUMERATION_LIMIT) -> tuple[Cut, ...]:
    """All valid cuts, by exhaustive backtracking over arrow degrees.

    Raises ValueError when q has more than `limit` arrows.  Degree-0 cycles
    are rejected as soon as their last arrow is fixed, not at the leaves.
    Cuts are emitted in lexicographic order of their sorted arrow-index
    lists.
    """
    na = 3 * q.quotient.order
    if na > limit:
        raise ValueError(f"{na} arrows exceeds the enumeration guard {limit}")
    results: list[Cut] = []
    _search(
        q,
        lambda assign: results.append(
            Cut.of(i for i, d in enumerate(assign) if d == 1)
        ),
    )
    return tuple(results)


def _reduced_basis(basis: LatticeBasis) -> tuple[tuple[int, int], tuple[int, int]]:
    """A Lagrange-Gauss reduced basis of the lattice spanned by (a, 0) and
    (b, c): both vectors are as short as a basis allows, and their lengths
    multiply to at most 2n / sqrt(3)."""
    u, v = (basis.a, 0), (basis.b, basis.c)
    if u[0] * u[0] > v[0] * v[0] + v[1] * v[1]:
        u, v = v, u
    while True:
        uu = u[0] * u[0] + u[1] * u[1]
        # the integer nearest to <u, v> / <u, u>
        k = (2 * (u[0] * v[0] + u[1] * v[1]) + uu) // (2 * uu)
        v = (v[0] - k * u[0], v[1] - k * u[1])
        if v[0] * v[0] + v[1] * v[1] >= uu:
            return u, v
        u, v = v, u


def _closed_walks(q: TypedQuiver) -> list[tuple[list[int], tuple[int, int, int]]]:
    """Two closed walks from the origin along a reduced basis of the lattice,
    each as its arrow indices and its step counts m = (m1, m2, m3).

    A lattice vector (p, q) is walked as m1 = p + m3 steps of e_1, then
    m2 = q + m3 of e_2, then m3 = max(0, -p, -q) of e_3 = (-1, -1); of
    (p, q) and (-p, -q) the shorter walk is taken.
    """
    head = q.head
    walks = []
    for p, r in _reduced_basis(q.quotient.basis):
        steps = []
        for x, y in ((p, r), (-p, -r)):
            m3 = max(0, -x, -y)
            steps.append((x + m3, y + m3, m3))
        m = min(steps, key=sum)
        arrows = []
        v = 0
        for t, count in enumerate(m):
            for _ in range(count):
                arrows.append(3 * v + t)
                v = head[3 * v + t]
        if v != 0:
            raise InternalInvariantViolation(f"walk {m} from the origin did not close")
        walks.append((arrows, m))
    return walks


def _forced_type(
    n: int,
    walks: Sequence[tuple[Sequence[int], tuple[int, int, int]]],
    assign: Sequence[int],
) -> tuple[int, int, int]:
    """The type of every valid cut that agrees with `assign` on the arrows
    of the two closed walks of `_closed_walks`.

    In a cut with balanced squares a walk's steps can be reordered and its
    start translated without changing its degree sum S, so on closed walks
    S is additive in the step counts m.  It is 1 on an elementary cycle
    m = (1, 1, 1), and on an e_t-orbit of length k_t it is k_t gamma_t / n,
    because all e_t-orbits carry the same degree (sum a square of types t
    and s along one).  These span Q^3, so S = (m . gamma) / n on every
    closed walk.  With m = (p + m3, q + m3, m3) that reads
    p gamma_1 + q gamma_2 = n (S - m3); the two walks give two such
    equations whose determinant is +-n, and gamma_3 = n - gamma_1 - gamma_2.
    """
    (w1, m1), (w2, m2) = walks
    p1, q1 = m1[0] - m1[2], m1[1] - m1[2]
    p2, q2 = m2[0] - m2[2], m2[1] - m2[2]
    r1 = sum(assign[i] for i in w1) - m1[2]
    r2 = sum(assign[i] for i in w2) - m2[2]
    d = p1 * q2 - q1 * p2
    g1 = n * (r1 * q2 - r2 * q1) // d
    g2 = n * (p1 * r2 - p2 * r1) // d
    return (g1, g2, n - g1 - g2)


def realized_types(q: TypedQuiver) -> set[tuple[int, int, int]]:
    """Set of type vectors realized by some valid cut, found by search alone
    (the closed-form criterion is never consulted).

    Every valid cut has gamma_1 > 0: with gamma_1 = 0 every e_1-orbit would
    be a degree-0 cycle.  Translations of Z^2/B are type-preserving
    automorphisms of q, so every realized type is met by one search with
    the origin's type-1 arrow fixed to degree 1.  The search decides the
    arrows of two short closed walks first, which fixes the type of every
    cut below (`_forced_type`).  At every node each walk's degree sum S_i
    lies between its arrows fixed to 1 and its arrows not fixed to 0,
    counted with multiplicity; a node is dropped when no (S1, S2) in that
    box solves to a type with three positive components whose sums are not
    yet recorded.  Once both walks are decided the box is a single point,
    so a subtree whose forced type is recorded is skipped and one leaf is
    reached per type.  A leaf whose counted type differs from the forced
    one is an internal error.  Unlike `enumerate_cuts` it takes no arrow
    guard; q is bounded only by the vertex cap of `build_quiver`.
    """
    n = q.quotient.order
    walks = _closed_walks(q)
    (w1, m1), (w2, m2) = walks
    first = list(dict.fromkeys(w1 + w2))
    types: set[tuple[int, int, int]] = set()
    recorded: set[tuple[int, int]] = set()

    # With r_i = S_i - m_i3 the equations of `_forced_type` give
    # d gamma_1 = n (q2 r1 - q1 r2), d gamma_2 = n (p1 r2 - p2 r1) and
    # d gamma_3 = n (d + (p2 - q2) r1 + (q1 - p1) r2).  So gamma_k > 0 iff
    # d times its bracket is positive: a r2 + b r1 + c > 0 with the integer
    # coefficients (a, b, c) below.
    p1, q1 = m1[0] - m1[2], m1[1] - m1[2]
    p2, q2 = m2[0] - m2[2], m2[1] - m2[2]
    d = p1 * q2 - q1 * p2
    positive = [
        (-d * q1, d * q2, 0),
        (d * p1, -d * p2, 0),
        (d * (q1 - p1), d * (p2 - q2), d * d),
    ]

    def open_box(lo1: int, hi1: int, lo2: int, hi2: int) -> bool:
        """Whether some (S1, S2) in the box solves to positive components
        and is not recorded."""
        for s1 in range(lo1, hi1 + 1):
            r1 = s1 - m1[2]
            lo, hi = lo2 - m2[2], hi2 - m2[2]
            for a, b, c in positive:
                c += b * r1
                if a > 0:
                    lo = max(lo, -c // a + 1)
                elif a < 0:
                    hi = min(hi, (c - 1) // -a)
                elif c <= 0:
                    hi = lo - 1
            for r2 in range(lo, hi + 1):
                if (s1, r2 + m2[2]) not in recorded:
                    return True
        return False

    def keep(assign: list[int]) -> bool:
        d1 = [assign[i] for i in w1]
        d2 = [assign[i] for i in w2]
        return open_box(
            d1.count(1), len(d1) - d1.count(0), d2.count(1), len(d2) - d2.count(0)
        )

    def record(assign: list[int]) -> None:
        counted = tuple(sum(assign[t::3]) for t in range(3))
        forced = _forced_type(n, walks, assign)
        if counted != forced:
            raise InternalInvariantViolation(
                f"cut search on basis {q.quotient.basis.rows}: a leaf of type "
                f"{counted}, but its two closed walks force {forced}"
            )
        types.add(counted)  # type: ignore[arg-type]
        recorded.add((sum(assign[i] for i in w1), sum(assign[i] for i in w2)))

    # Arrow 0 is the origin's arrow of type 1.
    _search(q, record, [(0, 1)], first=first, keep=keep)
    return types
