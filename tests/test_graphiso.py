"""The isomorphism search against a plain reference search on random graphs.

`_reference` is the straightforward search (O(n) signatures, O(n) checks,
O(n^2) ordering) with the same vertex order and candidate order; equality
with it pins which mapping is found first, not just that one is found.
"""
from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from mckay.graphiso import find_isomorphism


def _signature(v: int, n: int, labels: dict):
    loop = labels.get((v, v))
    outs = sorted(
        (repr(labels[(v, w)]) for w in range(n) if w != v and (v, w) in labels),
    )
    ins = sorted(
        (repr(labels[(w, v)]) for w in range(n) if w != v and (w, v) in labels),
    )
    return (repr(loop), tuple(outs), tuple(ins))


def _reference(n: int, labels_a: dict, labels_b: dict) -> list[int] | None:
    """The search as first written, verbatim but for its name and type hints."""
    if n == 0:
        return []
    if Counter(map(repr, labels_a.values())) != Counter(map(repr, labels_b.values())):
        return None
    sig_a = [_signature(v, n, labels_a) for v in range(n)]
    sig_b = [_signature(v, n, labels_b) for v in range(n)]
    candidates = [
        [u for u in range(n) if sig_b[u] == sig_a[v]] for v in range(n)
    ]
    if any(not c for c in candidates):
        return None

    # Order vertices connectivity-first so adjacency constraints bite early.
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for (i, j) in labels_a:
        if i != j:
            neighbors[i].add(j)
            neighbors[j].add(i)
    order: list[int] = []
    placed = [False] * n
    while len(order) < n:
        best = None
        best_key = None
        for v in range(n):
            if placed[v]:
                continue
            linked = sum(1 for w in neighbors[v] if placed[w])
            key = (-linked, len(candidates[v]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        order.append(best)  # type: ignore[arg-type]
        placed[best] = True  # type: ignore[index]

    mapping = [-1] * n
    used = [False] * n

    def check(v: int, u: int) -> bool:
        if labels_b.get((u, u)) != labels_a.get((v, v)):
            return False
        for w in range(n):
            fw = mapping[w]
            if fw < 0 or w == v:
                continue
            if labels_b.get((u, fw)) != labels_a.get((v, w)):
                return False
            if labels_b.get((fw, u)) != labels_a.get((w, v)):
                return False
        return True

    def dfs(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for u in candidates[v]:
            if used[u]:
                continue
            if check(v, u):
                mapping[v] = u
                used[u] = True
                if dfs(k + 1):
                    return True
                mapping[v] = -1
                used[u] = False
        return False

    return mapping if dfs(0) else None


# None is a label too: the search compares labels with .get, so a None label
# and a missing edge must be treated exactly as the reference treats them.
LABELS = st.sampled_from([1, 2, (1, 0), (1, 1), None])


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.dictionaries(pair, LABELS, max_size=3 * n))


@st.composite
def circulant_graph(draw):
    """Every vertex i has the same edges i -> i + step: many automorphisms,
    so many bijections pass and the first one found matters."""
    n = draw(st.integers(1, 9))
    steps = draw(st.dictionaries(st.integers(0, n - 1), LABELS, max_size=3))
    return n, {(i, (i + d) % n): lab for i in range(n) for d, lab in steps.items()}


graphs = st.one_of(random_graph(), circulant_graph())


@st.composite
def relabelled(draw):
    n, labels_a = draw(graphs)
    perm = draw(st.permutations(range(n)))
    labels_b = {(perm[i], perm[j]): lab for (i, j), lab in labels_a.items()}
    return n, labels_a, labels_b


def _preserves_labels(n, labels_a, labels_b, mapping):
    return sorted(mapping) == list(range(n)) and all(
        labels_b.get((mapping[i], mapping[j])) == labels_a.get((i, j))
        for i in range(n)
        for j in range(n)
    )


@settings(max_examples=200, deadline=None)
@given(relabelled())
def test_finds_the_reference_mapping_of_a_relabelling(case):
    n, labels_a, labels_b = case
    mapping = find_isomorphism(n, labels_a, labels_b)
    assert mapping is not None
    assert _preserves_labels(n, labels_a, labels_b, mapping)
    assert mapping == _reference(n, labels_a, labels_b)


@settings(max_examples=100, deadline=None)
@given(relabelled(), st.data())
def test_a_changed_label_is_refused(case, data):
    n, labels_a, labels_b = case
    if not labels_b:
        labels_b = {(0, 0): 1}
    else:
        key = data.draw(st.sampled_from(sorted(labels_b, key=repr)))
        labels_b = {**labels_b, key: "changed"}
    assert find_isomorphism(n, labels_a, labels_b) is None
    assert _reference(n, labels_a, labels_b) is None


@settings(max_examples=200, deadline=None)
@given(relabelled(), st.data())
def test_agrees_with_the_reference_on_a_moved_edge(case, data):
    # Moving one edge keeps the label multiset, so the search itself has to
    # tell isomorphic from non-isomorphic.
    n, labels_a, labels_b = case
    if labels_b:
        old = data.draw(st.sampled_from(sorted(labels_b, key=repr)))
        new = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        label = labels_b[old]
        labels_b = {k: v for k, v in labels_b.items() if k != old}
        labels_b.setdefault(new, label)
    mapping = find_isomorphism(n, labels_a, labels_b)
    assert mapping == _reference(n, labels_a, labels_b)
    if mapping is not None:
        assert _preserves_labels(n, labels_a, labels_b, mapping)


def test_empty_graph():
    assert find_isomorphism(0, {}, {}) == []
    assert find_isomorphism(1, {}, {}) == [0]
    assert find_isomorphism(1, {(0, 0): 1}, {}) is None


def test_labels_compare_by_value():
    # 1 == True and (1, 0) == (True, 0): the label prefilter and the
    # signatures compare labels by value, as the check does, so equal
    # labels of different types match.
    assert find_isomorphism(2, {(0, 1): 1}, {(0, 1): True}) == [0, 1]
    labels_a = {(0, 0): 1, (0, 1): (1, 0)}
    assert find_isomorphism(2, labels_a, {(1, 1): True, (1, 0): (True, 0)}) == [1, 0]


def test_a_none_label_is_a_missing_edge_to_the_check_only():
    # Vertices 0 and 1 each have a None edge out and a True edge in from 3:
    # a None edge counts in their signatures, but `check` reads it as no
    # edge, so the first mapping swaps them against the relabelling
    # (0, 1, 2, 3) -> (1, 2, 3, 0) that made labels_b.  Searches that
    # anchor on a None edge, drop None edges from the signatures, or tell a
    # None edge from a missing one in `check` each return another mapping.
    # 1 and True share a code, as labels equal by value do.
    labels_a = {(0, 3): None, (1, 2): None, (3, 1): True, (2, 3): 1, (3, 0): True}
    labels_b = {(1, 0): None, (2, 3): None, (0, 2): True, (3, 0): 1, (0, 1): True}
    assert _reference(4, labels_a, labels_b) == [2, 1, 3, 0]
    assert find_isomorphism(4, labels_a, labels_b) == [2, 1, 3, 0]
