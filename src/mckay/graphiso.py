"""Backtracking isomorphism search for small labeled multidigraphs.

Graphs are given by edge-label maps (i, j) -> hashable on the vertices
0..n-1; a missing key means no edge.  An isomorphism is a vertex bijection
f with labels_b.get((f(i), f(j))) == labels_a.get((i, j)) for all ordered
pairs.

The search places vertices connectivity-first and tries candidates in
ascending order, so the mapping it returns is the first one in that
order.  Candidates share the vertex's signature (loop label and the sorted
labels in and out); a candidate is checked against the placed vertices
adjacent to either endpoint only, so each check costs their degrees.
"""
from __future__ import annotations

import heapq
from collections import Counter
from typing import Hashable, Mapping

__all__ = ["find_isomorphism"]

Label = Hashable
EdgeMap = Mapping[tuple[int, int], Label]


class _Side:
    """Loop labels and out/in adjacency dicts (loops excluded) of one graph."""

    def __init__(self, n: int, labels: EdgeMap):
        self.loop = [labels.get((v, v)) for v in range(n)]
        self.out: list[dict[int, Label]] = [{} for _ in range(n)]
        self.into: list[dict[int, Label]] = [{} for _ in range(n)]
        for (i, j), label in labels.items():
            if i != j:
                self.out[i][j] = label
                self.into[j][i] = label

    def signature(self, v: int):
        return (
            repr(self.loop[v]),
            tuple(sorted(map(repr, self.out[v].values()))),
            tuple(sorted(map(repr, self.into[v].values()))),
        )


def find_isomorphism(
    n: int, labels_a: EdgeMap, labels_b: EdgeMap
) -> list[int] | None:
    """A label-preserving vertex bijection between two n-vertex graphs, or None."""
    if n == 0:
        return []
    if Counter(map(repr, labels_a.values())) != Counter(map(repr, labels_b.values())):
        return None
    a, b = _Side(n, labels_a), _Side(n, labels_b)
    by_signature: dict = {}
    for u in range(n):
        by_signature.setdefault(b.signature(u), []).append(u)
    candidates = [by_signature.get(a.signature(v), []) for v in range(n)]
    if any(not c for c in candidates):
        return None

    # Order vertices connectivity-first so adjacency constraints bite early:
    # repeatedly the unplaced vertex with the least (-linked, |candidates|, v),
    # linked counting its placed neighbours.  Keys only fall, so a heap
    # entry whose link count is stale is skipped when popped.
    neighbors = [set(a.out[v]) | set(a.into[v]) for v in range(n)]
    linked = [0] * n
    placed = [False] * n
    heap = [(0, len(candidates[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while len(order) < n:
        minus_linked, _, v = heapq.heappop(heap)
        if placed[v] or -minus_linked != linked[v]:
            continue
        order.append(v)
        placed[v] = True
        for w in neighbors[v]:
            if not placed[w]:
                linked[w] += 1
                heapq.heappush(heap, (-linked[w], len(candidates[w]), w))

    mapping = [-1] * n
    preimage = [-1] * n

    def check(v: int, u: int) -> bool:
        if b.loop[u] != a.loop[v]:
            return False
        out_a, into_a, out_b, into_b = a.out[v], a.into[v], b.out[u], b.into[u]
        for w, label in out_a.items():
            fw = mapping[w]
            if fw >= 0 and out_b.get(fw) != label:
                return False
        for w, label in into_a.items():
            fw = mapping[w]
            if fw >= 0 and into_b.get(fw) != label:
                return False
        for y, label in out_b.items():
            w = preimage[y]
            if w >= 0 and label != out_a.get(w):
                return False
        for y, label in into_b.items():
            w = preimage[y]
            if w >= 0 and label != into_a.get(w):
                return False
        return True

    # Depth-first over `order`; tried[k] is the next candidate index at depth k.
    tried = [0] * n
    k = 0
    while 0 <= k < n:
        v = order[k]
        if mapping[v] >= 0:
            preimage[mapping[v]] = -1
            mapping[v] = -1
        cands = candidates[v]
        i = tried[k]
        while i < len(cands) and (preimage[cands[i]] >= 0 or not check(v, cands[i])):
            i += 1
        if i == len(cands):
            tried[k] = 0
            k -= 1
            continue
        tried[k] = i + 1
        mapping[v] = cands[i]
        preimage[cands[i]] = v
        k += 1
    return mapping if k == n else None
