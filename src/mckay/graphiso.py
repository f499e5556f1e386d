"""Backtracking isomorphism search for small labeled multidigraphs.

Graphs are given by edge-label maps (i, j) -> hashable on the vertices
0..n-1; a missing key means no edge.  An isomorphism is a vertex bijection
f with labels_b.get((f(i), f(j))) == labels_a.get((i, j)) for all ordered
pairs.

The search places vertices connectivity-first and tries candidates in
ascending order, so the mapping it returns is the first one in that
order.  Candidates share the vertex's signature (loop label and the
multisets of labels in and out, compared by value as everywhere in the
search); a candidate is checked against the placed vertices
adjacent to either endpoint only, so each check costs their degrees.

Candidates are anchored: once a vertex v has a neighbour w placed before
it and joined to it by a non-None label, v's candidates are only those of
its signature group adjacent to f(w) in the direction of that edge.  Every
other candidate fails the check against w, so the first mapping is the
same; on the round trip's quivers the search makes about one check per
vertex instead of scanning a group of n/3.
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
            self.loop[v],
            frozenset(Counter(self.out[v].values()).items()),
            frozenset(Counter(self.into[v].values()).items()),
        )


def find_isomorphism(
    n: int, labels_a: EdgeMap, labels_b: EdgeMap
) -> list[int] | None:
    """A label-preserving vertex bijection between two n-vertex graphs, or None."""
    if n == 0:
        return []
    if Counter(labels_a.values()) != Counter(labels_b.values()):
        return None
    a, b = _Side(n, labels_a), _Side(n, labels_b)
    # Signature groups by index: group_b[u] for u, group_a[v] for v.
    group_ids: dict = {}
    group_b = [group_ids.setdefault(b.signature(u), len(group_ids)) for u in range(n)]
    group_a = [group_ids.get(a.signature(v)) for v in range(n)]
    if None in group_a:
        return None
    members: list[list[int]] = [[] for _ in group_ids]
    for u, g in enumerate(group_b):
        members[g].append(u)
    candidates = [members[g] for g in group_a]

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

    # The anchor of v: its earliest neighbour in `order` before it joined by
    # a non-None label, with the adjacency of b that must hold f(v): an
    # edge v -> w puts f(v) among the sources into f(w), an edge w -> v
    # among the targets out of f(w).  Every other candidate fails `check`
    # against w.
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    anchor: list = [None] * n
    for v in range(n):
        near = [(position[w], w, b.into) for w, label in a.out[v].items() if label is not None]
        near += [(position[w], w, b.out) for w, label in a.into[v].items() if label is not None]
        near = [x for x in near if x[0] < position[v]]
        if near:
            anchor[v] = min(near, key=lambda x: x[0])[1:]

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

    # Depth-first over `order`; tried[k] is the next candidate index at depth
    # k and lists[k] the candidates drawn on entering it, which stay valid
    # while the depths before it hold: the signature group of v, cut to the
    # neighbours of its anchor's image, in ascending order.
    tried = [0] * n
    lists: list[list[int]] = [[]] * n
    k = 0
    while 0 <= k < n:
        v = order[k]
        if mapping[v] >= 0:
            preimage[mapping[v]] = -1
            mapping[v] = -1
        i = tried[k]
        if i == 0:
            if anchor[v] is None:
                lists[k] = candidates[v]
            else:
                w, side = anchor[v]
                g = group_a[v]
                lists[k] = sorted(u for u in side[mapping[w]] if group_b[u] == g)
        cands = lists[k]
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
