"""Backtracking isomorphism search for small labeled multidigraphs.

Graphs are given by edge-label maps (i, j) -> hashable on the vertices
0..n-1; a missing key means no edge.  An isomorphism is a vertex bijection
f with labels_b.get((f(i), f(j))) == labels_a.get((i, j)) for all ordered
pairs.

The search places vertices connectivity-first and tries candidates in
ascending order, so the mapping it returns is the first one in that
order.  Labels are read once into integer codes shared by both graphs,
so labels equal by value share a code.  Candidates share the vertex's
signature (the loop's code and the sorted tuples of the codes out and
in); a candidate is checked against the placed vertices adjacent to
either endpoint only, so each check costs their degrees.

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

EdgeMap = Mapping[tuple[int, int], Hashable]


class _Side:
    """Loop codes and out/in adjacency dicts of codes (loops excluded) of
    one graph, by the label codes both sides share; None's is 0, as is a
    missing edge's."""

    def __init__(self, n: int, labels: EdgeMap, codes: dict):
        self.loop = [0] * n
        self.out: list[dict[int, int]] = [{} for _ in range(n)]
        self.into: list[dict[int, int]] = [{} for _ in range(n)]
        for (i, j), label in labels.items():
            code = codes.setdefault(label, len(codes))
            if i == j:
                self.loop[i] = code
            else:
                self.out[i][j] = code
                self.into[j][i] = code

    def signature(self, v: int):
        return (
            self.loop[v],
            tuple(sorted(self.out[v].values())),
            tuple(sorted(self.into[v].values())),
        )


def find_isomorphism(
    n: int, labels_a: EdgeMap, labels_b: EdgeMap
) -> list[int] | None:
    """A label-preserving vertex bijection between two n-vertex graphs, or None."""
    if Counter(labels_a.values()) != Counter(labels_b.values()):
        return None
    codes: dict = {None: 0}
    a, b = _Side(n, labels_a, codes), _Side(n, labels_b, codes)
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
    # entry whose link count is stale is skipped when popped.  The anchor
    # of w is set when its first neighbour v joined to it by a non-None
    # label is placed, with the adjacency of b that must hold f(w): an edge
    # w -> v puts f(w) among the sources into f(v), else an edge v -> w
    # among the targets out of f(v).  Other candidates fail `check` at v.
    neighbors = [set(a.out[v]) | set(a.into[v]) for v in range(n)]
    linked = [0] * n
    placed = [False] * n
    anchor: list = [None] * n
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
                if anchor[w] is None:
                    if a.out[w].get(v):
                        anchor[w] = v, b.into
                    elif a.into[w].get(v):
                        anchor[w] = v, b.out

    mapping = [-1] * n
    preimage = [-1] * n

    def check(v: int, u: int) -> bool:
        if b.loop[u] != a.loop[v]:
            return False
        out_a, into_a, out_b, into_b = a.out[v], a.into[v], b.out[u], b.into[u]
        for w, code in out_a.items():
            fw = mapping[w]
            if fw >= 0 and out_b.get(fw, 0) != code:
                return False
        for w, code in into_a.items():
            fw = mapping[w]
            if fw >= 0 and into_b.get(fw, 0) != code:
                return False
        for y, code in out_b.items():
            w = preimage[y]
            if w >= 0 and code != out_a.get(w, 0):
                return False
        for y, code in into_b.items():
            w = preimage[y]
            if w >= 0 and code != into_a.get(w, 0):
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
