"""Test-only references for the graph core: the per-pass implementations
that ``revpref.garp_verdict``, ``revpref._minimal_cycle`` and
``afriat._classes_in_order`` replaced, and the Warshall closure they read.

They are deliberately slow and simple -- a verdict read off the full
Warshall closure, one Python BFS per violating source, and an
O(k^2)-per-step scan of the closure's class graph for the class order --
and the fast versions must reproduce their output exactly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from garpkit.revpref import CycleWitness, GarpVerdict, RevealedRelation


def transitive_closure(weak: np.ndarray) -> np.ndarray:
    """All-pairs reachability by chains of length >= 1 (Warshall)."""
    closure = weak.copy()
    for k in range(closure.shape[0]):
        closure |= closure[:, k : k + 1] & closure[k : k + 1, :]
    return closure


def garp_verdict(rel: RevealedRelation, *, witness: bool = True) -> GarpVerdict:
    """The e-GARP verdict with its violating sources read off the full closure."""
    if not (transitive_closure(rel.weak) & rel.strict.T).any():
        return GarpVerdict(holds=True, witness=None)
    return GarpVerdict(holds=False, witness=minimal_cycle(rel) if witness else None)


def minimal_cycle(rel: RevealedRelation) -> CycleWitness:
    """Minimal-length violating cycle; deterministic tie-breaking.

    For every violating pair (t, s) -- closure t->s plus strict s->t -- the
    candidate cycle is a shortest weak path from t to s closed by the strict
    edge.  Among minimal-length cycles the lexicographically smallest
    rotation starting at its lowest index is returned.
    """
    pairs = np.argwhere(transitive_closure(rel.weak) & rel.strict.T)
    weak = rel.weak
    by_source: dict[int, list[int]] = {}
    for t, s in pairs:
        by_source.setdefault(int(t), []).append(int(s))

    best: tuple[int, tuple[int, ...]] | None = None
    for t, targets in sorted(by_source.items()):
        # BFS over the weak digraph from t; neighbours scanned in index
        # order so parents (and hence paths) are deterministic.
        parent = {t: -1}
        dist = {t: 0}
        queue = deque([t])
        while queue:
            node = queue.popleft()
            for nxt in np.flatnonzero(weak[node]):
                nxt = int(nxt)
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    parent[nxt] = node
                    queue.append(nxt)
        for s in targets:
            assert s in dist, "closure asserts a weak path that BFS cannot find"
            path = [s]
            while path[-1] != t:
                path.append(parent[path[-1]])
            path.reverse()  # t ... s, then the strict edge s->t closes it
            pivot = path.index(min(path))
            ring = path[pivot:] + path[:pivot]
            candidate = (len(path) + 1, tuple(ring + [ring[0]]))
            if best is None or candidate < best:
                best = candidate
    assert best is not None, "witness requested for a passing dataset"
    indices = best[1]
    strict_positions = [
        i for i in range(len(indices) - 1) if rel.strict[indices[i], indices[i + 1]]
    ]
    return CycleWitness(indices=indices, strict_edge=strict_positions[0])


def classes_in_order(closure: np.ndarray) -> list[list[int]]:
    """Mutual-reachability classes, most-preferred first, deterministic."""
    n = closure.shape[0]
    mutual = closure & closure.T
    labels = [-1] * n
    classes: list[list[int]] = []
    for t in range(n):
        if labels[t] >= 0:
            continue
        members = [s for s in range(n) if s == t or mutual[t, s]]
        for s in members:
            labels[s] = len(classes)
        classes.append(members)

    k = len(classes)
    # Edge a->b when some member of a is revealed preferred to a member of b.
    edge = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a != b and any(closure[t, s] for t in classes[a] for s in classes[b]):
                edge[a][b] = True
    placed = [False] * k
    order: list[list[int]] = []
    for _ in range(k):
        ready = [
            a for a in range(k)
            if not placed[a] and not any(edge[b][a] and not placed[b] for b in range(k))
        ]
        assert ready, "class preference graph has a cycle"
        pick = min(ready, key=lambda a: classes[a][0])
        placed[pick] = True
        order.append(classes[pick])
    return order
