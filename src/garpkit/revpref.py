"""Direct revealed-preference relations, and the e-GARP test.

At efficiency ``e[t]`` observation ``t`` weakly reveals preference over the
bundle of observation ``s`` when ``costs[t][s] <= e[t] * costs[t][t]``: the
other bundle was affordable inside the deflated budget, yet ``x[t]`` was
bought.  The strict relation uses ``<``.  Transitive preference chains weak
steps (paths of length >= 1; no free reflexive step, so at ``e[t] < 1`` an
observation is not revealed preferred to itself by fiat).

e-GARP holds when no bundle is transitively revealed preferred to one that
is strictly revealed preferred back to it: no weak cycle has a strict step,
so no strict link joins two observations of one strongly connected component
(SCC) of the weak relation, and no closure is needed (Talla Nobibon,
Smeulders & Spieksma, JOTA 2015).  Every graph question about the relations
goes through this module.  :func:`direct_relations` builds a dataset's
relations at an efficiency vector and keeps the last ones it built, read
only, on the dataset, so every verdict, the Afriat class order
(:mod:`.afriat`) and budget membership (:mod:`.duality`) at that e share
one build.  A :class:`RevealedRelation` labels its SCCs once, by
forward-backward search (Fleischer, Hendrickson & Pinar 2000).  A failing
verdict is certified by a minimal violating cycle (see ``_minimal_cycle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .model import Dataset, coerce_efficiency, cross_expenditures, leq_array, lt_array


@dataclass(frozen=True, eq=False)
class RevealedRelation:
    """Boolean T-by-T matrices: direct weak and direct strict preference."""

    weak: np.ndarray
    strict: np.ndarray

    @cached_property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted cyclic core, and each node's SCC label (``_components``)."""
        return _components(self.weak)


@dataclass(frozen=True)
class CycleWitness:
    """A violating revealed-preference cycle.

    Attributes:
        indices: 0-based observation indices ``(t1, ..., tk, t1)`` with the
            first index repeated at the end; every consecutive pair is weakly
            related.
        strict_edge: position ``i`` such that the step from ``indices[i]`` to
            ``indices[i+1]`` is strict.
    """

    indices: tuple[int, ...]
    strict_edge: int


@dataclass(frozen=True)
class GarpVerdict:
    holds: bool
    witness: Optional[CycleWitness]


def _relation(costs: np.ndarray, budgets: np.ndarray, rel_tol: float) -> RevealedRelation:
    """Weak and strict comparisons of each row of ``costs`` against its budget.

    Both arrays are read-only, so a relation can be shared.
    """
    budgets = budgets[:, None]
    rel = RevealedRelation(weak=leq_array(costs, budgets, rel_tol),
                           strict=lt_array(costs, budgets, rel_tol))
    rel.weak.flags.writeable = rel.strict.flags.writeable = False
    return rel


def _trim(nodes: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peel sources and sinks: the nodes left, and the edges among them.

    ``edges`` holds no self-loop.  Every round drops each node with no
    in-edge or no out-edge among the nodes still left, until none is
    dropped.  A node on a cycle keeps both of its cycle edges, so only
    nodes on no cycle are dropped, each an SCC of its own.
    """
    while True:
        keep = edges.any(axis=0) & edges.any(axis=1)
        if keep.all():
            return nodes, edges
        nodes, edges = nodes[keep], edges[keep][:, keep]


def _scc_of_first(edges: np.ndarray) -> np.ndarray:
    """Mask of the SCC of node 0 in ``edges`` (boolean, no self-loops).

    Breadth-first searches forward and backward from node 0 take a level
    each in turn, one gather of the rows (columns) of the frontier.  Once one
    has reached all it can, the other keeps to that set, which holds the
    SCC, so a round costs about the shorter search.
    """
    reached = np.zeros((2, edges.shape[0]), dtype=bool)
    reached[:, 0] = True
    fronts, inside, side = reached.copy(), True, 0
    while fronts[side].any():
        rows = np.flatnonzero(fronts[side])
        step = edges[:, rows].any(axis=1) if side else edges[rows].any(axis=0)
        fronts[side] = step & ~reached[side] & inside
        reached[side] |= fronts[side]
        if not fronts[side].any():
            inside = reached[side]
        if fronts[1 - side].any():
            side = 1 - side
    return reached[0] & reached[1]


def _components(weak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted cyclic core, and each node's SCC labelled by its smallest member.

    Each round takes the smallest node left, finds its SCC, removes it (the
    others stay whole) and trims again.  A node trimmed away is an SCC of its
    own.  Self-loops are ignored.
    """
    edges = weak.copy()
    np.fill_diagonal(edges, False)
    core, edges = _trim(np.arange(weak.shape[0]), edges)
    label = np.arange(weak.shape[0])
    left = core
    while left.size:
        scc = _scc_of_first(edges)
        label[left[scc]] = left[0]
        rest = ~scc
        left, edges = _trim(left[rest], edges[rest][:, rest])
    return core, label


def _violating_sources(rel: RevealedRelation) -> np.ndarray:
    """The rows of ``closure & strict.T`` with a violation, from the SCC labels.

    ``strict`` must lie inside ``weak``.  Then (t, s) violates exactly when
    the strict link from s to t lies inside one SCC, or is a self-loop.
    """
    label = rel.components[1]
    return np.flatnonzero((rel.strict & (label[:, None] == label)).any(axis=0))


def direct_relations(dataset: Dataset, e=1) -> RevealedRelation:
    """The weak and strict relations at efficiency e, read-only.

    ``e`` may be a scalar or a sequence with one entry per observation.
    The dataset keeps the last relations built for it, in one slot, so
    asking again at the same efficiency values returns the same object, with
    its SCC labels.  The slot compares the values with ``!=`` rather than
    hashing them, which would cost T ``Fraction`` hashes per lookup.
    """
    ev = coerce_efficiency(e, dataset)
    slot = dataset._last_relations
    if slot[0] != ev:
        costs = cross_expenditures(dataset)
        budgets = np.array(ev, dtype=costs.dtype) * costs.diagonal()
        slot[:] = ev, _relation(costs, budgets, dataset.rel_tol)
    return slot[1]


def _minimal_cycle(weak: np.ndarray, strict: np.ndarray,
                   sources: np.ndarray) -> CycleWitness:
    """Minimal-length violating cycle; deterministic tie-breaking.

    Breadth-first search over boolean matrices from every violating source
    at once: ``levels[d - 1][i, v]`` holds when the shortest weak path from
    ``sources[i]`` to ``v`` has ``d`` steps.  The search stops at the first
    level with a pair (t, s) such that ``s`` is strictly revealed preferred
    to ``t``; every such pair closes a violating cycle of ``d + 1`` steps,
    and no violating cycle is shorter.  For each pair the lexicographically
    smallest shortest path from ``t`` to ``s`` is rebuilt greedily -- from
    each node, the smallest weak successor that still lies on a shortest
    path to ``s`` -- which is the path a per-source BFS scanning neighbours
    in index order records.  Each cycle is rotated to start at its lowest
    index, and the lexicographically smallest is returned.  ``sources`` are
    the rows of ``closure & strict.T`` with a violation.
    At depth 1 the cycle of pair (t, s) is (min, max, min).  Deeper, a cycle
    from ``t`` holds only nodes ``t`` reaches in ``d`` steps or fewer: the
    sources are walked by the lowest of those, until it exceeds the best
    cycle's first entry.
    """
    n = weak.shape[0]
    back = strict.T[sources]
    reached = np.zeros((sources.size, n), dtype=bool)
    reached[np.arange(sources.size), sources] = True
    frontier = weak[sources] & ~reached
    levels = [frontier]
    while not (frontier & back).any():
        if not frontier.any():
            raise ValueError("no violating cycle: e-GARP holds")
        reached |= frontier
        frontier = (frontier @ weak) & ~reached
        levels.append(frontier)
    depth = len(levels)
    closing = frontier & back

    if depth == 1:
        rows, ends = np.nonzero(closing)
        pairs = np.sort(np.c_[sources[rows], ends], axis=1)
        low, high = pairs[np.lexsort(pairs.T[::-1])[0]].tolist()
        best = (low, high, low)
    else:
        bound = (reached | closing).argmax(axis=1)
        best = None
        for i in np.argsort(bound, kind="stable").tolist():
            if best is not None and bound[i] > best[0]:
                break
            for s in np.flatnonzero(closing[i]).tolist():
                # The nodes r steps along some shortest path from t to s,
                # for r = depth - 1 down to 1.
                on = [levels[depth - 2][i] & weak[:, s]]
                for r in range(depth - 2, 0, -1):
                    on.append(levels[r - 1][i] & (weak @ on[-1]))
                path = [int(sources[i])]
                for step in reversed(on):
                    path.append(int(np.argmax(weak[path[-1]] & step)))
                path.append(s)
                pivot = path.index(min(path))
                ring = tuple(path[pivot:] + path[: pivot + 1])
                if best is None or ring < best:
                    best = ring
    strict_edge = next(i for i in range(depth + 1) if strict[best[i], best[i + 1]])
    return CycleWitness(indices=best, strict_edge=strict_edge)


def garp_verdict(rel: RevealedRelation, *, witness: bool = True) -> GarpVerdict:
    """e-GARP verdict of built relations; on failure optionally a minimal cycle.

    (t, s) violates when ``t`` is transitively revealed preferred to ``s``
    while ``s`` is directly *strictly* revealed preferred to ``t``; the
    violating sources are read off the SCC labels
    (:func:`_violating_sources`), so ``rel.strict`` must lie inside
    ``rel.weak``, as it does in every relation this module builds.
    """
    sources = _violating_sources(rel)
    if not sources.size:
        return GarpVerdict(holds=True, witness=None)
    return GarpVerdict(holds=False,
                       witness=_minimal_cycle(rel.weak, rel.strict, sources) if witness else None)


def check_e_garp(dataset: Dataset, e=1, *, witness: bool = True) -> GarpVerdict:
    """Test e-GARP; on failure optionally return a minimal violating cycle."""
    return garp_verdict(direct_relations(dataset, e), witness=witness)


def validate_witness(dataset: Dataset, e, w: CycleWitness) -> bool:
    """Re-check a witness against the direct relations at ``e``."""
    rel = direct_relations(dataset, e)
    idx = w.indices
    if len(idx) < 2 or idx[0] != idx[-1]:
        return False
    steps = list(zip(idx[:-1], idx[1:]))
    if not all(rel.weak[a, b] for a, b in steps):
        return False
    a, b = steps[w.strict_edge]
    return bool(rel.strict[a, b])
