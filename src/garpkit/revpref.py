"""Direct and transitive revealed-preference relations, and the e-GARP test.

At efficiency ``e[t]`` observation ``t`` weakly reveals preference over the
bundle of observation ``s`` when ``costs[t][s] <= e[t] * costs[t][t]``: the
other bundle was affordable inside the deflated budget, yet ``x[t]`` was
bought.  The strict relation uses ``<``.  The transitive closure chains weak
steps (paths of length >= 1; no free reflexive step, so at ``e[t] < 1`` an
observation is not revealed preferred to itself by fiat).

e-GARP holds when no bundle is transitively revealed preferred to one that
is strictly revealed preferred back to it, i.e. there is no weak cycle
containing a strict step.

Every graph question about the relations goes through this module: the
verdict reads the Warshall closure, and a failing verdict is certified by a
minimal violating cycle found by one breadth-first search over boolean
matrices from all violating sources at once (the selection rule is spelled
out in ``_minimal_cycle``).  The CCEI search (:mod:`.ccei`) and the Afriat
solver (:mod:`.afriat`) take their verdicts and witnesses from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    CrossMatrix,
    Dataset,
    Number,
    coerce_efficiency,
    cross_expenditures,
    leq_array,
    lt_array,
)


@dataclass(frozen=True, eq=False)
class RevealedRelation:
    """Boolean T-by-T matrices: direct weak, direct strict, weak closure."""

    weak: np.ndarray
    strict: np.ndarray
    closure: np.ndarray


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


def _relations(dataset: Dataset, cm: CrossMatrix, e_values) -> RevealedRelation:
    """Weak/strict comparisons against deflated own expenditures, plus closure."""
    costs = cm.cost_array
    budgets = (np.array(e_values, dtype=costs.dtype) * costs.diagonal())[:, None]
    weak = leq_array(costs, budgets, dataset.rel_tol)
    strict = lt_array(costs, budgets, dataset.rel_tol)
    return RevealedRelation(weak=weak, strict=strict, closure=transitive_closure(weak))


def transitive_closure(weak: np.ndarray) -> np.ndarray:
    """All-pairs reachability by chains of length >= 1 (Warshall)."""
    closure = weak.copy()
    for k in range(closure.shape[0]):
        closure |= closure[:, k : k + 1] & closure[k : k + 1, :]
    return closure


def direct_relations(dataset: Dataset, e=1) -> RevealedRelation:
    """Build the weak/strict relations and the weak closure at efficiency e.

    ``e`` may be a scalar, a sequence with one entry per observation, or an
    :class:`EfficiencyVector`.
    """
    ev = coerce_efficiency(e, dataset)
    return _relations(dataset, cross_expenditures(dataset), ev.values)


def _minimal_cycle(rel: RevealedRelation) -> CycleWitness:
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
    index, and the lexicographically smallest is returned.
    """
    weak, strict = rel.weak, rel.strict
    n = weak.shape[0]
    sources = np.flatnonzero((rel.closure & strict.T).any(axis=1))
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

    best: tuple[int, ...] | None = None
    for i, s in np.argwhere(frontier & back).tolist():
        path = [int(sources[i])]
        if depth > 1:
            # The nodes r steps along some shortest path from t to s, for
            # r = depth - 1 down to 1.
            on = [levels[depth - 2][i] & weak[:, s]]
            for r in range(depth - 2, 0, -1):
                on.append(levels[r - 1][i] & (weak @ on[-1]))
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

    The verdict reads the closure: (t, s) violates when ``t`` is
    transitively revealed preferred to ``s`` while ``s`` is directly
    *strictly* revealed preferred to ``t``.
    """
    if not (rel.closure & rel.strict.T).any():
        return GarpVerdict(holds=True, witness=None)
    return GarpVerdict(holds=False, witness=_minimal_cycle(rel) if witness else None)


def uniform_verdict(dataset: Dataset, cm: CrossMatrix, e: Number, *,
                    witness: bool = False) -> GarpVerdict:
    """e-GARP verdict with the efficiency ``e`` shared by every observation.

    For callers that probe many efficiencies on one dataset: ``cm`` is the
    dataset's cross-expenditure matrix, and ``e`` is used as given, in the
    dataset's arithmetic, without coercion.
    """
    rel = _relations(dataset, cm, [e] * dataset.n_observations)
    return garp_verdict(rel, witness=witness)


def check_e_garp(dataset: Dataset, e=1, *, witness: bool = True) -> GarpVerdict:
    """Test e-GARP; on failure optionally return a minimal violating cycle."""
    return garp_verdict(direct_relations(dataset, e), witness=witness)


def validate_witness(dataset: Dataset, e, w: CycleWitness) -> bool:
    """Re-check a witness against freshly built direct relations."""
    rel = direct_relations(dataset, e)
    idx = w.indices
    if len(idx) < 2 or idx[0] != idx[-1]:
        return False
    steps = list(zip(idx[:-1], idx[1:]))
    if not all(rel.weak[a, b] for a, b in steps):
        return False
    a, b = steps[w.strict_edge]
    return bool(rel.strict[a, b])
