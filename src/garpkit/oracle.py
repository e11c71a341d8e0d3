"""Brute-force reference oracles for small datasets.

Everything here is deliberately naive and self-contained: dot products,
comparisons, and cycle search are reimplemented with plain Python loops so
that these verdicts share no relation-building code with the production
modules.  They exist to cross-check those modules in tests and are capped at
MAX_OBSERVATIONS observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import TooLargeError
from .model import Dataset, Number, coerce_efficiency

MAX_OBSERVATIONS = 8

# The float lane's tolerances, stated here again rather than read from
# ``model`` so that a change there shows up as a disagreement in the tests:
# the e-GARP comparisons, then the allowance of the Afriat check.
_COMPARE_RTOL = 1e-12
_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class OracleVerdict:
    garp_holds: bool
    violating_cycles: tuple[tuple[int, ...], ...]
    ccei_value: Optional[Number] = None


def _guard_size(dataset: Dataset) -> None:
    if dataset.n_observations > MAX_OBSERVATIONS:
        raise TooLargeError(
            f"oracle supports at most {MAX_OBSERVATIONS} observations, "
            f"got {dataset.n_observations}"
        )


def _leq(a, b, tol: float) -> bool:
    if tol == 0.0:
        return a <= b
    return a <= b + tol * max(abs(a), abs(b))


def _lt(a, b, tol: float) -> bool:
    if tol == 0.0:
        return a < b
    return a < b - tol * max(abs(a), abs(b))


def _direct(dataset: Dataset, e_values):
    """Weak/strict direct relations as dicts of booleans, by brute force."""
    n = dataset.n_observations
    tol = 0.0 if dataset.exact else _COMPARE_RTOL
    weak = {}
    strict = {}
    for t in range(n):
        own = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[t]))
        budget = e_values[t] * own
        for s in range(n):
            spend = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[s]))
            weak[t, s] = _leq(spend, budget, tol)
            strict[t, s] = _lt(spend, budget, tol)
    return weak, strict


def _simple_cycles(weak, n: int):
    """Enumerate all simple cycles of the weak digraph.

    Cycles are emitted with their smallest member first, so each cycle
    appears exactly once.  Fine for n <= 8.
    """
    cycles = []
    for start in range(n):
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in range(n):
                if not weak[node, nxt]:
                    continue
                if nxt == start and (len(path) > 1 or weak[start, start]):
                    cycles.append(tuple(path) + (start,))
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return cycles


def garp_oracle(dataset: Dataset, e=1) -> OracleVerdict:
    """Check e-GARP by enumerating every simple cycle of the weak relation.

    A violation is a cycle in which at least one step is strict.  Returns all
    violating cycles (0-based, closing index repeated).
    """
    _guard_size(dataset)
    ev = coerce_efficiency(e, dataset)
    weak, strict = _direct(dataset, ev.values)
    bad = []
    for cycle in _simple_cycles(weak, dataset.n_observations):
        if any(strict[cycle[i], cycle[i + 1]] for i in range(len(cycle) - 1)):
            bad.append(cycle)
    bad.sort(key=lambda c: (len(c), c))
    return OracleVerdict(garp_holds=not bad, violating_cycles=tuple(bad))


def _holds(dataset: Dataset, e_scalar) -> bool:
    return garp_oracle(dataset, e_scalar).garp_holds


def ccei_oracle(dataset: Dataset) -> Number:
    """Critical cost efficiency by direct scan of the breakpoint grid.

    The verdict of uniform e-GARP only changes at cross-expenditure ratios,
    so the supremum of the passing set is found by testing every candidate
    ratio in (0, 1] plus the midpoints between consecutive candidates (the
    midpoints reveal whether an interval just below a failing candidate still
    passes, i.e. whether the supremum is attained at a candidate or only
    approached from below).
    """
    _guard_size(dataset)
    n = dataset.n_observations
    ratios = []
    for t in range(n):
        own = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[t]))
        for s in range(n):
            spend = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[s]))
            r = spend / own
            if 0 < r <= 1:
                ratios.append(r)
    one = ratios[0] * 0 + 1  # 1 in the dataset's arithmetic
    candidates = sorted(set(ratios) | {one})
    if _holds(dataset, one):
        return one
    grid = []
    for i, c in enumerate(candidates):
        if i:
            grid.append(("mid", candidates[i - 1], (candidates[i - 1] + c) / 2))
        grid.append(("cand", c, c))
    verdicts = [_holds(dataset, point) for _, _, point in grid]
    # The passing set is downward closed, so the verdict sequence over the
    # whole grid must be a True-prefix followed by a False-suffix.
    assert verdicts[0], "e-GARP must hold at the smallest ratio"
    assert all(a or not b for a, b in zip(verdicts, verdicts[1:])), \
        "verdict not monotone over the breakpoint grid"
    last_pass = max(i for i, v in enumerate(verdicts) if v)
    kind, below, point = grid[last_pass]
    if kind == "cand":
        # Fails on the open interval just above: supremum attained here.
        return point
    # Passing on an open interval below a failing candidate: the supremum is
    # that candidate, approached from below but not attained.
    return grid[last_pass + 1][2]


def ordinal_oracle(dataset: Dataset, e=1) -> bool:
    """Feasibility of ordinal utility levels, by difference constraints.

    Looks for numbers u[t] with u[t] >= u[s] whenever t is weakly revealed
    preferred to s and u[t] >= u[s] + 1 whenever strictly.  Solved with
    Bellman-Ford; a negative cycle means no such numbers exist.  Agrees with
    :func:`garp_oracle` on every dataset.
    """
    _guard_size(dataset)
    ev = coerce_efficiency(e, dataset)
    weak, strict = _direct(dataset, ev.values)
    n = dataset.n_observations
    edges = []
    for t in range(n):
        for s in range(n):
            if strict[t, s]:
                edges.append((t, s, -1))
            elif weak[t, s]:
                edges.append((t, s, 0))
    dist = [0] * n
    for _ in range(n):
        changed = False
        for t, s, w in edges:
            if dist[t] + w < dist[s]:
                dist[s] = dist[t] + w
                changed = True
        if not changed:
            return True
    return not any(dist[t] + w < dist[s] for t, s, w in edges)


def afriat_numbers_valid(dataset: Dataset, e, phi, lam) -> bool:
    """Direct substitution check of candidate utility/lambda numbers.

    Used by tests to validate constructed solutions against nothing but the
    inequality system itself.
    """
    _guard_size(dataset)
    ev = coerce_efficiency(e, dataset)
    n = dataset.n_observations
    for t in range(n):
        if not lam[t] > 0:
            return False
        own = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[t]))
        for s in range(n):
            spend = sum(p * x for p, x in zip(dataset.prices[t], dataset.bundles[s]))
            rhs = phi[t] + lam[t] * (spend - ev[t] * own)
            if dataset.exact:
                # No float creeps in here: adding a float zero would turn
                # the exact comparison into a rounded one.
                if phi[s] > rhs:
                    return False
            else:
                scale = abs(phi[t]) + abs(phi[s]) + lam[t] * (spend + ev[t] * own)
                if phi[s] > rhs + _CHECK_RTOL * max(1.0, scale):
                    return False
    return True
