"""Test-only references for the one-array cross-expenditure core.

These are the code paths that held the cross-expenditure matrix as
``Fraction`` tuples on the exact lane, as they were before each lane held
one array: the cross matrix (``Fraction`` sums per entry, with float64
mirrors built from the tuples), the relation build (a Python double loop
on the exact lane, inline tolerant comparisons on the float lane), the
breakpoint candidates (a ``Fraction`` set on the exact lane) and the exact
``worst_residual`` loop.  Bodies are verbatim; only their inputs changed,
so that they read the reference cross matrix instead of the cached one.
The array code must give the same values, of the same types, on both
lanes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from garpkit.afriat import AfriatSolution
from garpkit.model import Dataset, Number
from garpkit.revpref import RevealedRelation


class CrossMatrix:
    def __init__(self, costs=None, ratios=None, *, cost_array=None, ratio_array=None):
        # A given representation shadows the cached property of its name.
        given = {"costs": costs, "ratios": ratios,
                 "cost_array": cost_array, "ratio_array": ratio_array}
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)

    @cached_property
    def costs(self) -> tuple[tuple[Number, ...], ...]:
        return tuple(map(tuple, self.cost_array.tolist()))

    @cached_property
    def ratios(self) -> tuple[tuple[Number, ...], ...]:
        return tuple(map(tuple, self.ratio_array.tolist()))

    @cached_property
    def cost_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.costs])

    @cached_property
    def ratio_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.ratios])


def cross_expenditures(dataset: Dataset) -> CrossMatrix:
    if dataset.exact:
        costs = tuple(
            tuple(sum(p * x for p, x in zip(p_row, x_row))
                  for x_row in dataset.bundles)
            for p_row in dataset.prices
        )
        ratios = tuple(
            tuple(row[s] / row[t] for s in range(dataset.n_observations))
            for t, row in enumerate(costs)
        )
        return CrossMatrix(costs=costs, ratios=ratios)
    cost_arr = dataset.price_array @ dataset.bundle_array.T
    return CrossMatrix(cost_array=cost_arr,
                       ratio_array=cost_arr / np.diag(cost_arr)[:, None])


def relations(dataset: Dataset, cm: CrossMatrix, e_values) -> RevealedRelation:
    n = dataset.n_observations
    if dataset.exact:
        weak = np.zeros((n, n), dtype=bool)
        strict = np.zeros((n, n), dtype=bool)
        for t in range(n):
            budget = e_values[t] * cm.costs[t][t]
            row = cm.costs[t]
            for s in range(n):
                weak[t, s] = row[s] <= budget
                strict[t, s] = row[s] < budget
    else:
        costs = cm.cost_array
        budgets = np.array([float(v) for v in e_values]) * np.diag(costs)
        rhs = budgets[:, None]
        margin = dataset.rel_tol * np.maximum(np.abs(costs), np.abs(rhs))
        weak = costs <= rhs + margin
        strict = costs < rhs - margin
    return RevealedRelation(weak=weak, strict=strict)


def candidates(dataset: Dataset, cm: CrossMatrix) -> list[Number]:
    if not dataset.exact:
        ratios = cm.ratio_array
        return np.unique(np.append(ratios[(ratios > 0) & (ratios <= 1)], 1.0)).tolist()
    found = {Fraction(1)}
    for row in cm.ratios:
        for r in row:
            if 0 < r <= 1:
                found.add(r)
    return sorted(found)


def worst_residual(solution: AfriatSolution, dataset: Dataset, cm: CrossMatrix) -> Number:
    """The exact lane's loop (the float lane's is ``reference_verify``'s)."""
    assert dataset.exact
    ev = solution.efficiency
    n = dataset.n_observations
    worst: Number = Fraction(0)
    for t in range(n):
        own = ev[t] * cm.costs[t][t]
        for s in range(n):
            margin = solution.phi[s] - solution.phi[t] - solution.lam[t] * (
                cm.costs[t][s] - own
            )
            if margin > worst:
                worst = margin
    return worst
