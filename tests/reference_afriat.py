"""Test-only reference for the Afriat construction.

``solve_afriat`` as it was before the construction became array steps: the
slack matrix is a T x T list of Python numbers and each class level and
each ``lam`` comes from nested loops over the already-placed observations.
The verdict and the class order come from the full-closure references in
``reference_graph``, not from the production code under test.  The array
construction must give the same ``phi`` and ``lam``, value for value and
type for type, on both lanes.
"""

from __future__ import annotations

from fractions import Fraction

import reference_graph
from garpkit.afriat import AfriatSolution, worst_residual
from garpkit.errors import AfriatInfeasibleError, AfriatVerificationError
from garpkit.model import Number, coerce_efficiency, cross_expenditures
from garpkit.revpref import direct_relations


def solve_afriat(dataset, e=1) -> AfriatSolution:
    ev = coerce_efficiency(e, dataset)
    rel = direct_relations(dataset, ev)
    verdict = reference_graph.garp_verdict(rel)
    if not verdict.holds:
        raise AfriatInfeasibleError(verdict.witness)

    costs = cross_expenditures(dataset).tolist()
    n = dataset.n_observations
    zero: Number = Fraction(0) if dataset.exact else 0.0
    one: Number = Fraction(1) if dataset.exact else 1.0
    slack = [
        [costs[t][s] - ev[t] * costs[t][t] for s in range(n)]
        for t in range(n)
    ]

    phi: list[Number | None] = [None] * n
    lam: list[Number | None] = [None] * n
    done: list[int] = []
    for members in reference_graph.classes_in_order(reference_graph.transitive_closure(rel.weak)):
        if done:
            level = min(phi[t] + lam[t] * slack[t][s] for t in done for s in members)
        else:
            level = zero
        for s in members:
            phi[s] = level
        for t in members:
            bound = one
            for s in done:
                if phi[s] > level:
                    # No weak link points to an earlier class, so this slack
                    # is strictly positive and the bound is well defined.
                    needed = (phi[s] - level) / slack[t][s]
                    if needed > bound:
                        bound = needed
            lam[t] = bound
        done.extend(members)

    solution = AfriatSolution(phi=tuple(phi), lam=tuple(lam), efficiency=ev)
    residual = worst_residual(solution, dataset)
    if residual > 0:
        raise AfriatVerificationError(
            f"constructed numbers violate an inequality by {residual!r}"
        )
    return solution
