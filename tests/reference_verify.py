"""Test-only references for the exact-lane sampling verifiers.

These are the exact-lane bodies of ``verify_rationalization`` and
``verify_cost_rationalization`` before the float64 filter: every sampled
point is evaluated in ``Fraction`` arithmetic, one full evaluation of the
recovered utility per point.  They are slow on purpose, and the filtered
verifiers must reproduce their reports field for field (the filter's own
counters aside).  Sampling is shared: both draw the same points from the
same per-observation streams.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from garpkit.afriat import AfriatSolution, evaluate_utility, utility_profile
from garpkit.duality import (
    ObservationSummary,
    SampleViolation,
    VerificationReport,
    _child_rngs,
    _exact_bundle,
    _ray_level_points,
)
from garpkit.model import Dataset, coerce_efficiency, cross_expenditures, leq


def verify_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                           n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    assert dataset.exact, "reference for the exact lane only"
    ev = coerce_efficiency(e, dataset)
    cm = cross_expenditures(dataset)
    n = dataset.n_observations
    n_goods = dataset.n_goods
    rngs = _child_rngs(seed, n)

    summaries = []
    violations = []
    for t in range(n):
        rng = rngs[t]
        budget = ev[t] * cm.costs[t][t]
        budget_f = float(budget)
        weights = rng.dirichlet(np.ones(n_goods), size=n_samples)
        radial = rng.uniform(size=(n_samples, 1))
        proposals = radial * weights * (budget_f / dataset.price_array[t])
        extras = [np.zeros(n_goods)]
        for s in range(n):
            if leq(cm.costs[t][s], budget, dataset.rel_tol):
                extras.append(dataset.bundle_array[s])
        points = np.vstack([proposals, np.array(extras)])

        count = points.shape[0]
        bad_here = 0
        level = evaluate_utility(solution, dataset, dataset.bundles[t])
        price_row = dataset.prices[t]
        for row in points:
            coords = _exact_bundle(row)
            spend = sum(p * c for p, c in zip(price_row, coords))
            if spend > budget:
                shrink = budget / spend
                coords = [c * shrink for c in coords]
            value = evaluate_utility(solution, dataset, coords)
            if value > level:
                bad_here += 1
                violations.append(SampleViolation(
                    observation=t,
                    bundle=tuple(float(c) for c in coords),
                    lhs=float(value),
                    rhs=float(level),
                ))
        summaries.append(ObservationSummary(t, count, bad_here))

    return VerificationReport(
        kind="rationalization",
        requested_per_observation=n_samples,
        seed=seed,
        per_observation=tuple(summaries),
        violations=tuple(violations),
        exhausted=(),
    )


def verify_cost_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    assert dataset.exact, "reference for the exact lane only"
    ev = coerce_efficiency(e, dataset)
    cm = cross_expenditures(dataset)
    n = dataset.n_observations
    n_goods = dataset.n_goods
    gradients, offsets = utility_profile(solution, dataset)
    rngs = _child_rngs(seed, n)
    box_hi = 2.0 * dataset.bundle_array.max(axis=0)
    observed_values = (dataset.bundle_array @ gradients.T + offsets).min(axis=1)

    n_reject = n_samples // 2
    n_rays = n_samples - n_reject

    summaries = []
    violations = []
    exhausted = []
    for t in range(n):
        rng = rngs[t]
        budget = ev[t] * cm.costs[t][t]
        level_f = float(observed_values[t])

        draws = rng.uniform(size=(n_reject, n_goods)) * box_hi
        draw_values = (draws @ gradients.T + offsets).min(axis=1)
        accepted = draws[draw_values >= level_f]
        if n_reject and not accepted.size:
            exhausted.append(t)

        ray_points = _ray_level_points(
            rng, gradients, offsets, level_f, n_rays, n_goods
        )
        observed_in = dataset.bundle_array[observed_values >= level_f]
        pts = np.vstack([accepted, ray_points, observed_in])

        bad_here = 0
        checked = 0
        level = evaluate_utility(solution, dataset, dataset.bundles[t])
        price_row = dataset.prices[t]
        for raw in pts.tolist():
            coords = _exact_bundle(raw)
            value = evaluate_utility(solution, dataset, coords)
            if value < level:
                # Float rounding may leave a ray point a sliver under
                # the exact level; nudge outward once, else drop it.
                coords = [c * Fraction(1_000_000_001, 1_000_000_000) for c in coords]
                value = evaluate_utility(solution, dataset, coords)
                if value < level:
                    continue
            checked += 1
            spend = sum(p * c for p, c in zip(price_row, coords))
            if spend < budget:
                bad_here += 1
                violations.append(SampleViolation(
                    observation=t,
                    bundle=tuple(float(c) for c in coords),
                    lhs=float(spend),
                    rhs=float(budget),
                ))
        summaries.append(ObservationSummary(t, checked, bad_here))

    return VerificationReport(
        kind="cost-rationalization",
        requested_per_observation=n_samples,
        seed=seed,
        per_observation=tuple(summaries),
        violations=tuple(violations),
        exhausted=tuple(exhausted),
    )
