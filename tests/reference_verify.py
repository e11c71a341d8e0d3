"""Test-only references for the sampling verifiers and the Afriat check.

On the exact lane these are the bodies of ``verify_rationalization`` and
``verify_cost_rationalization`` before the float64 filter: every sampled
point is evaluated in ``Fraction`` arithmetic, one full evaluation of the
recovered utility per point.  They are slow on purpose, and the filtered
verifiers must reproduce their reports field for field (the filter's own
counters aside).  On the float lane they are the bodies before the
own-piece screen, the reused workspace and the row blocks: every budget
sample is evaluated on all T pieces, and every product is one product
over all of an observation's rows, into a fresh array.  Both take U at the
observed bundles from one product over all of them, as the verifiers do.
``_ray_level_points`` and the float-lane ``worst_residual`` loop are the
versions before those changes too.  Sampling draws the same points from
the same per-observation streams.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from garpkit.afriat import AfriatSolution, evaluate_utility, utility_profile
from garpkit.duality import (
    _MAX_NUDGES,
    ObservationSummary,
    SampleViolation,
    VerificationReport,
    _child_rngs,
    _exact_bundle,
)
from garpkit.model import CHECK_RTOL, Dataset, coerce_efficiency, cross_expenditures
from garpkit.model import CHECK_RTOL as FLOAT_RTOL  # the verifiers' allowance
from reference_compare import leq


def _ray_level_points(rng, gradients, offsets, level: float,
                      n_rays: int, n_goods: int) -> np.ndarray:
    directions = rng.uniform(size=(n_rays, n_goods))
    degenerate = ~directions.any(axis=1)
    if degenerate.any():
        directions[degenerate] = 1.0
    slopes = directions @ gradients.T  # strictly positive: prices > 0
    alpha = ((level - offsets) / slopes).max(axis=1)
    # Strictly increasing utility puts the origin strictly under the level
    # of any observed (nonzero) bundle, so the crossing is at alpha > 0.
    np.maximum(alpha, 0.0, out=alpha)
    bump = 1e-12
    for _ in range(_MAX_NUDGES):
        short = (alpha[:, None] * slopes + offsets).min(axis=1) < level
        if not short.any():
            break
        alpha[short] = alpha[short] * (1.0 + bump) + 1e-300
        bump *= 2.0
    return alpha[:, None] * directions


def worst_residual(solution: AfriatSolution, dataset: Dataset):
    costs = cross_expenditures(dataset).tolist()
    ev = solution.efficiency
    n = dataset.n_observations
    worst = Fraction(0) if dataset.exact else 0.0
    for t in range(n):
        own = ev[t] * costs[t][t]
        for s in range(n):
            margin = solution.phi[s] - solution.phi[t] - solution.lam[t] * (
                costs[t][s] - own
            )
            if not dataset.exact:
                scale = max(
                    1.0,
                    abs(solution.phi[s]),
                    abs(solution.phi[t]),
                    solution.lam[t] * (costs[t][s] + own),
                )
                margin -= CHECK_RTOL * scale
            if margin > worst:
                worst = margin
    return worst


def _float_verify_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                  n_samples: int, seed: int) -> VerificationReport:
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset).tolist()
    n = dataset.n_observations
    n_goods = dataset.n_goods
    gradients, offsets = utility_profile(solution, dataset)
    rngs = _child_rngs(seed, n)
    observed = (dataset.bundle_array @ gradients.T + offsets).min(axis=1)

    summaries = []
    violations = []
    for t in range(n):
        rng = rngs[t]
        budget = ev[t] * costs[t][t]
        budget_f = float(budget)
        weights = rng.dirichlet(np.ones(n_goods), size=n_samples)
        radial = rng.uniform(size=(n_samples, 1))
        proposals = radial * weights * (budget_f / dataset.price_array[t])
        drawn = np.vstack([proposals, np.zeros((1, n_goods))])
        inside = [s for s in range(n) if leq(costs[t][s], budget, dataset.rel_tol)]
        points = np.vstack([drawn, dataset.bundle_array[inside]])

        count = points.shape[0]
        bad_here = 0
        # U at an observed bundle, its own level included, is its value in
        # one product over all the bundles.
        level = float(observed[t])
        values = np.concatenate([(drawn @ gradients.T + offsets).min(axis=1), observed[inside]])
        margin = FLOAT_RTOL * np.maximum(1.0, np.maximum(abs(level), np.abs(values)))
        bad = np.flatnonzero(values > level + margin)
        bad_here = bad.size
        for i in bad:
            violations.append(SampleViolation(
                observation=t,
                bundle=tuple(points[i].tolist()),
                lhs=float(values[i]),
                rhs=level,
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


def _float_verify_cost_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                       n_samples: int, seed: int) -> VerificationReport:
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset).tolist()
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
        budget = ev[t] * costs[t][t]
        budget_f = float(budget)
        price_f = dataset.price_array[t]
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
        checked = pts.shape[0]
        if checked:
            costs_at_t = pts @ price_f
            bad = np.flatnonzero(costs_at_t < budget_f * (1.0 - FLOAT_RTOL))
            bad_here = bad.size
            for i in bad:
                violations.append(SampleViolation(
                    observation=t,
                    bundle=tuple(pts[i].tolist()),
                    lhs=float(costs_at_t[i]),
                    rhs=budget_f,
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


def verify_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                           n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    if not dataset.exact:
        return _float_verify_rationalization(dataset, e, solution, n_samples, seed)
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset).tolist()
    n = dataset.n_observations
    n_goods = dataset.n_goods
    rngs = _child_rngs(seed, n)

    summaries = []
    violations = []
    for t in range(n):
        rng = rngs[t]
        budget = ev[t] * costs[t][t]
        budget_f = float(budget)
        weights = rng.dirichlet(np.ones(n_goods), size=n_samples)
        radial = rng.uniform(size=(n_samples, 1))
        proposals = radial * weights * (budget_f / dataset.price_array[t])
        extras = [np.zeros(n_goods)]
        for s in range(n):
            if leq(costs[t][s], budget, dataset.rel_tol):
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
    if not dataset.exact:
        return _float_verify_cost_rationalization(dataset, e, solution, n_samples, seed)
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset).tolist()
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
        budget = ev[t] * costs[t][t]
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
