"""Sampling-based verification of rationalization and cost-rationalization.

A recovered utility rationalizes the data when every point of each deflated
budget set ``B[t] = { x >= 0 : p[t] . x <= e[t] * costs[t][t] }`` gets at
most the utility of the chosen bundle.  It cost-rationalizes the data when
every point weakly better than the chosen bundle costs at least the deflated
expenditure.  Both statements quantify over continuums, so they are verified
here by sampling -- deliberately sharing nothing with the construction of
the utility beyond the ability to evaluate it.

Budget sets are sampled by uniform simplex allocations on the budget
hyperplane scaled by a uniform radial factor, plus the zero bundle and every
observed bundle that fits the budget.  Upper sets are sampled two ways:
rejection inside a box around the observed bundles, and utility level
crossings along random nonnegative rays from the origin (the boundary of the
upper set, where the cost test binds).  Per-observation RNG streams are
spawned from the master seed, so reports are reproducible and independent of
evaluation order.

On the exact lane, float proposals are converted to exact rationals and
membership is certified exactly before the violation test, which then
carries no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .afriat import AfriatSolution, evaluate_utility, utility_profile
from .model import Dataset, coerce_efficiency, cross_expenditures, leq, lt
from .revpref import check_e_garp

#: Float-lane violations must exceed this relative margin to be recorded.
FLOAT_RTOL = 1e-9

#: Cap on the outward-nudge loop that certifies ray points sit weakly above
#: the target level after float rounding; usually 0 or 1 passes are needed.
_MAX_NUDGES = 60


@dataclass(frozen=True)
class SampleViolation:
    """One sampled point that broke an inequality (values as floats)."""

    observation: int
    bundle: tuple[float, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ObservationSummary:
    observation: int
    samples: int
    violations: int


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    requested_per_observation: int
    seed: int
    per_observation: tuple[ObservationSummary, ...]
    violations: tuple[SampleViolation, ...]
    exhausted: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def total_samples(self) -> int:
        return sum(o.samples for o in self.per_observation)


def _child_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _exact_bundle(row) -> list[Fraction]:
    return [Fraction(float(v)) for v in row]


def verify_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                           n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Sample each deflated budget set and test ``U(x) <= U(x[t])``.

    Proposals are drawn on the budget hyperplane (uniform simplex allocation)
    and pulled inward by a uniform radial factor; the zero bundle and every
    observed bundle inside the budget are always included.  On the exact lane
    each proposal is scaled exactly back onto the budget set before testing,
    so recorded violations are exact facts, not rounding artifacts.
    """
    ev = coerce_efficiency(e, dataset)
    cm = cross_expenditures(dataset)
    n = dataset.n_observations
    n_goods = dataset.n_goods
    gradients, offsets = utility_profile(solution, dataset)
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
        if dataset.exact:
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
        else:
            level = float((dataset.bundle_array[t] @ gradients.T + offsets).min())
            values = (points @ gradients.T + offsets).min(axis=1)
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


def _ray_level_points(rng, gradients, offsets, level: float,
                      n_rays: int, n_goods: int) -> np.ndarray:
    """Points on (or certifiably above) the U = level surface along rays.

    Along a ray from the origin through direction d the utility is
    ``min_j(alpha * (d . g_j) + offset_j)``: increasing and piecewise linear
    in alpha, so it reaches ``level`` exactly where the slowest piece does,
    at ``alpha = max_j (level - offset_j) / (d . g_j)``.  Where rounding
    leaves the evaluated utility a hair under the level, alpha is nudged
    outward until the point certifies as weakly above.
    """
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


def verify_cost_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Sample each upper set and test ``p[t] . x >= e[t] * costs[t][t]``.

    Half the quota is rejection sampling in the box ``[0, 2 * column max]``
    around the observed bundles (an observation whose level exceeds the
    whole box yields zero acceptances and is reported as exhausted, not
    failed); the other half are utility-level crossings along random rays,
    which sit on the boundary of the upper set where the cost inequality is
    tight.  Observed bundles at or above the level are checked as well.
    """
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
        checked = 0
        if dataset.exact:
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
        else:
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


def check_duality_garp(dataset: Dataset, e,
                       reports: Iterable[Optional[VerificationReport]]) -> bool:
    """Material implication: clean verifications entail the e-GARP verdict.

    True when any report is missing (nothing was verified -- e.g. no
    solution exists) or any report recorded violations; otherwise returns
    the e-GARP verdict itself, which the clean verifications predict.
    """
    rs = list(reports)
    if any(r is None for r in rs) or not all(r.clean for r in rs):
        return True
    return check_e_garp(dataset, e, witness=False).holds
