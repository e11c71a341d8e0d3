"""Sampling-based verification of rationalization and cost-rationalization.

A recovered utility rationalizes the data when every point of each deflated
budget set ``B[t] = { x >= 0 : p[t] . x <= e[t] * costs[t][t] }`` gets at
most the utility of the chosen bundle.  It cost-rationalizes the data when
every point weakly better than the chosen bundle costs at least the deflated
expenditure.  Both statements quantify over continuums, so they are verified
here by sampling -- deliberately sharing nothing with the construction of
the utility beyond the ability to evaluate it.

Budget sets are sampled by uniform simplex allocations on the budget
hyperplane scaled by a uniform radial factor, plus the zero bundle.  Upper
sets are sampled two ways: rejection inside a box around the observed
bundles, and utility level crossings along random nonnegative rays from the
origin (the boundary of the upper set, where the cost test binds).

The observed bundles are not sampled.  Both verifiers decide them with the
levels ``at[s] = U(x[s])`` of :func:`_set_up` and the cross expenditures
``C[t, s] = p[t] . x[s]``, one rule on both lanes: observed bundle s in
budget t is a violation when ``at[s] > at[t]``, and one in the upper set
``at[s] >= at[t]`` when ``C[t, s]`` is under the deflated budget.  On the
exact lane ``at`` and C are exact, so these are facts about x[s] itself and
not about a float neighbour of it, and they carry no tolerance; on the
float lane the allowance below applies.  The exact levels are those of
:func:`.afriat._levels`, the one exact evaluation of U at the observed
bundles, which the Afriat post-check reads too.

Every draw comes from :mod:`.stream`: each observation t has a budget
stream and a ray stream of its own, and the cost verifier's box has one
stream shared by every observation.

On the exact lane, float proposals are converted to exact rationals and
membership is certified exactly before the violation test, which then
carries no tolerance at all.  A float64 filter decides first (the adaptive
predicate pattern of Shewchuk, 1997): :class:`.afriat._Filter`, the one
that brackets U at the observed bundles too.  It brackets the exact utility
of every sampled point between two floats under a rigorous forward error
bound, and a point whose bracket already settles its test is counted
without rational arithmetic.  Every other sampled point is decided exactly,
so reports are the all-rational ones and every reported violation is an
exact fact.  Deciding a point exactly evaluates only the pieces of U whose
float bracket reaches the level (every other piece is certainly beyond it),
and U is evaluated in full only to report a violation's value.  Without
normal float64 mirrors of the Afriat numbers the filter is vacuous: its
brackets are ``(-inf, inf)``, so it settles no point and every point is
decided exactly.  Exact data or Afriat numbers whose float64 mirror leaves
the range, and on both lanes a sampling box that overflows, are refused
(:class:`GarpkitError`).

The observed bundles in budget t are those t weakly reveals preference over,
read off :func:`.revpref.direct_relations`, so the budget-membership rule is
the relations' own on both lanes, and the relations the solver built at
that efficiency are read again rather than rebuilt.

On the float lane, a point is a violation only beyond the relative
allowance ``model.CHECK_RTOL``, the Afriat post-check's allowance too.
Budget samples are screened first.  U is the minimum of its pieces, so
piece t alone bounds U from above, and on budget t that bound is at most
``phi[t] <= U(x[t])``.  If piece t, plus a rigorous error term, keeps
every sample of an observation under the violation threshold, the
observation is clean and the T-piece product is skipped.  The screen is all
or nothing per observation: if any sample fails it, every sample of that
observation is evaluated on all T pieces, so reports are identical with
and without the screen.

U at the observed bundles is one decision per call: :func:`_set_up` takes
it for all T bundles in one ``T x T`` product, and on the float lane both
verifiers read an observed bundle's value there, as the level ``U(x[t])``
and when deciding the bundle, so the two halves of the duality test against
the same level and no observed bundle is evaluated twice.  That product is
one block of T rows, and is not split: a BLAS product over fewer rows may
round differently.

Each T-wide product ``points @ gradients.T`` -- of the cost verifier's
box draws and rays, and of the budget samples that fail the screen --
runs in row blocks, so no call holds a ``samples x T`` array.  The box is
drawn once per call, U is taken on it in one such product, and each
observation accepts the draws whose U reaches its level: every
observation gets ``samples // 2`` box draws, as many as a box of its own
would give, for one product instead of T.  A block has ``B = _BLOCK``
rows, or at T under ``_BLOCK`` as many as make ``_BLOCK ** 2`` entries, so
that the cost of a block stays large next to the Python work around it
(:func:`_block_rows`).
The cost verifier writes its blocks into one ``(2, B, T)`` workspace per
call, and the rationalization check into one ``(B, T)`` workspace per
observation that fails the screen.  One kernel, :func:`_utility_values`,
evaluates U a block at a time; only the ray search in
:func:`_ray_level_points` walks its blocks itself.  All points of a
product are drawn before its first block, and every row is computed on
its own, so blocks change no draw.  A BLAS product over a block of rows
need not round exactly like the same rows of one product over all of
them: with OpenBLAS 0.3.31, entries of the last few columns of a T = 300
product can differ by a few ulps between the two.  So a sample can change
sides only when its value lies within a few ulps of the level or
threshold it is tested against, exactly as it can between two BLAS
builds.

The float cost check is the cost half of the duality, and one inequality
settles it: piece t of U is a supporting hyperplane through ``x[t]``, so a
point at least as good as ``x[t]`` has piece t at least the level, and so
costs at least ``(level - offsets[t]) / lam[t]`` at prices ``p[t]``; for an
honest solution that is the deflated budget, or more.  Every point the
verifier checks for observation t -- an accepted box draw, a ray point on
the level surface, an observed bundle at or above the level, costed at
``C[t, s]`` -- obeys it up to rounding.  When that bound, less a rigorous
error term, clears the violation threshold, the observation is clean
without the T-wide ray search or the cost product
(:func:`_own_piece_certifies`).  Otherwise the
observation is checked point by point as before.  The rays of each
observation have a stream of their own, so reports are identical with and
without the certificate.  The exact lane does not use it: its
``checked``, ``nudged`` and ``dropped`` counts need every sampled point.

Both verifiers refuse a solution whose ``lam`` is not positive and finite:
U would not be increasing, and sampling along rays would divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .afriat import (_TINY, AfriatSolution, _levels, _normal, evaluate_utility,
                     utility_profile)
from .errors import GarpkitError
from .model import CHECK_RTOL, Dataset, coerce_efficiency, cross_expenditures
from .revpref import check_e_garp, direct_relations
from .stream import _BOX, _BUDGET, _RAYS, _check_count, _check_seed, _uniforms

#: Cap on the outward-nudge loop that certifies ray points sit weakly above
#: the target level after float rounding; usually 0 or 1 passes are needed.
_MAX_NUDGES = 60

#: Exact-lane outward nudge of an upper-set point left under the level.
_NUDGE = Fraction(1_000_000_001, 1_000_000_000)

#: Rows per block of the float verifiers' ``points @ gradients.T`` products
#: at T >= _BLOCK pieces (see :func:`_block_rows`).
_BLOCK = 256


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
    """Outcome of one sampling verification.

    ``exact_certified`` counts the sampled points decided in exact arithmetic
    because the float64 filter could not settle them; ``nudged`` counts
    sampled upper-set points that sat under the exact level and were counted
    after the outward nudge, ``dropped`` those still under it and left out.
    The observed bundles, decided from their levels, count in none of the
    three.  All three stay 0 on the float lane.
    """

    kind: str
    requested_per_observation: int
    seed: int
    per_observation: tuple[ObservationSummary, ...]
    violations: tuple[SampleViolation, ...]
    exhausted: tuple[int, ...]
    exact_certified: int = 0
    nudged: int = 0
    dropped: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def total_samples(self) -> int:
        return sum(o.samples for o in self.per_observation)


def _exact_bundle(row) -> list[Fraction]:
    return [Fraction(float(v)) for v in row]


def _block_rows(n_rows: int, n_pieces: int) -> int:
    """Rows per block of an ``n_rows x n_pieces`` product: ``_BLOCK``, or
    ``_BLOCK ** 2 // n_pieces`` when that is more, but no more than
    ``n_rows`` and at least 1.

    At small T a block of ``_BLOCK`` rows is too small a product to hide
    the numpy calls around it, and fixed 256-row blocks would make small
    tables slower than one product over all rows.
    """
    return max(1, min(n_rows, max(_BLOCK, _BLOCK * _BLOCK // n_pieces)))


def _row_blocks(n_rows: int, size: int) -> list[slice]:
    """Consecutive slices of at most ``size`` rows covering ``range(n_rows)``."""
    return [slice(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


def _utility_values(points: np.ndarray, gradients: np.ndarray, offsets: np.ndarray,
                    work: np.ndarray) -> np.ndarray:
    """U at every point, the minimum over pieces of ``points @ gradients.T +
    offsets``, taken ``len(work)`` rows at a time in the ``(B, T)`` float64
    workspace ``work``."""
    values = np.empty(points.shape[0])
    for rows in _row_blocks(points.shape[0], work.shape[0]):
        block = np.matmul(points[rows], gradients.T, out=work[:rows.stop - rows.start])
        np.add(block, offsets, out=block)
        np.min(block, axis=1, out=values[rows])
    return values


def _own_piece_clears(points: np.ndarray, gradient: np.ndarray, offset: float,
                      level: float) -> bool:
    """Whether piece t alone shows no float-lane violation among ``points``.

    The full evaluation computes ``v = fl(fl(x . g) + o)`` for every piece
    and flags ``min v > level + CHECK_RTOL * max(1, |level|, |min v|)``.
    Its piece t, ``v_t``, bounds ``min v`` from above, but it is a different
    rounding of the same dot product than the ``d = fl(x . g)`` and
    ``s = fl(d + o)`` computed here.  Points and gradients are nonnegative
    (``lam > 0``, prices > 0), so both dot products lie within ``gamma_L D``
    of the exact ``D = x . g``, in any order, with or without fused
    multiply-adds (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).  Following the roundings gives ``v_t <= s + (2u +
    u**2) |s| + 2.001 L u d``, with ``u = 2**-53``; the bound ``s + c u (|s|
    + d)`` with ``c = 2 (L + 2)`` covers that plus the roundings made in
    forming it.  Underflowing products are covered by the absolute
    ``2**-1000``; an overflow gives a bound that is not finite and fails the
    screen.  A bound at most ``level + CHECK_RTOL / 2 * max(1, |level|)`` is
    then, rounding being monotone, under the full evaluation's threshold.
    """
    unit = 2 * (points.shape[1] + 2) * 2.0 ** -53
    with np.errstate(over="ignore", invalid="ignore"):
        dots = points @ gradient
        piece = dots + offset
        bound = piece + unit * (np.abs(piece) + dots) + _TINY
    return bool((bound <= level + 0.5 * CHECK_RTOL * max(1.0, abs(level))).all())


def _own_piece_certifies(gradient: np.ndarray, offset: float, lam: float,
                         level: float, threshold: float) -> bool:
    """Whether every upper-set point of an observation costs at least
    ``threshold`` in float, shown by its own piece alone.

    This is the cost half of the duality: piece t, ``g . x + o`` with
    ``g = fl(lam * p[t])`` and ``o = offsets[t]``, is a supporting hyperplane
    at ``x[t]``, so a point at least as good as ``x[t]`` has ``g . x >= level
    - o`` and costs ``p[t] . x >= (level - o) / lam``, up to rounding.

    The points are the three kinds the float cost verifier checks, all
    nonnegative: box draws and observed bundles whose piece t evaluates to
    ``fl(fl(x . g) + o) >= level``, and ray points ``fl(alpha * d)`` with
    ``alpha >= fl(fl(level - o) / fl(d . g))`` (nudges and ``max(alpha,
    0)`` only raise alpha; a NaN alpha gives a NaN point, which is never
    flagged).  With ``u = 2**-53``, ``m = |level| + |o|`` and each dot
    product within ``gamma_L`` of its exact value in any order, with or
    without fused multiply-adds (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3), the first two kinds have exact ``x . g
    >= level - o - (gamma_L + u) m``, and ray points ``x . g >= level - o -
    (gamma_L + 3u) m``.  The ray bound needs ``fl(d . g)`` free of
    underflow: the directions are draws of :func:`_uniforms`, odd
    multiples of ``2**-53`` in (0, 1), so every ``g`` at least
    ``2**-960`` keeps each product normal; that also makes ``g <=
    lam p[t] (1 + u)``.  So ``p[t] . x >= (x . g) / (lam (1 + u))``, and
    the float cost ``fl(x . p[t])`` loses at most ``gamma_L`` more.

    The bound computed here, ``((level - o) - c u m - 2**-1000 (1 + sum g))
    / lam * (1 - c u) - 2**-1000`` with ``c = 2 (L + 4)``, covers those
    terms, about ``(L + 3) u m`` and ``(L + 1) u`` relative, plus the
    roundings made in forming it; the absolute ``2**-1000`` terms cover
    products that underflow.  A negative bound proves nothing, but then it
    is under any positive threshold, and a float cost is never negative.
    A bound that is not finite, or NaN input, fails.
    """
    unit = 2 * (gradient.shape[0] + 4) * 2.0 ** -53
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reach = ((level - offset) - unit * (abs(level) + abs(offset))
                 - _TINY * (1.0 + float(gradient.sum())))
        bound = reach / lam * (1.0 - unit) - _TINY
    return bool(np.isfinite(bound) and bound >= threshold
                and gradient.min() >= 2.0 ** -960)


def _set_up(dataset: Dataset, e, solution: AfriatSolution) -> tuple:
    """What both verifiers decide with: ``(ev, costs, gradients, offsets,
    observed, own, flt, at)``, ``own`` and ``flt`` None on the float lane.

    ``ev`` is the efficiency, ``costs`` the cross expenditures, and
    ``gradients`` and ``offsets`` the ``utility_profile``.  ``observed[t]``
    is the float ``U(x[t])``, taken for all T bundles in one product: every
    float level that sampling tests against reads it there.  ``at[t]`` is
    ``U(x[t])`` on the lane's numbers, which decides the observed bundles:
    ``observed`` itself on the float lane, the exact levels as an object
    array on the exact lane.  Points are drawn in float64 from the
    dataset's cached mirrors of the prices, bundles and cross expenditures
    (:func:`.model.float_mirror`) and from the utility's; exact data with an
    entry whose mirror is not normal (it overflows, or a nonzero entry
    underflows out of the normal range) is refused, as it would draw them
    from other data, and so are Afriat numbers whose mirror overflows.  On
    the exact lane ``own``, ``flt`` and the exact levels are those of
    :func:`.afriat._levels`, the one exact evaluation of U at the observed
    bundles that the Afriat post-check reads too.
    """
    if not all(0 < v < float("inf") for v in solution.lam):
        raise GarpkitError(
            "every lam of the solution must be positive and finite: otherwise "
            "the recovered utility is not increasing"
        )
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset)
    own = flt = at = None
    if not dataset.exact:
        gradients, offsets = utility_profile(solution, dataset)
    else:
        zero = np.array([[v == 0 for v in row] for row in dataset.bundles])
        if not (_normal(dataset.price_array).all() and _normal(dataset.cost_array).all()
                and (_normal(dataset.bundle_array) | zero).all()):
            raise GarpkitError(
                "exact data outside the float64 range: sampling draws points from "
                "a float64 mirror of the prices and bundles, and that mirror "
                "overflows or underflows"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            gradients, offsets = utility_profile(solution, dataset)
        if not (np.isfinite(gradients).all() and np.isfinite(offsets).all()):
            raise GarpkitError("Afriat numbers outside the float64 range: the float64 "
                               "mirror of the recovered utility overflows")
        own, flt, at = _levels(solution, dataset)
    n = dataset.n_observations
    observed = _utility_values(dataset.bundle_array, gradients, offsets, np.empty((n, n)))
    return ev, costs, gradients, offsets, observed, own, flt, observed if at is None else at


def _violations(t: int, bundles: np.ndarray, lhs, rhs) -> list[SampleViolation]:
    """A violation of observation t for each row of ``bundles``, with its
    entry of ``lhs`` and the common ``rhs``, as floats."""
    return [SampleViolation(t, tuple(row), float(value), float(rhs))
            for row, value in zip(bundles.tolist(), lhs)]


def _beats(values: np.ndarray, level, exact: bool) -> np.ndarray:
    """Where ``values`` are over ``level``: strictly on the exact lane, and
    beyond the allowance ``CHECK_RTOL * max(1, |level|, |value|)`` on the
    float lane."""
    if exact:
        return values > level
    return values > level + CHECK_RTOL * np.maximum(1.0, np.maximum(abs(level), np.abs(values)))


def _neighbours(value) -> tuple[float, float]:
    """Floats strictly below and strictly above the exact ``value``.

    ``float(Fraction)`` rounds correctly, so the exact value lies strictly
    between the neighbours of its nearest float.
    """
    try:
        nearest = float(value)
    except OverflowError:
        return -np.inf, np.inf
    return float(np.nextafter(nearest, -np.inf)), float(np.nextafter(nearest, np.inf))


def verify_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                           n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Sample each deflated budget set and test ``U(x) <= U(x[t])``.

    Proposals are drawn on the budget hyperplane (uniform simplex allocation)
    and pulled inward by a uniform radial factor, and the zero bundle is
    always included.  Every observed bundle x[s] inside the budget is
    checked too, without sampling: it is a violation when ``U(x[s]) >
    U(x[t])``, read off the levels of :func:`_set_up`, exactly on the exact
    lane and beyond the allowance on the float lane; its report carries
    ``x[s]`` and the two levels.  On the exact lane each proposal is scaled
    exactly back onto the budget set before testing, so recorded violations
    are exact facts, not rounding artifacts; a point the float filter places
    strictly under the level is not a violation whether scaled or not (U is
    increasing), and skips the exact test.  The exact test tries only the
    pieces whose float bracket reaches the level (a scaled point gets a
    bracket of its own), and evaluates U in full only for a violation.  On
    the float lane an observation whose own piece clears every sample is
    clean without evaluating the other pieces (:func:`_own_piece_clears`);
    otherwise its samples are evaluated on all T pieces, a block of rows at
    a time.

    Raises:
        GarpkitError: ``n_samples`` is not an integer of at least 1, ``seed``
            is not a non-negative integer, some ``lam`` is not positive and
            finite, or exact data or Afriat numbers lie outside the float64
            range.
    """
    _check_count(n_samples, "n_samples", GarpkitError)
    _check_seed(seed, GarpkitError)
    ev, costs, gradients, offsets, observed, own, flt, at = _set_up(dataset, e, solution)
    inside = direct_relations(dataset, ev).weak
    n = dataset.n_observations
    n_goods = dataset.n_goods

    summaries = []
    violations = []
    exact_certified = 0
    for t in range(n):
        budget = ev[t] * costs[t, t]
        budget_f = float(budget)
        draw = _uniforms(seed, _BUDGET, t, n_samples, n_goods + 1)
        # Dirichlet(1, ..., 1) allocations, normalised exponentials -log u,
        # scaled by the radial factor, the last column.
        logs = np.log(draw[:, :n_goods])
        proposals = logs * (draw[:, n_goods] / (logs @ np.ones(n_goods)))[:, None]
        proposals *= budget_f / dataset.price_array[t]
        points = np.vstack([proposals, np.zeros((1, n_goods))])

        level = at[t]
        first = len(violations)
        if dataset.exact:
            below, above = _neighbours(level)
            spend_f = points @ dataset.price_array.T
            lo, hi = flt.terms(spend_f)
            settled = hi.min(axis=1) <= below
            exact_certified += points.shape[0] - int(settled.sum())
            # Per point, the pieces of U that may be at or under the level.
            open_pieces = lo < above
            price_row = dataset.prices[t]
            for i in np.flatnonzero(~settled):
                coords = _exact_bundle(points[i])
                pieces = open_pieces[i]
                spend = sum(p * c for p, c in zip(price_row, coords))
                if spend > budget:
                    shrink = budget / spend
                    coords = [c * shrink for c in coords]
                    # Scaled by a rounded factor, as the nudge is: the
                    # shrunk point's own bracket.
                    pieces = flt.terms(spend_f[i] * float(shrink))[0] < above
                if _under_level(dataset, solution, own, level, coords, pieces, at=True):
                    continue
                # Every piece is above the level: a violation, and U is
                # evaluated only to report its value.
                violations.append(SampleViolation(
                    observation=t,
                    bundle=tuple(float(c) for c in coords),
                    lhs=float(evaluate_utility(solution, dataset, coords)),
                    rhs=float(level),
                ))
        elif not _own_piece_clears(points, gradients[t], offsets[t], level):
            work = np.empty((_block_rows(points.shape[0], n), n))
            values = _utility_values(points, gradients, offsets, work)
            bad = _beats(values, level, exact=False)
            violations += _violations(t, points[bad], values[bad], level)
        # The observed bundles in budget t: no sampling, one comparison of
        # their levels with U(x[t]).
        mine = np.flatnonzero(inside[t])
        over = mine[_beats(at[mine], level, dataset.exact)]
        violations += _violations(t, dataset.bundle_array[over], at[over], level)
        summaries.append(ObservationSummary(t, points.shape[0] + mine.size,
                                            len(violations) - first))

    return VerificationReport(
        kind="rationalization",
        requested_per_observation=n_samples,
        seed=seed,
        per_observation=tuple(summaries),
        violations=tuple(violations),
        exhausted=(),
        exact_certified=exact_certified,
    )


def _ray_level_points(directions: np.ndarray, gradients, offsets, level: float,
                      work: np.ndarray) -> np.ndarray:
    """Points on (or certifiably above) the U = level surface along rays.

    Along a ray from the origin through direction d the utility is
    ``min_j(alpha * (d . g_j) + offset_j)``: increasing and piecewise linear
    in alpha, so it reaches ``level`` exactly where the slowest piece does,
    at ``alpha = max_j (level - offset_j) / (d . g_j)``.  Where rounding
    leaves the evaluated utility a hair under the level, alpha is nudged
    outward until the point certifies as weakly above.

    ``directions`` are positive, one row per ray.  ``work``, a float64
    array of shape ``(2, m, T)``, receives the T-wide products of ``m`` rays
    at a time.  Every ray is independent of the others, so the points
    depend neither on ``m`` nor on the contents of ``work``, up to how the
    BLAS rounds a product over ``m`` rows (see the module docstring).
    """
    n_rays = directions.shape[0]
    reach = level - offsets
    alpha = np.empty(n_rays)
    for rows in _row_blocks(n_rays, work.shape[1]):
        # Strictly positive: prices > 0.
        slopes = np.matmul(directions[rows], gradients.T, out=work[0, :rows.stop - rows.start])
        values = work[1, :slopes.shape[0]]
        np.divide(reach, slopes, out=values)
        block = alpha[rows]
        np.max(values, axis=1, out=block)
        # Strictly increasing utility puts the origin strictly under the level
        # of any observed (nonzero) bundle, so the crossing is at alpha > 0.
        np.maximum(block, 0.0, out=block)
        np.multiply(block[:, None], slopes, out=values)
        np.add(values, offsets, out=values)
        short = np.flatnonzero(values.min(axis=1) < level)
        bump = 1e-12
        for _ in range(_MAX_NUDGES):
            if not short.size:
                break
            block[short] = block[short] * (1.0 + bump) + 1e-300
            bump *= 2.0
            # A row that reached the level is never nudged again, so only the
            # rows still short need checking.
            short = short[(block[short, None] * slopes[short] + offsets).min(axis=1) < level]
    return alpha[:, None] * directions


def _under_level(dataset: Dataset, solution: AfriatSolution, own: list, level,
                 coords: list, open_pieces: np.ndarray, at: bool = False) -> bool:
    """Whether the exact ``U(coords) < level`` (``<= level`` with ``at``),
    that is, whether some piece is.

    Only the pieces set in ``open_pieces``, the point's row, are tried: those
    whose float lower bound reaches below the float just above the level.
    Every other piece is certainly above the level, so the answer is the same.
    """
    for s in np.flatnonzero(open_pieces).tolist():
        spent = sum(p * c for p, c in zip(dataset.prices[s], coords))
        term = solution.phi[s] + solution.lam[s] * (spent - own[s])
        if term < level or (at and term == level):
            return True
    return False


def verify_cost_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Sample each upper set and test ``p[t] . x >= e[t] * costs[t][t]``.

    Half the quota is rejection sampling in the box ``[0, 2 * column max]``
    around the observed bundles: ``n_samples // 2`` draws, taken once per
    call from one stream and shared by every observation, each of which
    accepts the draws whose utility reaches its level (an observation whose
    level exceeds the whole box yields zero acceptances and is reported as
    exhausted, not failed).  The other half are utility-level crossings
    along random rays, from the observation's own stream, which sit on the
    boundary of the upper set where the cost inequality is tight.  Every
    observed bundle x[s] with ``U(x[s]) >= U(x[t])`` is checked as well,
    without sampling: membership reads the levels of :func:`_set_up`, and
    the bundle is a violation when ``costs[t][s]`` is under the deflated
    budget (on the float lane, under it less the allowance).

    On the exact lane one pass tests each sampled point exactly against the
    level, on the pieces whose float bracket reaches below it: a point under
    it is nudged outward by a factor 1.000000001, dropped if still under it,
    and else costed exactly.  A point the float filter settles (nudged, it is
    certainly above the level; it certainly costs more than the budget) is
    counted and clean, and is tested only for the ``nudged`` count.  On
    the float lane an observation whose own piece certifies every such
    point (:func:`_own_piece_certifies`) is clean without drawing its rays.

    U on the box, one ``n_samples // 2 x T`` product per call, and on the
    rays is evaluated a block of rows at a time in one ``(2, B, T)``
    workspace (:func:`_block_rows`): all draws of a product are taken from
    their stream first, and the accepted ones keep their order.

    Raises:
        GarpkitError: as :func:`verify_rationalization`, or the sampling box
            lies outside the float64 range.
    """
    _check_count(n_samples, "n_samples", GarpkitError)
    _check_seed(seed, GarpkitError)
    ev, costs, gradients, offsets, observed, own, flt, at = _set_up(dataset, e, solution)
    n = dataset.n_observations
    n_goods = dataset.n_goods
    with np.errstate(over="ignore"):
        box_hi = 2.0 * dataset.bundle_array.max(axis=0)
    if not np.isfinite(box_hi).all():
        raise GarpkitError(f"{'exact' if dataset.exact else 'float'} data outside the float64 "
                           "range: the sampling box, twice the largest bundles, overflows")

    n_reject = n_samples // 2
    n_rays = n_samples - n_reject
    # One workspace for the T-wide box and ray products, a block of rows at
    # a time.
    work = np.empty((2, _block_rows(max(n_reject, n_rays), n), n))
    # One box sample for every observation, and U on it in one product.
    draws = _uniforms(seed, _BOX, 0, n_reject, n_goods) * box_hi
    draw_values = _utility_values(draws, gradients, offsets, work[1])
    # Equal levels share a rank and a higher level has a higher one, so one
    # sort of the exact levels spares T^2 Fraction comparisons.  Float levels
    # compare as cheaply as ranks, and sorting them would load numpy's SIMD
    # sort, 0.3 MB more memory for the float verify run.
    rank = np.searchsorted(np.sort(at), at) if dataset.exact else at

    summaries = []
    violations = []
    exhausted = []
    exact_certified = nudged = dropped = 0
    for t in range(n):
        budget = ev[t] * costs[t, t]
        budget_f = float(budget)
        level_f = float(observed[t])

        accepted = draws[draw_values >= level_f]
        if n_reject and not accepted.size:
            exhausted.append(t)

        # The observed bundles at least as good as x[t].
        upper = np.flatnonzero(rank >= rank[t])
        threshold = budget if dataset.exact else budget_f * (1.0 - CHECK_RTOL)
        if not dataset.exact and _own_piece_certifies(
                gradients[t], offsets[t], float(solution.lam[t]), level_f, threshold):
            # The rays of t have a stream of their own, so skipping them
            # changes no other observation's points.
            summaries.append(ObservationSummary(t, accepted.shape[0] + n_rays + upper.size, 0))
            continue
        ray_points = _ray_level_points(_uniforms(seed, _RAYS, t, n_rays, n_goods),
                                       gradients, offsets, level_f, work)
        pts = np.vstack([accepted, ray_points])

        first = len(violations)
        if dataset.exact:
            level = at[t]
            # Per point, the pieces of U that may be under the level, before
            # and after the nudge.
            spend_f = pts @ dataset.price_array.T
            above = _neighbours(level)[1]
            before = flt.terms(spend_f)[0] < above
            after = flt.terms(spend_f * float(_NUDGE))[0] < above
            settled = (~after.any(axis=1)
                       & (flt.spend_floor(spend_f[:, t]) >= _neighbours(budget)[1]))
            checked = int(settled.sum())
            exact_certified += pts.shape[0] - checked
            price_row = dataset.prices[t]
            # A point with no open piece is above the level.  A settled point
            # is counted and clean, nudged or not, and is converted only for
            # the nudged count; any other point under the level is nudged
            # outward once and dropped if still under it.
            for i in np.flatnonzero(~settled | before.any(axis=1)):
                coords = _exact_bundle(pts[i])
                bumped = _under_level(dataset, solution, own, level, coords, before[i])
                if settled[i]:
                    nudged += bumped
                    continue
                if bumped:
                    coords = [c * _NUDGE for c in coords]
                    if _under_level(dataset, solution, own, level, coords, after[i]):
                        dropped += 1
                        continue
                    nudged += 1
                checked += 1
                spend = sum(p * c for p, c in zip(price_row, coords))
                if spend < budget:
                    violations.append(SampleViolation(
                        observation=t,
                        bundle=tuple(float(c) for c in coords),
                        lhs=float(spend),
                        rhs=float(budget),
                    ))
        else:
            checked = pts.shape[0]
            spent = pts @ dataset.price_array[t]
            bad = spent < threshold
            violations += _violations(t, pts[bad], spent[bad], budget)
        # No sampling for the observed bundles: p[t] . x[s] is costs[t, s].
        cheap = upper[costs[t, upper] < threshold]
        violations += _violations(t, dataset.bundle_array[cheap], costs[t, cheap], budget)
        summaries.append(ObservationSummary(t, checked + upper.size, len(violations) - first))

    return VerificationReport(
        kind="cost-rationalization",
        requested_per_observation=n_samples,
        seed=seed,
        per_observation=tuple(summaries),
        violations=tuple(violations),
        exhausted=tuple(exhausted),
        exact_certified=exact_certified,
        nudged=nudged,
        dropped=dropped,
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
