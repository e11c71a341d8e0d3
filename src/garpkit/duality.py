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
carries no tolerance at all.  A float64 filter decides first (the adaptive
predicate pattern of Shewchuk, 1997): it brackets the exact utility of every
sampled point between two floats under a rigorous forward error bound, and a
point whose bracket already settles its test is counted without rational
arithmetic.  Every other point -- the observed bundles on their own level
surface, for instance -- is decided exactly, so reports are the all-rational
ones and every reported violation is an exact fact.  Deciding a point
exactly evaluates only the pieces of U whose float bracket reaches the
level (every other piece is certainly beyond it), and U is evaluated in
full only to report a violation's value.  Without normal float64
mirrors of the Afriat numbers the filter is vacuous: its brackets are
``(-inf, inf)``, so it settles no point and every point is decided exactly.
Exact data whose float64 mirror overflows or underflows cannot be sampled
and is refused with a :class:`GarpkitError`.

The observed bundles in budget t are those t weakly reveals preference over,
read off :func:`.revpref.direct_relations`, so the budget-membership rule is
the relations' own on both lanes, and the relations the solver built at
that efficiency are read again rather than rebuilt.

On the float lane, a sample is a violation only beyond the relative
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
and as a sample, so the two halves of the duality test against the same
level and no observed bundle is evaluated twice.  That product is one
block of T rows, and is not split: a BLAS product over fewer rows may
round differently.

Each per-observation T-wide product ``points @ gradients.T`` -- of the
box draws and the rays of the cost verifier, and of the budget samples
that fail the screen -- runs in row blocks, so no observation holds a
``samples x T`` array.  A block has ``B = _BLOCK`` rows, or at T under
``_BLOCK`` as many as make ``_BLOCK ** 2`` entries, so that the cost of a
block stays large next to the Python work around it (:func:`_block_rows`).
The cost verifier writes its blocks into one ``(2, B, T)`` workspace per
call, and the rationalization check into one ``(B, T)`` workspace per
observation that fails the screen.  One kernel, :func:`_utility_values`,
evaluates U a block at a time; only the ray search in
:func:`_ray_level_points` walks its blocks itself.  All of an
observation's points are drawn before its first block, and every row is
computed on its own, so blocks change no draw.  A BLAS product over a
block of rows need not round exactly like the same rows of one product
over all of them: with OpenBLAS 0.3.31, entries of the last few columns
of a T = 300 product can differ by a few ulps between the two.  So a
sample can change sides only when its value lies within a few ulps of the
level or threshold it is tested against, exactly as it can between two
BLAS builds.

The float cost check is the cost half of the duality, and one inequality
settles it: piece t of U is a supporting hyperplane through ``x[t]``, so a
point at least as good as ``x[t]`` has piece t at least the level, and so
costs at least ``(level - offsets[t]) / lam[t]`` at prices ``p[t]``; for an
honest solution that is the deflated budget, or more.  Every point the
verifier checks for observation t -- an accepted box draw, a ray point on
the level surface, an observed bundle at or above the level -- obeys it up
to rounding.  When that bound, less a rigorous error term, clears the
violation threshold, the observation is clean without the T-wide ray
search or the cost product (:func:`_own_piece_certifies`).  Otherwise the
observation is checked point by point as before.  Each observation has its
own RNG stream and nothing reads it after the rays, so reports are
identical with and without the certificate.  The exact lane does not use
it: its ``checked``, ``nudged`` and ``dropped`` counts need every point.

Both verifiers refuse a solution whose ``lam`` is not positive and finite:
U would not be increasing, and sampling along rays would divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .afriat import AfriatSolution, evaluate_utility, utility_profile
from .errors import GarpkitError
from .model import CHECK_RTOL, Dataset, coerce_efficiency, cross_expenditures
from .revpref import check_e_garp, direct_relations

#: Cap on the outward-nudge loop that certifies ray points sit weakly above
#: the target level after float rounding; usually 0 or 1 passes are needed.
_MAX_NUDGES = 60

#: Exact-lane outward nudge of an upper-set point left under the level.
_NUDGE = Fraction(1_000_000_001, 1_000_000_000)

#: Absolute slack of the filter's error bound for underflowing products.
_TINY = 2.0 ** -1000

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

    ``exact_certified`` counts the points decided in exact arithmetic because
    the float64 filter could not settle them; ``nudged`` counts upper-set
    points that sat under the exact level and were counted after the outward
    nudge, ``dropped`` those still under it and left out.  All three stay 0
    on the float lane.
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


def _child_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


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
    underflow: numpy's uniform draws in [0, 1) are multiples of ``2**-53``
    (a zero direction is replaced by ones), so every ``g`` at least
    ``2**-960`` keeps each nonzero product normal; that also makes ``g <=
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


def _normal(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a) & (np.abs(a) >= np.finfo(float).tiny)


@dataclass(frozen=True)
class _Filter:
    """Float64 bracket of the exact recovered utility at float points.

    For a point ``x`` (float coordinates, taken at their exact value) and
    ``S = x @ prices.T``, ``terms(S)`` returns per-piece floats ``lo <= T_s(x)
    <= hi``, where ``T_s(x) = phi[s] + lam[s] * (p[s] . x - own[s])`` is
    evaluated exactly; so ``lo.min(axis=1) <= U(x) <= hi.min(axis=1)``.

    Error bound.  ``prices``, ``phi``, ``lam`` and ``own`` are single
    correctly rounded conversions of the exact values, each with relative
    error at most ``u = 2**-53``.  In the model ``fl(a op b) = (a op b)(1 + d)``,
    ``|d| <= u`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 2-3), an L-term dot product in any order, with or without fused
    multiply-adds, carries a factor ``1 + theta_L``, ``|theta_k| <= gamma_k =
    k u / (1 - k u)``.  Following the operations gives ``fl(T_s) =
    phi (1 + theta_2) + lam (S (1 + theta_{L+5}) - own (1 + theta_4))``, and
    a point scaled by a rounded factor (the nudge, or the shrink of a budget
    sample onto its budget) adds two more roundings, so
    ``|fl(T_s) - T_s| <= gamma_{L+7} A`` with ``A = |phi| + lam (S + own)``.
    The bound is ``err = c u A`` with ``c = 2 (L + 10)``: computing ``A`` in
    floats loses at most a factor ``1 - gamma_{L+11}``, and forming
    ``fl(T_s) -+ err`` costs ``u (|fl(T_s)| + err)``; what must be covered is
    then about ``(L + 8) u A``, which ``c u A`` covers twice over.  Products
    that underflow break the relative model by at most ``2**-1075`` each;
    fewer than ``(L + 3)(1 + lam)`` of them reach one term, which the
    absolute slack ``2**-1000 (1 + lam)`` covers.  Overflow makes a term
    non-finite, and such a term gets the vacuous bracket.

    The bound needs normal mirrors: when ``phi`` (other than exact zeros),
    ``lam`` or ``own`` is not finite and normal, :func:`_make_filter` makes
    ``phi`` NaN, so every term gets the vacuous bracket and every point is
    decided exactly.  ``lam`` is positive: the verifiers refuse any other
    solution.
    """

    prices: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    own: np.ndarray
    unit: float

    def terms(self, spend: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            term = self.phi + self.lam * (spend - self.own)
            err = (self.unit * (np.abs(self.phi) + self.lam * (spend + self.own))
                   + _TINY * (1.0 + self.lam))
            lo, hi = term - err, term + err
        vacuous = ~(np.isfinite(lo) & np.isfinite(hi))
        lo[vacuous], hi[vacuous] = -np.inf, np.inf
        return lo, hi

    def spend_floor(self, spend: np.ndarray) -> np.ndarray:
        """Lower bounds on the exact ``p[s] . x`` from ``spend = fl(x @ prices.T)``."""
        return spend * (1.0 - self.unit) - _TINY


def _make_filter(dataset: Dataset, solution: AfriatSolution, own: list) -> _Filter:
    n = dataset.n_observations
    try:
        phi, lam, own_f = (np.array([float(v) for v in values])
                           for values in (solution.phi, solution.lam, own))
    except OverflowError:
        phi = lam = own_f = np.full(n, np.nan)
    # phi == 0 only certifies a zero mirror when the exact value is zero.
    if not ((_normal(phi) | (phi == 0)).all() and _normal(lam).all() and _normal(own_f).all()
            and not any(f == 0 and v != 0 for f, v in zip(phi.tolist(), solution.phi))):
        phi = np.full(n, np.nan)
    return _Filter(dataset.price_array, phi, lam, own_f,
                   unit=2 * (dataset.n_goods + 10) * 2.0 ** -53)


def _set_up(dataset: Dataset, e, solution: AfriatSolution) -> tuple:
    """What both verifiers sample with: ``(ev, budgets, gradients, offsets,
    observed, own, flt, levels)``, the last three None on the float lane.

    ``ev`` is the efficiency, ``budgets[t]`` the deflated budget ``e[t] *
    costs[t][t]``, and ``gradients`` and ``offsets`` the
    ``utility_profile``.  ``observed[t]`` is the float ``U(x[t])``, taken for
    all T bundles in one product: every float comparison that involves an
    observed bundle, as a level or as a sample, reads it there.  Points are
    drawn in float64 from mirrors of the prices, bundles, cross expenditures
    and utility; exact data with an entry that overflows, or a nonzero one
    that underflows out of the normal range, is refused, as it would draw
    them from other data.  On the exact lane ``own[s]`` is ``e[s] *
    costs[s][s]`` at the solution's efficiency, ``flt`` the filter, and
    ``levels[t]`` the exact ``U(x[t])``: ``p[s] . x[t]`` is ``costs[s][t]``,
    so it needs no dot products, and only the pieces whose float bracket can
    reach the minimum are evaluated exactly.
    """
    if not all(0 < v < float("inf") for v in solution.lam):
        raise GarpkitError(
            "every lam of the solution must be positive and finite: otherwise "
            "the recovered utility is not increasing"
        )
    ev = coerce_efficiency(e, dataset)
    costs = cross_expenditures(dataset)
    budgets = [v * c for v, c in zip(ev, costs.diagonal().tolist())]
    own = flt = levels = None
    if not dataset.exact:
        gradients, offsets = utility_profile(solution, dataset)
    else:
        try:
            prices, bundles = dataset.price_array, dataset.bundle_array
            costs_f = costs.astype(float)
            gradients, offsets = utility_profile(solution, dataset)
        except OverflowError:
            ok = False
        else:
            zero = np.array([[v == 0 for v in row] for row in dataset.bundles])
            ok = (_normal(prices).all() and _normal(costs_f).all()
                  and (_normal(bundles) | zero).all()
                  and np.isfinite(gradients).all() and np.isfinite(offsets).all())
        if not ok:
            raise GarpkitError(
                "exact data outside the float64 range: sampling draws points from "
                "a float64 mirror of the prices, bundles and recovered utility, "
                "and that mirror overflows or underflows"
            )
        own = [v * c for v, c in zip(solution.efficiency, costs.diagonal().tolist())]
        flt = _make_filter(dataset, solution, own)
        lo, hi = flt.terms(costs_f.T)
        levels = [
            min(solution.phi[s] + solution.lam[s] * (costs[s, t] - own[s])
                for s in np.flatnonzero(row).tolist())
            for t, row in enumerate(lo <= hi.min(axis=1, keepdims=True))
        ]
    n = dataset.n_observations
    observed = _utility_values(dataset.bundle_array, gradients, offsets, np.empty((n, n)))
    return ev, budgets, gradients, offsets, observed, own, flt, levels


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
    and pulled inward by a uniform radial factor; the zero bundle and every
    observed bundle inside the budget are always included.  On the exact lane
    each proposal is scaled exactly back onto the budget set before testing,
    so recorded violations are exact facts, not rounding artifacts; a point
    the float filter places strictly under the level is not a violation
    whether scaled or not (U is increasing), and skips the exact test.  The
    exact test tries only the pieces whose float bracket reaches the level
    (a scaled point gets a bracket of its own), and evaluates U in full only
    for a violation.  On the float lane an observation whose own piece
    clears every sample is clean without evaluating the other pieces
    (:func:`_own_piece_clears`); otherwise its drawn samples are evaluated
    on all T pieces, a block of rows at a time, and its observed bundles
    take their values, as its level does, from the one product of
    :func:`_set_up`.

    Raises:
        GarpkitError: some ``lam`` is not positive and finite, or exact data
            lies outside the float64 range.
    """
    ev, budgets, gradients, offsets, observed, own, flt, levels = _set_up(
        dataset, e, solution)
    inside = direct_relations(dataset, ev).weak
    n = dataset.n_observations
    n_goods = dataset.n_goods
    rngs = _child_rngs(seed, n)

    summaries = []
    violations = []
    exact_certified = 0
    for t in range(n):
        rng = rngs[t]
        budget = budgets[t]
        budget_f = float(budget)
        weights = rng.dirichlet(np.ones(n_goods), size=n_samples)
        radial = rng.uniform(size=(n_samples, 1))
        proposals = radial * weights * (budget_f / dataset.price_array[t])
        points = np.vstack([proposals, np.zeros((1, n_goods)),
                            dataset.bundle_array[inside[t]]])

        count = points.shape[0]
        bad_here = 0
        if dataset.exact:
            level = levels[t]
            below, above = _neighbours(level)
            spend_f = points @ flt.prices.T
            lo, hi = flt.terms(spend_f)
            settled = hi.min(axis=1) <= below
            exact_certified += count - int(settled.sum())
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
                bad_here += 1
                violations.append(SampleViolation(
                    observation=t,
                    bundle=tuple(float(c) for c in coords),
                    lhs=float(evaluate_utility(solution, dataset, coords)),
                    rhs=float(level),
                ))
        else:
            level = float(observed[t])
            if _own_piece_clears(points, gradients[t], offsets[t], level):
                summaries.append(ObservationSummary(t, count, 0))
                continue
            # The proposals and the zero bundle; the observed bundles after
            # them already have their values.
            drawn = points[:n_samples + 1]
            work = np.empty((_block_rows(drawn.shape[0], n), n))
            values = np.concatenate([_utility_values(drawn, gradients, offsets, work),
                                     observed[inside[t]]])
            margin = CHECK_RTOL * np.maximum(1.0, np.maximum(abs(level), np.abs(values)))
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
        exact_certified=exact_certified,
    )


def _ray_level_points(rng, gradients, offsets, level: float, n_rays: int,
                      work: np.ndarray) -> np.ndarray:
    """Points on (or certifiably above) the U = level surface along rays.

    Along a ray from the origin through direction d the utility is
    ``min_j(alpha * (d . g_j) + offset_j)``: increasing and piecewise linear
    in alpha, so it reaches ``level`` exactly where the slowest piece does,
    at ``alpha = max_j (level - offset_j) / (d . g_j)``.  Where rounding
    leaves the evaluated utility a hair under the level, alpha is nudged
    outward until the point certifies as weakly above.

    All directions are drawn first, so the stream is read as in one piece.
    ``work``, a float64 array of shape ``(2, m, T)``, then receives the
    T-wide products of ``m`` rays at a time.  Every ray is independent of
    the others, so the points depend neither on ``m`` nor on the contents
    of ``work``, up to how the BLAS rounds a product over ``m`` rows (see
    the module docstring).
    """
    directions = rng.uniform(size=(n_rays, gradients.shape[1]))
    degenerate = ~directions.any(axis=1)
    if degenerate.any():
        directions[degenerate] = 1.0
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


def _lift_to_level(dataset: Dataset, solution: AfriatSolution, own: list, level, row,
                   before: np.ndarray, after: np.ndarray) -> Optional[tuple[list, bool]]:
    """The exact coordinates of the sample ``row`` at or above the level,
    and whether they were nudged.

    Float rounding may leave a ray point a sliver under the exact level; it
    is nudged outward once, and None is returned if it is still under.
    ``before`` and ``after`` are the open pieces of :func:`_under_level`
    for the point and for the nudged point.
    """
    coords = _exact_bundle(row)
    if not _under_level(dataset, solution, own, level, coords, before):
        return coords, False
    coords = [c * _NUDGE for c in coords]
    if _under_level(dataset, solution, own, level, coords, after):
        return None
    return coords, True


def verify_cost_rationalization(dataset: Dataset, e, solution: AfriatSolution,
                                n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Sample each upper set and test ``p[t] . x >= e[t] * costs[t][t]``.

    Half the quota is rejection sampling in the box ``[0, 2 * column max]``
    around the observed bundles (an observation whose level exceeds the
    whole box yields zero acceptances and is reported as exhausted, not
    failed); the other half are utility-level crossings along random rays,
    which sit on the boundary of the upper set where the cost inequality is
    tight.  Observed bundles at or above the level are checked as well.

    On the exact lane a point under the exact level is nudged outward by a
    factor 1.000000001 and dropped if still under it.  The float filter
    counts a point without rational arithmetic when the nudged point is
    certainly above the level and the point itself certainly costs more
    than the budget: then it is counted and clean, nudged or not.  Every
    other point is decided exactly, evaluating only the pieces of U whose
    float bracket reaches below the level.  On the float lane an
    observation whose own piece certifies every such point
    (:func:`_own_piece_certifies`) is clean without drawing its rays.

    The box draws and the rays are evaluated a block of rows at a time in
    one ``(2, B, T)`` workspace (:func:`_block_rows`): all draws are taken
    from the stream first, and the accepted ones keep their order.

    Raises:
        GarpkitError: some ``lam`` is not positive and finite, or exact data
            lies outside the float64 range.
    """
    ev, budgets, gradients, offsets, observed, own, flt, levels = _set_up(
        dataset, e, solution)
    n = dataset.n_observations
    n_goods = dataset.n_goods
    rngs = _child_rngs(seed, n)
    box_hi = 2.0 * dataset.bundle_array.max(axis=0)

    n_reject = n_samples // 2
    n_rays = n_samples - n_reject
    # One workspace for the T-wide draw and ray products of every
    # observation, a block of rows at a time.
    work = np.empty((2, _block_rows(max(n_reject, n_rays), n), n))

    summaries = []
    violations = []
    exhausted = []
    exact_certified = nudged = dropped = 0
    for t in range(n):
        rng = rngs[t]
        budget = budgets[t]
        budget_f = float(budget)
        price_f = dataset.price_array[t]
        level_f = float(observed[t])

        draws = rng.uniform(size=(n_reject, n_goods)) * box_hi
        accepted = draws[_utility_values(draws, gradients, offsets, work[1]) >= level_f]
        if n_reject and not accepted.size:
            exhausted.append(t)

        observed_in = dataset.bundle_array[observed >= level_f]
        threshold = budget_f * (1.0 - CHECK_RTOL)
        if not dataset.exact and _own_piece_certifies(
                gradients[t], offsets[t], float(solution.lam[t]), level_f, threshold):
            # Nothing reads stream t after the rays, so skipping them
            # changes no other observation's points.
            summaries.append(ObservationSummary(
                t, accepted.shape[0] + n_rays + observed_in.shape[0], 0))
            continue
        ray_points = _ray_level_points(rng, gradients, offsets, level_f, n_rays, work)
        pts = np.vstack([accepted, ray_points, observed_in])

        bad_here = 0
        if dataset.exact:
            level = levels[t]
            # Per point, the pieces of U that may be under the level, before
            # and after the nudge.
            spend_f = pts @ flt.prices.T
            above = _neighbours(level)[1]
            before = flt.terms(spend_f)[0] < above
            after = flt.terms(spend_f * float(_NUDGE))[0] < above
            settled = (~after.any(axis=1)
                       & (flt.spend_floor(spend_f[:, t]) >= _neighbours(budget)[1]))
            checked = int(settled.sum())
            # A settled point is counted and clean, nudged or not; the
            # nudged count still needs to know which.
            for i in np.flatnonzero(settled & before.any(axis=1)):
                nudged += _under_level(dataset, solution, own, level,
                                       _exact_bundle(pts[i]), before[i])
            exact_certified += pts.shape[0] - checked
            price_row = dataset.prices[t]
            for i in np.flatnonzero(~settled):
                lifted = _lift_to_level(dataset, solution, own, level, pts[i],
                                        before[i], after[i])
                if lifted is None:
                    dropped += 1
                    continue
                coords, bumped = lifted
                nudged += bumped
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
                bad = np.flatnonzero(costs_at_t < threshold)
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
