"""Constructive solution of the Afriat inequalities and utility recovery.

Given a dataset passing e-GARP, this module produces numbers ``phi[t]`` and
``lam[t] > 0`` with

    phi[s] <= phi[t] + lam[t] * (costs[t][s] - e[t] * costs[t][t])

for every ordered pair, and evaluates the induced utility

    U(x) = min_t  phi[t] + lam[t] * (p[t] . x - e[t] * costs[t][t]),

a minimum of strictly increasing affine functions: continuous, concave, and
strictly increasing.  At ``e = (1, ..., 1)`` it satisfies ``U(x[t]) = phi[t]``.

Construction (no LP solver, works unchanged in exact rational arithmetic):

1. Group observations into equivalence classes of mutual transitive weak
   revealed preference: the strongly connected components of the weak
   relation, as the verdict labels them (:mod:`.revpref`).  Inside a class
   every direct weak link has exactly zero affordability slack (otherwise
   the class would contain a violating cycle), so one shared utility level
   per class is consistent.
2. Order classes so that every weak link points from an earlier class to a
   later one (most-preferred first): a topological sort of the graph of
   direct weak links between classes by Kahn's algorithm that always
   places the ready class with the smallest member first.  Because links
   never point from later to earlier classes, the slack from any
   observation toward an earlier class is strictly positive.
3. Walk the classes in that order.  Each class level is the minimum of
   ``phi[t] + lam[t] * slack[t][s]`` over already-placed observations ``t``
   and members ``s`` (0 for the first class); each member's ``lam`` is then
   the smallest value >= 1 satisfying every inequality toward the
   already-placed, higher levels.  Bounds in either direction only ever
   reference quantities fixed earlier, so one pass suffices.  The slacks
   ``slack[t][s] = costs[t][s] - e[t] * costs[t][t]`` are taken for the
   pairs each class reads, so no ``T x T`` copy of the costs is made.

The construction is followed by a mandatory check of all T^2 inequalities.
On the exact lane it is one exact pass over the observed bundles: the
inequalities toward s all hold exactly when ``phi[s] <= U(x[s])``, and
``U(x[s])`` is evaluated in rationals only on the pieces that a float64
bracket (:class:`_Filter`, the adaptive filter the sampling verifiers of
:mod:`.duality` use too) cannot rule out.  Those exact levels come from one
routine, :func:`_levels`, which the verifiers read as well.  On the float
lane the check runs row by row with relative slack ``model.CHECK_RTOL``
scaled by the lam-weighted expenditure terms, so that breakpoint wobble at
the comparison tolerance ``model.COMPARE_RTOL`` cannot trip it no matter
how large ``lam`` is.  The post-condition, not the construction, is the
contract; the solution records the residual it passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import (
    AfriatInfeasibleError,
    AfriatVerificationError,
    DimensionMismatchError,
    GarpkitError,
)
from .model import (CHECK_RTOL, Dataset, Number, coerce_efficiency, cross_expenditures,
                    float_mirror, row_blocks)
from .revpref import RevealedRelation, direct_relations, garp_verdict

@dataclass(frozen=True)
class AfriatSolution:
    """Utility levels and marginal utility weights, one pair per observation.

    ``efficiency`` is the tuple of per-observation deflators the numbers
    were built at (:func:`.model.coerce_efficiency`).  ``residual`` is the
    :func:`worst_residual` that :func:`solve_afriat` checked these numbers
    against; None on a solution built by hand.
    """

    phi: tuple[Number, ...]
    lam: tuple[Number, ...]
    efficiency: tuple[Number, ...]
    residual: Number | None = field(default=None, compare=False)


def _classes_in_order(rel: RevealedRelation) -> list[list[int]]:
    """Mutual-reachability classes, most-preferred first, deterministic.

    The classes are the SCCs of the weak relation, as the verdict labels
    them (``RevealedRelation.components``).  Kahn's algorithm on the graph
    of direct weak links between classes places next the ready class with
    the smallest member.  Every placed class has its ancestors placed, so a
    class has an unplaced ancestor exactly when it has an unplaced direct
    predecessor: the ready classes, and so the order, are those of the
    closure's class graph.
    """
    # Classes are numbered in the order of their labels, their smallest members.
    label = rel.components[1]
    members = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[members], prepend=-1))
    links = rel.weak[members][:, members]
    links = np.logical_or.reduceat(np.logical_or.reduceat(links, starts, axis=0), starts, axis=1)
    np.fill_diagonal(links, False)
    classes = [m.tolist() for m in np.split(members, starts[1:])]

    waiting = links.sum(axis=0)
    # A plain list, not a heapq heap: importing heapq loads an extension
    # module and adds about 0.13 MB to the peak memory of every CLI run.
    ready = np.flatnonzero(waiting == 0).tolist()
    order: list[list[int]] = []
    while ready:
        a = min(ready)
        ready.remove(a)
        order.append(classes[a])
        after = np.flatnonzero(links[a])
        waiting[after] -= 1
        ready += after[waiting[after] == 0].tolist()
    assert len(order) == len(classes), "class preference graph has a cycle"
    return order


def solve_afriat(dataset: Dataset, e=1) -> AfriatSolution:
    """Solve the Afriat inequalities at efficiency ``e``.

    Raises:
        AfriatInfeasibleError: e-GARP fails; carries the violating cycle.
        AfriatVerificationError: internal guard, never expected on valid
            input -- the constructed numbers failed the T^2 recheck.
        GarpkitError: float data whose recheck allowance overflows
            (:func:`worst_residual`).
    """
    ev = coerce_efficiency(e, dataset)
    rel = direct_relations(dataset, ev)
    verdict = garp_verdict(rel)
    if not verdict.holds:
        raise AfriatInfeasibleError(verdict.witness)

    costs = cross_expenditures(dataset)
    n = dataset.n_observations
    zero, one = dataset.number(0), dataset.number(1)
    # slack[t][s] = costs[t][s] - own[t], taken for the pairs each class reads.
    own = np.array(ev, dtype=costs.dtype) * costs.diagonal()

    phi = np.empty(n, dtype=costs.dtype)
    lam = np.empty(n, dtype=costs.dtype)
    done = np.empty(0, dtype=np.intp)
    for members in _classes_in_order(rel):
        m = np.array(members, dtype=np.intp)
        if done.size:
            slack = costs[np.ix_(done, m)] - own[done, None]
            level = (phi[done, None] + lam[done, None] * slack).min()
        else:
            level = zero
        phi[m] = level
        higher = done[phi[done] > level]
        if higher.size:
            # No weak link points to an earlier class, so these slacks are
            # strictly positive and the bounds are well defined.
            slack = costs[np.ix_(m, higher)] - own[m, None]
            lam[m] = np.maximum(one, ((phi[higher] - level) / slack).max(axis=1))
        else:
            lam[m] = one
        done = np.concatenate([done, m])

    solution = AfriatSolution(phi=tuple(phi.tolist()), lam=tuple(lam.tolist()), efficiency=ev)
    residual = worst_residual(solution, dataset)
    if residual > 0:
        raise AfriatVerificationError(
            f"constructed numbers violate an inequality by {residual!r}"
        )
    return replace(solution, residual=residual)


def worst_residual(solution: AfriatSolution, dataset: Dataset) -> Number:
    """Largest violation of the T^2 inequality system; <= 0 means verified.

    Exact lane: the largest raw residual, or 0 when none is positive.  The
    residuals toward observation s are ``phi[s] - (phi[t] + lam[t] *
    (costs[t][s] - e[t] * costs[t][t]))``, whose maximum over t is
    ``phi[s] - U(x[s])``, so one exact evaluation of U at each observed
    bundle (:func:`_levels`) settles all T^2 of them.  Float lane: residuals
    minus an allowance of ``model.CHECK_RTOL`` times the magnitude of the
    terms involved (including the lam-weighted expenditures, so amplified
    rounding noise stays covered), computed with the IEEE operations, in
    the order, of the pairwise formula: the result is that formula's float.

    Raises:
        GarpkitError: on the float lane, an allowance overflows, which
            would make its inequality's check vacuous.
    """
    costs = cross_expenditures(dataset)
    if dataset.exact:
        levels = _levels(solution, dataset)[2]
        return max([dataset.number(0), *(solution.phi - levels)])
    phi = np.array(solution.phi, dtype=costs.dtype)
    lam = np.array(solution.lam, dtype=costs.dtype)
    own = np.array(solution.efficiency, dtype=costs.dtype) * costs.diagonal()
    floor = np.maximum(1.0, np.abs(phi))
    worst = 0.0
    # One row t (the inequalities of t toward every s) at a time: T x T
    # temporaries would raise the peak memory of a T = 300 run by 1-3 MB.
    for t in range(len(phi)):
        margin = phi - phi[t] - lam[t] * (costs[t] - own[t])
        with np.errstate(over="ignore"):
            spent = lam[t] * (costs[t] + own[t])
        if np.isinf(spent).any():
            raise GarpkitError(
                "float data outside the float64 range: the Afriat check's allowance, "
                "lam times the cross expenditures, overflows"
            )
        margin -= CHECK_RTOL * np.maximum(np.maximum(floor, abs(phi[t])), spent)
        # Only margins above the running worst count; NaN margins never do.
        above = margin[margin > worst]
        if above.size:
            worst = max(above.tolist())
    return worst


def _levels(solution: AfriatSolution, dataset: Dataset) -> tuple:
    """``(own, flt, levels)`` on the exact lane: ``own[t] = e[t] *
    costs[t][t]`` at the solution's efficiency, the filter built from it,
    and ``levels[s]``, the exact ``U(x[s])`` of every observed bundle, as an
    object array.

    ``p[t] . x[s]`` is ``costs[t][s]``, so the levels need no dot products.
    The filter brackets piece t at bundle s from ``costs_f[t, s]``, read off
    ``Dataset.cost_array``, the float64 mirror of the cross expenditures that
    the dataset takes once; only the pieces whose bracket reaches under the
    least upper bound are evaluated exactly, and every other piece is
    certainly above the minimum.  Bundles are bracketed a block at a time
    (:func:`.model.row_blocks`), so no ``T x T`` float temporaries are held.
    """
    costs, costs_f = cross_expenditures(dataset), dataset.cost_array
    phi, lam = solution.phi, solution.lam
    own = [v * c for v, c in zip(solution.efficiency, costs.diagonal().tolist())]
    flt = _make_filter(dataset, solution, own)
    levels = []
    for block in row_blocks(len(own), len(own)):
        lo, hi = flt.terms(costs_f[:, block].T)
        levels += [min(phi[t] + lam[t] * (costs[t, s] - own[t]) for t in np.flatnonzero(row))
                   for s, row in enumerate(lo <= hi.min(axis=1, keepdims=True), block.start)]
    return own, flt, np.array(levels, dtype=object)


#: Absolute slack of the filter's error bound for underflowing products.
_TINY = 2.0 ** -1000


def _normal(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a) & (np.abs(a) >= np.finfo(float).tiny)


@dataclass(frozen=True)
class _Filter:
    """Float64 bracket of the exact recovered utility at float points.

    For a point ``x`` (float coordinates, taken at their exact value) and
    ``S = x @ prices.T``, with ``prices`` the float64 mirror of the prices,
    ``terms(S)`` returns per-piece floats ``lo <= T_s(x) <= hi``, where ``T_s(x) = phi[s] + lam[s] * (p[s] . x - own[s])`` is
    evaluated exactly; so ``lo.min(axis=1) <= U(x) <= hi.min(axis=1)``.
    ``S`` may also be a correctly rounded ``p[s] . x``, such as the float64
    mirror of a cross expenditure: one rounding is fewer than a dot
    product's.

    Error bound.  ``prices``, ``phi``, ``lam`` and ``own`` are single
    correctly rounded conversions of the exact values, each with relative
    error at most ``u = 2**-53``.  In the model ``fl(a op b) = (a op b)(1 + d)``,
    ``|d| <= u`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 2-3), an L-term dot product in any order, with or without fused
    multiply-adds, carries a factor ``1 + theta_L``, ``|theta_k| <= gamma_k =
    k u / (1 - k u)``.  Following the operations gives ``fl(T_s) =
    phi (1 + theta_2) + lam (S (1 + theta_{L+5}) - own (1 + theta_4))``, and
    a point scaled by a rounded factor (the verifiers' nudge, or the shrink
    of a budget sample onto its budget) adds two more roundings, so
    ``|fl(T_s) - T_s| <= gamma_{L+7} A`` with ``A = |phi| + lam (S + own)``.
    The bound is ``err = c u A`` with ``c = 2 (L + 10)``: computing ``A`` in
    floats loses at most a factor ``1 - gamma_{L+11}``, and forming
    ``fl(T_s) -+ err`` costs ``u (|fl(T_s)| + err)``; what must be covered is
    then about ``(L + 8) u A``, which ``c u A`` covers twice over.  Products
    that underflow break the relative model by at most ``2**-1075`` each;
    fewer than ``(L + 3)(1 + lam)`` of them reach one term, which the
    absolute slack ``2**-1000 (1 + lam)`` covers.  Overflow makes a term
    non-finite, and such a term gets the vacuous bracket.

    The bound needs positive ``lam`` and normal mirrors: when ``phi`` (other
    than exact zeros), ``lam`` or ``own`` is not finite and normal (a mirror
    that overflows is NaN), or some ``lam`` is not positive,
    :func:`_make_filter` makes ``phi`` NaN, so every term gets the vacuous
    bracket and every point is decided exactly.
    """

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
    phi, lam, own_f = map(float_mirror, (solution.phi, solution.lam, own))
    # phi == 0 only certifies a zero mirror when the exact value is zero.
    if not ((_normal(phi) | (phi == 0)).all() and (_normal(lam) & (lam > 0)).all()
            and _normal(own_f).all()
            and not any(f == 0 and v != 0 for f, v in zip(phi.tolist(), solution.phi))):
        phi = np.full(len(phi), np.nan)
    return _Filter(phi, lam, own_f, unit=2 * (dataset.n_goods + 10) * 2.0 ** -53)


def evaluate_utility(solution: AfriatSolution, dataset: Dataset, bundle) -> Number:
    """Evaluate the recovered utility at one bundle.

    On the exact lane, float coordinates are taken at their exact binary
    value, so sampled points can be certified without rounding.
    """
    if len(bundle) != dataset.n_goods:
        raise DimensionMismatchError(
            f"bundle has {len(bundle)} coordinates, dataset has {dataset.n_goods} goods"
        )
    costs = cross_expenditures(dataset)
    ev = solution.efficiency
    if dataset.exact:
        coords = [v if isinstance(v, Fraction) else Fraction(v) for v in bundle]
    else:
        coords = [float(v) for v in bundle]
    best: Number | None = None
    for t in range(dataset.n_observations):
        spend = sum(p * c for p, c in zip(dataset.prices[t], coords))
        term = solution.phi[t] + solution.lam[t] * (spend - ev[t] * costs.item(t, t))
        if best is None or term < best:
            best = term
    return best


def utility_profile(solution: AfriatSolution, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Float affine decomposition ``U(x) = min(offsets + X @ gradients.T)``.

    Returns (gradients, offsets) with gradients[t] = lam[t] * p[t].  Used by
    vectorised samplers; exact-lane data is read through its float64 mirrors
    (:func:`.model.float_mirror`), so Afriat numbers or data beyond the
    float64 range give non-finite values, not an ``OverflowError``.
    """
    lam, phi, evs = map(float_mirror, (solution.lam, solution.phi, solution.efficiency))
    own = evs * dataset.cost_array.diagonal()
    gradients = lam[:, None] * dataset.price_array
    offsets = phi - lam * own
    return gradients, offsets


def evaluate_utility_batch(solution: AfriatSolution, dataset: Dataset,
                           points: np.ndarray) -> np.ndarray:
    """Vectorised float evaluation of the recovered utility at many points."""
    gradients, offsets = utility_profile(solution, dataset)
    return (points @ gradients.T + offsets).min(axis=1)
