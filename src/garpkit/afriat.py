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
   reference quantities fixed earlier, so one pass suffices.

The construction is followed by a mandatory check of all T^2 inequalities:
exact on the exact lane; on the float lane with relative slack
``model.CHECK_RTOL`` scaled by the lam-weighted expenditure terms, so that
breakpoint wobble at the comparison tolerance ``model.COMPARE_RTOL`` cannot
trip it no matter how large ``lam`` is.  The post-condition, not the
construction, is the contract; the solution records the residual it passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import (
    AfriatInfeasibleError,
    AfriatVerificationError,
    DimensionMismatchError,
)
from .model import CHECK_RTOL, Dataset, Number, coerce_efficiency, cross_expenditures
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
    """
    ev = coerce_efficiency(e, dataset)
    rel = direct_relations(dataset, ev)
    verdict = garp_verdict(rel)
    if not verdict.holds:
        raise AfriatInfeasibleError(verdict.witness)

    costs = cross_expenditures(dataset)
    n = dataset.n_observations
    zero, one = dataset.number(0), dataset.number(1)
    slack = costs - (np.array(ev, dtype=costs.dtype) * costs.diagonal())[:, None]

    phi = np.empty(n, dtype=costs.dtype)
    lam = np.empty(n, dtype=costs.dtype)
    done = np.empty(0, dtype=np.intp)
    for members in _classes_in_order(rel):
        m = np.array(members, dtype=np.intp)
        if done.size:
            level = (phi[done, None] + lam[done, None] * slack[np.ix_(done, m)]).min()
        else:
            level = zero
        phi[m] = level
        higher = done[phi[done] > level]
        if higher.size:
            # No weak link points to an earlier class, so these slacks are
            # strictly positive and the bounds are well defined.
            needed = ((phi[higher] - level) / slack[np.ix_(m, higher)]).max(axis=1)
            lam[m] = np.maximum(one, needed)
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

    Exact lane: raw residuals.  Float lane: residuals minus an allowance
    of ``model.CHECK_RTOL`` times the magnitude of the terms involved
    (including the lam-weighted expenditures, so amplified rounding noise
    stays covered), computed with the IEEE operations, in the order, of the
    pairwise formula: the result is that formula's float.
    """
    costs = cross_expenditures(dataset)
    phi = np.array(solution.phi, dtype=costs.dtype)
    lam = np.array(solution.lam, dtype=costs.dtype)
    own = np.array(solution.efficiency, dtype=costs.dtype) * costs.diagonal()
    floor = None if dataset.exact else np.maximum(1.0, np.abs(phi))
    worst = dataset.number(0)
    # One row t (the inequalities of t toward every s) at a time: T x T
    # temporaries would raise the peak memory of a T = 300 run by 1-3 MB.
    for t in range(len(phi)):
        margin = phi - phi[t] - lam[t] * (costs[t] - own[t])
        if floor is not None:
            scale = np.maximum(np.maximum(floor, abs(phi[t])), lam[t] * (costs[t] + own[t]))
            margin -= CHECK_RTOL * scale
        # Only margins above the running worst count; NaN margins never do.
        above = margin[margin > worst]
        if above.size:
            worst = max(above.tolist())
    return worst


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
    vectorised samplers; exact-lane data is mirrored to float64.
    """
    lam = np.array([float(v) for v in solution.lam])
    phi = np.array([float(v) for v in solution.phi])
    evs = np.array([float(v) for v in solution.efficiency])
    own = evs * cross_expenditures(dataset).diagonal().astype(float)
    gradients = lam[:, None] * dataset.price_array
    offsets = phi - lam * own
    return gradients, offsets


def evaluate_utility_batch(solution: AfriatSolution, dataset: Dataset,
                           points: np.ndarray) -> np.ndarray:
    """Vectorised float evaluation of the recovered utility at many points."""
    gradients, offsets = utility_profile(solution, dataset)
    return (points @ gradients.T + offsets).min(axis=1)
