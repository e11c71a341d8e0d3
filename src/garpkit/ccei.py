"""Critical cost efficiency: the supremum of budget deflators passing e-GARP.

The index is ``sup { e in (0, 1] : uniform e-GARP holds }``.  Shrinking every
budget by a common factor only removes revealed-preference links, so the
passing set is downward closed and the verdict, viewed as a function of e,
flips exactly once.  The flip can only happen at a cross-expenditure ratio
``costs[t][s] / costs[t][t]`` (that is where individual links switch on), so
the supremum is always one of those breakpoints and can be computed exactly.

Attainment is genuinely two-sided and is reported, not assumed:

* the verdict can fail just *above* a breakpoint only (a strict link turns
  weak exactly at its own ratio) -- then the supremum passes e-GARP and
  ``attained`` is True;
* a weak link switching on exactly *at* its ratio can complete a cycle
  through an already-strict link, making the verdict fail at the breakpoint
  while passing everywhere below -- then the supremum itself violates e-GARP
  and ``attained`` is False.

Both cases agree with binary search on the verdict, which converges to the
same flip point.  Both searches probe on nested cores (``_Probes``): each
probe below a failing one builds its relations on that probe's cyclic core,
gathered from the cross expenditures a block of rows at a time.
Both open with the verdict at 1, read off the relations that
:func:`.revpref.direct_relations` keeps, so the ``ccei`` command builds
them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Optional

import numpy as np

from .errors import InvalidToleranceError
from .model import Dataset, Number, cross_expenditures, row_blocks
from .revpref import CycleWitness, GarpVerdict, _relation, direct_relations, garp_verdict


@dataclass(frozen=True)
class CceiResult:
    """Exact efficiency index plus audit trail.

    Attributes:
        value: the supremum, as a ``Fraction`` (exact lane) or float.
        attained: whether uniform e-GARP holds at ``value`` itself.
        witness_above: violating cycle at ``witness_probe`` (None when the
            dataset passes GARP outright).
        witness_probe: the efficiency at which ``witness_above`` was found;
            the midpoint to the next breakpoint above ``value``, or 1 when
            the flip happens at 1 itself.
        breakpoints: sorted candidate ratios in (0, 1], including 1, as one
            1-D array in the lane's representation: float64 on the float
            lane, an object array of ``Fraction`` on the exact lane.  There
            are O(T^2) of them, so no Python list of them is built.  Left
            out of equality, which an array cannot answer with one bool.
    """

    value: Number
    attained: bool
    witness_above: Optional[CycleWitness]
    witness_probe: Optional[Number]
    breakpoints: np.ndarray = field(compare=False)


def _candidates(dataset: Dataset) -> np.ndarray:
    """The distinct ratios in (0, 1], sorted, as one array of the lane's numbers.

    The ratios ``costs[t, s] / costs[t, t]`` of the cross expenditures are
    divided out a block of rows at a time (:func:`.model.row_blocks`), and
    only the ones with a key in [0, 1] are kept, appended to one growing
    array; nothing else divides them out.  They are sorted by float64 keys:
    ``float`` is monotone, so every ratio in (0, 1] has a key in [0, 1], and
    ratios with different keys are in key order.  A float ratio is its own
    key, so the float lane keeps one array and sorts it in place; the exact
    lane keeps its keys beside its ``Fraction``s and gathers these in key
    order.  Only a run of equal keys holding different ratios is then sorted
    in the lane's arithmetic, and only the exact lane has such runs.  The
    diagonal contributes 1.
    """
    costs = cross_expenditures(dataset)
    own, exact = costs.diagonal(), costs.dtype == object
    ratios, keys = np.empty(0, dtype=costs.dtype), np.empty(0)
    for rows in row_blocks(len(own), len(own)):
        block = (costs[rows] / own[rows, None]).ravel()
        try:
            block_keys = block.astype(float, copy=False)
        except OverflowError:  # an exact ratio beyond the float range, so above 1
            block_keys = np.minimum(block, 2).astype(float)
        inside = block_keys <= 1  # no key is negative: costs are positive
        # Grown in place (realloc), so the kept ratios are never held twice.
        n = ratios.size
        ratios.resize(n + np.count_nonzero(inside), refcheck=False)
        ratios[n:] = block[inside]
        if exact:
            keys.resize(ratios.size, refcheck=False)
            keys[n:] = block_keys[inside]
    if exact:
        order = keys.argsort()
        ratios, keys = ratios[order], keys[order]
    else:
        ratios.sort()
        keys = ratios
    tied = np.flatnonzero(keys[1:] == keys[:-1])  # i and i + 1 share a key
    mixed = keys[tied[ratios[tied] != ratios[tied + 1]]]  # keys holding distinct ratios
    # Sorted, so a key's entries are adjacent: each run is sorted once (keys are >= 0).
    for key in mixed[np.diff(mixed, prepend=-1) != 0]:
        ratios[keys.searchsorted(key) : keys.searchsorted(key, "right")].sort()
    distinct = np.ones(ratios.size, dtype=bool)
    distinct[tied + 1] = ratios[tied] != ratios[tied + 1]
    ratios = ratios[distinct]
    # Only the runs at keys 0 and 1 can hold ratios outside (0, 1].
    return ratios[ratios.searchsorted(0, "right") : ratios.searchsorted(1, "right")]


class _Probes:
    """Uniform e-GARP verdicts of one dataset, each on the fewest nodes that decide it.

    Both relations only grow with e (on the float lane, every rounding step
    of the tolerant test is monotone in the budget), so the cyclic core at e
    lies inside the core at any larger e.  A probe at or below the lowest
    failing one builds its relations on that probe's core alone, with the
    verdict and mapped-back witness of the full relations; a probe above
    builds them in full.  No probe exceeds 1, so no strict self-loop occurs.
    """

    def __init__(self, dataset: Dataset):
        self.costs, self.rel_tol = cross_expenditures(dataset), dataset.rel_tol
        at_one = direct_relations(dataset)
        fails = not garp_verdict(at_one, witness=False).holds
        # The lowest failing efficiency so far, and its cyclic core.
        self.failing: Optional[Number] = dataset.number(1) if fails else None
        self.core: Optional[np.ndarray] = at_one.components[0] if fails else None

    def verdict(self, e: Number, *, witness: bool = False) -> GarpVerdict:
        nodes = self.core if self.failing is not None and e <= self.failing else None
        # The core's rows are gathered a block at a time: no K x K copy.
        own = self.costs.diagonal() if nodes is None else self.costs.diagonal()[nodes]
        rel = _relation(self.costs, e * own, self.rel_tol, nodes)
        verdict = garp_verdict(rel, witness=witness)
        if verdict.holds or (nodes is None and self.failing is not None):
            return verdict
        core = rel.components[0]
        self.failing, self.core = e, core if nodes is None else nodes[core]
        if nodes is None or not witness:
            return verdict
        w = verdict.witness
        return GarpVerdict(False, CycleWitness(tuple(nodes[list(w.indices)].tolist()), w.strict_edge))


def ccei_exact(dataset: Dataset) -> CceiResult:
    """Exact critical cost efficiency via breakpoint search.

    Binary search over the sorted breakpoints finds the boundary pair
    (last passing candidate, first failing candidate); a single probe at
    their midpoint decides whether the flip happens just above the passing
    candidate (attained) or exactly at the failing one (not attained).
    """
    cands = _candidates(dataset)
    # Values and probes are the lane's numbers, not numpy scalars.
    number = dataset.number
    one = number(cands[-1])
    probes = _Probes(dataset)
    if probes.failing is None:  # e-GARP holds at 1
        return CceiResult(value=one, attained=True, witness_above=None, witness_probe=None,
                          breakpoints=cands)
    # The smallest breakpoint always passes: below it no relation is strict.
    lo, hi = 0, cands.size - 1  # invariant: cands[lo] passes, cands[hi] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probes.verdict(number(cands[mid])).holds:
            lo = mid
        else:
            hi = mid
    passing, failing = number(cands[lo]), number(cands[hi])
    midpoint = (passing + failing) / 2
    if probes.verdict(midpoint).holds:
        # Open interval below `failing` passes: supremum not attained.
        value, attained = failing, False
        # At a flip at 1 there is nothing above 1 to probe.
        probe = (failing + number(cands[hi + 1])) / 2 if hi + 1 < cands.size else one
    else:
        value, attained = passing, True
        probe = midpoint
    above = probes.verdict(probe, witness=True)
    assert not above.holds, "witness requested at a passing efficiency"
    return CceiResult(value=value, attained=attained, witness_above=above.witness,
                      witness_probe=probe, breakpoints=cands)


def ccei_binary_search(dataset: Dataset, tol: float = 1e-9) -> float:
    """Critical cost efficiency by bisection of the verdict on [0, 1].

    Maintains a passing lower endpoint (0 is vacuous: with every budget
    deflated toward nothing, no relation survives) and a failing upper
    endpoint, halving until the bracket is narrower than ``tol``.  Returns
    the bracket midpoint, which is within ``tol`` of the exact supremum.
    """
    if not (isinstance(tol, (int, float)) and isfinite(tol)) or tol <= 0:
        raise InvalidToleranceError(f"tolerance must be positive and finite, got {tol!r}")
    probes = _Probes(dataset)
    if probes.failing is None:  # e-GARP holds at 1
        return 1.0
    # Probes are floats; on the exact lane they are dyadic rationals, so
    # Fraction(float) keeps the whole verdict exact.
    number = dataset.number
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if probes.verdict(number(mid)).holds:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
