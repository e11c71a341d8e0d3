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
same flip point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite
from typing import Optional

import numpy as np

from .errors import InvalidToleranceError
from .model import Dataset, Number, cross_expenditures
from .revpref import CycleWitness, uniform_verdict


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
        breakpoints: sorted candidate ratios in (0, 1], including 1.
    """

    value: Number
    attained: bool
    witness_above: Optional[CycleWitness]
    witness_probe: Optional[Number]
    breakpoints: tuple[Number, ...]


def _candidates(dataset: Dataset) -> list[Number]:
    """The distinct ratios in (0, 1], sorted, in the dataset's arithmetic.

    Sorted by float64 keys: ``float`` is monotone, so every ratio in (0, 1]
    has a key in [0, 1], and ratios with different keys are in key order.
    Only a run of equal keys holding different ratios is sorted in the
    lane's arithmetic; on the float lane a key is its ratio, so no run
    does.  The diagonal contributes 1.
    """
    ratios = cross_expenditures(dataset).ratio_array.ravel()
    try:
        keys = ratios.astype(float, copy=False)
    except OverflowError:  # an exact ratio beyond the float range, so above 1
        keys = np.array([float(r) if r <= 1 else 2.0 for r in ratios.tolist()])
    inside = (keys >= 0) & (keys <= 1)
    order = np.flatnonzero(inside)[np.argsort(keys[inside])]
    keys, ratios = keys[order], ratios[order]
    tied = np.flatnonzero(keys[1:] == keys[:-1])  # i and i + 1 share a key
    first = np.ones(keys.size, dtype=bool)
    first[tied + 1] = False
    run = np.cumsum(first) - 1
    found = ratios[first].tolist()
    mixed = set(run[tied[ratios[tied] != ratios[tied + 1]]].tolist())
    for i in sorted(mixed, reverse=True):
        found[i : i + 1] = sorted(set(ratios[run == i].tolist()))
    # Only the runs at keys 0 and 1 can hold ratios outside (0, 1].
    return found[bisect_right(found, 0) : bisect_right(found, 1)]


def ccei_exact(dataset: Dataset) -> CceiResult:
    """Exact critical cost efficiency via breakpoint search.

    Binary search over the sorted breakpoints finds the boundary pair
    (last passing candidate, first failing candidate); a single probe at
    their midpoint decides whether the flip happens just above the passing
    candidate (attained) or exactly at the failing one (not attained).
    """
    cm = cross_expenditures(dataset)
    cands = _candidates(dataset)
    one = cands[-1]
    if uniform_verdict(dataset, cm, one).holds:
        return CceiResult(
            value=one,
            attained=True,
            witness_above=None,
            witness_probe=None,
            breakpoints=tuple(cands),
        )
    # The smallest breakpoint always passes: below it no relation is strict.
    lo, hi = 0, len(cands) - 1  # invariant: cands[lo] passes, cands[hi] fails
    assert uniform_verdict(dataset, cm, cands[0]).holds, "smallest breakpoint must pass"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if uniform_verdict(dataset, cm, cands[mid]).holds:
            lo = mid
        else:
            hi = mid
    passing, failing = cands[lo], cands[hi]
    midpoint = (passing + failing) / 2
    if uniform_verdict(dataset, cm, midpoint).holds:
        # Open interval below `failing` passes: supremum not attained.
        value, attained = failing, False
        if hi + 1 < len(cands):
            probe = (failing + cands[hi + 1]) / 2
        else:
            probe = one  # flip at 1: nothing above 1 to probe
    else:
        value, attained = passing, True
        probe = midpoint
    above = uniform_verdict(dataset, cm, probe, witness=True)
    assert not above.holds, "witness requested at a passing efficiency"
    return CceiResult(
        value=value,
        attained=attained,
        witness_above=above.witness,
        witness_probe=probe,
        breakpoints=tuple(cands),
    )


def ccei_binary_search(dataset: Dataset, tol: float = 1e-9) -> float:
    """Critical cost efficiency by bisection of the verdict on [0, 1].

    Maintains a passing lower endpoint (0 is vacuous: with every budget
    deflated toward nothing, no relation survives) and a failing upper
    endpoint, halving until the bracket is narrower than ``tol``.  Returns
    the bracket midpoint, which is within ``tol`` of the exact supremum.
    """
    if not (isinstance(tol, (int, float)) and isfinite(tol)) or tol <= 0:
        raise InvalidToleranceError(f"tolerance must be positive and finite, got {tol!r}")
    cm = cross_expenditures(dataset)
    # Probes are floats; on the exact lane they are dyadic rationals, so
    # Fraction(float) keeps the whole verdict exact.
    number = dataset.number
    if uniform_verdict(dataset, cm, number(1)).holds:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if uniform_verdict(dataset, cm, number(mid)).holds:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
