"""Expenditure dataset model, validation, and cross-expenditure arithmetic.

A dataset is a finite list of market observations: at observation ``t`` the
consumer faced strictly positive prices ``p[t]`` and bought the nonnegative,
nonzero bundle ``x[t]``.  Everything downstream (revealed-preference
relations, efficiency indices, utility recovery) is driven by the T-by-T
cross-expenditure matrix ``costs[t][s] = p[t] . x[s]`` and by order
comparisons against deflated own expenditures ``e[t] * costs[t][t]``.

Two arithmetic lanes are supported:

* exact lane -- every entry is a ``fractions.Fraction``.  Decimal strings
  such as ``"0.8"`` are parsed without binary rounding, so breakpoint ties
  (for example ``4 == 0.8 * 5``) are decided exactly.  Comparisons carry no
  tolerance.
* float lane -- entries are ``float`` and order comparisons treat values
  within a relative tolerance as equal.  This keeps verdicts stable for
  large data where exact rationals are too slow, while still recognising
  ties that differ only by rounding noise.

The lane is chosen at validation time and travels with the ``Dataset``; all
other modules read it from there.  :func:`cross_expenditures` returns the
cross expenditures as one numpy array -- float64 on the float lane, an
object array of ``Fraction`` on the exact lane -- so the relations,
breakpoints and Afriat residuals downstream run one array code path on both
lanes, with :func:`leq_array`/:func:`lt_array` as the one comparison rule.
An efficiency is a plain tuple of the lane's numbers
(:func:`coerce_efficiency`).  The ``Dataset`` caches its cross expenditures,
and the last relations :func:`.revpref.direct_relations` built for it, so
both live exactly as long as the dataset.

The float lane's tolerance policy is two numbers, both defined here.
:data:`COMPARE_RTOL` (1e-12) is the tolerance of the e-GARP comparisons, so
it sets the relations, the CCEI and the Afriat classes; ``Dataset.rel_tol``
reads it off the lane.  :data:`CHECK_RTOL` (1e-9) is the allowance of every
check downstream of them: the Afriat post-check and both float verifiers.
It is the wider one, so a tie decided at the comparison tolerance never
trips a check of the numbers built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import isfinite, lcm
from typing import Union

import numpy as np

from .errors import (
    GarpkitError,
    LengthMismatchError,
    NegativeBundleError,
    NonpositivePriceError,
    ShapeMismatchError,
    ZeroBundleError,
)

Number = Union[Fraction, float]

#: Relative tolerance of the float lane's e-GARP comparisons.
COMPARE_RTOL = 1e-12

#: Relative allowance of the float lane's Afriat post-check and verifiers.
CHECK_RTOL = 1e-9


def leq_array(lhs, rhs, rel_tol: float = 0.0) -> np.ndarray:
    """Tolerant ``lhs <= rhs`` elementwise, as a bool array; ``rhs`` broadcasts.

    At ``rel_tol == 0`` this is the plain comparison of any array or
    sequence (an object array of ``Fraction`` on the exact lane).  Otherwise
    ``lhs`` is float64 and the test is ``lhs <= rhs + rel_tol * max(|lhs|,
    |rhs|)``, so a knife-edge tie never turns strict because of rounding.
    """
    lhs = np.asarray(lhs)
    if rel_tol == 0.0:
        return lhs <= rhs
    return lhs <= _shifted(lhs, rhs, rel_tol, np.add)


def lt_array(lhs, rhs, rel_tol: float = 0.0) -> np.ndarray:
    """Tolerant ``lhs < rhs``; the strict twin of :func:`leq_array`.

    The tolerant test is ``lhs < rhs - rel_tol * max(|lhs|, |rhs|)``: strict
    implies weak, and failing weak one way implies strict the other way.
    """
    lhs = np.asarray(lhs)
    if rel_tol == 0.0:
        return lhs < rhs
    return lhs < _shifted(lhs, rhs, rel_tol, np.subtract)


def _shifted(lhs: np.ndarray, rhs, rel_tol: float, op) -> np.ndarray:
    """``op(rhs, rel_tol * max(|lhs|, |rhs|))`` elementwise, in one buffer.

    Filled in place because a relation build runs this twice on a T x T
    array, and each extra T x T temporary is a fresh allocation.
    """
    out = np.abs(lhs, dtype=float)
    np.maximum(out, np.abs(rhs), out=out)
    out *= rel_tol
    return op(rhs, out, out=out)


def _to_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"non-finite entry {value!r}")
        # Exact binary value of the float; callers with decimal intent
        # should pass strings instead.
        return Fraction(value)
    if isinstance(value, (int, str, Decimal)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _to_float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    out = float(value)
    if not isfinite(out):
        raise ValueError(f"non-finite entry {value!r}")
    return out


def _coerce_table(rows, exact: bool) -> tuple[tuple[Number, ...], ...]:
    convert = _to_fraction if exact else _to_float
    return tuple(tuple(convert(v) for v in row) for row in rows)


def _contains_float(rows) -> bool:
    return any(isinstance(v, float) for row in rows for v in row)


@dataclass(frozen=True)
class Dataset:
    """A validated expenditure dataset.

    Attributes:
        prices: T rows of L strictly positive prices.
        bundles: T rows of L nonnegative quantities, no row entirely zero.
        exact: True when entries are ``Fraction`` (exact lane).
    """

    prices: tuple[tuple[Number, ...], ...]
    bundles: tuple[tuple[Number, ...], ...]
    exact: bool

    @property
    def rel_tol(self) -> float:
        """Relative tolerance of order comparisons: 0.0 on the exact lane,
        :data:`COMPARE_RTOL` on the float lane."""
        return 0.0 if self.exact else COMPARE_RTOL

    @property
    def n_observations(self) -> int:
        return len(self.prices)

    @property
    def n_goods(self) -> int:
        return len(self.prices[0])

    @property
    def number(self) -> type:
        """The lane's number type: ``Fraction`` (exact lane) or ``float``."""
        return Fraction if self.exact else float

    @cached_property
    def price_array(self) -> np.ndarray:
        """Float64 mirror of the prices (used by vectorised code paths)."""
        return np.array([[float(v) for v in row] for row in self.prices])

    @cached_property
    def bundle_array(self) -> np.ndarray:
        """Float64 mirror of the bundles."""
        return np.array([[float(v) for v in row] for row in self.bundles])

    @cached_property
    def _cross(self) -> np.ndarray:
        # Cached on the instance, so a lookup never hashes the whole table;
        # read-only, because every caller shares it.
        costs = _compute_cross(self)
        costs.flags.writeable = False
        return costs

    @cached_property
    def _last_relations(self) -> list:
        # One slot, ``[efficiency, relations]``: the last relations that
        # ``revpref.direct_relations`` built for this dataset.
        return [None, None]


def validate_dataset(prices, bundles, *, exact: bool | None = None) -> Dataset:
    """Validate raw price/bundle tables and build a :class:`Dataset`.

    Args:
        prices: sequence of T price rows, each with L entries.  Entries may
            be ints, floats, decimal strings, ``Decimal`` or ``Fraction``.
        bundles: sequence of T bundle rows with the same shape.
        exact: force the exact lane (True) or the float lane (False).  When
            None the lane is inferred: exact unless any entry is a float.

    Raises:
        ShapeMismatchError: tables are empty, ragged, or of different shape.
        NonpositivePriceError: a price entry is <= 0.
        NegativeBundleError: a bundle entry is < 0.
        ZeroBundleError: some bundle row is all zeros.
    """
    price_rows = [tuple(row) for row in prices]
    bundle_rows = [tuple(row) for row in bundles]
    if not price_rows or not bundle_rows:
        raise ShapeMismatchError("at least one observation is required")
    if len(price_rows) != len(bundle_rows):
        raise ShapeMismatchError(
            f"{len(price_rows)} price rows vs {len(bundle_rows)} bundle rows"
        )
    width = len(price_rows[0])
    if width == 0:
        raise ShapeMismatchError("at least one good is required")
    for t, (p_row, x_row) in enumerate(zip(price_rows, bundle_rows)):
        if len(p_row) != width or len(x_row) != width:
            raise ShapeMismatchError(f"row {t} does not have {width} entries")

    if exact is None:
        exact = not (_contains_float(price_rows) or _contains_float(bundle_rows))

    try:
        price_table = _coerce_table(price_rows, exact)
        bundle_table = _coerce_table(bundle_rows, exact)
    except (ValueError, TypeError, OverflowError) as err:
        raise ShapeMismatchError(str(err)) from err

    zero = Fraction(0) if exact else 0.0
    for t, row in enumerate(price_table):
        for i, v in enumerate(row):
            if not v > zero:
                raise NonpositivePriceError(t, i)
    for t, row in enumerate(bundle_table):
        for i, v in enumerate(row):
            if v < zero:
                raise NegativeBundleError(t, i)
        if all(v == zero for v in row):
            raise ZeroBundleError(t)

    return Dataset(prices=price_table, bundles=bundle_table, exact=exact)


def cross_expenditures(dataset: Dataset) -> np.ndarray:
    """The T x T cross expenditures of ``dataset``, computed once per dataset.

    Entry ``[t, s]`` is the cost of bundle ``s`` at the prices of
    observation ``t``, so the diagonal holds the expenditures actually
    incurred.  Strictly positive everywhere: prices are positive and bundles
    nonzero.  Float64 on the float lane, where the products are accumulated
    in float64; an object array of exact ``Fraction`` entries on the exact
    lane, whose elementwise operations are the exact ones.  Shared, so
    read-only; code that needs a float64 mirror of exact data converts with
    ``.astype(float)`` where it needs it.

    Raises:
        GarpkitError: on the float lane, some entry overflows float64 or
            underflows to zero.
    """
    return dataset._cross


def _integer_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row of Fractions as integer numerators over one common denominator."""
    dens = [lcm(*(v.denominator for v in row)) for row in rows]
    nums = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, dens)]
    return np.array(nums, dtype=object), np.array(dens, dtype=object)


def _compute_cross(dataset: Dataset) -> np.ndarray:
    if not dataset.exact:
        with np.errstate(over="ignore"):
            costs = dataset.price_array @ dataset.bundle_array.T
        if not (costs.min() > 0 and costs.max() < np.inf):
            raise GarpkitError(
                "float data outside the float64 range: a cross expenditure "
                "p[t] . x[s] overflows or underflows to zero"
            )
        return costs
    # One integer matmul, then one Fraction (one gcd) per entry.
    pn, pd = _integer_rows(dataset.prices)
    xn, xd = _integer_rows(dataset.bundles)
    return np.frompyfunc(Fraction, 2, 1)(pn @ xn.T, np.outer(pd, xd))


def _efficiency_entry(value, exact: bool) -> Number:
    if isinstance(value, (np.generic, np.ndarray)):
        # A numpy scalar, or a 0-d array, holds one Python number.
        value = value.item()
    if isinstance(value, bool):
        raise ValueError(f"efficiency coefficient {value!r} is not a number")
    if exact:
        if isinstance(value, float):
            # A float efficiency against exact data is read through its
            # shortest decimal form, so 0.8 means 4/5 rather than the binary
            # neighbour of 0.8.  Pass a string or Fraction to be explicit.
            return Fraction(repr(value))
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def coerce_efficiency(e, dataset: Dataset) -> tuple[Number, ...]:
    """Normalise ``e`` into a tuple of the lane's numbers, one per observation.

    Accepts a scalar (broadcast to every observation) or a sequence with one
    entry per observation.  A numpy scalar or 0-d array counts as the Python
    number it holds.  Entries must satisfy 0 < e <= 1; the bounds are
    checked exactly in both lanes.

    Raises:
        LengthMismatchError: a sequence of the wrong length was given.
        ValueError: an entry is a boolean or outside (0, 1].
    """
    n = dataset.n_observations
    if isinstance(e, (int, float, str, Fraction, Decimal)) or getattr(e, "ndim", None) == 0:
        raw = [e] * n
    else:
        raw = list(e)
    if len(raw) != n:
        raise LengthMismatchError(
            f"efficiency vector has {len(raw)} entries for {n} observations"
        )
    values = tuple(_efficiency_entry(v, dataset.exact) for v in raw)
    for v in values:
        if not (0 < v <= 1):
            raise ValueError(f"efficiency coefficient {v!r} is outside (0, 1]")
    return values
