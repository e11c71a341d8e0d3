"""Synthetic expenditure data from closed-form demand systems.

Datasets are drawn for a single consumer with Cobb-Douglas or CES
preferences: prices and incomes are sampled uniformly from configured
ranges, and bundles come from the closed-form demand functions, so without
waste the data is exactly consistent with utility maximisation and its
critical cost efficiency equals 1.

Per-observation waste moves the bundle along the budget hyperplane (same
expenditure) until its utility drops to the level attainable with a
``(1 - w)`` share of income.  Both families are homogeneous of degree one,
so that target is just ``(1 - w)`` times the optimal utility.  The move runs
toward the cheapest-utility corner of the budget line and the landing point
is found by bisection; with a strongly substitutable CES utility every
corner may still be better than the target, in which case the waste level is
infeasible and reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .ccei import ccei_exact
from .errors import InfeasibleWasteError
from .model import Dataset, Number, validate_dataset
from .stream import _CORNERS, _MARKETS, _check_seed, _uniforms

_FAMILIES = ("cobb_douglas", "ces")

#: Bisection stops when the utility matches the target to this relative gap.
_WASTE_TOL = 1e-13


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic dataset.

    Attributes:
        family: "cobb_douglas" or "ces".
        weights: preference weights, one per good, all > 0 and finite.
            Cobb-Douglas weights must sum to 1 (they are expenditure shares);
            CES demands are invariant to rescaling, so only that is required.
        elasticity: CES elasticity of substitution, > 0 and != 1 (the
            sigma -> 1 limit is Cobb-Douglas; request that family directly).
            Must be None for Cobb-Douglas.
        n_observations: number of price/income draws.
        price_range: (low, high) for uniform price draws, 0 < low <= high,
            both finite.
        income_range: (low, high) for uniform income draws, likewise.
        waste: scalar or per-observation sequence in [0, 1).
        seed: non-negative integer keying the draws; identical spec and
            seed reproduce the dataset bit for bit.
    """

    family: str
    weights: tuple[float, ...]
    n_observations: int
    price_range: tuple[float, float]
    income_range: tuple[float, float]
    elasticity: Optional[float] = None
    waste: Union[float, tuple[float, ...]] = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        object.__setattr__(self, "weights", tuple(float(_real("weights", w)) for w in self.weights))
        if not self.weights or not all(w > 0 and isfinite(w) for w in self.weights):
            raise ValueError("weights must be a nonempty tuple of positive finite numbers")
        if self.family == "cobb_douglas":
            if self.elasticity is not None:
                raise ValueError("elasticity only applies to the ces family")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("cobb_douglas weights must sum to 1")
        else:
            if self.elasticity is None:
                raise ValueError("ces requires an elasticity of substitution")
            object.__setattr__(self, "elasticity", float(_real("elasticity", self.elasticity)))
            if self.elasticity <= 0 or self.elasticity == 1:
                raise ValueError("elasticity must be positive and different from 1")
        object.__setattr__(self, "n_observations", _whole("n_observations", self.n_observations))
        object.__setattr__(self, "seed", _whole("seed", self.seed))
        _check_seed(self.seed, ValueError)
        if self.n_observations < 1:
            raise ValueError("need at least one observation")
        for name in ("price_range", "income_range"):
            lo, hi = (float(_real(name, v)) for v in getattr(self, name))
            if not (0 < lo <= hi and isfinite(hi)):
                raise ValueError(f"{name} must satisfy 0 < low <= high, both finite")
            object.__setattr__(self, name, (lo, hi))
        waste = self.waste
        if isinstance(waste, (Real, str, np.generic)):
            waste = (float(_real("waste", waste)),) * self.n_observations
        else:
            waste = tuple(float(_real("waste", w)) for w in waste)
        if len(waste) != self.n_observations:
            raise ValueError("waste must be scalar or one entry per observation")
        if any(not (0 <= w < 1) for w in waste):
            raise ValueError("waste entries must lie in [0, 1)")
        object.__setattr__(self, "waste", waste)

    @property
    def n_goods(self) -> int:
        return len(self.weights)


def _real(name: str, value):
    """``value``, refused unless it is a real number (numpy's included): a
    boolean or a string is not, though ``float`` would read it as one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name}: {value!r} is not a number")
    return value


def _whole(name: str, value) -> int:
    """A count or seed as an int; a float with a fractional part is refused
    rather than truncated."""
    if isinstance(_real(name, value), Integral):
        return int(value)
    whole = int(value)
    if whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


def cobb_douglas_demand(prices: np.ndarray, income: float,
                        weights: np.ndarray) -> np.ndarray:
    """Optimal bundle x_i = weight_i * income / price_i."""
    return weights * income / prices


def cobb_douglas_utility(bundle: np.ndarray, weights: np.ndarray) -> float:
    """U(x) = prod x_i ** weight_i (zero whenever any coordinate is zero)."""
    if np.any(bundle <= 0):
        return 0.0
    return float(np.exp(np.sum(weights * np.log(bundle))))


def ces_demand(prices: np.ndarray, income: float, weights: np.ndarray,
               elasticity: float) -> np.ndarray:
    """Optimal CES bundle x_i = income * (w_i / p_i)^sigma / sum_j p_j (w_j / p_j)^sigma."""
    share = (weights / prices) ** elasticity
    return income * share / np.sum(prices * share)


def ces_utility(bundle: np.ndarray, weights: np.ndarray, elasticity: float) -> float:
    """U(x) = (sum w_i x_i**rho)**(1/rho) with rho = 1 - 1/sigma.

    For rho < 0 (complements) a zero coordinate sends the utility to zero;
    handled explicitly to avoid division blowups.
    """
    rho = 1.0 - 1.0 / elasticity
    if rho < 0 and np.any(bundle <= 0):
        return 0.0
    return float(np.sum(weights * bundle ** rho) ** (1.0 / rho))


def _utility_fn(spec: GeneratorSpec):
    w = np.array(spec.weights)
    if spec.family == "cobb_douglas":
        return lambda x: cobb_douglas_utility(x, w)
    return lambda x: ces_utility(x, w, spec.elasticity)


def _demand_fn(spec: GeneratorSpec):
    w = np.array(spec.weights)
    if spec.family == "cobb_douglas":
        return lambda p, m: cobb_douglas_demand(p, m, w)
    return lambda p, m: ces_demand(p, m, w, spec.elasticity)


def _wasteful_bundle(spec: GeneratorSpec, t: int, prices: np.ndarray,
                     income: float, optimum: np.ndarray, waste: float) -> np.ndarray:
    """On-budget bundle whose utility equals that of (1 - waste) income.

    Homogeneity of degree one makes the target (1 - waste) * U(optimum).
    The bundle is found on the segment from the optimum toward a budget-line
    corner, where utility falls monotonically.  The first value of "corners"
    stream t picks the corner among those whose utility is at or below the
    target, so that waste skews different observations in different
    directions; a single fixed direction would just look like a coherent
    taste for one good.
    """
    utility = _utility_fn(spec)
    u_opt = utility(optimum)
    target = (1.0 - waste) * u_opt

    corners = np.diag(income / prices)
    corner_values = [utility(corners[i]) for i in range(len(prices))]
    floor = min(corner_values)
    if target < floor:
        raise InfeasibleWasteError(t, target, floor)
    options = [i for i, v in enumerate(corner_values) if v <= target]
    u = _uniforms(spec.seed, _CORNERS, t, 1, 1)[0, 0]
    corner = corners[options[int(u * len(options))]]

    lo, hi = 0.0, 1.0  # mixing weight toward the corner
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = utility((1.0 - mid) * optimum + mid * corner)
        if abs(value - target) <= _WASTE_TOL * max(1.0, u_opt):
            lo = hi = mid
            break
        if value > target:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return (1.0 - theta) * optimum + theta * corner


def drawn_markets(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The price rows and incomes that ``spec``'s seed produces.

    Exposed so callers can audit the budget identity of a generated dataset
    (``p[t] . x[t] == income[t]``) without re-deriving incomes from bundles.
    Row t of one ``T x (L + 1)`` draw of the "markets" stream holds its L
    prices, then its income, each ``low + (high - low) * u`` on its range.
    """
    draw = _uniforms(spec.seed, _MARKETS, 0, spec.n_observations, spec.n_goods + 1)
    lo_p, hi_p = spec.price_range
    lo_m, hi_m = spec.income_range
    return lo_p + (hi_p - lo_p) * draw[:, :-1], lo_m + (hi_m - lo_m) * draw[:, -1]


def generate(spec: GeneratorSpec, *, exact: bool = False) -> Dataset:
    """Draw a dataset according to ``spec``.

    Markets come from :func:`drawn_markets` and waste corners from streams
    of their own, so clean and wasted specs share their markets.  Bundles
    exhaust the drawn income exactly up to float rounding: demands satisfy
    the budget identity in closed form and waste moves stay on the budget
    hyperplane (affine mixes of on-budget points).

    Args:
        spec: generation recipe.
        exact: build the dataset on the exact lane (float values taken at
            their exact binary magnitudes).
    """
    demand = _demand_fn(spec)
    price_table, incomes = drawn_markets(spec)

    price_rows = []
    bundle_rows = []
    for t in range(spec.n_observations):
        prices = price_table[t]
        income = float(incomes[t])
        bundle = demand(prices, income)
        w = spec.waste[t]
        if w > 0:
            bundle = _wasteful_bundle(spec, t, prices, income, bundle, w)
        price_rows.append(tuple(prices.tolist()))
        bundle_rows.append(tuple(bundle.tolist()))

    return validate_dataset(price_rows, bundle_rows, exact=exact)


def waste_floor(spec: GeneratorSpec) -> Number:
    """Critical cost efficiency of the dataset ``generate(spec)`` yields.

    Equals 1 exactly when every waste entry is zero (the data then comes
    straight from maximising behaviour).  Positive waste can push it below 1
    once deflated budgets overlap, though wasteful data may still be fully
    consistent: the index measures consistency, not distance from the
    generating preferences.
    """
    return ccei_exact(generate(spec)).value
