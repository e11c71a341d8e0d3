"""Synthetic data generator: closed forms, budget identity, waste handling."""

from __future__ import annotations

import numpy as np
import pytest

from garpkit import GeneratorSpec, ccei_exact, drawn_markets, generate, stream
from garpkit.datagen import (
    ces_demand,
    ces_utility,
    cobb_douglas_demand,
    cobb_douglas_utility,
    waste_floor,
)
from garpkit.errors import InfeasibleWasteError


def test_cobb_douglas_closed_forms():
    w = np.array([0.5, 0.5])
    assert np.allclose(cobb_douglas_demand(np.array([1.0, 1.0]), 2.0, w), [1.0, 1.0])
    assert np.allclose(cobb_douglas_demand(np.array([2.0, 2.0]), 8.0, w), [2.0, 2.0])
    # asymmetric shares: spend w_i * m on good i
    w2 = np.array([0.25, 0.75])
    x = cobb_douglas_demand(np.array([1.0, 3.0]), 4.0, w2)
    assert np.allclose(x, [1.0, 1.0])
    assert cobb_douglas_utility(np.array([1.0, 1.0]), w2) == pytest.approx(1.0)
    assert cobb_douglas_utility(np.array([0.0, 5.0]), w2) == 0.0


def test_ces_closed_forms():
    w = np.array([1.0, 1.0])
    # symmetric prices: split income evenly regardless of sigma
    assert np.allclose(ces_demand(np.array([1.0, 1.0]), 2.0, w, 2.0), [1.0, 1.0])
    x = ces_demand(np.array([1.0, 4.0]), 10.0, w, 2.0)
    # sigma = 2: demand ratio x1/x2 = (p2/p1)^2 = 16
    assert x[0] / x[1] == pytest.approx(16.0)
    assert np.dot([1.0, 4.0], x) == pytest.approx(10.0)
    # rho < 0 (complements): zero coordinate kills utility
    assert ces_utility(np.array([0.0, 1.0]), w, 0.5) == 0.0


def test_demands_exhaust_income():
    rng = np.random.default_rng(4)
    w = np.array([0.3, 0.2, 0.5])
    for _ in range(50):
        p = rng.uniform(0.1, 10.0, 3)
        m = float(rng.uniform(0.5, 20.0))
        assert np.dot(p, cobb_douglas_demand(p, m, w)) == pytest.approx(m, rel=1e-12)
        assert np.dot(p, ces_demand(p, m, w, 3.0)) == pytest.approx(m, rel=1e-12)


def test_generated_dataset_budget_identity():
    spec = GeneratorSpec("cobb_douglas", (0.4, 0.6), 12, (0.5, 3.0), (1.0, 8.0),
                         waste=0.2, seed=7)
    ds = generate(spec)
    prices, incomes = drawn_markets(spec)
    assert np.allclose(prices, ds.price_array)
    spend = (ds.price_array * ds.bundle_array).sum(axis=1)
    assert np.all(np.abs(spend - incomes) <= 1e-12 * incomes)


def test_markets_are_one_draw_of_the_markets_stream():
    # Row t of one T x (L + 1) draw holds observation t's prices, then its
    # income, each read as low + (high - low) * u.
    spec = GeneratorSpec("ces", (1.0, 2.0, 3.0), 5, (0.5, 3.0), (10.0, 20.0),
                         elasticity=0.7, seed=2**70 + 3)
    u = stream._uniforms(spec.seed, stream._MARKETS, 0, 5, 4)
    prices, incomes = drawn_markets(spec)
    assert prices.tolist() == (0.5 + 2.5 * u[:, :3]).tolist()
    assert incomes.tolist() == (10.0 + 10.0 * u[:, 3]).tolist()
    assert generate(spec).price_array.tolist() == prices.tolist()
    # A degenerate range gives its one value.
    flat = GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (2.0, 2.0), (7.0, 7.0))
    assert drawn_markets(flat)[0].tolist() == [[2.0, 2.0]] * 3
    assert drawn_markets(flat)[1].tolist() == [7.0] * 3


def test_zero_waste_is_fully_consistent():
    spec = GeneratorSpec("ces", (1.0, 2.0), 10, (0.5, 2.0), (1.0, 5.0),
                         elasticity=0.7, seed=21)
    result = ccei_exact(generate(spec))
    assert result.value == 1.0 and result.attained
    assert waste_floor(spec) == 1.0


def test_waste_lowers_the_index_on_overlapping_budgets():
    # Narrow price and income ranges make the budgets overlap, so waste in
    # varying directions becomes inconsistency the index can see.  (Waste
    # does not force a violation in general: a consumer who always wastes
    # in the same direction just looks like a different consistent one.)
    clean = GeneratorSpec("cobb_douglas", (0.5, 0.5), 10, (0.8, 1.2), (1.0, 1.5),
                          seed=1)
    wasted = GeneratorSpec("cobb_douglas", (0.5, 0.5), 10, (0.8, 1.2), (1.0, 1.5),
                           waste=0.3, seed=1)
    assert waste_floor(wasted) < waste_floor(clean) == 1.0
    # the two variants share identical market draws
    assert generate(clean).price_array.tolist() == \
        generate(wasted).price_array.tolist()


def test_waste_hits_its_utility_target():
    spec = GeneratorSpec("cobb_douglas", (0.5, 0.5), 5, (0.5, 2.0), (1.0, 5.0),
                         waste=0.3, seed=2)
    ds = generate(spec)
    prices, incomes = drawn_markets(spec)
    w = np.array(spec.weights)
    for t in range(5):
        best = cobb_douglas_demand(prices[t], float(incomes[t]), w)
        u_target = 0.7 * cobb_douglas_utility(best, w)
        u_actual = cobb_douglas_utility(ds.bundle_array[t], w)
        assert u_actual == pytest.approx(u_target, rel=1e-9)


def test_reproducible_and_seed_sensitive():
    spec = GeneratorSpec("cobb_douglas", (0.5, 0.5), 6, (0.5, 2.0), (1.0, 5.0),
                         seed=31)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec("cobb_douglas", (0.5, 0.5), 6, (0.5, 2.0), (1.0, 5.0),
                          seed=32)
    assert generate(spec) != generate(other)


def test_exact_lane_generation():
    spec = GeneratorSpec("cobb_douglas", (0.5, 0.5), 4, (0.5, 2.0), (1.0, 5.0),
                         seed=1)
    ds = generate(spec, exact=True)
    assert ds.exact
    assert ccei_exact(ds).value == 1


@pytest.mark.parametrize("kwargs,message", [
    (dict(family="leontief", weights=(1.0,)), "unknown family"),
    (dict(family="cobb_douglas", weights=(0.3, 0.3)), "sum to 1"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), elasticity=2.0),
     "only applies"),
    (dict(family="ces", weights=(1.0, 1.0)), "requires an elasticity"),
    (dict(family="ces", weights=(1.0, 1.0), elasticity=1.0), "different from 1"),
    (dict(family="ces", weights=(1.0, 1.0), elasticity=-2.0), "different from 1"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), waste=1.0), "waste"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), waste=(0.1,)), "waste"),
    # Booleans and strings are not numbers, though int() and float() read them.
    (dict(family="cobb_douglas", weights=(0.5, 0.5), seed=True), "seed: True is not a number"),
    (dict(family="cobb_douglas", weights=("0.5", "0.5")), "weights: '0.5' is not a number"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), n_observations=True),
     "n_observations: True is not a number"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), waste=np.bool_(False)),
     "waste: .*False.* is not a number"),
    (dict(family="ces", weights=(1.0, 1.0), elasticity="2"), "elasticity: '2' is not a number"),
    # A count or seed with a fractional part is refused, not truncated.
    (dict(family="cobb_douglas", weights=(0.5, 0.5), n_observations=2.5),
     "n_observations must be a whole number, got 2.5"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), seed=1.5),
     "seed must be a whole number, got 1.5"),
    # A seed is a non-negative integer, as the verifiers' seed is.
    (dict(family="cobb_douglas", weights=(0.5, 0.5), seed=-1),
     "seed must be a non-negative integer, got -1"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), seed=np.int64(-3)),
     "seed must be a non-negative integer, got -3"),
    (dict(family="cobb_douglas", weights=(0.5, 0.5), seed=-2.0**64),
     "seed must be a non-negative integer, got -18446744073709551616"),
])
def test_spec_validation(kwargs, message):
    kwargs.setdefault("n_observations", 3)
    kwargs.setdefault("price_range", (1.0, 2.0))
    kwargs.setdefault("income_range", (1.0, 2.0))
    with pytest.raises(ValueError, match=message):
        GeneratorSpec(**kwargs)


def test_spec_takes_numpy_numbers_and_whole_floats():
    spec = GeneratorSpec("ces", (np.float32(1.0), np.int64(2)), np.int64(3),
                         (np.float64(0.5), 2), (1, np.float32(5.0)),
                         elasticity=np.float64(0.5), waste=np.float32(0.25), seed=np.int64(4))
    assert spec == GeneratorSpec("ces", (1.0, 2.0), 3, (0.5, 2.0), (1.0, 5.0),
                                 elasticity=0.5, waste=0.25, seed=4)
    assert GeneratorSpec("cobb_douglas", (0.5, 0.5), 3.0, (1.0, 2.0), (1.0, 2.0),
                         seed=2.0) == GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (1.0, 2.0),
                                                    (1.0, 2.0), seed=2)
    spec = GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (1.0, 2.0), (1.0, 2.0), seed=2.0)
    assert type(spec.n_observations) is int and type(spec.seed) is int
    generate(spec)


def test_bad_ranges_rejected():
    with pytest.raises(ValueError, match="price_range"):
        GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (0.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="income_range"):
        GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (1.0, 2.0), (3.0, 2.0))


def test_infeasible_waste_for_substitutes():
    # sigma > 1: corner bundles keep positive utility, so a waste target
    # below the cheapest corner cannot be met on the budget line.
    spec = GeneratorSpec("ces", (1.0, 1.0), 1, (1.0, 1.0), (2.0, 2.0),
                         elasticity=4.0, waste=0.9, seed=0)
    with pytest.raises(InfeasibleWasteError) as exc:
        generate(spec)
    assert exc.value.observation == 0
    assert exc.value.target < exc.value.floor


def test_large_waste_feasible_for_cobb_douglas():
    # Cobb-Douglas corners have utility zero, so any waste < 1 is reachable.
    spec = GeneratorSpec("cobb_douglas", (0.5, 0.5), 3, (0.5, 2.0), (1.0, 5.0),
                         waste=0.999, seed=5)
    ds = generate(spec)
    assert ds.n_observations == 3
