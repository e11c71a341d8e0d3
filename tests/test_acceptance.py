"""End-to-end acceptance checks.

Each test here is one release gate.  A terminal-summary hook in conftest
prints one PASS/FAIL line per gate after the run, so the verdicts are
visible even when pytest captures stdout.

Random-data gates draw from seeded generators; the seeds below are frozen
so failures reproduce exactly.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

import numpy as np

from conftest import make_twins, random_efficiency, random_tables
from garpkit import (
    GeneratorSpec,
    ccei_binary_search,
    ccei_exact,
    check_duality_garp,
    check_e_garp,
    drawn_markets,
    evaluate_utility,
    generate,
    solve_afriat,
    validate_dataset,
    validate_witness,
    verify_cost_rationalization,
    verify_rationalization,
    worst_residual,
)
from garpkit.errors import AfriatInfeasibleError
from garpkit.model import cross_expenditures
from garpkit.oracle import ccei_oracle, garp_oracle

RESULTS: list[tuple[str, bool]] = []


def criterion(label):
    """Record one PASS/FAIL line for the terminal summary."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((label, False))
                raise
            RESULTS.append((label, True))

        return wrapper

    return decorate


@criterion("1. two-observation regression: consistent, CCEI = 1, cheaper "
           "swap coexists with clean cost verification, under 1 s")
def test_criterion_1_two_observation_regression():
    start = time.perf_counter()
    exact, floats = make_twins([("1", "1"), ("2", "2")],
                               [("1", "1"), ("2", "2")])

    assert check_e_garp(exact).holds and check_e_garp(floats).holds
    result = ccei_exact(exact)
    assert result.value == Fraction(1) and result.attained
    assert ccei_exact(floats).value == 1.0

    # swapping the two bundles would cost 4 + 4 = 8 against 2 + 8 = 10
    # spent, yet the data still cost-rationalize cleanly
    costs = cross_expenditures(exact)
    assert costs[0, 1] + costs[1, 0] == 8
    assert costs[0, 0] + costs[1, 1] == 10

    solution = solve_afriat(exact, 1)
    cost = verify_cost_rationalization(exact, 1, solution,
                                       n_samples=200, seed=1)
    util = verify_rationalization(exact, 1, solution, n_samples=200, seed=1)
    assert cost.clean and not cost.violations
    assert util.clean and not util.violations

    solution_f = solve_afriat(floats, 1)
    cost_f = verify_cost_rationalization(floats, 1, solution_f,
                                         n_samples=10_000, seed=1)
    assert cost_f.clean
    assert check_duality_garp(floats, 1, [cost_f])

    assert time.perf_counter() - start < 1.0


@criterion("2. consistency <=> recoverable utility on 1000 random datasets; "
           "residuals certified, sampled verifications clean, under 5 min")
def test_criterion_2_consistency_equals_recoverability():
    start = time.perf_counter()
    rng = np.random.default_rng(20260802)
    n_feasible = n_infeasible = 0

    for i in range(1000):
        n_obs = int(rng.integers(1, 9))
        n_goods = int(rng.integers(1, 5))
        prices, bundles = random_tables(rng, n_obs, n_goods)
        exact, floats = make_twins(prices, bundles)
        e_exact, e_float = random_efficiency(rng, exact)

        solutions = []
        for dataset, e in ((exact, e_exact), (floats, e_float)):
            holds = check_e_garp(dataset, e, witness=False).holds
            try:
                solution = solve_afriat(dataset, e)
            except AfriatInfeasibleError:
                assert not holds
                solutions.append(None)
            else:
                assert holds
                # max over all T^2 inequalities: exact lane raw, float
                # lane already discounted by the 1e-9 relative slack
                assert worst_residual(solution, dataset) <= 0
                solutions.append(solution)

        if solutions[1] is None:
            n_infeasible += 1
            continue
        n_feasible += 1

        util = verify_rationalization(floats, e_float, solutions[1],
                                      n_samples=10_000, seed=i)
        cost = verify_cost_rationalization(floats, e_float, solutions[1],
                                           n_samples=10_000, seed=i)
        assert util.clean and not util.violations
        assert cost.clean and not cost.violations
        assert check_duality_garp(floats, e_float, [util, cost])

        # periodic exact-lane certification; the float filter decides most
        # samples, so every 5th feasible dataset gets 1000 per observation
        if solutions[0] is not None and n_feasible % 5 == 0:
            util_e = verify_rationalization(exact, e_exact, solutions[0],
                                            n_samples=1000, seed=i)
            cost_e = verify_cost_rationalization(exact, e_exact, solutions[0],
                                                 n_samples=1000, seed=i)
            assert util_e.clean and cost_e.clean

    assert n_feasible >= 500
    assert n_infeasible >= 20
    assert time.perf_counter() - start < 300.0


@criterion("3. verdicts and indices match the brute-force oracles on 1000 "
           "random datasets, under 5 min")
def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(20260803)

    for _ in range(1000):
        n_obs = int(rng.integers(1, 7))
        n_goods = int(rng.integers(1, 5))
        prices, bundles = random_tables(rng, n_obs, n_goods)
        exact, _ = make_twins(prices, bundles)

        assert (garp_oracle(exact).garp_holds
                == check_e_garp(exact, witness=False).holds)
        e, _ = random_efficiency(rng, exact)
        assert (garp_oracle(exact, e).garp_holds
                == check_e_garp(exact, e, witness=False).holds)

        oracle_value = ccei_oracle(exact)
        production_value = ccei_exact(exact).value
        assert not isinstance(oracle_value, float)
        assert not isinstance(production_value, float)
        assert oracle_value == production_value

    assert time.perf_counter() - start < 300.0


def _just_below(result):
    """A point strictly between the index and the breakpoint below it."""
    lower = [b for b in result.breakpoints if b < result.value]
    if lower:
        return (lower[-1] + result.value) / 2
    return result.value / 2


@criterion("4. CCEI semantics: verdict holds at (or just below) the index "
           "and fails above it; bisection within 1e-9 of exact")
def test_criterion_4_index_semantics():
    viol = validate_dataset([(2, 1), (1, 2)], [(2, 1), (1, 2)], exact=True)
    viol_result = ccei_exact(viol)
    assert viol_result.value == Fraction(4, 5)
    assert viol_result.attained

    datasets = [
        viol,
        validate_dataset([(1, 1), (2, 2)], [(1, 1), (2, 2)], exact=True),
        validate_dataset([("3.5", "1"), ("11", "16")],
                         [("4", "1"), ("1", "4")], exact=True),
        validate_dataset([(1, 1), (1, 3)], [(2, 2), (1, 3)], exact=True),
        validate_dataset([(2,)], [(3,)], exact=True),
    ]
    rng = np.random.default_rng(20260804)
    for _ in range(300):
        n_obs = int(rng.integers(2, 8))
        n_goods = int(rng.integers(1, 5))
        prices, bundles = random_tables(rng, n_obs, n_goods)
        exact, _ = make_twins(prices, bundles)
        datasets.append(exact)

    for dataset in datasets:
        result = ccei_exact(dataset)
        if result.attained:
            assert check_e_garp(dataset, result.value, witness=False).holds
        else:
            # supremum that is not a maximum: fails at the value itself,
            # holds anywhere below it
            assert not check_e_garp(dataset, result.value,
                                    witness=False).holds
            assert check_e_garp(dataset, _just_below(result),
                                witness=False).holds
        if result.witness_probe is not None:
            assert not check_e_garp(dataset, result.witness_probe,
                                    witness=False).holds
            assert validate_witness(dataset, result.witness_probe,
                                    result.witness_above)

        bisected = ccei_binary_search(dataset, tol=1e-9)
        assert abs(bisected - float(result.value)) <= 1e-9


@criterion("5. generator: 200 zero-waste specs all score CCEI = 1 and "
           "exhaust income to 1e-12 relative")
def test_criterion_5_generator_soundness():
    rng = np.random.default_rng(20260805)

    for i in range(200):
        n_goods = int(rng.integers(2, 5))
        if i % 2 == 0:
            family = "cobb_douglas"
            weights = tuple(rng.dirichlet(np.ones(n_goods)))
            elasticity = None
        else:
            family = "ces"
            weights = tuple(rng.uniform(0.2, 2.0, n_goods))
            elasticity = float(rng.uniform(1.05, 3.0) if rng.random() < 0.5
                               else rng.uniform(0.2, 0.95))
        price_lo = float(rng.uniform(0.2, 1.0))
        income_lo = float(rng.uniform(0.5, 2.0))
        spec = GeneratorSpec(
            family, weights, int(rng.integers(3, 9)),
            (price_lo, price_lo + float(rng.uniform(0.0, 4.0))),
            (income_lo, income_lo + float(rng.uniform(0.0, 8.0))),
            elasticity=elasticity, seed=1000 + i,
        )
        dataset = generate(spec)

        result = ccei_exact(dataset)
        assert result.value == 1.0 and result.attained

        prices, incomes = drawn_markets(spec)
        spent = (prices * dataset.bundle_array).sum(axis=1)
        assert np.all(np.abs(spent - incomes) <= 1e-12 * incomes)


@criterion("6. recovered utility: strictly monotone on 1000 pairs, "
           "midpoint-concave on 1000 triples, hits its levels at e = 1")
def test_criterion_6_recovered_utility_shape():
    rng = np.random.default_rng(20260806)

    pool = []
    while len(pool) < 5:
        n_obs = int(rng.integers(3, 7))
        n_goods = int(rng.integers(2, 5))
        prices, bundles = random_tables(rng, n_obs, n_goods)
        exact, floats = make_twins(prices, bundles)
        try:
            solution = solve_afriat(exact, 1)
        except AfriatInfeasibleError:
            continue
        pool.append((exact, floats, solution, solve_afriat(floats, 1)))

    def point(n_goods):
        return [Fraction(int(rng.integers(5, 1001)), 100)
                for _ in range(n_goods)]

    for exact, floats, solution, solution_f in pool:
        n_goods = exact.n_goods

        for t in range(exact.n_observations):
            assert (evaluate_utility(solution, exact, exact.bundles[t])
                    == solution.phi[t])
            got = evaluate_utility(solution_f, floats, floats.bundles[t])
            scale = max(1.0, abs(solution_f.phi[t]))
            assert abs(got - solution_f.phi[t]) <= 1e-12 * scale

        # 200 coordinate-increase pairs per dataset, exact arithmetic
        for _ in range(200):
            x = point(n_goods)
            y = list(x)
            y[int(rng.integers(n_goods))] += Fraction(
                int(rng.integers(1, 101)), 100)
            assert (evaluate_utility(solution, exact, y)
                    > evaluate_utility(solution, exact, x))

        # 200 midpoint triples per dataset, exact arithmetic
        for _ in range(200):
            a, b = point(n_goods), point(n_goods)
            mid = [(u + v) / 2 for u, v in zip(a, b)]
            assert (2 * evaluate_utility(solution, exact, mid)
                    >= evaluate_utility(solution, exact, a)
                    + evaluate_utility(solution, exact, b))


@criterion("7. scale: T=100, L=10 exact CCEI under 1 s on the float lane "
           "and under 10 s on the exact lane")
def test_criterion_7_scale():
    rng = np.random.default_rng(20260807)
    prices, bundles = random_tables(rng, 100, 10)
    exact, floats = make_twins(prices, bundles)

    t0 = time.perf_counter()
    float_result = ccei_exact(floats)
    float_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact_result = ccei_exact(exact)
    exact_elapsed = time.perf_counter() - t0

    assert float_elapsed < 1.0, f"float lane took {float_elapsed:.3f} s"
    assert exact_elapsed < 10.0, f"exact lane took {exact_elapsed:.3f} s"
    assert abs(float(exact_result.value) - float_result.value) <= 1e-9
