"""Constructive solution of the utility-number inequalities."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_afriat
from conftest import make_twins, random_efficiency, random_tables
from garpkit import (
    check_e_garp,
    evaluate_utility,
    evaluate_utility_batch,
    solve_afriat,
    validate_dataset,
    worst_residual,
)
from garpkit.afriat import AfriatSolution, _classes_in_order, utility_profile
from garpkit.errors import AfriatInfeasibleError, DimensionMismatchError
from garpkit.model import coerce_efficiency
from garpkit.revpref import direct_relations
from garpkit.oracle import afriat_numbers_valid


def test_base_solution(base_exact):
    sol = solve_afriat(base_exact)
    assert sol.phi == (-4, 0)
    assert sol.lam == (2, 1)
    assert worst_residual(sol, base_exact) <= 0
    assert afriat_numbers_valid(base_exact, 1, sol.phi, sol.lam)


def test_solution_records_the_residual_it_was_checked_against(base_exact, base_float):
    for ds in (base_exact, base_float):
        sol = solve_afriat(ds)
        assert sol.residual == worst_residual(sol, ds) <= 0
        assert type(sol.residual) is ds.number
        # A solution built by hand carries none, and the residual is not
        # part of a solution's identity.
        manual = AfriatSolution(sol.phi, sol.lam, sol.efficiency)
        assert manual.residual is None and manual == sol


def test_base_alternative_numbers_also_valid(base_exact):
    # Independent feasible point for the same system, checked by direct
    # substitution: phi = (0, 2), lam = (1, 1/2).
    assert afriat_numbers_valid(base_exact, 1, (0, 2), (1, Fraction(1, 2)))
    manual = AfriatSolution(phi=(0, 2), lam=(1, Fraction(1, 2)),
                            efficiency=coerce_efficiency(1, base_exact))
    assert worst_residual(manual, base_exact) <= 0
    assert evaluate_utility(manual, base_exact, (1, 1)) == 0
    assert evaluate_utility(manual, base_exact, (2, 2)) == 2


def test_single_observation_gauge(single_exact):
    sol = solve_afriat(single_exact)
    assert sol.phi == (0,) and sol.lam == (1,)


def test_observed_bundles_hit_their_levels_at_one(base_exact):
    sol = solve_afriat(base_exact)
    for t in range(base_exact.n_observations):
        assert evaluate_utility(sol, base_exact, base_exact.bundles[t]) == sol.phi[t]


def test_infeasible_carries_witness(viol_exact):
    with pytest.raises(AfriatInfeasibleError) as exc:
        solve_afriat(viol_exact)
    assert exc.value.witness.indices == (0, 1, 0)


def test_feasible_below_index(viol_exact):
    sol = solve_afriat(viol_exact, Fraction(4, 5))
    assert worst_residual(sol, viol_exact) <= 0
    assert afriat_numbers_valid(viol_exact, Fraction(4, 5), sol.phi, sol.lam)


def test_lambda_at_least_one(base_exact, viol_exact, single_exact):
    for ds, e in ((base_exact, 1), (viol_exact, Fraction(1, 2)), (single_exact, 1)):
        sol = solve_afriat(ds, e)
        assert all(l >= 1 for l in sol.lam)


def test_wrong_bundle_dimension(base_exact):
    sol = solve_afriat(base_exact)
    with pytest.raises(DimensionMismatchError):
        evaluate_utility(sol, base_exact, (1, 2, 3))


def test_batch_matches_scalar_evaluation(base_float):
    sol = solve_afriat(base_float)
    pts = np.array([[0.5, 1.5], [2.0, 0.1], [3.0, 3.0], [1.0, 1.0]])
    batch = evaluate_utility_batch(sol, base_float, pts)
    single = [evaluate_utility(sol, base_float, p) for p in pts]
    assert np.allclose(batch, single, rtol=1e-12)


def test_float_lane_solution(base_float):
    sol = solve_afriat(base_float)
    assert sol.phi == (-4.0, 0.0) and sol.lam == (2.0, 1.0)
    assert worst_residual(sol, base_float) <= 0


def test_float_allowance_that_overflows_is_refused():
    # lam * (p . x + e p . x) is 2e308: the recheck's allowance would be
    # +inf and its inequality unchecked.  The suite turns the overflow
    # warning into an error, so none may be raised on the way.
    from garpkit.errors import GarpkitError

    dataset = validate_dataset([[1, 1]], [[0, 1e308]], exact=False)
    with pytest.raises(GarpkitError, match="float64 range: the Afriat check's allowance"):
        solve_afriat(dataset)
    one = AfriatSolution((0.0,), (1.0,), (1.0,))
    with pytest.raises(GarpkitError, match="float64 range"):
        worst_residual(one, dataset)
    # Half the bundle keeps the allowance finite, and the exact lane has none.
    assert solve_afriat(validate_dataset([[1, 1]], [[0, 5e307]], exact=False)).residual <= 0
    assert solve_afriat(validate_dataset([[1, 1]], [[0, 1e308]], exact=True)).residual == 0


@pytest.mark.parametrize("big", ["phi", "lam"])
def test_utility_profile_of_out_of_range_afriat_numbers_is_not_finite(base_exact, big):
    # An exact Afriat number beyond float64 makes its mirror all NaN, so the
    # float profile is not finite; duality refuses it from there.
    numbers = {"phi": (Fraction(0), Fraction(0)), "lam": (Fraction(1), Fraction(1))}
    numbers[big] = (Fraction(10) ** 400, Fraction(1))
    solution = AfriatSolution(efficiency=(Fraction(1), Fraction(1)), **numbers)
    gradients, offsets = utility_profile(solution, base_exact)
    assert not (np.isfinite(gradients).all() and np.isfinite(offsets).all())


def _same_solution(dataset, e):
    """Whether the array construction and the loop reference agree, value
    for value and type for type; also whether some class has two members."""
    try:
        want = reference_afriat.solve_afriat(dataset, e)
    except AfriatInfeasibleError:
        with pytest.raises(AfriatInfeasibleError):
            solve_afriat(dataset, e)
        return False
    got = solve_afriat(dataset, e)
    assert got == want
    assert [type(v) for v in got.phi + got.lam] == [type(v) for v in want.phi + want.lam]
    ev = coerce_efficiency(e, dataset)
    return any(len(c) > 1 for c in _classes_in_order(direct_relations(dataset, ev)))


def test_array_construction_matches_the_loop_reference():
    # Random tables at random, breakpoint (a cross-expenditure ratio) and
    # unit efficiency, scalar and vector, on both lanes; every third table
    # repeats an observation, which puts two members in one class.
    rng = np.random.default_rng(20261101)
    compared = tied = 0
    for i in range(300):
        prices, bundles = random_tables(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        if i % 3 == 0:
            k = int(rng.integers(len(prices)))
            prices.append(prices[k])
            bundles.append(bundles[k])
        exact, floats = make_twins(prices, bundles)
        e_exact, e_float = random_efficiency(rng, exact) if i % 2 else (1, 1.0)
        for dataset, e in ((exact, e_exact), (floats, e_float)):
            tied += _same_solution(dataset, e)
            compared += 1
    assert compared == 600
    assert tied >= 50


@pytest.mark.parametrize("e", [Fraction(4, 5), Fraction(1, 2)])
def test_array_construction_matches_the_loop_reference_on_ties(viol_exact, viol_float, e):
    # At e = 4/5 both links of viol tie: one class with both observations.
    assert _same_solution(viol_exact, e) == (e == Fraction(4, 5))
    assert _same_solution(viol_float, float(e)) == (e == Fraction(4, 5))


@st.composite
def exact_datasets(draw):
    n_obs = draw(st.integers(1, 6))
    n_goods = draw(st.integers(1, 3))
    entry = st.integers(1, 25)
    prices = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    bundles = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    return validate_dataset(prices, bundles, exact=True)


@st.composite
def efficiencies(draw):
    return Fraction(draw(st.integers(1, 1000)), 1000)


@given(ds=exact_datasets(), e=efficiencies())
@settings(max_examples=60, deadline=None)
def test_feasibility_iff_e_garp(ds, e):
    holds = check_e_garp(ds, e, witness=False).holds
    try:
        sol = solve_afriat(ds, e)
    except AfriatInfeasibleError:
        assert not holds
    else:
        assert holds
        assert worst_residual(sol, ds) <= 0
        assert afriat_numbers_valid(ds, e, sol.phi, sol.lam)


@given(ds=exact_datasets())
@settings(max_examples=40, deadline=None)
def test_levels_and_observed_utilities_coincide_at_one(ds):
    if not check_e_garp(ds, witness=False).holds:
        return
    sol = solve_afriat(ds)
    for t in range(ds.n_observations):
        assert evaluate_utility(sol, ds, ds.bundles[t]) == sol.phi[t]


@given(ds=exact_datasets(), e=efficiencies())
@settings(max_examples=40, deadline=None)
def test_observed_utilities_dominate_levels_below_one(ds, e):
    if not check_e_garp(ds, e, witness=False).holds:
        return
    sol = solve_afriat(ds, e)
    for t in range(ds.n_observations):
        assert evaluate_utility(sol, ds, ds.bundles[t]) >= sol.phi[t]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_monotone_and_concave_on_random_points(seed):
    rng = np.random.default_rng(seed)
    prices, bundles = random_tables(rng, int(rng.integers(2, 7)),
                                    int(rng.integers(2, 4)))
    _, ds = make_twins(prices, bundles)
    e = float(rng.integers(1, 1001)) / 1000.0
    if not check_e_garp(ds, e, witness=False).holds:
        return
    sol = solve_afriat(ds, e)
    n_goods = ds.n_goods
    base_pts = rng.uniform(0.0, 12.0, size=(40, n_goods))
    bumps = rng.uniform(0.05, 2.0, size=(40, n_goods))
    lo = evaluate_utility_batch(sol, ds, base_pts)
    hi = evaluate_utility_batch(sol, ds, base_pts + bumps)
    assert (hi > lo).all()  # strictly increasing in every good

    other = rng.uniform(0.0, 12.0, size=(40, n_goods))
    mid = evaluate_utility_batch(sol, ds, 0.5 * (base_pts + other))
    lo2 = evaluate_utility_batch(sol, ds, other)
    assert (mid >= 0.5 * (lo + lo2) - 1e-9 * np.maximum(1.0, np.abs(mid))).all()
