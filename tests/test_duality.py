"""Sampling verification of rationalization and cost-rationalization."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from garpkit import (
    GeneratorSpec,
    check_duality_garp,
    generate,
    solve_afriat,
    validate_dataset,
    verify_cost_rationalization,
    verify_rationalization,
)
from garpkit.duality import SampleViolation, VerificationReport
from garpkit.model import cross_expenditures


def test_base_clean_both_ways(base_exact):
    sol = solve_afriat(base_exact)
    rat = verify_rationalization(base_exact, 1, sol, n_samples=400, seed=5)
    cost = verify_cost_rationalization(base_exact, 1, sol, n_samples=400, seed=5)
    assert rat.clean and cost.clean
    assert rat.kind == "rationalization"
    assert cost.kind == "cost-rationalization"
    assert not rat.exhausted and not cost.exhausted
    assert check_duality_garp(base_exact, 1, [rat, cost])


def test_cheaper_swap_coexists_with_cost_rationalization(base_exact):
    # Swapping the two bundles would cost 4 + 4 = 8 instead of 2 + 8 = 10,
    # yet per-observation cost-rationalization still verifies clean: the
    # saving says nothing about points weakly better than the chosen ones.
    cm = cross_expenditures(base_exact)
    swapped = cm.cost_array[0, 1] + cm.cost_array[1, 0]
    observed = cm.cost_array[0, 0] + cm.cost_array[1, 1]
    assert swapped == 8 and observed == 10 and swapped < observed
    sol = solve_afriat(base_exact)
    cost = verify_cost_rationalization(base_exact, 1, sol, n_samples=400, seed=5)
    assert cost.clean


def test_viol_at_its_index_verifies_clean(viol_exact):
    e = Fraction(4, 5)
    sol = solve_afriat(viol_exact, e)
    rat = verify_rationalization(viol_exact, e, sol, n_samples=400, seed=1)
    cost = verify_cost_rationalization(viol_exact, e, sol, n_samples=400, seed=1)
    assert rat.clean and cost.clean
    assert check_duality_garp(viol_exact, e, [rat, cost])


def test_reports_reproducible_by_seed(base_float):
    sol = solve_afriat(base_float)
    a = verify_rationalization(base_float, 1, sol, n_samples=300, seed=42)
    b = verify_rationalization(base_float, 1, sol, n_samples=300, seed=42)
    assert a == b
    c = verify_cost_rationalization(base_float, 1, sol, n_samples=300, seed=42)
    d = verify_cost_rationalization(base_float, 1, sol, n_samples=300, seed=42)
    assert c == d


def test_budget_samples_include_zero_and_observed(base_float):
    sol = solve_afriat(base_float)
    report = verify_rationalization(base_float, 1, sol, n_samples=10, seed=0)
    # 10 proposals + zero bundle + own bundle at least; obs 2 also affords
    # obs 1's bundle (cost 4 <= 8).
    assert report.per_observation[0].samples >= 12
    assert report.per_observation[1].samples >= 13


def test_float_lane_clean_on_random_feasible_data():
    rng = np.random.default_rng(99)
    prices = rng.uniform(0.1, 10.0, (6, 3)).tolist()
    bundles = rng.uniform(0.1, 10.0, (6, 3)).tolist()
    ds = validate_dataset(prices, bundles, exact=False)
    sol = solve_afriat(ds, 0.4)  # low deflator keeps the system feasible
    rat = verify_rationalization(ds, 0.4, sol, n_samples=2000, seed=3)
    cost = verify_cost_rationalization(ds, 0.4, sol, n_samples=2000, seed=3)
    assert rat.clean and cost.clean
    assert rat.total_samples >= 6 * 2000
    assert check_duality_garp(ds, 0.4, [rat, cost])


def test_float_verifiers_read_the_array_not_the_tuple_view():
    # Budgets come from the diagonal of cost_array; the T x T tuple view
    # of the cross expenditures is never built on the float lane.
    rng = np.random.default_rng(101)
    ds = validate_dataset(rng.uniform(0.1, 10.0, (8, 3)).tolist(),
                          rng.uniform(0.1, 10.0, (8, 3)).tolist(), exact=False)
    sol = solve_afriat(ds, 0.4)
    verify_rationalization(ds, 0.4, sol, n_samples=50, seed=0)
    verify_cost_rationalization(ds, 0.4, sol, n_samples=50, seed=0)
    assert "costs" not in vars(cross_expenditures(ds))


def test_exact_verifiers_convert_the_cross_expenditures_once(monkeypatch):
    # Each exact verifier takes one float64 mirror of the T x T cross
    # expenditures, shared by its range check and its level filter; the
    # other conversions (phi, lam, budgets, samples) are O(T) here.
    rng = np.random.default_rng(5)
    n = 60
    prices = [[f"{v / 100:.2f}" for v in row] for row in rng.integers(10, 1001, (n, 4))]
    bundles = [[f"{v / 100:.2f}" for v in row] for row in rng.integers(10, 1001, (n, 4))]
    ds = validate_dataset(prices, bundles, exact=True)
    sol = solve_afriat(ds, Fraction(1, 4))
    cross_expenditures(ds)
    calls = [0]
    to_float = Fraction.__float__

    def counted(self):
        calls[0] += 1
        return to_float(self)

    monkeypatch.setattr(Fraction, "__float__", counted)
    for verify in (verify_rationalization, verify_cost_rationalization):
        calls[0] = 0
        assert verify(ds, Fraction(1, 4), sol, n_samples=5, seed=0).clean
        assert n * n <= calls[0] < 2 * n * n, verify.__name__


def test_unclean_report_makes_duality_vacuous(viol_exact):
    fake = VerificationReport(
        kind="rationalization",
        requested_per_observation=1,
        seed=0,
        per_observation=(),
        violations=(SampleViolation(0, (1.0,), 1.0, 0.0),),
        exhausted=(),
    )
    # An unclean verification asserts nothing, so consistency holds even
    # though the dataset fails GARP at e = 1.
    assert check_duality_garp(viol_exact, 1, [fake])
    assert check_duality_garp(viol_exact, 1, [None])


def test_wrong_utility_is_caught_by_sampling(viol_float):
    # No utility rationalizes this dataset at e = 1, so any candidate
    # numbers must flunk the sampling; with phi = (0, 0) the region between
    # the two budget lines beats both observed bundles and has positive
    # measure, so a few hundred draws find it.
    from garpkit.afriat import AfriatSolution
    from garpkit.model import coerce_efficiency

    bogus = AfriatSolution(
        phi=(0.0, 0.0),
        lam=(1.0, 1.0),
        efficiency=coerce_efficiency(1, viol_float),
    )
    rat = verify_rationalization(viol_float, 1, bogus, n_samples=500, seed=0)
    assert not rat.clean
    assert rat.violations[0].lhs > rat.violations[0].rhs


def test_exact_lane_certifies_membership(base_exact):
    # Exact-lane reports carry no tolerance: every violation would be an
    # exact fact.  On consistent data there are none.
    sol = solve_afriat(base_exact)
    rat = verify_rationalization(base_exact, 1, sol, n_samples=150, seed=11)
    cost = verify_cost_rationalization(base_exact, 1, sol, n_samples=150, seed=11)
    assert rat.clean and cost.clean
    assert rat.total_samples > 0 and cost.total_samples > 0


@pytest.mark.parametrize("lane, bad", [
    ("exact", Fraction(0)), ("exact", Fraction(-1, 2)),
    ("float", 0.0), ("float", -1.0), ("float", float("nan")), ("float", float("inf")),
])
def test_verifiers_refuse_lam_not_positive_and_finite(base_exact, base_float, lane, bad):
    from garpkit.afriat import AfriatSolution
    from garpkit.errors import GarpkitError

    dataset = base_exact if lane == "exact" else base_float
    solution = solve_afriat(dataset)
    broken = AfriatSolution(solution.phi, (bad,) + solution.lam[1:], solution.efficiency)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="lam"):
            verify(dataset, 1, broken, n_samples=20, seed=0)


@pytest.mark.parametrize("scale", [
    1.0,
    pytest.param(1e6, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: the float rationalization margin is relative to the "
        "level, so rounding noise of large utility terms near a level of 0 "
        "is reported as a violation"))),
])
def test_scaled_cobb_douglas_verifies_clean(scale):
    # Scaling prices and bundles by a common factor changes no revealed
    # preference, so the float verifier's report should not change either.
    w = np.random.default_rng(0).dirichlet(np.ones(4))
    base = generate(GeneratorSpec("cobb_douglas", tuple(w / w.sum()), 6,
                                  (0.5, 5.0), (50.0, 150.0), seed=0))
    ds = validate_dataset((np.array(base.prices) * scale).tolist(),
                          (np.array(base.bundles) * scale).tolist(), exact=False)
    solution = solve_afriat(ds, e=1)
    report = verify_rationalization(ds, 1, solution, n_samples=200, seed=0)
    assert report.clean, report.violations


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: the float Afriat post-check's allowance scales with lam "
    "times the costs and the cost verifier's margin does not, so with lam up "
    "to 1.9e14 the solver's own solution fails the cost verifier"))
def test_float_cost_verifier_passes_the_solvers_own_solution_at_huge_lam():
    rng = np.random.default_rng([9003, 7])
    prices = rng.integers(10, 1001, (300, 10)) / 100
    bundles = rng.integers(10, 1001, (300, 10)) / 100
    dataset = validate_dataset(prices.tolist(), bundles.tolist(), exact=False)
    e = 0.6537154962645189
    solution = solve_afriat(dataset, e)
    report = verify_cost_rationalization(dataset, e, solution, n_samples=200, seed=0)
    assert report.clean, len(report.violations)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: on this table the float cost verifier reports the "
    "solver's own solution at e* as violated at observation 91 (index 90), "
    "lhs 141.78056107520746 against rhs 141.78056368946872, and verify exits 1"))
def test_float_cost_verifier_passes_the_solvers_own_solution_at_e_star():
    # perfbench's random_table(default_rng(7), 300), at the breakpoint below
    # its CCEI 14027/22051.
    rng = np.random.default_rng(7)
    prices = rng.integers(10, 1001, (300, 10)) / 100
    bundles = rng.integers(10, 1001, (300, 10)) / 100
    dataset = validate_dataset(prices.tolist(), bundles.tolist(), exact=False)
    e = float(Fraction(938451, 1475291))
    solution = solve_afriat(dataset, e)
    report = verify_cost_rationalization(dataset, e, solution, n_samples=2000, seed=0)
    assert report.clean, [(v.observation, v.lhs, v.rhs) for v in report.violations]
