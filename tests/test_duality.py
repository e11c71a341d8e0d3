"""Sampling verification of rationalization and cost-rationalization."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from garpkit import (
    GeneratorSpec,
    ccei_exact,
    check_duality_garp,
    generate,
    solve_afriat,
    validate_dataset,
    verify_cost_rationalization,
    verify_rationalization,
)
from garpkit import afriat, duality, stream
from garpkit.afriat import AfriatSolution, evaluate_utility_batch
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
    costs = cross_expenditures(base_exact)
    swapped = costs[0, 1] + costs[1, 0]
    observed = costs[0, 0] + costs[1, 1]
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


def _two_decimal_table(n):
    rng = np.random.default_rng(5)
    prices = [[f"{v / 100:.2f}" for v in row] for row in rng.integers(10, 1001, (n, 4))]
    bundles = [[f"{v / 100:.2f}" for v in row] for row in rng.integers(10, 1001, (n, 4))]
    return validate_dataset(prices, bundles, exact=True)


def test_exact_verifiers_convert_the_cross_expenditures_once(monkeypatch):
    # The dataset takes one float64 mirror of the T x T cross expenditures,
    # here in solve_afriat's check, and both verifiers read it; their own
    # conversions (phi, lam, budgets, samples) are O(T) here.
    n = 60
    ds = _two_decimal_table(n)
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
        assert calls[0] < n * n, verify.__name__


def test_exact_afriat_check_evaluates_few_pieces(monkeypatch):
    # The check of the T^2 inequalities is one exact U(x[s]) per observed
    # bundle, and U is evaluated exactly only on the pieces whose float
    # bracket reaches the minimum: each piece costs one product lam[t] *
    # (costs[t][s] - own[t]), so far fewer than T^2 products are taken.
    n = 60
    ds = _two_decimal_table(n)
    cross_expenditures(ds)
    products = []
    multiply = Fraction.__mul__
    residual = afriat.worst_residual

    def counted(a, b):
        if products:
            products[-1] += 1
        return multiply(a, b)

    def check(*args):
        products.append(0)
        return residual(*args)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    monkeypatch.setattr(afriat, "worst_residual", check)
    sol = solve_afriat(ds, Fraction(1, 4))
    assert sol.residual == 0 and len(products) == 1
    # n products form own[t] = e[t] * costs[t][t]; the pieces take the rest.
    assert n <= products[0] < n * n // 10


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
    from garpkit.errors import GarpkitError

    dataset = base_exact if lane == "exact" else base_float
    solution = solve_afriat(dataset)
    broken = AfriatSolution(solution.phi, (bad,) + solution.lam[1:], solution.efficiency)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="lam"):
            verify(dataset, 1, broken, n_samples=20, seed=0)


@pytest.mark.parametrize("family, scale, seed", [
    pytest.param("cobb_douglas", 1.0, 0, id="1.0"),
    pytest.param("cobb_douglas", 1e6, 1, id="1000000.0"),
    pytest.param("cobb_douglas", 1e8, 5, id="100000000.0"),
    pytest.param("ces", 1e6, 0, id="ces-1000000.0"),
])
def test_scaled_cobb_douglas_verifies_clean(family, scale, seed):
    # Scaling prices and bundles by a common factor changes no revealed
    # preference, so the float verifier's report should not change either.
    # On each scaled table, two roundings of U at an observed bundle differ
    # by more than the allowance, so the bundle's value as a sample and as
    # its own level must be the same float.
    if family == "cobb_douglas":
        w = np.random.default_rng(seed).dirichlet(np.ones(4))
        spec = GeneratorSpec("cobb_douglas", tuple(w / w.sum()), 6,
                             (0.5, 5.0), (50.0, 150.0), seed=seed)
    else:
        spec = GeneratorSpec("ces", (1.0, 1.5, 0.7, 1.2), 10, (0.5, 5.0), (50.0, 150.0),
                             elasticity=0.5, seed=seed)
    base = generate(spec)
    ds = validate_dataset((np.array(base.prices) * scale).tolist(),
                          (np.array(base.bundles) * scale).tolist(), exact=False)
    solution = solve_afriat(ds, e=1)
    report = verify_rationalization(ds, 1, solution, n_samples=200, seed=0)
    assert report.clean, report.violations


def test_u_at_the_observed_bundles_is_one_product_read_by_every_check():
    # With one lam tripled the solution is wrong, and the rationalization
    # check finds violations at several observations.  _set_up takes U at
    # every observed bundle in one product, the value evaluate_utility_batch
    # gives, and each violation is measured against that value.
    dataset = generate(GeneratorSpec("ces", (1.0, 1.5, 0.7, 1.2), 10, (0.5, 5.0),
                                     (50.0, 150.0), elasticity=0.5, seed=9))
    solution = solve_afriat(dataset)
    lam = list(solution.lam)
    lam[3] *= 3.0
    tampered = AfriatSolution(solution.phi, tuple(lam), solution.efficiency)
    observed = duality._set_up(dataset, 1, tampered)[4]
    want = evaluate_utility_batch(tampered, dataset, dataset.bundle_array)
    assert observed.tobytes() == want.tobytes()
    report = verify_rationalization(dataset, 1, tampered, n_samples=200, seed=0)
    assert len({v.observation for v in report.violations}) > 1
    for violation in report.violations:
        assert violation.rhs == observed[violation.observation]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the float Afriat post-check's allowance scales with lam "
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: on this table the float cost verifier reports the "
    "solver's own solution at e* as violated at observation 91 (index 90), "
    "lhs 141.78056107520746 against rhs 141.78056368946872, and verify exits 1"))
def test_float_cost_verifier_passes_the_solvers_own_solution_at_e_star(monkeypatch):
    # perfbench's random_table(default_rng(7), 300), at the breakpoint below
    # its CCEI 14027/22051.  Every ray of observation 91 goes along one
    # fixed direction on which piece 90 is the slowest, so the ray point is
    # bound by piece 90 whatever the stream draws; any such point costs lhs.
    rng = np.random.default_rng(7)
    prices = rng.integers(10, 1001, (300, 10)) / 100
    bundles = rng.integers(10, 1001, (300, 10)) / 100
    dataset = validate_dataset(prices.tolist(), bundles.tolist(), exact=False)
    e = float(Fraction(938451, 1475291))
    solution = solve_afriat(dataset, e)
    direction = np.array([0.69, 0.61, 0.17, 0.45, 1.0, 0.02, 0.79, 0.26, 0.63, 0.52])
    gradients, offsets, level = duality._set_up(dataset, e, solution)[2:5]
    if np.argmax((level[90] - offsets) / (gradients @ direction)) != 90:
        pytest.fail("piece 90 is not the slowest along the pinned direction")
    draw = duality._uniforms

    def stub(seed, purpose, t, rows, cols):
        if purpose == duality._RAYS and t == 90:
            return np.tile(direction, (rows, 1))
        return draw(seed, purpose, t, rows, cols)

    monkeypatch.setattr(duality, "_uniforms", stub)
    report = verify_cost_rationalization(dataset, e, solution, n_samples=2000, seed=0)
    assert report.clean, [(v.observation, v.lhs, v.rhs) for v in report.violations]


def test_points_still_under_the_level_after_the_nudge_are_dropped(monkeypatch):
    # perfbench's random_table(default_rng(11), 30) at its e*, the breakpoint
    # below its CCEI.  With a nudge factor of 1 the nudge moves no point, so
    # every point the real nudge lifts is dropped instead, and the points
    # left are the same ones.
    rng = np.random.default_rng(11)
    prices = rng.integers(10, 1001, (30, 10))
    bundles = rng.integers(10, 1001, (30, 10))
    dataset = validate_dataset([[Fraction(int(v), 100) for v in row] for row in prices],
                               [[Fraction(int(v), 100) for v in row] for row in bundles],
                               exact=True)
    index = ccei_exact(dataset)
    e = max(b for b in index.breakpoints if b < index.value)
    solution = solve_afriat(dataset, e)
    nudged = verify_cost_rationalization(dataset, e, solution, n_samples=40, seed=0)
    monkeypatch.setattr(duality, "_NUDGE", Fraction(1))
    kept = verify_cost_rationalization(dataset, e, solution, n_samples=40, seed=0)
    assert nudged.nudged > 0
    assert kept.nudged == 0
    assert kept.dropped == nudged.nudged + nudged.dropped
    assert kept.total_samples + kept.dropped == nudged.total_samples + nudged.dropped
    assert nudged.clean and kept.clean


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_cost_verifier_refuses_a_sampling_box_outside_the_float64_range(exact):
    # Twice the largest bundle is +inf in float64, so every box draw would be.
    from garpkit.errors import GarpkitError

    dataset = validate_dataset([[1, 1]], [[0, 1e308]], exact=exact)
    one = dataset.number(1)
    solution = AfriatSolution((0 * one,), (one,), (one,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GarpkitError, match="float64 range: the sampling box"):
            verify_cost_rationalization(dataset, 1, solution, n_samples=5, seed=0)


def test_verifiers_blame_afriat_numbers_outside_the_float64_range():
    # Valid data; only the solution, scaled by 10**400, leaves the range.
    from garpkit.errors import GarpkitError

    dataset = validate_dataset([["1", "2"], ["2", "1"]], [["1", "0"], ["0", "1"]], exact=True)
    solution = solve_afriat(dataset)
    scaled = AfriatSolution(tuple(v * 10 ** 400 for v in solution.phi),
                            tuple(v * 10 ** 400 for v in solution.lam), solution.efficiency)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="Afriat numbers outside the float64 range"):
            verify(dataset, 1, scaled, n_samples=5, seed=0)


def _splitmix64(seed: int, purpose: int, t: int, count: int) -> list[float]:
    """The verifiers' stream in pure Python: SplitMix64 absorbs the purpose,
    t and the seed's 64-bit words into a key, then runs from that state."""
    mask = 2**64 - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    words = [purpose, t]
    while True:
        words.append(seed & mask)
        seed >>= 64
        if not seed:
            break
    state = 0
    for word in words:
        state = mix(((state ^ word) + 0x9E3779B97F4A7C15) & mask)
    values = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        values.append(_unit(mix(state)))
    return values


def _unit(z: int) -> float:
    return ((z >> 12) + 0.5) * 2.0**-52


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 1, 2**64, 2**64 + 5, 2**130 + 7])
def test_stream_is_splitmix64_bit_for_bit(monkeypatch, seed):
    # Across block boundaries: blocks of 7 counters, and blocks of the
    # default size with a short last block.
    want = _splitmix64(seed, stream._RAYS, 3, 2 * stream._COUNTERS + 5)
    got = stream._uniforms(seed, stream._RAYS, 3, 2 * stream._COUNTERS + 5, 1)
    assert got.ravel().tolist() == want
    monkeypatch.setattr(stream, "_COUNTERS", 7)
    got = stream._uniforms(seed, stream._RAYS, 3, 6, 5)
    assert got.shape == (6, 5) and got.ravel().tolist() == want[:30]
    # A seed of 2**64 or more is not its value modulo 2**64.
    if seed >= 2**64:
        assert got.tolist() != stream._uniforms(seed % 2**64, stream._RAYS, 3, 6, 5).tolist()


def test_stream_values_lie_strictly_inside_the_unit_interval():
    # The smallest and largest outputs of the mix map inside (0, 1), and the
    # stream is that map bit for bit.
    assert 0.0 < _unit(0) and _unit(2**64 - 1) < 1.0
    values = stream._uniforms(1, stream._BUDGET, 0, 50_000, 11)
    assert 0.0 < values.min() and values.max() < 1.0
    # Distinct purposes and observations give distinct streams.
    purposes = (stream._BUDGET, stream._BOX, stream._RAYS, stream._MARKETS, stream._CORNERS)
    firsts = {stream._uniforms(1, p, t, 1, 4).tobytes() for p in purposes for t in range(4)}
    assert len(firsts) == 20


def test_stream_of_an_observation_does_not_depend_on_t(monkeypatch):
    # The verifiers draw the same points for observation t whatever the
    # number of observations: draws on the first 3 rows of a CES table
    # are those on all 8.
    draws = {}
    stream = duality._uniforms

    def record(seed, purpose, t, rows, cols):
        values = stream(seed, purpose, t, rows, cols)
        draws.setdefault((purpose, t), []).append(values.tobytes())
        return values

    monkeypatch.setattr(duality, "_uniforms", record)
    # Every observation draws its rays.
    monkeypatch.setattr(duality, "_own_piece_certifies", lambda *args: False)
    spec = GeneratorSpec("ces", (1.0, 1.5, 0.7), 8, (0.5, 5.0), (50.0, 150.0),
                         elasticity=0.5, seed=4)
    table = generate(spec)
    for n in (3, 8):
        dataset = validate_dataset(table.prices[:n], table.bundles[:n], exact=False)
        solution = solve_afriat(dataset)
        verify_rationalization(dataset, 1, solution, n_samples=30, seed=9)
        verify_cost_rationalization(dataset, 1, solution, n_samples=30, seed=9)
    for purpose in (duality._BUDGET, duality._BOX, duality._RAYS):
        for t in range(3 if purpose != duality._BOX else 1):
            first, second = draws[(purpose, t)]
            assert first == second


@pytest.mark.parametrize("seed", [-1, -2**64, 1.5, True, np.bool_(False)])
def test_verifiers_refuse_a_seed_that_is_no_non_negative_integer(base_float, seed):
    from garpkit.errors import GarpkitError

    solution = solve_afriat(base_float)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="seed must be a non-negative integer"):
            verify(base_float, 1, solution, n_samples=5, seed=seed)


@pytest.mark.parametrize("n_samples", [-1, 0, 2.0, True, np.int64(-3)])
def test_verifiers_refuse_a_sample_count_that_is_no_positive_integer(base_float, n_samples):
    from garpkit.errors import GarpkitError

    solution = solve_afriat(base_float)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="n_samples must be at least 1 and an integer"):
            verify(base_float, 1, solution, n_samples=n_samples, seed=0)
