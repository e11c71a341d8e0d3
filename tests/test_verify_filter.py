"""The float64 filter of the exact lane and the float lane's array kernels.

The filtered verifiers must report exactly what the unfiltered exact code
in ``reference_verify`` reports, and the filter's float bracket must always
contain the exact utility.  On the float lane the screened verifiers and
the array ``worst_residual`` must give the reference's reports and floats,
and the cost verifier's own-piece certificate must never clear an
observation that has a point the full check would flag.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify
from conftest import make_twins, random_efficiency, random_tables
from garpkit import (
    GeneratorSpec,
    ccei_exact,
    check_e_garp,
    evaluate_utility,
    generate,
    solve_afriat,
    validate_dataset,
    verify_cost_rationalization,
    verify_rationalization,
)
from garpkit import afriat, duality, stream
from garpkit.afriat import AfriatSolution, worst_residual
from garpkit.errors import AfriatInfeasibleError, GarpkitError
from garpkit.model import CHECK_RTOL, coerce_efficiency, cross_expenditures

VERIFIERS = (
    (verify_rationalization, reference_verify.verify_rationalization),
    (verify_cost_rationalization, reference_verify.verify_cost_rationalization),
)


def _without_counts(report):
    return dataclasses.replace(report, exact_certified=0, nudged=0, dropped=0)


def _vacuous_filter(*args, make=afriat._make_filter):
    """The filter with NaN phi: every bracket is (-inf, inf), as for
    non-normal mirrors, so every sampled point takes the exact path."""
    flt = make(*args)
    return dataclasses.replace(flt, phi=np.full_like(flt.phi, np.nan))


def _tampered(solution, k):
    phi, lam = list(solution.phi), list(solution.lam)
    phi[k] += Fraction(1, 3)
    lam[k] *= Fraction(3, 2)
    return [
        AfriatSolution(tuple(phi), solution.lam, solution.efficiency),
        AfriatSolution(solution.phi, tuple(lam), solution.efficiency),
    ]


def _observed_in_reports(dataset, e, solution):
    """How many observed bundles the rationalization and the cost report
    count, decided here from exact utilities and exact sums: those in each
    deflated budget, and those at least as good as each chosen bundle."""
    ev = coerce_efficiency(e, dataset)
    spent = [[sum(p * x for p, x in zip(prices, bundle)) for bundle in dataset.bundles]
             for prices in dataset.prices]
    levels = [evaluate_utility(solution, dataset, x) for x in dataset.bundles]
    n = dataset.n_observations
    inside = sum(spent[t][s] <= ev[t] * spent[t][t] for t in range(n) for s in range(n))
    upper = sum(levels[s] >= levels[t] for t in range(n) for s in range(n))
    return inside, upper


def _breakpoint_efficiency(dataset):
    """The largest breakpoint at which e-GARP holds."""
    result = ccei_exact(dataset)
    if result.attained:
        return result.value
    return max(b for b in result.breakpoints if b < result.value)


def test_reports_match_the_unfiltered_reference():
    _compare_with_reference("exact", datasets=24)


def test_float_reports_match_the_reference(monkeypatch):
    # The code before the own-piece screen, the reused workspace and the
    # cost certificate: the same report, violations and their floats
    # included, whether the certificate clears an observation or not.
    outcomes = _spy_on_certificate(monkeypatch)
    _compare_with_reference("float", datasets=60)
    assert True in outcomes and False in outcomes


def _spy_on_certificate(monkeypatch) -> list:
    """Record the outcome of every own-piece cost certificate."""
    outcomes = []
    certifies = duality._own_piece_certifies

    def spy(*args):
        outcomes.append(certifies(*args))
        return outcomes[-1]

    monkeypatch.setattr(duality, "_own_piece_certifies", spy)
    return outcomes


def _compare_with_reference(lane, datasets):
    rng = np.random.default_rng(20261018)
    compared = violations = 0
    for i in range(datasets):
        prices, bundles = random_tables(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        exact, floats = make_twins(prices, bundles)
        if i % 2:
            e = _breakpoint_efficiency(exact)
        else:
            e, _ = random_efficiency(rng, exact)
        dataset = exact if lane == "exact" else floats
        try:
            solution = solve_afriat(dataset, e)
        except AfriatInfeasibleError:
            continue
        k = int(rng.integers(exact.n_observations))
        for candidate in [solution, *_tampered(solution, k)]:
            for fast, slow in VERIFIERS:
                got = fast(dataset, e, candidate, n_samples=40, seed=i)
                want = slow(dataset, e, candidate, n_samples=40, seed=i)
                if lane == "exact":
                    assert _without_counts(got) == want
                    assert got.exact_certified <= got.total_samples + got.dropped
                else:
                    assert got == want
                compared += 1
                violations += len(want.violations)
    assert compared >= 60
    assert violations > 0  # the tampered solutions are caught


def test_float_worst_residual_is_the_loop_float():
    rng = np.random.default_rng(20261020)
    compared = 0
    for i in range(40):
        prices, bundles = random_tables(rng, int(rng.integers(1, 12)), int(rng.integers(1, 5)))
        _, floats = make_twins(prices, bundles)
        e = 1 if i % 2 else float(rng.uniform(0.3, 1.0))
        try:
            solution = solve_afriat(floats, e)
        except AfriatInfeasibleError:
            continue
        k = int(rng.integers(floats.n_observations))
        nan = AfriatSolution((float("nan"),) + solution.phi[1:], solution.lam,
                             solution.efficiency)
        for candidate in [solution, *_tampered(solution, k), nan]:
            got = worst_residual(candidate, floats)
            want = reference_verify.worst_residual(candidate, floats)
            assert type(got) is float and got == want
            compared += 1
    assert compared >= 60


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_own_piece_screen_covers_any_rounding(scale):
    # Whenever the screen clears an observation, every rounding of piece t
    # that the full product could produce, in any order, stays under the
    # full evaluation's threshold.  Points near the level on a piece with
    # large terms make the rounding error outweigh the threshold's margin.
    rng = np.random.default_rng(20261021)
    u = Fraction(1, 2**53)
    cleared = 0
    for _ in range(300):
        goods = int(rng.integers(1, 11))
        gradient = rng.uniform(0.1, 10.0, goods) * scale
        points = rng.uniform(0.0, 10.0, (int(rng.integers(1, 6)), goods))
        level = float(rng.choice([0.0, 1.0, -3.5, 1e6]))
        dot = float((points @ gradient).max())
        offset = level - dot + float(rng.normal()) * 1e-9 * max(1.0, dot * 1e-6)
        if not duality._own_piece_clears(points, gradient, offset, level):
            continue
        cleared += 1
        gamma = goods * u / (1 - goods * u)
        threshold = (Fraction(level)
                     + Fraction(CHECK_RTOL) * max(1, abs(Fraction(level))) * (1 - u))
        for row in points.tolist():
            exact = sum(Fraction(x) * Fraction(g) for x, g in zip(row, gradient.tolist()))
            worst = exact * (1 + gamma) + Fraction(offset)
            assert worst + u * abs(worst) <= threshold
    assert cleared > 0


def _rational_cost_floor(price, gradient, offset, level):
    """The least float cost any covered point of the certificate can have,
    under the worst rounding, computed in rationals.

    Covered points are box draws or observed bundles whose piece value
    ``fl(fl(x . g) + o)`` reaches ``level``, and ray points ``fl(alpha * d)``
    with ``alpha >= fl(fl(level - o) / fl(d . g))``.  Each float operation
    may be off by a factor ``1 + delta``, ``|delta| <= u``, and each dot
    product by ``1 + theta``, ``|theta| <= gamma_L``.
    """
    u = Fraction(1, 2**53)
    goods = len(price)
    gamma = goods * u / (1 - goods * u)
    level, offset = Fraction(level), Fraction(offset)
    # fl(y) >= level needs y >= level - u |level|; d <= (x . g)(1 + gamma).
    drawn = (level - u * abs(level) - offset) / (1 + gamma)
    # a = fl(level - o), then q = fl(a / slope) with slope <= (d . g)(1 + gamma),
    # then each coordinate fl(alpha * d_i).
    reach = level - offset
    reach -= u * abs(reach)
    ray = max(reach, 0) * (1 - u) ** 2 / (1 + gamma)
    # x . g = sum x_i p_i (g_i / p_i), so x . p >= (x . g) / max(g_i / p_i).
    scale = max(Fraction(g) / Fraction(p) for g, p in zip(gradient, price))
    return min(drawn, ray) / scale * (1 - gamma)


@st.composite
def _certificate_cases(draw):
    goods = draw(st.integers(1, 10))
    price = np.array([draw(st.floats(0.01, 100.0)) for _ in range(goods)])
    lam = draw(st.sampled_from([1.0, 3.7, 1e3, 1e8, 1.9e14])) * draw(st.floats(1.0, 2.0))
    gradient = lam * price
    budget = draw(st.floats(0.1, 1e4))
    phi = draw(st.sampled_from([0.0, 1.0, -535.2, 1e6, -5.9e5, 1e12]))
    offset = phi - lam * budget
    threshold = budget * (1.0 - CHECK_RTOL)
    # Put the level where the certificate's error term decides: kappa units
    # of u (|level| + |offset|) above the level at which the bare bound
    # (level - offset) / lam meets the threshold.
    scale = abs(phi) + abs(offset) + lam * threshold
    kappa = draw(st.floats(-10.0, 3.0 * (goods + 4)))
    level = offset + lam * threshold + kappa * 2.0 ** -53 * scale
    return price, lam, gradient, offset, level, threshold


@settings(max_examples=300, deadline=None)
@given(_certificate_cases(), st.integers(0, 2**32 - 1))
def test_cost_certificate_covers_any_rounding(case, seed):
    # Whenever the certificate clears an observation, no covered point's
    # float cost can fall under the threshold, whatever the rounding: both
    # the worst case in rationals and points drawn by the verifier's own
    # code (rays on the piece's level, draws just above it).
    price, lam, gradient, offset, level, threshold = case
    if not duality._own_piece_certifies(gradient, offset, lam, level, threshold):
        return
    assert _rational_cost_floor(price, gradient, offset, level) >= Fraction(threshold)
    work = np.empty((2, 50, 1))
    directions = duality._uniforms(seed, duality._RAYS, 0, 50, len(price))
    rays = duality._ray_level_points(directions, gradient[None], np.array([offset]), level, work)
    draws = np.random.default_rng(seed).uniform(0.5, 1.5, (50, len(price)))
    draws *= (level - offset) / (draws @ gradient)[:, None]
    draws = draws[draws @ gradient + offset >= level]
    u = Fraction(1, 2**53)
    gamma = len(price) * u / (1 - len(price) * u)
    for row in np.vstack([rays, draws]).tolist():
        cost = sum(Fraction(x) * Fraction(p) for x, p in zip(row, price.tolist()))
        assert cost * (1 - gamma) >= Fraction(threshold)


def test_cost_certificate_fails_on_bad_input():
    gradient = np.array([2.0, 4.0])
    assert duality._own_piece_certifies(gradient, -10.0, 2.0, 0.0, 4.0)
    for offset, lam, level in ((np.nan, 2.0, 0.0), (-10.0, 2.0, np.nan),
                               (-np.inf, 2.0, 0.0), (-10.0, 2.0, np.inf)):
        assert not duality._own_piece_certifies(gradient, offset, lam, level, 4.0)
    assert not duality._own_piece_certifies(np.array([2.0, np.inf]), -10.0, 2.0, 0.0, 4.0)
    assert not duality._own_piece_certifies(np.array([2.0, 1e-300]), -10.0, 2.0, 0.0, 4.0)


def _ces_float(observations, seed):
    spec = GeneratorSpec(family="ces", weights=(1.0, 1.5, 0.7, 1.2), elasticity=0.5,
                         n_observations=observations, price_range=(0.5, 5.0),
                         income_range=(50.0, 150.0), waste=0.0, seed=seed)
    return generate(spec)


def test_blocked_float_reports_match_the_reference():
    # A float CES table at T = 300 and 1600 samples: 800 box draws and 800
    # rays in four blocks each, and over 1600 budget points in seven,
    # through one workspace.  The reference takes each product over all
    # rows at once.  Scaling one lam of the honest solution breaks both
    # inequalities, so violations are compared too.
    samples = 1600
    assert duality._block_rows(samples // 2, 300) == duality._BLOCK
    assert samples // 2 >= 3 * duality._BLOCK
    dataset = _ces_float(300, seed=13)
    solution = solve_afriat(dataset)
    violations = 0
    for candidate in (solution, _tampered(solution, 0)[1]):
        for fast, slow in VERIFIERS:
            got = fast(dataset, 1, candidate, n_samples=samples, seed=3)
            want = slow(dataset, 1, candidate, n_samples=samples, seed=3)
            assert got == want
            violations += len(want.violations)
    assert violations > 0


def test_small_blocks_give_the_reference_reports(monkeypatch):
    # Blocks of 3 rows put block boundaries everywhere: inside the box
    # draws, the rays and the budget points, with short last blocks.
    monkeypatch.setattr(duality, "_BLOCK", 3)
    _compare_with_reference("float", datasets=30)


def test_cost_verifier_holds_one_block_of_products():
    # Float CES, T = 300, L = 10, 2000 samples: one (2, 1000, T) workspace
    # held 5.3 MiB at the peak; blocks of 256 rows bring that to 1.9 MiB.
    spec = GeneratorSpec(family="ces", weights=tuple(np.linspace(0.5, 2.0, 10)),
                         elasticity=0.6, n_observations=300, price_range=(0.5, 5.0),
                         income_range=(50.0, 150.0), waste=0.0, seed=3)
    dataset = generate(spec)
    solution = solve_afriat(dataset)
    verify_cost_rationalization(dataset, 1, solution, n_samples=20, seed=0)
    tracemalloc.start()
    try:
        report = verify_cost_rationalization(dataset, 1, solution, n_samples=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.clean
    assert peak < 3 * 2**20


def test_cost_certificate_skips_the_ray_search_on_honest_solutions(monkeypatch):
    # An honest float CES solution clears every observation with its own
    # piece, so no ray search runs.  Raising phi[k] by 1/3 can only make
    # observation k fail the certificate, and it does for some k: then that
    # observation, and only that one, runs the ray search.
    levels = []
    search = duality._ray_level_points

    def spy(directions, gradients, offsets, level, *rest):
        levels.append(level)
        return search(directions, gradients, offsets, level, *rest)

    monkeypatch.setattr(duality, "_ray_level_points", spy)
    dataset = _ces_float(40, seed=5)
    solution = solve_afriat(dataset)
    report = verify_cost_rationalization(dataset, 1, solution, n_samples=200, seed=1)
    assert report.clean and not levels
    searched = 0
    for k in range(dataset.n_observations):
        phi = list(solution.phi)
        phi[k] += 1 / 3
        tampered = AfriatSolution(tuple(phi), solution.lam, solution.efficiency)
        levels.clear()
        got = verify_cost_rationalization(dataset, 1, tampered, n_samples=200, seed=1)
        want = reference_verify.verify_cost_rationalization(dataset, 1, tampered,
                                                            n_samples=200, seed=1)
        assert got == want
        assert len(levels) <= 1
        searched += len(levels)
    assert searched > 0


def test_cost_certificate_on_a_table_with_huge_lam(monkeypatch):
    # A random T = 300 table at its e*: the honest float solution has lam up
    # to 1.9e14, and rounding puts two observed bundles' float utility under
    # their own level.  The certificate cannot clear those two, and their
    # full check flags points of observation 158 (a float-lane defect of the
    # tolerance policy, not of the certificate); the report is the
    # reference's either way.
    rng = np.random.default_rng([9003, 7])
    prices = rng.integers(10, 1001, (300, 10)) / 100
    bundles = rng.integers(10, 1001, (300, 10)) / 100
    dataset = validate_dataset(prices.tolist(), bundles.tolist(), exact=False)
    e = 0.6537154962645189
    solution = solve_afriat(dataset, e)
    outcomes = _spy_on_certificate(monkeypatch)
    got = verify_cost_rationalization(dataset, e, solution, n_samples=200, seed=0)
    assert [t for t, ok in enumerate(outcomes) if not ok] == [57, 158]
    assert got == reference_verify.verify_cost_rationalization(dataset, e, solution,
                                                               n_samples=200, seed=0)
    assert {v.observation for v in got.violations} == {158}


def test_upper_set_membership_of_observed_bundles_is_exact():
    # The T = 6 table that the exact reference comparison draws at i = 15.
    # U(x[0]) and U(x[2]) are the same rational, but their float values in
    # the one product of _set_up are an ulp apart, -36.66505772691808 and
    # -36.665057726918064.  Membership read off those floats left x[0] out
    # of observation 2's upper set (40 points where 41 are due); read off
    # the exact levels it is in.
    prices = [["106/25", "337/50", "557/100", "232/25"], ["337/50", "723/100", "186/25", "47/25"],
              ["629/100", "97/100", "13/2", "519/100"], ["361/100", "249/100", "66/25", "603/100"],
              ["669/100", "487/100", "119/100", "253/50"], ["21/5", "73/25", "28/5", "76/25"]]
    bundles = [["153/50", "469/100", "101/25", "183/20"], ["667/100", "212/25", "33/5", "627/100"],
               ["97/20", "87/25", "747/100", "217/50"], ["202/25", "133/100", "87/100", "389/100"],
               ["33/50", "411/50", "147/20", "93/100"], ["189/25", "879/100", "144/25", "761/100"]]
    dataset = validate_dataset(prices, bundles, exact=True)
    e = Fraction(1259023, 1519998)
    solution = solve_afriat(dataset, e)
    levels = [evaluate_utility(solution, dataset, x) for x in dataset.bundles]
    assert levels[0] == levels[2] == Fraction(-139327036037, 3799995000)
    report = verify_cost_rationalization(dataset, e, solution, n_samples=40, seed=15)
    assert [o.samples for o in report.per_observation] == [41, 29, 41, 45, 46, 27]
    want = reference_verify.verify_cost_rationalization(dataset, e, solution,
                                                        n_samples=40, seed=15)
    assert _without_counts(report) == want


def test_nudge_counts_match_the_all_exact_path(monkeypatch):
    # With a vacuous filter every point takes the exact path, which counts
    # its own nudges and drops; the filter must report the same numbers.
    # The observed bundles take no exact path: they are decided from their
    # levels, and the counts leave them out.
    rng = np.random.default_rng(20261019)
    filtered, unfiltered, observed = [], [], []
    for i in range(12):
        prices, bundles = random_tables(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        exact, _ = make_twins(prices, bundles)
        e = _breakpoint_efficiency(exact)
        solution = solve_afriat(exact, e)
        filtered.append(verify_cost_rationalization(exact, e, solution, n_samples=60, seed=i))
        with monkeypatch.context() as m:
            m.setattr(afriat, "_make_filter", _vacuous_filter)
            unfiltered.append(verify_cost_rationalization(exact, e, solution,
                                                          n_samples=60, seed=i))
        observed.append(_observed_in_reports(exact, e, solution)[1])
    for got, want, upper in zip(filtered, unfiltered, observed):
        assert want.exact_certified == want.total_samples + want.dropped - upper
        assert dataclasses.replace(got, exact_certified=want.exact_certified) == want
    assert sum(r.nudged for r in unfiltered) > 0


def test_observed_bundles_never_reach_the_exact_path(base_exact, monkeypatch):
    # At e = 1 the chosen bundle x[t] lies on its own budget line and on its
    # own level surface: U(x[t]) equals the level and p[t] . x[t] equals the
    # budget, so no float bracket could settle it as a sample.  The observed
    # bundles are not samples: they are decided from U(x[s]) and the cross
    # expenditures, so none is converted to rationals, and the reports count
    # them without counting them as decided exactly.
    seen = []
    convert = duality._exact_bundle

    def spy(row):
        seen.append(tuple(row.tolist()))
        return convert(row)

    solution = solve_afriat(base_exact)
    inside, upper = _observed_in_reports(base_exact, 1, solution)
    assert inside >= base_exact.n_observations and upper >= base_exact.n_observations
    for verify, observed in ((verify_rationalization, inside),
                             (verify_cost_rationalization, upper)):
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(duality, "_exact_bundle", spy)
            report = verify(base_exact, 1, solution, n_samples=50, seed=4)
        assert report.clean
        assert not set(seen) & {tuple(row) for row in base_exact.bundle_array.tolist()}
        assert report.exact_certified <= report.total_samples - observed


def test_exact_rationalization_evaluates_utility_only_for_violations(monkeypatch):
    # A point the filter cannot settle is decided on its open pieces, and a
    # point shrunk onto its budget on those of its own bracket: U is
    # evaluated in full only to report a violation's value, with the filter
    # and with every sampled point sent to the exact path.
    calls = []
    evaluate = duality.evaluate_utility

    def spy(solution, dataset, coords):
        value = evaluate(solution, dataset, coords)
        calls.append((tuple(float(c) for c in coords), float(value)))
        return value

    # An observed bundle's violation reads U(x[s]) off the levels, with no
    # evaluation at all.
    rng = np.random.default_rng(20261022)
    decided = violations = observed = 0
    for i in range(16):
        prices, bundles = random_tables(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        exact, _ = make_twins(prices, bundles)
        e = _breakpoint_efficiency(exact)
        solution = solve_afriat(exact, e)
        k = int(rng.integers(exact.n_observations))
        chosen = {tuple(row) for row in exact.bundle_array.tolist()}
        for candidate in [solution, *_tampered(solution, k)]:
            reports = []
            for make in (afriat._make_filter, _vacuous_filter):
                with monkeypatch.context() as m:
                    m.setattr(duality, "evaluate_utility", spy)
                    m.setattr(afriat, "_make_filter", make)
                    calls.clear()
                    reports.append(verify_rationalization(exact, e, candidate,
                                                          n_samples=40, seed=i))
                drawn = [v for v in reports[-1].violations if v.bundle not in chosen]
                assert calls == [(v.bundle, v.lhs) for v in drawn]
            filtered, unfiltered = reports
            assert _without_counts(filtered) == _without_counts(unfiltered)
            levels = {tuple(float(c) for c in x): float(evaluate_utility(candidate, exact, x))
                      for x in exact.bundles}
            for v in filtered.violations:
                if v.bundle in chosen:
                    assert v.lhs == levels[v.bundle]
                    observed += 1
            decided += unfiltered.exact_certified
            violations += len(drawn)
    assert violations > 0 and observed > 0
    assert decided > 2 * violations


def test_budget_proposals_past_the_budget_are_shrunk_onto_it(monkeypatch):
    # With every radial factor at 1 the proposals lie on the float budget
    # hyperplane, and rounding leaves some beyond the exact budget: the exact
    # path scales each back onto it, and brackets the scaled point on its
    # own (the one call of the filter on a single point).  The reports are
    # those of the all-exact path, with the filter vacuous.
    uniforms = duality._uniforms

    def on_the_budget(seed, purpose, t, rows, cols):
        draw = uniforms(seed, purpose, t, rows, cols)
        if purpose == stream._BUDGET:
            draw[:, -1] = 1.0
        return draw

    shrunk = [0]
    terms = afriat._Filter.terms

    def spy(self, spend):
        shrunk[0] += spend.ndim == 1
        return terms(self, spend)

    monkeypatch.setattr(duality, "_uniforms", on_the_budget)
    monkeypatch.setattr(afriat._Filter, "terms", spy)
    rng = np.random.default_rng(20261102)
    counts = []
    for i in range(6):
        prices, bundles = random_tables(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        exact, _ = make_twins(prices, bundles)
        e = _breakpoint_efficiency(exact)
        solution = solve_afriat(exact, e)
        for candidate in [solution, *_tampered(solution, 0)]:
            reports = []
            for make in (afriat._make_filter, _vacuous_filter):
                shrunk[0] = 0
                with monkeypatch.context() as m:
                    m.setattr(afriat, "_make_filter", make)
                    reports.append(verify_rationalization(exact, e, candidate,
                                                          n_samples=40, seed=i))
                counts.append(shrunk[0])
            assert _without_counts(reports[0]) == _without_counts(reports[1])
    # The filter settles most points before any exact work; the vacuous
    # filter sends every one down the exact path.
    assert 0 < sum(counts[0::2]) < sum(counts[1::2])


def test_counts_are_zero_on_the_float_lane(base_float):
    solution = solve_afriat(base_float)
    for verify in (verify_rationalization, verify_cost_rationalization):
        report = verify(base_float, 1, solution, n_samples=100, seed=2)
        assert (report.exact_certified, report.nudged, report.dropped) == (0, 0, 0)


def test_filter_off_sends_every_sample_to_the_exact_path(base_exact):
    # A level below the normal float64 range has no relative error bound,
    # so every bracket of the filter is vacuous and every point is decided
    # exactly.
    solution = solve_afriat(base_exact)
    assert 0 in solution.phi
    tiny = tuple(v + Fraction(1, 2**1060) for v in solution.phi)
    shifted = AfriatSolution(tiny, solution.lam, solution.efficiency)
    flt = duality._set_up(base_exact, 1, shifted)[6]
    points = np.vstack([np.zeros((1, base_exact.n_goods)), base_exact.bundle_array])
    for spend in (points @ base_exact.price_array.T,
                  cross_expenditures(base_exact).astype(float)):
        lo, hi = flt.terms(spend)
        assert np.isneginf(lo).all() and np.isposinf(hi).all()
    for fast, slow in VERIFIERS:
        got = fast(base_exact, 1, shifted, n_samples=30, seed=8)
        assert _without_counts(got) == slow(base_exact, 1, shifted, n_samples=30, seed=8)
    report = verify_rationalization(base_exact, 1, shifted, n_samples=30, seed=8)
    inside = _observed_in_reports(base_exact, 1, shifted)[0]
    assert report.exact_certified == report.total_samples - inside


@pytest.mark.parametrize("price", ["1e400", "1e-400"])
def test_exact_data_outside_float_range_is_refused(price):
    dataset = validate_dataset([(price, "1"), ("1", "2")], [("1", "1"), ("2", "1")],
                               exact=True)
    assert check_e_garp(dataset).holds
    solution = solve_afriat(dataset)
    for verify in (verify_rationalization, verify_cost_rationalization):
        with pytest.raises(GarpkitError, match="float64 range"):
            verify(dataset, 1, solution, n_samples=5)


def _fractions(lo, hi, max_den):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 5))
    goods = draw(st.integers(1, 4))
    prices = [[draw(_fractions(1, 10**6, 10**6)) for _ in range(goods)] for _ in range(n)]
    bundles = []
    for _ in range(n):
        row = [draw(_fractions(0, 10**6, 10**6)) for _ in range(goods)]
        row[draw(st.integers(0, goods - 1))] += 1
        bundles.append(row)
    dataset = validate_dataset(prices, bundles, exact=True)
    big = 10**30  # large-denominator Afriat numbers
    phi = tuple(draw(_fractions(-big, big, big)) for _ in range(n))
    lam = tuple(draw(_fractions(1, big, big)) for _ in range(n))
    e = [draw(_fractions(1, 1000, 1000).filter(lambda v: v <= 1)) for _ in range(n)]
    solution = AfriatSolution(phi, lam, coerce_efficiency(e, dataset))
    coordinate = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    points = draw(st.lists(st.lists(coordinate, min_size=goods, max_size=goods),
                           min_size=1, max_size=6))
    # A shrink onto a budget: a factor in (0, 1], usually a hair under 1.
    shrink = 1 - draw(_fractions(0, 10**6, 10**20).filter(lambda v: v < 1))
    return dataset, solution, np.array(points, dtype=float), shrink


@settings(max_examples=150, deadline=None)
@given(_problems())
def test_float_bracket_contains_the_exact_utility(problem):
    dataset, solution, points, shrink = problem
    own, flt, levels = duality._set_up(dataset, solution.efficiency, solution)[5:]
    spend = points @ dataset.price_array.T
    lo, hi = flt.terms(spend)
    lo_nudged, hi_nudged = flt.terms(spend * float(duality._NUDGE))
    lo_shrunk, hi_shrunk = flt.terms(spend * float(shrink))
    # The mirrors are normal, so every bracket is finite: the filter is on.
    for bound in (lo, hi, lo_nudged, hi_nudged, lo_shrunk, hi_shrunk):
        assert np.isfinite(bound).all()
    floors = flt.spend_floor(spend)
    for i, row in enumerate(points.tolist()):
        exact = [Fraction(v) for v in row]
        value = evaluate_utility(solution, dataset, exact)
        assert lo[i].min() <= value <= hi[i].min()
        nudged_coords = [c * duality._NUDGE for c in exact]
        nudged = evaluate_utility(solution, dataset, nudged_coords)
        assert lo_nudged[i].min() <= nudged <= hi_nudged[i].min()
        for t, p_row in enumerate(dataset.prices):
            assert floors[i, t] <= sum(p * c for p, c in zip(p_row, exact))
        # Piece by piece too: both exact verifiers skip pieces by them.
        shrunk_coords = [c * shrink for c in exact]
        for coords, low, high in ((exact, lo, hi), (nudged_coords, lo_nudged, hi_nudged),
                                  (shrunk_coords, lo_shrunk, hi_shrunk)):
            for t, p_row in enumerate(dataset.prices):
                spent = sum(p * c for p, c in zip(p_row, coords))
                term = solution.phi[t] + solution.lam[t] * (spent - own[t])
                assert low[i, t] <= term <= high[i, t]
    assert levels.dtype == object
    assert levels.tolist() == [evaluate_utility(solution, dataset, x) for x in dataset.bundles]
