"""One array per lane: the array core against the code it replaced.

``reference_exact`` keeps the tuple-based cross matrix, the relation double
loop, the ``Fraction`` candidate set and the exact residual loop.  On random
tables, on both lanes, the array code must give their values, of their
types: the cross matrix, its ratios and their float mirrors, the relations
and their closures at scalar, vector and breakpoint efficiencies, the
breakpoint candidates, and the worst residual of honest and tampered Afriat
solutions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import reference_exact
import reference_graph
import reference_verify
from conftest import make_twins, random_efficiency, random_tables
from garpkit import afriat, ccei_exact, direct_relations, solve_afriat, validate_dataset
from garpkit.afriat import AfriatSolution, worst_residual
from garpkit.ccei import _candidates
from garpkit.model import coerce_efficiency, cross_expenditures


def _types(values) -> list[type]:
    return [type(v) for v in values]


def _passing_efficiency(exact):
    result = ccei_exact(exact)
    if result.attained:
        return result.value
    return max(b for b in result.breakpoints if b < result.value)


def _ratios(costs: np.ndarray) -> np.ndarray:
    """Each cost as a share of its row's own expenditure, in the lane's arithmetic."""
    return costs / costs.diagonal()[:, None]


def _check_cross(dataset, ref):
    costs = cross_expenditures(dataset)
    ratios = _ratios(costs)
    got_costs, got_ratios = costs.tolist(), ratios.tolist()
    assert got_costs == list(map(list, ref.costs)) and got_ratios == list(map(list, ref.ratios))
    for got, want in ((got_costs, ref.costs), (got_ratios, ref.ratios)):
        assert [_types(row) for row in got] == [_types(row) for row in want]
    # The float64 mirror that exact-lane consumers take with astype(float)
    # is the one the tuples used to build, entry for entry.
    for got, want in ((costs, ref.cost_array), (ratios, ref.ratio_array)):
        mirror = got.astype(float)
        assert mirror.dtype == want.dtype == np.float64
        assert np.array_equal(mirror, want)


def _check_relations(dataset, ref, e):
    got = direct_relations(dataset, e)
    want = reference_exact.relations(dataset, ref, coerce_efficiency(e, dataset))
    closure = reference_graph.transitive_closure
    for name, a, b in (("weak", got.weak, want.weak), ("strict", got.strict, want.strict),
                       ("closure", closure(got.weak), closure(want.weak))):
        assert a.dtype == b.dtype == bool
        assert np.array_equal(a, b), name


def _check_residuals(dataset, ref, e, k) -> list:
    solution = solve_afriat(dataset, e)
    out = []
    for shift in (0, 1, -1):
        # Raising phi[k] breaks one inequality per row; lowering it breaks
        # many in row k.
        phi = list(solution.phi)
        phi[k] += shift * dataset.number(1) / 3
        candidate = AfriatSolution(tuple(phi), solution.lam, solution.efficiency)
        got = worst_residual(candidate, dataset)
        if dataset.exact:
            want = reference_exact.worst_residual(candidate, dataset, ref)
        else:
            want = reference_verify.worst_residual(candidate, dataset)
        assert type(got) is type(want) and got == want
        out.append(got)
    return out


def test_array_core_matches_the_tuple_reference():
    rng = np.random.default_rng(20261030)
    caught = 0
    for _ in range(30):
        n = int(rng.integers(1, 30))
        prices, bundles = random_tables(rng, n, int(rng.integers(1, 6)))
        exact, floats = make_twins(prices, bundles)
        ref_exact = reference_exact.cross_expenditures(exact)
        scalar = random_efficiency(rng, exact, allow_vector=False)
        vector = [float(v) for v in rng.uniform(0.3, 1.0, n)]
        vector = ([coerce_efficiency(v, exact)[0] for v in vector], vector)
        ref_cands = reference_exact.candidates(exact, ref_exact)
        point = ref_cands[int(rng.integers(len(ref_cands)))]
        passing = _passing_efficiency(exact)
        k = int(rng.integers(n))
        for lane, dataset in enumerate((exact, floats)):
            ref = ref_exact if dataset.exact else reference_exact.cross_expenditures(floats)
            _check_cross(dataset, ref)
            for e in (scalar[lane], vector[lane], [point, float(point)][lane]):
                _check_relations(dataset, ref, e)
            cands = _candidates(dataset)
            assert cands.ndim == 1 and cands.dtype == (object if dataset.exact else np.float64)
            cands, want = cands.tolist(), reference_exact.candidates(dataset, ref)
            assert cands == want and _types(cands) == _types(want)
            assert cands[-1] == 1 and type(cands[-1]) is dataset.number
            e = [passing, float(passing)][lane]
            honest, raised, lowered = _check_residuals(dataset, ref, e, k)
            assert honest <= 0
            caught += raised > 0 and lowered > 0
    assert caught >= 20


def _out_of_reach(case):
    """A dataset and an Afriat solution that the filter cannot bracket."""
    if case in ("1e400", "1e-400"):
        # The tables of the verifiers' range refusal: the exact check still runs.
        dataset = validate_dataset([(case, "1"), ("1", "2")], [("1", "1"), ("2", "1")],
                                   exact=True)
        return dataset, solve_afriat(dataset)
    prices, bundles = random_tables(np.random.default_rng(20261101), 8, 3)
    dataset = validate_dataset(prices, bundles, exact=True)
    solution = solve_afriat(dataset, _passing_efficiency(dataset))
    phi, lam = list(solution.phi), list(solution.lam)
    if case == "zero lam":
        lam[3] = Fraction(0)
    elif case == "negative lam":
        lam[3] = -lam[3]
    else:
        phi[3] += Fraction(10) ** 400 if case == "huge phi" else -Fraction(10) ** 400
    return dataset, AfriatSolution(tuple(phi), tuple(lam), solution.efficiency)


@pytest.mark.parametrize("case", ["zero lam", "negative lam", "huge phi", "huge negative phi",
                                  "1e400", "1e-400"])
def test_exact_residual_without_a_float_bracket_is_the_loops(monkeypatch, case):
    # The exact residual reads U(x[s]) off the filter's brackets.  A lam that
    # is not positive voids their error bound, and a mirror that overflows
    # leaves nothing to bracket, so every bracket is vacuous and every piece
    # is evaluated exactly: the loop's residual, of its type.
    dataset, candidate = _out_of_reach(case)
    filters = []
    make = afriat._make_filter

    def spy(*args):
        filters.append(make(*args))
        return filters[-1]

    monkeypatch.setattr(afriat, "_make_filter", spy)
    got = worst_residual(candidate, dataset)
    want = reference_exact.worst_residual(candidate, dataset,
                                          reference_exact.cross_expenditures(dataset))
    assert type(got) is type(want) is Fraction and got == want
    # The honest solutions pass; each tampered one breaks some inequality.
    assert (got > 0) == (case not in ("1e400", "1e-400"))
    assert len(filters) == 1 and np.isnan(filters[0].phi).all()


@pytest.mark.parametrize("bundles,exact", [
    # 1/3 and 1/(3 + 1e-20) share a float key, and so do 1 and the ratios
    # 3/(3 + 1e-20) < 1 < (3 + 1e-20)/3: their runs are settled exactly.
    (["1", "3", "3.00000000000000000001", "6"], True),
    # 1e-400 has key 0 but is a ratio in (0, 1]; 1e400 is beyond the
    # float range.
    (["1", "1e-400", "2", "3"], True),
    # Float ties: 0.1 * 3 and 0.3 are distinct floats and keys; 1e-200 /
    # 1e200 underflows to 0, which is no ratio in (0, 1].
    ([0.1, 0.3, 0.30000000000000004, 1e-200, 1e200, 0.2], False),
    # Every ratio has key 1: one run of T^2 entries and about T^2 / 2
    # distinct ratios, sorted once (once per mixed pair would take minutes).
    ([f"1.{i:020d}" for i in range(1, 61)], True),
])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_candidates_settle_runs_of_equal_keys(bundles, exact):
    # One good at price 1: costs[t][s] = x[s], so the ratios are x[s] / x[t].
    dataset = validate_dataset([[1]] * len(bundles), [[b] for b in bundles], exact=exact)
    want = reference_exact.candidates(dataset, reference_exact.cross_expenditures(dataset))
    got = _candidates(dataset).tolist()
    assert got == want and _types(got) == _types(want)
    # The exact cases do return distinct ratios that share a key.
    keys = [float(v) for v in got]
    assert len(set(keys)) < len(keys) or not exact


def test_each_lane_holds_one_array(base_exact, base_float):
    exact = cross_expenditures(base_exact)
    assert exact.dtype == object and _ratios(exact).dtype == object
    for array in (exact, _ratios(exact)):
        assert {type(v) for v in array.flat} == {Fraction}
    floats = cross_expenditures(base_float)
    assert floats.dtype == _ratios(floats).dtype == np.float64
    assert floats.tolist() == [[2.0, 4.0], [4.0, 8.0]]
    assert _ratios(floats).tolist() == [[1.0, 2.0], [0.5, 1.0]]
