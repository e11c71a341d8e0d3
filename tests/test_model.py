"""Dataset validation, lane selection, comparators, cross expenditures."""

from __future__ import annotations

import dataclasses
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from garpkit import Dataset, afriat, ccei, duality, model, oracle, revpref, validate_dataset
from garpkit.errors import (
    GarpkitError,
    LengthMismatchError,
    NegativeBundleError,
    NonpositivePriceError,
    ShapeMismatchError,
    ZeroBundleError,
)
from garpkit.model import (
    CHECK_RTOL,
    COMPARE_RTOL,
    coerce_efficiency,
    cross_expenditures,
    leq_array,
    lt_array,
)
from reference_compare import leq, lt


def test_lane_inferred_exact_for_text_and_ints():
    ds = validate_dataset([("0.5", 2)], [(1, "3")])
    assert ds.exact
    assert ds.prices[0][0] == Fraction(1, 2)
    assert ds.rel_tol == 0.0


def test_lane_inferred_float_when_any_float_present():
    ds = validate_dataset([(0.5, 2)], [(1, 3)])
    assert not ds.exact
    assert ds.rel_tol == COMPARE_RTOL


def test_tolerance_policy_lives_in_model():
    # The lane is the only tolerance setting: no per-dataset knob.
    assert "rel_tol" not in inspect.signature(validate_dataset).parameters
    assert [f.name for f in dataclasses.fields(Dataset)] == ["prices", "bundles", "exact"]
    assert validate_dataset([("1",)], [("1",)]).rel_tol == 0.0
    assert validate_dataset([(1.0,)], [(1.0,)]).rel_tol == COMPARE_RTOL
    assert (COMPARE_RTOL, CHECK_RTOL) == (1e-12, 1e-9)
    # Downstream modules read model's two numbers and define none of their own.
    for module in (afriat, ccei, duality, revpref):
        for name, value in vars(module).items():
            if name.isupper() and "TOL" in name:
                assert value is getattr(model, name), (module.__name__, name)
    # The oracle states its own copy, which must agree with model's.
    assert (oracle._COMPARE_RTOL, oracle._CHECK_RTOL) == (COMPARE_RTOL, CHECK_RTOL)


def test_decimal_strings_parse_without_binary_rounding():
    ds = validate_dataset([("0.8",)], [("0.1",)])
    assert ds.prices[0][0] == Fraction(4, 5)
    assert ds.bundles[0][0] == Fraction(1, 10)


def test_forced_exact_lane_reads_float_at_binary_value():
    # Explicit exact=True takes the float's exact binary magnitude.
    ds = validate_dataset([(0.5,)], [(3.0,)], exact=True)
    assert ds.exact and ds.prices[0][0] == Fraction(1, 2)


@pytest.mark.parametrize("prices,bundles,err", [
    ([], [], ShapeMismatchError),
    ([(1, 2)], [(1, 2), (3, 4)], ShapeMismatchError),
    ([(1, 2), (3,)], [(1, 2), (3, 4)], ShapeMismatchError),
    ([(0, 1)], [(1, 1)], NonpositivePriceError),
    ([(-2, 1)], [(1, 1)], NonpositivePriceError),
    ([(1, 1)], [(-1, 2)], NegativeBundleError),
    ([(1, 1)], [(0, 0)], ZeroBundleError),
    ([(True, 1)], [(1, 1)], ShapeMismatchError),
    ([(1.0, 1.0)], [(False, 1.0)], ShapeMismatchError),
    # No goods, and entries of no number type.
    ([[]], [[]], ShapeMismatchError),
    ([(None, 1)], [(1, 1)], ShapeMismatchError),
    ([(1, 1)], [(1, [2])], ShapeMismatchError),
])
def test_validation_rejections(prices, bundles, err):
    with pytest.raises(err):
        validate_dataset(prices, bundles)


def test_validation_error_carries_location():
    with pytest.raises(NonpositivePriceError) as exc:
        validate_dataset([(1, 1), (1, 0)], [(1, 1), (1, 1)])
    assert exc.value.observation == 1 and exc.value.good == 1


def test_cross_expenditures_section_values(base_exact):
    costs = cross_expenditures(base_exact)
    assert costs.tolist() == [[2, 4], [4, 8]]
    ratios = costs / costs.diagonal()[:, None]
    assert ratios.tolist() == [[1, 2], [Fraction(1, 2), 1]]
    assert np.allclose(costs, [[2.0, 4.0], [4.0, 8.0]])


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_float_cross_expenditures_stay_in_float_range(scale):
    # Finite cells whose products overflow to inf or underflow to 0: the
    # float lane refuses them, the exact lane holds them exactly.
    prices, bundles = [(scale,), (scale,)], [(scale,), ("2" + scale[1:],)]
    floats = validate_dataset(prices, bundles, exact=False)
    with pytest.raises(GarpkitError, match="float64 range"):
        cross_expenditures(floats)
    exact = validate_dataset(prices, bundles, exact=True)
    assert cross_expenditures(exact)[0, 1] == 2 * Fraction(scale) ** 2


def test_cross_expenditures_cached(base_exact):
    assert cross_expenditures(base_exact) is cross_expenditures(base_exact)
    assert not cross_expenditures(base_exact).flags.writeable


def _mirrors(dataset):
    return {"price_array": dataset.prices, "bundle_array": dataset.bundles,
            "cost_array": cross_expenditures(dataset)}


@pytest.mark.parametrize("digits", [2, 30])
def test_float64_mirrors_are_the_correctly_rounded_tables(digits):
    # One rule for every mirror of exact data: each entry correctly rounded,
    # as astype(float) converts an object array of Fractions.
    rng = np.random.default_rng(digits)
    table = [[f"{rng.integers(1, 100)}." + "".join(map(str, rng.integers(0, 10, digits)))
              for _ in range(4)] for _ in range(5)]
    dataset = validate_dataset(table, table[::-1], exact=True)
    for name, exact in _mirrors(dataset).items():
        want = np.asarray(exact, dtype=object).astype(float)
        got = getattr(dataset, name)
        assert got.dtype == np.float64 and got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert getattr(dataset, name) is got and not got.flags.writeable


def test_float64_mirrors_of_out_of_range_exact_data_are_nan():
    # The CI's 1e400 table: one price overflows, so every mirror that reads
    # it is all NaN (the filters' vacuous bracket), not an OverflowError.
    dataset = validate_dataset([["1e400", 1], [1, 2]], [[1, 1], [2, 1]], exact=True)
    assert np.isnan(dataset.price_array).all() and np.isnan(dataset.cost_array).all()
    assert dataset.bundle_array.tolist() == [[1.0, 1.0], [2.0, 1.0]]
    for name in _mirrors(dataset):
        assert getattr(dataset, name) is getattr(dataset, name)


def test_float_lane_mirrors_are_the_data_itself(base_float):
    assert base_float.cost_array is cross_expenditures(base_float)
    assert base_float.price_array.tolist() == [list(row) for row in base_float.prices]
    assert base_float.bundle_array.tolist() == [list(row) for row in base_float.bundles]


def test_exact_comparators_have_no_slack():
    assert leq(Fraction(1), Fraction(1))
    assert not lt(Fraction(1), Fraction(1))
    assert not leq(Fraction(1, 10**12) + 1, Fraction(1))


def test_float_comparators_absorb_rounding():
    a = 0.1 + 0.2  # 0.30000000000000004
    assert leq(a, 0.3, rel_tol=1e-12)
    assert leq(0.3, a, rel_tol=1e-12)
    assert not lt(a, 0.3, rel_tol=1e-12)
    assert not lt(0.3, a, rel_tol=1e-12)
    assert lt(0.3, 0.300001, rel_tol=1e-12)


@given(
    a=st.floats(min_value=1e-6, max_value=1e6),
    b=st.floats(min_value=1e-6, max_value=1e6),
    tol=st.sampled_from([0.0, 1e-12, 1e-9]),
)
def test_comparators_are_a_consistent_order(a, b, tol):
    # strict implies weak, and failing weak one way implies strict the other
    if lt(a, b, tol):
        assert leq(a, b, tol)
    if not leq(a, b, tol):
        assert lt(b, a, tol)


@given(
    values=st.lists(st.floats(min_value=1e-6, max_value=1e6), max_size=8),
    b=st.floats(min_value=1e-6, max_value=1e6),
    tol=st.sampled_from([0.0, 1e-12, 1e-9]),
)
def test_leq_array_is_leq_elementwise(values, b, tol):
    got = leq_array(np.array(values, dtype=float), b, tol)
    assert got.dtype == bool
    assert got.tolist() == [leq(v, b, tol) for v in values]
    assert lt_array(np.array(values, dtype=float), b, tol).tolist() == [
        lt(v, b, tol) for v in values
    ]
    # 2-D lhs against a broadcast column of right-hand sides, as in the
    # relation build: row i is compared with rhs[i].
    grid = np.array([values, values[::-1]], dtype=float).reshape(2, len(values))
    rhs = np.array([[b], [b / 2]])
    for array_op, scalar_op in ((leq_array, leq), (lt_array, lt)):
        got = array_op(grid, rhs, tol)
        assert got.dtype == bool and got.shape == grid.shape
        assert got.tolist() == [
            [scalar_op(v, float(r[0]), tol) for v in row] for row, r in zip(grid.tolist(), rhs)
        ]


def test_leq_array_on_fractions():
    values = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert leq_array(values, Fraction(1, 2)).tolist() == [True, True, False]
    assert lt_array(values, Fraction(1, 2)).tolist() == [True, False, False]
    grid = np.array([values, values[::-1]], dtype=object)
    rhs = np.array([[Fraction(1, 2)], [Fraction(1, 3)]], dtype=object)
    assert leq_array(grid, rhs).tolist() == [[True, True, False], [False, False, True]]
    assert lt_array(grid, rhs).dtype == bool


def test_efficiency_scalar_broadcast(base_exact):
    ev = coerce_efficiency("0.8", base_exact)
    assert ev == (Fraction(4, 5), Fraction(4, 5))
    assert len(ev) == 2 and ev[1] == Fraction(4, 5)


def test_efficiency_float_on_exact_lane_means_decimal(base_exact):
    # 0.8 the float is not 4/5 in binary; the exact lane reads intent.
    ev = coerce_efficiency(0.8, base_exact)
    assert ev[0] == Fraction(4, 5)


def test_efficiency_vector_roundtrip(base_exact):
    ev = coerce_efficiency([1, Fraction(1, 2)], base_exact)
    assert coerce_efficiency(ev, base_exact) == (1, Fraction(1, 2))


def test_efficiency_wrong_length(base_exact):
    with pytest.raises(LengthMismatchError):
        coerce_efficiency([1, 1, 1], base_exact)


@pytest.mark.parametrize("bad", [0, -1, "0", "1.5", 2])
def test_efficiency_out_of_range(base_exact, bad):
    with pytest.raises(ValueError):
        coerce_efficiency(bad, base_exact)


@pytest.mark.parametrize("lane", ["exact", "float"])
@pytest.mark.parametrize("e, want", [
    (np.int64(1), (1, 1)),
    (np.float64(0.5), (0.5, 0.5)),
    (np.float32(0.75), (0.75, 0.75)),
    (np.array(0.5), (0.5, 0.5)),
    ([np.float32(0.5), np.int8(1)], (0.5, 1)),
    (np.array([0.25, 1.0]), (0.25, 1)),
])
def test_efficiency_reads_numpy_numbers_as_the_number_they_hold(
        base_exact, base_float, lane, e, want):
    dataset = base_exact if lane == "exact" else base_float
    ev = coerce_efficiency(e, dataset)
    assert ev == want
    assert all(isinstance(v, Fraction if lane == "exact" else float) for v in ev)
    assert revpref.check_e_garp(dataset, e).holds


@pytest.mark.parametrize("lane", ["exact", "float"])
@pytest.mark.parametrize("bad", [True, False, np.bool_(True), [1, True], [np.bool_(False), 1]])
def test_efficiency_refuses_booleans(base_exact, base_float, lane, bad):
    dataset = base_exact if lane == "exact" else base_float
    with pytest.raises(ValueError, match="not a number"):
        coerce_efficiency(bad, dataset)


def test_float_lane_efficiency_is_float(base_float):
    ev = coerce_efficiency("0.8", base_float)
    assert isinstance(ev[0], float) and ev[0] == 0.8
