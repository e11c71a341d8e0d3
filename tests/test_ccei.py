"""Critical cost efficiency: exact breakpoint search and bisection."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_twins, random_tables
from garpkit import ccei_binary_search, ccei_exact, check_e_garp
from garpkit.errors import InvalidToleranceError
from garpkit.revpref import validate_witness


def test_base_index_is_one(base_exact):
    result = ccei_exact(base_exact)
    assert result.value == 1 and result.attained
    assert result.witness_above is None and result.witness_probe is None
    assert result.breakpoints.tolist() == [Fraction(1, 2), 1]
    assert {type(b) for b in result.breakpoints.tolist()} == {Fraction}
    assert ccei_binary_search(base_exact) == 1.0


def test_single_observation_is_one(single_exact):
    result = ccei_exact(single_exact)
    assert result.value == 1 and result.attained


def test_viol_four_fifths_attained(viol_exact):
    result = ccei_exact(viol_exact)
    assert result.value == Fraction(4, 5)
    assert result.attained
    assert result.witness_probe == Fraction(9, 10)
    assert validate_witness(viol_exact, result.witness_probe, result.witness_above)
    # the verdict really holds at the index and fails just above
    assert check_e_garp(viol_exact, result.value, witness=False).holds


def test_viol_float_lane(viol_float):
    result = ccei_exact(viol_float)
    assert result.value == pytest.approx(0.8, abs=1e-12)
    assert result.attained
    # The lane's numbers, not numpy scalars of the breakpoint array.
    assert type(result.value) is type(result.witness_probe) is float
    assert abs(ccei_binary_search(viol_float) - 0.8) <= 1e-9


def test_noattain_four_fifths_not_attained(noattain_exact):
    # Ratios 1/2 and 4/5.  The weak link arriving at 4/5 completes a cycle
    # through a link that is already strict, so the verdict fails exactly
    # at the supremum.
    result = ccei_exact(noattain_exact)
    assert result.value == Fraction(4, 5)
    assert not result.attained
    assert result.breakpoints.tolist() == [Fraction(1, 2), Fraction(4, 5), 1]
    assert {type(b) for b in result.breakpoints.tolist()} == {Fraction}
    assert not check_e_garp(noattain_exact, Fraction(4, 5), witness=False).holds
    assert check_e_garp(noattain_exact, Fraction(79, 100), witness=False).holds
    assert result.witness_probe == Fraction(9, 10)


def test_knife_edge_flip_at_one(knife_exact):
    # A tie at e = 1 joins a strict link: index 1, never attained.
    result = ccei_exact(knife_exact)
    assert result.value == 1
    assert not result.attained
    assert result.witness_probe == 1
    assert not check_e_garp(knife_exact, 1, witness=False).holds
    assert check_e_garp(knife_exact, Fraction(999, 1000), witness=False).holds


def test_bisection_tolerances(viol_exact):
    for tol in (1e-3, 1e-6, 1e-9):
        assert abs(ccei_binary_search(viol_exact, tol) - 0.8) <= tol


@pytest.mark.parametrize("bad", [0, -1e-9, float("nan"), float("inf")])
def test_bisection_rejects_bad_tolerance(viol_exact, bad):
    with pytest.raises(InvalidToleranceError):
        ccei_binary_search(viol_exact, bad)


def test_value_is_always_a_breakpoint(viol_exact, noattain_exact, knife_exact):
    for ds in (viol_exact, noattain_exact, knife_exact):
        result = ccei_exact(ds)
        assert result.value in result.breakpoints


@st.composite
def exact_datasets(draw):
    n_obs = draw(st.integers(1, 6))
    n_goods = draw(st.integers(1, 3))
    entry = st.integers(1, 25)
    prices = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    bundles = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    from garpkit import validate_dataset
    return validate_dataset(prices, bundles, exact=True)


@given(ds=exact_datasets())
@settings(max_examples=50, deadline=None)
def test_verdict_matches_reported_attainment(ds):
    result = ccei_exact(ds)
    holds_at_value = check_e_garp(ds, result.value, witness=False).holds
    assert holds_at_value == result.attained
    if result.witness_probe is not None:
        assert not check_e_garp(ds, result.witness_probe, witness=False).holds
        assert validate_witness(ds, result.witness_probe, result.witness_above)
    if not result.attained:
        breakpoints = result.breakpoints.tolist()
        below = breakpoints[breakpoints.index(result.value) - 1]
        assert check_e_garp(ds, (below + result.value) / 2, witness=False).holds


@given(ds=exact_datasets())
@settings(max_examples=40, deadline=None)
def test_bisect_agrees_with_exact(ds):
    assert abs(ccei_binary_search(ds, 1e-9) - float(ccei_exact(ds).value)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_twin_lane_indices_agree(seed):
    rng = np.random.default_rng(seed)
    prices, bundles = random_tables(rng, int(rng.integers(2, 7)),
                                    int(rng.integers(1, 4)))
    exact, floats = make_twins(prices, bundles)
    v_exact = ccei_exact(exact).value
    v_float = ccei_exact(floats).value
    assert abs(float(v_exact) - v_float) <= 1e-9 * max(1.0, float(v_exact))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_smallest_breakpoint_passes(seed):
    # ccei_exact's search starts from this: at the smallest ratio no link is
    # strict yet, so no cycle has a strict step.
    rng = np.random.default_rng(seed)
    exact, floats = make_twins(*random_tables(rng, int(rng.integers(1, 12)),
                                              int(rng.integers(1, 4))))
    for ds in (exact, floats):
        assert check_e_garp(ds, ccei_exact(ds).breakpoints[0], witness=False).holds
