"""Revealed-preference relations, their memo, and the e-GARP verdict."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_exact
from conftest import make_twins, random_tables
from garpkit import check_e_garp, solve_afriat, validate_dataset, verify_rationalization
from garpkit.model import coerce_efficiency
from garpkit.revpref import CycleWitness, direct_relations, validate_witness
from reference_graph import transitive_closure


def test_base_holds_at_one(base_exact):
    verdict = check_e_garp(base_exact)
    assert verdict.holds and verdict.witness is None


def test_base_relations(base_exact):
    rel = direct_relations(base_exact)
    # costs [[2,4],[4,8]]: 2<=2 and 4<=8 weak; 4<8 is the only strict link
    assert rel.weak.tolist() == [[True, False], [True, True]]
    assert rel.strict.tolist() == [[False, False], [True, False]]
    assert transitive_closure(rel.weak).tolist() == [[True, False], [True, True]]


def test_viol_fails_with_minimal_cycle(viol_exact):
    verdict = check_e_garp(viol_exact)
    assert not verdict.holds
    assert verdict.witness.indices == (0, 1, 0)
    assert verdict.witness.strict_edge == 0
    assert validate_witness(viol_exact, 1, verdict.witness)


@pytest.mark.parametrize("indices, strict_edge", [
    ((0, 1), 0),     # not closed
    ((0,), 0),       # too short to be a cycle
    ((0, 1, 0), 1),  # 0 -> 1 is not weak: p[0] . x[1] = 4 > p[0] . x[0] = 2
    ((1, 1), 0),     # weak, but the marked step 1 -> 1 is not strict
])
def test_validate_witness_refuses_what_is_not_a_violating_cycle(base_exact, indices,
                                                                 strict_edge):
    assert not validate_witness(base_exact, 1, CycleWitness(indices, strict_edge))


@pytest.mark.parametrize("indices, strict_edge", [
    ((0, 1, 0), -1),    # a step counted from the end
    ((-2, -1, -2), 0),  # observations counted from the end
    ((0, 1, 0), 2),     # one past the last step
    ((0, 1, 0), 7),
    ((0, 5, 0), 0),     # no observation 5
    ((0, 2, 0), 1),
])
def test_validate_witness_refuses_indices_out_of_range(viol_exact, indices, strict_edge):
    # (0, 1, 0) with either step marked is a violating cycle here; indices
    # and steps outside their ranges are refused, not wrapped or raised on.
    assert validate_witness(viol_exact, 1, CycleWitness((0, 1, 0), 0))
    assert validate_witness(viol_exact, 1, CycleWitness((0, 1, 0), 1))
    assert not validate_witness(viol_exact, 1, CycleWitness(indices, strict_edge))


def test_viol_holds_at_breakpoint_tie(viol_exact):
    # At 4/5 both cross links become ties: a cycle with no strict step.
    assert check_e_garp(viol_exact, Fraction(4, 5)).holds
    assert not check_e_garp(viol_exact, Fraction(4, 5) + Fraction(1, 10**9)).holds


def test_float_tie_handled_by_tolerance(viol_float):
    assert check_e_garp(viol_float, 0.8).holds
    assert not check_e_garp(viol_float, 0.81).holds


def test_no_reflexive_step_below_one(base_exact):
    # At e < 1 nothing is revealed preferred to itself for free.
    rel = direct_relations(base_exact, Fraction(1, 2))
    assert not transitive_closure(rel.weak).diagonal().any()


def test_witness_disabled(viol_exact):
    verdict = check_e_garp(viol_exact, witness=False)
    assert not verdict.holds and verdict.witness is None


def test_three_step_cycle_witness():
    # Unit bundles, prices arranged so each observation strictly prefers
    # the next one's bundle and nothing else: c(t, t+1) = 1 < 2 = c(t, t),
    # c(t, t+2) = 4.  Minimal violating cycle needs all three.
    ds = validate_dataset(
        [(2, 1, 4), (4, 2, 1), (1, 4, 2)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        exact=True,
    )
    verdict = check_e_garp(ds)
    assert not verdict.holds
    assert verdict.witness.indices == (0, 1, 2, 0)
    assert verdict.witness.strict_edge == 0
    assert validate_witness(ds, 1, verdict.witness)


def test_transitive_closure_chains():
    weak = np.array([
        [False, True, False],
        [False, False, True],
        [False, False, False],
    ])
    closure = transitive_closure(weak)
    assert closure[0, 2] and not closure[2, 0] and not closure[0, 0]


def test_relations_are_read_only(viol_exact, viol_float):
    for dataset in (viol_exact, viol_float):
        rel = direct_relations(dataset, Fraction(9, 10))
        for array in (rel.weak, rel.strict):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = not array[0, 0]


def test_relations_at_alternating_efficiencies_match_fresh_builds():
    # The memo keeps one efficiency per dataset: e1, then e2, then e1 again
    # must each give the relations a fresh build gives, on both lanes.
    rng = np.random.default_rng(20261019)
    exact, floats = make_twins(*random_tables(rng, 12, 3))
    for dataset in (exact, floats):
        ref = reference_exact.cross_expenditures(dataset)
        e2 = [dataset.number(v) / 100 for v in rng.integers(50, 101, 12).tolist()]
        for e in (1, e2, 1):
            got = direct_relations(dataset, e)
            want = reference_exact.relations(dataset, ref, coerce_efficiency(e, dataset))
            assert np.array_equal(got.weak, want.weak)
            assert np.array_equal(got.strict, want.strict)
            assert direct_relations(dataset, e) is got


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kept_relations_live_as_long_as_their_dataset(exact):
    # The relations are kept on the dataset itself: they die with it, and a
    # fresh dataset with the same values builds its own.
    def dataset():
        return validate_dataset([(1, 1), (2, 2)], [(1, 1), (2, 2)], exact=exact)

    first = dataset()
    rel = direct_relations(first)
    solution = solve_afriat(first)
    assert verify_rationalization(first, 1, solution, n_samples=20, seed=0).clean
    assert direct_relations(first) is rel
    second = dataset()
    assert second == first
    fresh = direct_relations(second)
    assert fresh is not rel
    assert np.array_equal(fresh.weak, rel.weak) and np.array_equal(fresh.strict, rel.strict)
    assert direct_relations(first) is rel
    gone = weakref.ref(first)
    del first
    gc.collect()
    assert gone() is None
    assert direct_relations(second) is fresh


def test_tampered_witness_rejected(viol_exact):
    verdict = check_e_garp(viol_exact)
    w = verdict.witness
    broken = type(w)(indices=(0, 0), strict_edge=0)
    assert not validate_witness(viol_exact, 1, broken)


small_dims = st.tuples(st.integers(1, 6), st.integers(1, 3))


@st.composite
def exact_datasets(draw):
    n_obs, n_goods = draw(small_dims)
    entry = st.integers(1, 30)
    prices = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    bundles = [[draw(entry) for _ in range(n_goods)] for _ in range(n_obs)]
    return validate_dataset(prices, bundles, exact=True)


@st.composite
def efficiencies(draw):
    return Fraction(draw(st.integers(1, 1000)), 1000)


@given(ds=exact_datasets())
@settings(max_examples=60, deadline=None)
def test_strict_is_contained_in_weak(ds):
    rel = direct_relations(ds)
    assert not (rel.strict & ~rel.weak).any()
    assert rel.weak.diagonal().all()  # own bundle costs its own expenditure


@given(ds=exact_datasets(), e_hi=efficiencies(), e_lo=efficiencies())
@settings(max_examples=60, deadline=None)
def test_verdict_monotone_in_efficiency(ds, e_hi, e_lo):
    if e_lo > e_hi:
        e_lo, e_hi = e_hi, e_lo
    if check_e_garp(ds, e_hi, witness=False).holds:
        assert check_e_garp(ds, e_lo, witness=False).holds


@given(ds=exact_datasets(), e=efficiencies(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_relabeling_invariance(ds, e, seed):
    perm = np.random.default_rng(seed).permutation(ds.n_observations)
    shuffled = validate_dataset(
        [ds.prices[i] for i in perm],
        [ds.bundles[i] for i in perm],
        exact=True,
    )
    assert check_e_garp(ds, e, witness=False).holds == \
        check_e_garp(shuffled, e, witness=False).holds


@given(ds=exact_datasets(), e=efficiencies(), scale_seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_per_observation_price_scaling_is_irrelevant(ds, e, scale_seed):
    # Only ratios within an observation matter, so scaling a whole price
    # row cannot move the verdict.
    rng = np.random.default_rng(scale_seed)
    scales = [Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 100)))
              for _ in range(ds.n_observations)]
    scaled = validate_dataset(
        [tuple(c * v for v in row) for c, row in zip(scales, ds.prices)],
        ds.bundles,
        exact=True,
    )
    assert check_e_garp(ds, e, witness=False).holds == \
        check_e_garp(scaled, e, witness=False).holds


@given(ds=exact_datasets(), e=efficiencies())
@settings(max_examples=60, deadline=None)
def test_witness_is_sound_whenever_produced(ds, e):
    verdict = check_e_garp(ds, e)
    if not verdict.holds:
        assert validate_witness(ds, e, verdict.witness)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_twin_lanes_agree_off_knife_edges(seed):
    # Generic random tables have no exact ties, so the float twin must
    # reproduce the exact verdict.
    rng = np.random.default_rng(seed)
    prices, bundles = random_tables(rng, int(rng.integers(1, 7)),
                                    int(rng.integers(1, 4)))
    exact, floats = make_twins(prices, bundles)
    e = Fraction(int(rng.integers(1, 1000)), 1000)
    assert check_e_garp(exact, e, witness=False).holds == \
        check_e_garp(floats, float(e), witness=False).holds
