"""The graph core against the implementations it replaced, and the oracles.

The level-synchronous BFS witness and the Kahn class order must reproduce the
test-only references in ``reference_graph`` exactly, on datasets from both
lanes and on random relation graphs; at T <= 8 the witness must also be one
of the brute-force oracle's shortest violating cycles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graph as reference
from conftest import make_twins, random_tables
from garpkit import check_e_garp, direct_relations
from garpkit.afriat import _classes_in_order
from garpkit.oracle import garp_oracle
from garpkit.revpref import RevealedRelation, garp_verdict, transitive_closure

EFFICIENCIES = ("1", "0.9", "0.7", "0.5")


@st.composite
def lane_cases(draw, max_observations):
    """A random two-decimal dataset on either lane, with an efficiency."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_obs = draw(st.integers(1, max_observations))
    prices, bundles = random_tables(rng, n_obs, draw(st.integers(1, 4)))
    exact, floats = make_twins(prices, bundles)
    e = Fraction(draw(st.sampled_from(EFFICIENCIES)))
    if draw(st.booleans()):
        return exact, e
    return floats, float(e)


@st.composite
def relation_graphs(draw):
    """Random weak/strict graphs, sparse enough to hold long cycles."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weak = rng.random((n, n)) < draw(st.sampled_from((0.05, 0.1, 0.2, 0.4)))
    np.fill_diagonal(weak, draw(st.booleans()))
    strict = weak & (rng.random((n, n)) < draw(st.sampled_from((0.1, 0.5, 1.0))))
    np.fill_diagonal(strict, False)
    return RevealedRelation(weak=weak, strict=strict, closure=transitive_closure(weak))


def assert_matches_reference(rel: RevealedRelation) -> None:
    verdict = garp_verdict(rel)
    if verdict.holds:
        assert verdict.witness is None
        assert not (rel.closure & rel.strict.T).any()
    else:
        assert verdict.witness == reference.minimal_cycle(rel)
    assert _classes_in_order(rel.closure) == reference.classes_in_order(rel.closure)


@given(case=lane_cases(max_observations=29))
@settings(max_examples=200, deadline=None)
def test_core_matches_reference_on_datasets(case):
    dataset, e = case
    assert_matches_reference(direct_relations(dataset, e))


@given(rel=relation_graphs())
@settings(max_examples=200, deadline=None)
def test_core_matches_reference_on_graphs(rel):
    assert_matches_reference(rel)


@given(case=lane_cases(max_observations=8))
@settings(max_examples=150, deadline=None)
def test_witness_is_a_shortest_oracle_cycle(case):
    dataset, e = case
    verdict = check_e_garp(dataset, e)
    oracle = garp_oracle(dataset, e)
    assert verdict.holds == oracle.garp_holds
    if not verdict.holds:
        assert verdict.witness.indices in oracle.violating_cycles
        assert len(verdict.witness.indices) == len(oracle.violating_cycles[0])


def test_long_cycle_witness():
    # A ring 0 -> 1 -> ... -> 7 -> 0 of weak steps, strict only 7 -> 0, plus
    # a chord 2 -> 5 that shortens it: the witness takes the chord.
    n = 8
    weak = np.eye(n, dtype=bool)
    for t in range(n):
        weak[t, (t + 1) % n] = True
    weak[2, 5] = True
    strict = np.zeros((n, n), dtype=bool)
    strict[7, 0] = True
    rel = RevealedRelation(weak=weak, strict=strict, closure=transitive_closure(weak))
    witness = garp_verdict(rel).witness
    assert witness.indices == (0, 1, 2, 5, 6, 7, 0)
    assert witness.strict_edge == 5
    assert witness == reference.minimal_cycle(rel)
