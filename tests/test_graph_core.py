"""The graph core against the implementations it replaced, and the oracles.

The verdict, the level-synchronous BFS witness and the Kahn class order must
reproduce the test-only full-closure references in ``reference_graph``
exactly, on datasets from both lanes and on random relation graphs; at
T <= 8 the witness must also be one of the brute-force oracle's shortest
violating cycles.  Every verdict and the class order close only the cyclic
core of the weak relation; they must read the same violations and classes
as the full closure, on random graphs and at every probe of both CCEI
searches, and no production path may close the whole graph unless the
graph is its own core.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graph as reference
from conftest import make_twins, random_tables
from garpkit import (
    ccei,
    check_e_garp,
    direct_relations,
    revpref,
    solve_afriat,
    validate_dataset,
)
from garpkit.afriat import _classes_in_order
from garpkit.datagen import GeneratorSpec, generate
from garpkit.model import cross_expenditures
from garpkit.oracle import garp_oracle
from garpkit.revpref import (
    RevealedRelation,
    _core_sources,
    _cyclic_core,
    _relation_at,
    garp_verdict,
    transitive_closure,
    uniform_verdict,
)

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
    return RevealedRelation(weak=weak, strict=strict)


def assert_matches_reference(rel: RevealedRelation) -> None:
    assert garp_verdict(rel) == reference.garp_verdict(rel)
    assert garp_verdict(rel, witness=False) == reference.garp_verdict(rel, witness=False)
    assert _classes_in_order(rel) == reference.classes_in_order(rel.closure)


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
    rel = RevealedRelation(weak=weak, strict=strict)
    witness = garp_verdict(rel).witness
    assert witness.indices == (0, 1, 2, 5, 6, 7, 0)
    assert witness.strict_edge == 5
    assert witness == reference.minimal_cycle(rel)


@given(rel=relation_graphs(), strict_loops=st.booleans())
@settings(max_examples=300, deadline=None)
def test_core_closure_reads_the_full_closure(rel, strict_loops):
    weak, strict = rel.weak, rel.strict.copy()
    if strict_loops:
        # Strict self-loops on every weak one: violations outside the core.
        strict |= np.diag(weak.diagonal())
    split = RevealedRelation(weak=weak, strict=strict)
    core, closure = split.core
    assert np.array_equal(core, _cyclic_core(weak))
    inner = np.ix_(core, core)
    assert np.array_equal(closure, rel.closure[inner])
    violating = rel.closure & strict.T
    in_core = np.isin(np.arange(weak.shape[0]), core)
    off_core = violating & ~np.outer(in_core, in_core)
    assert not (off_core & ~np.eye(weak.shape[0], dtype=bool)).any()
    full = np.flatnonzero(violating.any(axis=1))
    assert np.array_equal(_core_sources(split), full)


def test_core_keeps_tie_cycles_and_drops_what_hangs_off_them():
    # Tie cycle 0 -> 1 -> 2 -> 0 (no strict step), a tail 3 -> 0 and a
    # self-looped sink 4 reached from 2: only the cycle is kept.
    weak = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0), (3, 0), (2, 4), (4, 4)):
        weak[a, b] = True
    assert _cyclic_core(weak).tolist() == [0, 1, 2]
    strict = np.zeros_like(weak)
    assert _core_sources(RevealedRelation(weak=weak, strict=strict)).size == 0
    # Strict 2 -> 0 closes the cycle through 0's path to 2: source 0.
    strict[2, 0] = True
    assert _core_sources(RevealedRelation(weak=weak, strict=strict)).tolist() == [0]
    # Observation 3 hangs off the cycle, 4 off its own self-loop: both are
    # classes of their own, and 3 is placed before the cycle it points to.
    assert _classes_in_order(RevealedRelation(weak=weak, strict=strict)) == [[3], [0, 1, 2], [4]]


def _verdict_checker(monkeypatch, probes):
    """Make every CCEI probe also check the verdict against the full closure."""
    def checked(dataset, cm, e, *, witness=False):
        got = uniform_verdict(dataset, cm, e, witness=True)
        rel = _relation_at(dataset, cm, [e] * dataset.n_observations)
        assert got == reference.garp_verdict(rel), e
        probes.append(e)
        return got if witness else revpref.GarpVerdict(got.holds, None)
    monkeypatch.setattr(ccei, "uniform_verdict", checked)


def test_core_verdict_matches_full_closure_at_every_probe(monkeypatch):
    rng = np.random.default_rng(20261107)
    probes = []
    _verdict_checker(monkeypatch, probes)
    for _ in range(16):
        n = int(rng.integers(2, 40))
        exact, floats = make_twins(*random_tables(rng, n, int(rng.integers(1, 5))))
        for dataset in (exact, floats):
            result = ccei.ccei_exact(dataset)
            ccei.ccei_binary_search(dataset)
            cm = cross_expenditures(dataset)
            picks = rng.choice(len(result.breakpoints), size=min(8, len(result.breakpoints)))
            for i in picks.tolist():
                e = result.breakpoints[i]
                rel = _relation_at(dataset, cm, [e] * n)
                assert uniform_verdict(dataset, cm, e, witness=True) == reference.garp_verdict(rel)
    assert len(probes) > 500


def _closure_sizes(monkeypatch) -> list[int]:
    """Record the size of every graph ``revpref`` closes from now on."""
    sizes = []

    def spy(weak):
        sizes.append(weak.shape[0])
        return transitive_closure(weak)

    monkeypatch.setattr(revpref, "transitive_closure", spy)
    return sizes


def test_ccei_probes_close_only_the_core(monkeypatch):
    rng = np.random.default_rng([20261018, 300])
    n = 300
    _, floats = make_twins(*random_tables(rng, n, 10))
    sizes = _closure_sizes(monkeypatch)
    for search in (ccei.ccei_exact, ccei.ccei_binary_search):
        sizes.clear()
        search(floats)
        # Only the first probe, at e = 1, closes the whole dense graph; the
        # probes near the CCEI close a handful of nodes.
        assert sizes[0] == n and max(sizes[1:]) < n
        assert max(sizes[-8:]) <= 8


def test_verdict_and_class_order_close_only_the_core(monkeypatch):
    n = 300
    rng = np.random.default_rng([20261018, n])
    _, floats = make_twins(*random_tables(rng, n, 10))
    result = ccei.ccei_exact(floats)
    e_star = result.value if result.attained else max(
        b for b in result.breakpoints if b < result.value)
    # Consistent CES data with one observation repeated: the pair is a tie
    # cycle, so at e = 1 the core is not empty.
    base = generate(GeneratorSpec("ces", (1.0, 2.0, 3.0), n - 1, (0.5, 2.0), (1.0, 5.0),
                                  elasticity=0.5, seed=7))
    rows = np.r_[np.arange(n - 1), 0]
    ces = validate_dataset(base.price_array[rows].tolist(),
                           base.bundle_array[rows].tolist(), exact=False)
    sizes = _closure_sizes(monkeypatch)
    for dataset, e in ((floats, e_star), (ces, 1.0)):
        core = _cyclic_core(direct_relations(dataset, e).weak)
        sizes.clear()
        assert check_e_garp(dataset, e).holds
        solve_afriat(dataset, e)
        # One closure per relation, of the core alone; the solver's verdict
        # and class order share it.
        assert sizes == [core.size, core.size] and core.size < n
        rel = direct_relations(dataset, e)
        assert len(sizes) == 2
        closure = rel.closure
        assert sizes[2:] == [n] and rel.closure is closure
        assert np.array_equal(closure, transitive_closure(rel.weak))
