"""The graph core against the implementations it replaced, and the oracles.

The verdict, the level-synchronous BFS witness and the Kahn class order must
reproduce the test-only full-closure references in ``reference_graph``
exactly, on datasets from both lanes and on random relation graphs; at
T <= 8 the witness must also be one of the brute-force oracle's shortest
violating cycles.  Every verdict and the class order read one labelling of
the weak relation's strongly connected components (SCCs), found by
forward-backward search on the cyclic core; the labels must read the same
violations and classes as the full closure, on random graphs and at every
probe of both CCEI searches; the package has no closure to build.  The
CCEI probes below a failing one build their relations on its cyclic core
alone, which must hold every cycle: the cores are nested in e.
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
    cli,
    direct_relations,
    revpref,
    solve_afriat,
    validate_dataset,
)
from garpkit.afriat import _classes_in_order
from garpkit.datagen import GeneratorSpec, generate
from garpkit.oracle import garp_oracle
from garpkit.revpref import (
    CycleWitness,
    RevealedRelation,
    _components,
    _violating_sources,
    garp_verdict,
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
    closure = reference.transitive_closure(rel.weak)
    assert _classes_in_order(rel) == reference.classes_in_order(closure)


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
    # Two 3-step cycles through 0: strict 1 -> 0 closes 0 -> 4 -> 1, and
    # strict 2 -> 3 closes 3 -> 0 -> 2.  Sources 0 and 3 both reach 0, so
    # the walk must not stop at source 3 although it cannot start lower.
    weak = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 4), (4, 1), (1, 0), (0, 2), (2, 3), (3, 0)):
        weak[a, b] = True
    strict = np.zeros_like(weak)
    strict[1, 0] = strict[2, 3] = True
    rel = RevealedRelation(weak=weak, strict=strict)
    assert garp_verdict(rel).witness == CycleWitness((0, 2, 3, 0), 1) == reference.minimal_cycle(rel)


def _scc_reference(weak: np.ndarray) -> np.ndarray:
    """Each node's SCC labelled by its smallest member, off the full closure."""
    closure = reference.transitive_closure(weak)
    same = closure & closure.T
    np.fill_diagonal(same, True)
    return same.argmax(axis=1)


def _peel_reference(weak: np.ndarray) -> np.ndarray:
    """The cyclic core by its definition: drop sources and sinks one at a time."""
    left = set(range(weak.shape[0]))
    while True:
        drop = [v for v in left
                if not any(weak[u, v] for u in left - {v}) or not any(weak[v, u] for u in left - {v})]
        if not drop:
            return np.array(sorted(left), dtype=int)
        left.discard(drop[0])


@given(rel=relation_graphs(), strict_loops=st.booleans())
@settings(max_examples=300, deadline=None)
def test_scc_labels_read_the_full_closure(rel, strict_loops):
    weak, strict = rel.weak, rel.strict.copy()
    if strict_loops:
        # Strict self-loops on every weak one: violations outside the core.
        strict |= np.diag(weak.diagonal())
    split = RevealedRelation(weak=weak, strict=strict)
    core, label = split.components
    assert np.array_equal(core, _peel_reference(weak))
    assert np.array_equal(label, _scc_reference(weak))
    # Every SCC of two or more nodes lies in the core.
    multi = np.bincount(label, minlength=weak.shape[0])[label] > 1
    assert np.isin(np.flatnonzero(multi), core).all()
    violating = reference.transitive_closure(weak) & strict.T
    full = np.flatnonzero(violating.any(axis=1))
    assert np.array_equal(_violating_sources(split), full)


def test_core_keeps_tie_cycles_and_drops_what_hangs_off_them():
    # Tie cycle 0 -> 1 -> 2 -> 0 (no strict step), a tail 3 -> 0 and a
    # self-looped sink 4 reached from 2: only the cycle is kept.
    weak = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0), (3, 0), (2, 4), (4, 4)):
        weak[a, b] = True
    core, label = _components(weak)
    assert core.tolist() == [0, 1, 2] and label.tolist() == [0, 0, 0, 3, 4]
    strict = np.zeros_like(weak)
    assert _violating_sources(RevealedRelation(weak=weak, strict=strict)).size == 0
    # Strict 2 -> 0 closes the cycle through 0's path to 2: source 0.
    strict[2, 0] = True
    assert _violating_sources(RevealedRelation(weak=weak, strict=strict)).tolist() == [0]
    # Observation 3 hangs off the cycle, 4 off its own self-loop: both are
    # classes of their own, and 3 is placed before the cycle it points to.
    assert _classes_in_order(RevealedRelation(weak=weak, strict=strict)) == [[3], [0, 1, 2], [4]]


def _spy(monkeypatch, module, name, record):
    """Wrap ``module.name`` so that every call first passes its arguments to ``record``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def _verdict_checker(monkeypatch, probes, current):
    """Make every CCEI probe, and the e = 1 verdict both searches open with,
    also check its verdict and witness against the full-closure reference
    on the full relation of ``current[0]``, and record the efficiency and
    the size of the relation each probe built."""
    real_init, real = ccei._Probes.__init__, ccei._Probes.verdict
    built = []
    _spy(monkeypatch, ccei, "_relation", lambda costs, budgets, *_: built.append(len(budgets)))

    def opened(self, dataset):
        real_init(self, dataset)
        want = reference.garp_verdict(direct_relations(dataset, 1), witness=False)
        assert (self.failing is None) == want.holds
    monkeypatch.setattr(ccei._Probes, "__init__", opened)

    def checked(self, e, *, witness=False):
        got = real(self, e, witness=True)
        dataset = current[0]
        assert got == reference.garp_verdict(direct_relations(dataset, e)), e
        probes.append((e, built[-1], dataset.n_observations))
        return got if witness else revpref.GarpVerdict(got.holds, None)
    monkeypatch.setattr(ccei._Probes, "verdict", checked)


def test_core_verdict_matches_full_closure_at_every_probe(monkeypatch):
    rng = np.random.default_rng(20261107)
    probes, current = [], [None]
    _verdict_checker(monkeypatch, probes, current)
    for _ in range(16):
        n = int(rng.integers(2, 40))
        exact, floats = make_twins(*random_tables(rng, n, int(rng.integers(1, 5))))
        for dataset in (exact, floats):
            current[0] = dataset
            result = ccei.ccei_exact(dataset)
            ccei.ccei_binary_search(dataset)
            picks = rng.choice(len(result.breakpoints), size=min(8, len(result.breakpoints)))
            for i in picks.tolist():
                rel = direct_relations(dataset, result.breakpoints[i])
                assert garp_verdict(rel) == reference.garp_verdict(rel)
    assert len(probes) > 500
    # Most probes were decided on a core smaller than the whole table.
    assert sum(size < n for _, size, n in probes) > len(probes) // 2


def test_ccei_probes_build_only_the_last_failing_core(monkeypatch, tmp_path):
    rng = np.random.default_rng([20261018, 300])
    n = 300
    prices, bundles = random_tables(rng, n, 10)
    path = tmp_path / "d.csv"
    header = ["t"] + [f"p{i}" for i in range(1, 11)] + [f"x{i}" for i in range(1, 11)]
    path.write_text("\n".join([",".join(header)] + [
        ",".join([str(t + 1), *p, *x]) for t, (p, x) in enumerate(zip(prices, bundles))]) + "\n")
    real_init, real = ccei._Probes.__init__, ccei._Probes.verdict
    full, opened, built, probes = [], [], [], []
    # Relations built by direct_relations: their size, and whether at e = 1.
    _spy(monkeypatch, revpref, "_relation", lambda costs, budgets, *_: full.append(
        (costs.shape[0], bool((budgets == costs.diagonal()).all()))))
    # A probe's relation has one budget per node it is built on.
    _spy(monkeypatch, ccei, "_relation", lambda costs, budgets, *_: built.append(len(budgets)))

    def opening(self, dataset):
        real_init(self, dataset)
        opened.append((self.failing, self.core.size))

    def recorded(self, e, *, witness=False):
        before = (self.failing, self.core.size)
        verdict = real(self, e, witness=witness)
        probes.append((e, *before, built[-1], self.core.size))
        return verdict
    monkeypatch.setattr(ccei._Probes, "__init__", opening)
    monkeypatch.setattr(ccei._Probes, "verdict", recorded)
    code = cli.main(["ccei", str(path), "--float", "--out", str(tmp_path / "r.json")])
    assert code == 0
    # e = 1 is built once, on the whole table, and both searches open with
    # its failing verdict and core; no probe builds it again.  Every probe
    # at or below the lowest failing efficiency builds on that probe's
    # core, and only the witness probe above it builds the whole table.
    assert full == [(n, True)]
    assert len(opened) == 2 and opened[0] == opened[1] and opened[0][0] == 1.0
    assert all(e < 1 for e, *_ in probes)
    above = [p for p in probes if p[0] > p[1]]
    assert len(above) <= 1 and all(size == n for *_, size, _ in above)
    below = [p for p in probes if p[0] <= p[1]]
    assert len(below) > 40
    assert all(size == core for _, _, core, size, _ in below)
    # The cores shrink to a handful of nodes near the CCEI.
    assert probes[-1][-1] <= 8 < opened[0][1]


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
    labelled, searched = [], []
    _spy(monkeypatch, revpref, "_components", lambda weak: labelled.append(weak.shape[0]))
    _spy(monkeypatch, revpref, "_scc_of_first", lambda edges: searched.append(edges.shape[0]))
    for dataset, e in ((floats, e_star), (ces, 1.0)):
        core = _peel_reference(direct_relations(dataset, e).weak)
        labelled.clear()
        searched.clear()
        assert check_e_garp(dataset, e).holds
        solve_afriat(dataset, e)
        # One labelling per relation: the verdict, the solver's verdict and
        # its class order share it, and its searches run on the core alone.
        assert labelled == [n] and max(searched, default=0) <= core.size < n
    # No verdict path can build a closure: the package has none.
    assert not hasattr(revpref, "transitive_closure")
    assert not hasattr(RevealedRelation, "closure")


@st.composite
def nested_efficiencies(draw):
    """A dataset on either lane and two efficiencies e <= e2 in (0, 1].

    Each is a breakpoint, or on the float lane a float next to one, so the
    knife-edge ties at and around each ratio are drawn often.
    """
    dataset, _ = draw(lane_cases(max_observations=12))
    cands = ccei._candidates(dataset)
    picks = sorted(draw(st.lists(st.sampled_from(cands), min_size=2, max_size=2)))
    if not dataset.exact:
        shift = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=2, max_size=2))
        picks = sorted(min(1.0, float(np.nextafter(e, 2.0 * d))) if d else e
                       for e, d in zip(picks, shift))
    return dataset, picks[0], picks[1]


@given(case=nested_efficiencies())
@settings(max_examples=300, deadline=None)
def test_relations_and_cores_are_nested_in_e(case):
    dataset, e, e2 = case
    low, high = direct_relations(dataset, e), direct_relations(dataset, e2)
    assert not (low.weak & ~high.weak).any() and not (low.strict & ~high.strict).any()
    assert np.isin(low.components[0], high.components[0]).all()


def _rounds(monkeypatch):
    """Record the size of the graph of every forward-backward round from now on."""
    searches = []
    _spy(monkeypatch, revpref, "_scc_of_first", lambda edges: searches.append(edges.shape[0]))
    return searches


@st.composite
def chains_and_ties(draw):
    """``relation_graphs`` made chain-like or tie-heavy.

    A chain adds links t -> t + 1 in a random order of the nodes, so BFS
    runs long; ties add the reverse of every link with probability 1/2,
    so the graph splits into many small SCCs.
    """
    weak = draw(relation_graphs()).weak.copy()
    n = weak.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        order = rng.permutation(n)
        weak[order[:-1], order[1:]] = True
    if draw(st.booleans()):
        weak |= weak.T & (rng.random((n, n)) < 0.5)
    return weak


def test_forward_backward_round_counts(monkeypatch):
    # Each round removes one SCC that survived the trim, so the rounds are
    # at least the SCCs of two or more nodes and at most all the SCCs in
    # the core.
    searches = _rounds(monkeypatch)

    @given(weak=chains_and_ties())
    @settings(max_examples=400, deadline=None)
    def check(weak):
        searches.clear()
        core, label = _components(weak)
        assert np.array_equal(label, _scc_reference(weak))
        sccs = np.unique(label[core]).size
        multi = int((np.bincount(label)[np.unique(label)] > 1).sum())
        assert multi <= len(searches) <= sccs

    check()
    # The worst case found: a chain of tie pairs, 2i <-> 2i + 1 -> 2i + 2.
    # The trim keeps every pair and each round takes one; the backward
    # search ends after a level, so the forward one stops there too.
    k = 12
    weak = np.zeros((2 * k, 2 * k), dtype=bool)
    pairs = np.arange(0, 2 * k, 2)
    weak[pairs, pairs + 1] = weak[pairs + 1, pairs] = True
    weak[pairs[:-1] + 1, pairs[1:]] = True
    searches.clear()
    core, label = _components(weak)
    assert core.size == 2 * k and label.tolist() == np.repeat(pairs, 2).tolist()
    assert searches == list(range(2 * k, 0, -2))
    # A path node between two tie pairs, 0 <-> 1 -> 2 -> 3 <-> 4, is in the
    # core; once the first pair is gone, the trim drops it without a round.
    weak = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)):
        weak[a, b] = True
    searches.clear()
    assert _components(weak)[1].tolist() == [0, 0, 2, 3, 3]
    assert searches == [5, 2]
