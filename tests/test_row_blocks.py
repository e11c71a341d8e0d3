"""Row-block builds against the one-shot builds they replaced, and their memory.

``revpref._relation`` compares the cross expenditures with the budgets a
block of rows at a time (``model.row_blocks``), gathering each block from
the full matrix when it builds the relation among a probe's core, and
``ccei._candidates`` divides out and keeps the breakpoints a block at a
time.  Every operation is elementwise, so on both lanes the blocked builds
must equal ``leq_array``/``lt_array`` run once on the gathered matrix, and
the test-only ``reference_exact`` candidates: at a size of one row, at a
size inside one block, and at sizes whose rows span several blocks with a
ragged last one.  No T x T (or K x K) float64 temporary is made, so their
traced peaks stay under one such array.  ``revpref._violating_sources``
tests the strict links against the SCC labels a block of rows at a time
too, so its traced peak stays under one K x K bool array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import reference_exact
from conftest import make_twins, random_tables
from garpkit import ccei, direct_relations, validate_dataset
from garpkit.ccei import _candidates
from garpkit.model import cross_expenditures, leq_array, lt_array, row_blocks
from garpkit.revpref import _relation, _violating_sources

# Size -> (row blocks of a size x size build, rows in the last block).
LAYOUTS = {1: (1, 1), 50: (1, 50), 150: (2, 41), 257: (5, 5)}


def _layout(n: int) -> tuple[int, int]:
    blocks = row_blocks(n, n)
    return len(blocks), len(range(n)[blocks[-1]])


def _budgets(rng, costs: np.ndarray) -> np.ndarray:
    """Per-row budgets, each either 0.8 of the row's own cost or exactly one
    of its entries, so that knife-edge ties are in every block."""
    rows = np.arange(len(costs))
    tie = costs[rows, rng.integers(len(costs), size=len(costs))]
    return np.where(rng.random(len(costs)) < 0.5, tie, costs.diagonal() * 4 / 5)


@pytest.mark.parametrize("k", sorted(LAYOUTS))
def test_blocked_relation_matches_the_one_shot_comparison(k):
    assert _layout(k) == LAYOUTS[k]
    rng = np.random.default_rng([20261020, k])
    for n in (k, k + 40):  # the whole table, and k nodes of a larger one
        exact, floats = make_twins(*random_tables(rng, n, 3))
        nodes = np.sort(rng.choice(n, k, replace=False)) if n > k else None
        for dataset in (exact, floats):
            costs = cross_expenditures(dataset)
            gathered = costs if nodes is None else costs[np.ix_(nodes, nodes)]
            budgets = _budgets(rng, gathered)
            got = _relation(costs, budgets, dataset.rel_tol, nodes)
            weak = leq_array(gathered, budgets[:, None], dataset.rel_tol)
            strict = lt_array(gathered, budgets[:, None], dataset.rel_tol)
            assert got.weak.dtype == got.strict.dtype == bool
            assert np.array_equal(got.weak, weak) and np.array_equal(got.strict, strict)
            assert not (got.weak.flags.writeable or got.strict.flags.writeable)
            # The ties are in: some weak links are not strict.
            assert (weak & ~strict).sum() >= k // 4


@pytest.mark.parametrize("n", [150, 257])
def test_blocked_candidates_match_the_reference(n):
    assert _layout(n) == LAYOUTS[n]
    exact, floats = make_twins(*random_tables(np.random.default_rng([20261021, n]), n, 2))
    for dataset in (exact, floats):
        want = reference_exact.candidates(dataset, reference_exact.cross_expenditures(dataset))
        got = _candidates(dataset)
        assert got.dtype == (object if dataset.exact else np.float64)
        got = got.tolist()
        assert got == want and [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("huge,at", [("1e-400", 3), ("1e400", 200)])
def test_blocked_candidates_fall_back_on_ratios_beyond_the_float_range(huge, at):
    # One good at price 1, so the ratios are x[s] / x[t].  x[3] = 1e-400
    # puts a row of ratios beyond the float range into the first block
    # alone; x[200] = 1e400 puts one into every block.  Each such block
    # takes its keys from the ratios capped at 2.
    rng = np.random.default_rng(20261022)
    bundles = [f"{v / 100:.2f}" for v in rng.integers(10, 1001, 257)]
    bundles[at] = huge
    dataset = validate_dataset([[1]] * 257, [[b] for b in bundles], exact=True)
    assert _layout(257) == LAYOUTS[257]
    want = reference_exact.candidates(dataset, reference_exact.cross_expenditures(dataset))
    assert _candidates(dataset).tolist() == want


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _float_table(n: int):
    _, floats = make_twins(*random_tables(np.random.default_rng(20261020), n, 10))
    cross_expenditures(floats)  # the cost matrix itself is made untraced
    return floats


def test_relations_trace_less_than_one_full_float_array():
    # Traced peak of the relations at e = 0.9, T = 600 (L = 10): 3.61 MB
    # when all rows were compared at once (the tolerant comparison's T x T
    # float64 buffer and the bool results), 0.93 MB a block of rows at a
    # time.  One T x T float64 array is 2.88 MB.  numpy reports its buffers
    # to tracemalloc.
    n = 600
    floats = _float_table(n)
    assert _traced_peak(lambda: direct_relations(floats, 0.9)) < n * n * 8


def test_core_probe_traces_less_than_one_core_sized_float_array(monkeypatch):
    # The first probe below 1 builds its relations on the core at 1, here
    # 597 of 600 observations.  Traced peak: 6.42 MB when the core's costs
    # were copied out first and compared at once, 1.35 MB a block of rows at
    # a time, gathered from the full matrix.  One K x K float64 array is
    # 2.85 MB.
    probes = ccei._Probes(_float_table(600))
    k = probes.core.size
    assert probes.failing == 1 and 1 < k < 600
    sizes, real = [], ccei._relation

    def spy(costs, budgets, *args):
        sizes.append(len(budgets))
        return real(costs, budgets, *args)

    monkeypatch.setattr(ccei, "_relation", spy)
    peak = _traced_peak(lambda: probes.verdict(0.99))
    assert sizes == [k]
    assert peak < k * k * 8, f"{peak / 1e6:.2f} MB"


def test_violating_sources_trace_less_than_one_full_bool_array():
    # perfbench's random_table(default_rng(104), 600): GARP fails and all 600
    # observations are one SCC.  Traced peak of the violating sources, its
    # SCC labels found first: 0.46 MiB with the K x K label comparison made
    # in full, 0.14 MiB a block of rows at a time.  One T x T bool array is
    # 0.34 MiB.
    n = 600
    rng = np.random.default_rng(104)
    prices = rng.integers(10, 1001, (n, 10)) / 100
    bundles = rng.integers(10, 1001, (n, 10)) / 100
    rel = direct_relations(validate_dataset(prices.tolist(), bundles.tolist(), exact=False))
    label = rel.components[1]
    assert (label == 0).all()
    assert _traced_peak(lambda: _violating_sources(rel)) < n * n
    assert _violating_sources(rel).tolist() == list(range(n))
