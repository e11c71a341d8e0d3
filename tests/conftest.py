"""Shared fixtures and random-data helpers.

Hand-computed fixtures (all cross expenditures worked out by hand, values
frozen here):

* ``base``: p1=(1,1) x1=(1,1); p2=(2,2) x2=(2,2).  Cross costs
  [[2,4],[4,8]], GARP holds, CCEI = 1.  The swapped assignment costs
  4 + 4 = 8 < 2 + 8 = 10.
* ``viol``: p1=(2,1) x1=(2,1); p2=(1,2) x2=(1,2).  Cross costs
  [[5,4],[4,5]], both ratios 4/5; fails GARP at 1, holds at 4/5 (both
  links tie, no strict step), so CCEI = 4/5 and it is attained.
* ``noattain``: p1=(3.5,1) x1=(4,1); p2=(11,16) x2=(1,4).  Cross costs
  [[15,15/2],[60,75]], ratios 1/2 and 4/5.  At 4/5 the link 2->1 switches
  on weakly while 1->2 is already strict, so the verdict fails exactly at
  4/5 and passes below: CCEI = 4/5, not attained.
* ``knife``: p1=(1,1) x1=(2,2); p2=(1,3) x2=(1,3).  Cross costs
  [[4,4],[8,10]].  The tie 1->2 plus strict 2->1 violate only at e = 1:
  CCEI = 1, not attained.
* ``single``: one observation; trivially consistent, CCEI = 1.

``ring(n)`` gives the ring family, exact and float: each row strictly
reveals only the next one, so the one violating cycle runs through all n
rows and the witness search goes n - 1 levels deep.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np
import pytest

from garpkit import validate_dataset


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per end-to-end gate, when that module ran."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", [])
    if not results:
        return
    terminalreporter.section("acceptance")
    for label, ok in results:
        terminalreporter.write_line(("PASS  " if ok else "FAIL  ") + label)


def make_twins(price_strings, bundle_strings):
    """Exact and float datasets from the same decimal-string tables."""
    exact = validate_dataset(price_strings, bundle_strings, exact=True)
    floats_p = [[float(Fraction(v)) for v in row] for row in price_strings]
    floats_x = [[float(Fraction(v)) for v in row] for row in bundle_strings]
    return exact, validate_dataset(floats_p, floats_x, exact=False)


def random_tables(rng, n_obs, n_goods, lo=0.1, hi=10.0):
    """Decimal-string tables with two-decimal entries in [lo, hi].

    Two decimals keep the exact-lane Fractions small while still producing
    plenty of breakpoint ties once efficiencies are snapped onto ratios.
    """
    lo_i, hi_i = round(lo * 100), round(hi * 100)
    prices = [
        [f"{rng.integers(lo_i, hi_i + 1) / 100:.2f}" for _ in range(n_goods)]
        for _ in range(n_obs)
    ]
    bundles = [
        [f"{rng.integers(lo_i, hi_i + 1) / 100:.2f}" for _ in range(n_goods)]
        for _ in range(n_obs)
    ]
    return prices, bundles


def ring(n_obs):
    """Exact and float twins of the ring table, L = 3, from 17-digit strings.

    With ``theta_t = 2 pi t / T`` and ``phi_t = theta_t + 0.7 * 2 pi / T``,
    ``x_t = (2 + cos theta_t, 2 + sin theta_t, 2 - cos theta_t - sin theta_t)``
    and ``p_t = 1.5 - (cos phi_t, sin phi_t, 0)``.  Then
    ``C[t, t+1] < C[t, t] < C[t, s]`` for every other s (indices mod T): the
    one violating cycle is (0, 1, ..., T - 1, 0), every step strict.
    """
    theta = 2 * np.pi * np.arange(n_obs) / n_obs
    phi = theta + 0.7 * 2 * np.pi / n_obs
    prices = np.c_[1.5 - np.cos(phi), 1.5 - np.sin(phi), np.full(n_obs, 1.5)]
    bundles = np.c_[2 + np.cos(theta), 2 + np.sin(theta), 2 - np.cos(theta) - np.sin(theta)]
    return make_twins([list(map(repr, row.tolist())) for row in prices],
                      [list(map(repr, row.tolist())) for row in bundles])


def random_efficiency(rng, exact_dataset, allow_vector=True):
    """A random efficiency draw for twin datasets: (exact value, float value).

    Snaps to a cross-expenditure ratio about a third of the time so the
    breakpoint ties are exercised, not just generic interior points.
    """
    from garpkit.model import cross_expenditures

    def one_scalar():
        if rng.random() < 0.35:
            costs = cross_expenditures(exact_dataset)
            ratios = costs / costs.diagonal()[:, None]
            pool = sorted(
                {r for r in ratios.flat if 0 < r <= 1}
            )
            if pool:
                return pool[rng.integers(len(pool))]
        return Fraction(int(rng.integers(1, 1001)), 1000)

    if allow_vector and rng.random() < 0.3:
        values = [one_scalar() for _ in range(exact_dataset.n_observations)]
        return values, [float(v) for v in values]
    value = one_scalar()
    return value, float(value)


@pytest.fixture
def base_exact():
    return validate_dataset([(1, 1), (2, 2)], [(1, 1), (2, 2)], exact=True)


@pytest.fixture
def base_float():
    return validate_dataset([(1.0, 1.0), (2.0, 2.0)], [(1.0, 1.0), (2.0, 2.0)],
                            exact=False)


@pytest.fixture
def viol_exact():
    return validate_dataset([(2, 1), (1, 2)], [(2, 1), (1, 2)], exact=True)


@pytest.fixture
def viol_float():
    return validate_dataset([(2.0, 1.0), (1.0, 2.0)], [(2.0, 1.0), (1.0, 2.0)],
                            exact=False)


@pytest.fixture
def noattain_exact():
    return validate_dataset([("3.5", "1"), ("11", "16")],
                            [("4", "1"), ("1", "4")], exact=True)


@pytest.fixture
def knife_exact():
    return validate_dataset([(1, 1), (1, 3)], [(2, 2), (1, 3)], exact=True)


@pytest.fixture
def single_exact():
    return validate_dataset([(2,)], [(3,)], exact=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
