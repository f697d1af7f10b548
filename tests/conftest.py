"""Shared fixtures and frozen expected values.

E2 is the running 2-coordinate example: pmf 1/2, 1/4, 1/8, 1/8 on
(+,+), (+,-), (-,+), (-,-).  With the index convention (bit i set means
coordinate i is +1) its dense table in index order is
[1/8, 1/4, 1/8, 1/2].  Every constant in E2_EXPECTED was computed by the
independent loop oracles in tests/oracles.py (and by hand) before the
library existed; tests compare the library against these numbers, not
against itself.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import strategies as st

from dtdist import DensePmf, DistTree, Internal, Leaf

E2_TABLE = [1 / 8, 1 / 4, 1 / 8, 1 / 2]

E2_EXPECTED = {
    "weighting": [0.5, 1.0, 0.5, 2.0],
    "influence": (0.5, 0.25),
    "total_influence": 0.75,
    "tv_to_uniform": 0.25,
    # restriction {x0=+1}: conditional over x1 in index order (-1, +1)
    "cond_given_x0_pos": (1 / 3, 2 / 3),
    "weight_x0_pos": 0.75,
    "restricted_total_x0_pos": 0.5,
    "cond_influence_x1_given_x0_pos": 1 / 3,
    # restriction {x1=-1}
    "weight_x1_neg": 0.375,
    "bias_x0_given_x1_neg": 1 / 3,
    # unconditioned biases equal the influences (E2 is monotone)
    "bias": (0.5, 0.25),
    # exact expectation of a single infest run output per coordinate
    "infest_expectation": (0.5, 0.25),
    "var1": 0.625,
    "var_mu": 0.5,
    "sensitivity": 2,
    "mean": 1.0,
    "efron_stein_margin": 0.125,
    "uniformity_margin": 0.25,  # total influence - 2 TV
    "optimal_objective_d1_tau05": 0.25,
    "optimal_objective_d2_tau05": 0.0,
    "leaf_density_both_pos": 0.5,
    "leaf_density_x0_neg": 0.125,
}

# frozen by independent evaluation of the documented formulas
COUNT_DEPTH_TREES_10_2 = 14442
COUNT_DEPTH_TREES_8_2 = 7202
REQUIRED_M_50_3 = 37169


@pytest.fixture
def e2_dense() -> DensePmf:
    return DensePmf(2, np.array(E2_TABLE))


@pytest.fixture
def e2_tree() -> DistTree:
    # split x0; the lo side is one leaf, the hi side splits x1
    root = Internal(0, Leaf(1 / 8), Internal(1, Leaf(1 / 4), Leaf(1 / 2)))
    return DistTree(2, root)


@st.composite
def small_pmfs(draw, max_n=5):
    """Arbitrary DensePmf with n in 0..max_n: uniform random masses, 60%
    zero cells, a point mass, or Dirichlet(0.1)."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "zeros", "point", "dirichlet"]))
    if kind == "point":
        table = np.zeros(1 << n)
        table[rng.integers(1 << n)] = 1.0
    elif kind == "dirichlet":
        table = rng.dirichlet(np.full(1 << n, 0.1))
    else:
        table = rng.random(1 << n)
        if kind == "zeros":
            table[rng.random(1 << n) < 0.6] = 0.0
    if table.sum() == 0.0:
        table[rng.integers(1 << n)] = 1.0
    return DensePmf(n, table / table.sum())


def pm1_stream(seed, n):
    """A valid stream backing: n uniform +-1 int64 columns from its own
    generator."""
    rows = np.random.default_rng(seed)

    def gen(k, rng):
        return 2 * rows.integers(0, 2, size=(k, n)) - 1

    return gen


def map_trials(trial, count: int) -> list:
    """[trial(0), ..., trial(count - 1)], in order.

    Each trial seeds itself, so the trials run on min(2, cores) worker
    processes, and in this process when there is one core.  `trial` must
    be a module-level function so a worker can find it; the pool is shut
    down before this returns.
    """
    workers = min(2, os.cpu_count() or 1)
    if workers == 1:
        return [trial(t) for t in range(count)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial, range(count)))


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
