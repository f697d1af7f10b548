"""Acceptance suite: ten end-to-end criteria, one printed line each.

Every test records "PASS criterion N: ..." or "FAIL criterion N: ..."
through conftest.ACCEPTANCE_LINES (echoed in the terminal summary) and
then asserts, so a red criterion is also a red test.  Criteria 1-4 feed
their search statistics to criterion 10's call-budget check.
"""

import time
import warnings

import numpy as np
import pytest

import conftest
from dtdist import (
    DensePmf,
    DistOracle,
    DistTree,
    Internal,
    KIND_EXACT,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    LabeledSample,
    Leaf,
    Restriction,
    all_points,
    call_count_bound,
    derive_seed,
    dist_error,
    end_to_end,
    exact_conditional_influence,
    exact_influence,
    gen_dt_dist,
    gen_monotone_dist,
    gen_target,
    infest,
    learn_distribution_result,
    lift_learn_result,
    make_exhaustive_tree_learner,
    make_labeled_source,
    subcube_weight,
    tree_to_dense,
    tv_distance,
    ConstantHypothesis,
    UniformLearner,
)
from dtdist.testbed import brute_optimal_tree, check_inequalities

SEED = 271828

# (criterion, recursive_calls, d, eps) from every build run in criteria 1-4
RUN_STATS = []


def record(number: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_builddt_exact_recovery():
    started = time.monotonic()
    wins = 0
    for t in range(50):
        inst = gen_dt_dist(12, 3, derive_seed(SEED, "acc1", t))
        oracle = DistOracle.exact(inst.dense, derive_seed(SEED, "acc1-oracle", t))
        res = learn_distribution_result(oracle, 3, 0.1, 0.1, KIND_EXACT)
        tv = tv_distance(inst.dense, tree_to_dense(res.tree))
        RUN_STATS.append((1, res.stats.recursive_calls, 3, 0.1))
        wins += tv <= 0.1
    elapsed = time.monotonic() - started
    ok = wins == 50 and elapsed <= 120.0
    record(1, ok, f"exact search, n=12 d=3 eps=0.1: TV<=0.1 in {wins}/50 runs, "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_2_builddt_optimality():
    tau = 0.05
    agree = 0
    for t in range(100):
        n = 2 + t % 4
        d = min(t % 3, n)
        inst = gen_dt_dist(n, d, derive_seed(SEED, "acc2", t))
        oracle = DistOracle.exact(inst.dense, derive_seed(SEED, "acc2-oracle", t))
        res = learn_distribution_result(oracle, d, 0.2, 0.1, KIND_EXACT, tau=tau)
        brute_obj, _ = brute_optimal_tree(inst.dense, d, tau)
        agree += abs(res.objective - brute_obj) <= 1e-9
    ok = agree == 100
    record(2, ok, f"exact-mode objective equals brute force on {agree}/100 "
                  f"instances (n<=5, d<=2)")


@pytest.mark.slow
def test_criterion_3_monotone_pipeline():
    wins = 0
    for t in range(20):
        inst = gen_monotone_dist(10, 3, derive_seed(SEED, "acc3", t))
        oracle = DistOracle.sampler(inst.dense, derive_seed(SEED, "acc3-oracle", t))
        res = learn_distribution_result(oracle, 3, 0.15, 0.1, KIND_MONOTONE)
        tv = tv_distance(inst.dense, tree_to_dense(res.tree))
        RUN_STATS.append((3, res.stats.recursive_calls, 3, 0.15))
        wins += tv <= 0.15
    ok = wins >= 18
    record(3, ok, f"monotone pipeline, n=10 d=3 eps=0.15: TV<=0.15 in {wins}/20 "
                  f"trials (need >=18)")


@pytest.mark.slow
def test_criterion_4_subcube_pipeline():
    wins = 0
    for t in range(20):
        inst = gen_dt_dist(10, 3, derive_seed(SEED, "acc4", t))
        oracle = DistOracle.subcube(inst.dense, derive_seed(SEED, "acc4-oracle", t))
        res = learn_distribution_result(oracle, 3, 0.15, 0.1, KIND_SUBCUBE)
        tv = tv_distance(inst.dense, tree_to_dense(res.tree))
        RUN_STATS.append((4, res.stats.recursive_calls, 3, 0.15))
        wins += tv <= 0.15
    ok = wins >= 18
    record(4, ok, f"subcube pipeline, n=10 d=3 eps=0.15: TV<=0.15 in {wins}/20 "
                  f"trials (need >=18)")


def test_criterion_5_monotone_bias_identity():
    worst = 0.0
    for t in range(100):
        n = 2 + t % 9
        d = min(1 + t % 3, n)
        inst = gen_monotone_dist(n, d, derive_seed(SEED, "acc5", t))
        pts = all_points(n)
        for i in range(n):
            inf = exact_conditional_influence(inst.dense, i)
            bias = float((inst.dense.table * pts[:, i]).sum())
            worst = max(worst, abs(inf - bias))
    ok = worst <= 1e-9
    record(5, ok, f"influence equals coordinate bias on 100 monotone instances, "
                  f"all coordinates: worst gap {worst:.2e} (tol 1e-9)")


def test_criterion_6_infest_bias(e2_dense):
    means = []
    for coord, expect in ((0, 0.5), (1, 0.25)):
        oracle = DistOracle.subcube(e2_dense, derive_seed(SEED, "acc6", coord))
        vals = [infest(oracle, coord, 0.01) for _ in range(10_000)]
        means.append(float(np.mean(vals)))
    gap0 = abs(means[0] - 0.5)
    gap1 = abs(means[1] - 0.25)
    ok = gap0 <= 0.02 and gap1 <= 0.02
    record(6, ok, f"mean of 10^4 infest(eps=0.01) runs on E2: coord 0 -> "
                  f"{means[0]:.4f} (want 0.5+-0.02), coord 1 -> {means[1]:.4f} "
                  f"(want 0.25+-0.02)")


def test_criterion_7_scaling_identity():
    rng = np.random.default_rng(derive_seed(SEED, "acc7"))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        table = rng.uniform(0.05, 1.0, size=1 << n)
        dense = DensePmf(n, table / table.sum())
        m = int(rng.integers(0, n))
        coords = rng.choice(n, size=m + 1, replace=False)
        i = int(coords[0])
        s = Restriction.of(
            {int(c): int(rng.integers(0, 2)) * 2 - 1 for c in coords[1:]}
        )
        w = subcube_weight(dense, s)
        lhs = exact_influence(dense, i, s)
        rhs = 2.0 ** len(s) * w * exact_conditional_influence(dense, i, s)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    record(7, ok, f"restricted influence equals scaled conditional influence on "
                  f"10^3 (D, s, i) triples: worst gap {worst:.2e} (tol 1e-9)")


def test_criterion_8_inequality_suite():
    violations = 0
    checked = 0
    for t in range(1000):
        n = 2 + t % 9
        d = min(t % 4, n)
        inst = gen_dt_dist(n, d, derive_seed(SEED, "acc8", t))
        for rec in check_inequalities(inst):
            checked += 1
            violations += not rec.passed
    ok = violations == 0
    record(8, ok, f"inequality and identity suite: {violations} violations "
                  f"beyond 1e-9 across {checked} relations on 10^3 instances")


@pytest.mark.slow
def test_criterion_9_lifting_end_to_end():
    learner = make_exhaustive_tree_learner(10, 2, eps=0.04, delta=0.0125)
    wins = {}
    for path, kind in (("monotone", KIND_MONOTONE), ("subcube", KIND_SUBCUBE)):
        wins[path] = 0
        for t in range(20):
            if path == "monotone":
                inst = gen_monotone_dist(10, 2, derive_seed(SEED, "acc9m", t))
                oracle = DistOracle.sampler(
                    inst.dense, derive_seed(SEED, "acc9m-oracle", t)
                )
            else:
                inst = gen_dt_dist(10, 2, derive_seed(SEED, "acc9s", t))
                oracle = DistOracle.subcube(
                    inst.dense, derive_seed(SEED, "acc9s-oracle", t)
                )
            target = gen_target(10, "depth:2", derive_seed(SEED, "acc9-f", path, t))
            labeled = make_labeled_source(
                DistOracle.sampler(inst.dense, derive_seed(SEED, "acc9-lab", path, t)),
                target,
            )
            result = end_to_end(
                oracle, labeled, learner, 2, 0.1, 0.1, kind,
                dist_eps=0.05, seed=derive_seed(SEED, "acc9-lift", path, t),
            )
            err = dist_error(result.hypothesis, target, inst.dense)
            wins[path] += err <= 0.1
    ok = wins["monotone"] >= 18 and wins["subcube"] >= 18
    record(9, ok, f"lifted exhaustive-tree learner, n=10 d=2: error<=0.1 in "
                  f"{wins['monotone']}/20 monotone-path and {wins['subcube']}/20 "
                  f"subcube-path trials (need >=18 each)")


def test_criterion_10_budget_conformance():
    stats = list(RUN_STATS)
    if not stats:
        # criteria 1-4 were deselected; regenerate a small batch of runs
        for t in range(5):
            inst = gen_dt_dist(8, 2, derive_seed(SEED, "acc10", t))
            oracle = DistOracle.exact(inst.dense, derive_seed(SEED, "acc10-o", t))
            res = learn_distribution_result(oracle, 2, 0.1, 0.1, KIND_EXACT)
            stats.append((1, res.stats.recursive_calls, 2, 0.1))
    over = [s for s in stats if s[1] > call_count_bound(s[3], s[2])]
    calls_ok = not over

    # lift_learn_result wall time should grow at most linearly in the sample size
    quarter = 0.25 / 2 ** 8
    tree = DistTree(
        10,
        Internal(0, Internal(1, Leaf(quarter), Leaf(quarter)),
                 Internal(1, Leaf(quarter), Leaf(quarter))),
    )
    learn = lambda s: ConstantHypothesis(int(s.y.mean() > 0.5))  # noqa: E731
    learner = UniformLearner(name="majority", m=10, eps=0.5, delta=0.1, learn=learn)
    rng = np.random.default_rng(derive_seed(SEED, "acc10-timing"))
    sizes = (1000, 10_000, 100_000)
    samples = {}
    for size in sizes:
        X = (2 * rng.integers(0, 2, size=(size, 10)) - 1).astype(np.int8)
        samples[size] = LabeledSample(X, (X[:, 5] > 0).astype(np.uint8))
    times = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lift_learn_result(tree, learner, samples[sizes[0]])  # warmup
        for size in sizes:
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                lift_learn_result(tree, learner, samples[size])
                runs.append(time.perf_counter() - t0)
            times[size] = sorted(runs)[1]
    timing_ok = True
    ratios = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            ratio = (times[sizes[b]] / times[sizes[a]]) / (sizes[b] / sizes[a])
            ratios.append(ratio)
            timing_ok = timing_ok and ratio <= 2.0
    ok = calls_ok and timing_ok
    record(
        10,
        ok,
        f"recursive calls within (16d^3/eps)^d on {len(stats)} runs "
        f"({len(over)} over); lift timing vs linear, worst ratio "
        f"{max(ratios):.2f} (limit 2.0) at sizes {sizes}",
    )
