"""Tests for instance generation and the brute-force verification suite.

Brute-force functionals are cross-checked against the plain loop
reimplementations in oracles.py; frozen E2 values come from conftest.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import E2_EXPECTED, small_pmfs
from dtdist import (
    ConfigError,
    DensePmf,
    DistTree,
    dense_to_tree,
    Internal,
    Leaf,
    Restriction,
    exact_total_influence,
    exhaustive_tree_learn,
    stream,
    tree_to_dense,
    uniform_dense,
    uniform_tree,
    weighting_table,
)
from dtdist.lift import LabeledSample, all_points
from dtdist.testbed import (
    CHECK_TOL,
    Instance,
    brute_optimal_tree,
    brute_stats,
    check_inequalities,
    gen_dt_dist,
    gen_monotone_dist,
    gen_target,
    is_monotone_dense,
    naive_total_influence,
)

ATOL = 1e-9

CHECK_NAMES = [
    "efron-stein",
    "influence-vs-sensitivity",
    "var-sandwich-lower",
    "var-sandwich-upper",
    "per-coord-at-most-one",
    "weighting-mean-one",
    "influence-drop",
    "tv-vs-influence",
    "tv-as-label-error",
    "leaf-influence-vs-l1",
    "tv-split",
]


def dependent_coords(table, n):
    cube = np.asarray(table).reshape([2] * n)
    deps = []
    for ax in range(n):
        if not np.array_equal(np.take(cube, 0, axis=ax), np.take(cube, 1, axis=ax)):
            deps.append(n - 1 - ax)  # cube axis ax holds coordinate n-1-ax
    return deps


# ---------------------------------------------------------------------------
# generators


def test_gen_dt_dist_contract():
    inst = gen_dt_dist(6, 2, seed=3)
    assert inst.kind == "dt" and inst.params == {"n": 6, "d": 2}
    assert inst.n == 6 and inst.depth() == 2
    assert inst.dense.table.sum() == pytest.approx(1.0)
    # the two representations are the same distribution
    assert np.allclose(inst.dense.table, tree_to_dense(inst.tree).table)
    assert inst.monotone == is_monotone_dense(inst.dense)


def test_gen_dt_dist_deterministic():
    a = gen_dt_dist(7, 3, seed=12)
    b = gen_dt_dist(7, 3, seed=12)
    assert a.tree.to_json_dict() == b.tree.to_json_dict()
    assert np.array_equal(a.dense.table, b.dense.table)
    c = gen_dt_dist(7, 3, seed=13)
    assert not np.array_equal(a.dense.table, c.dense.table)


def test_gen_dt_dist_depth_exact():
    for seed in range(6):
        assert gen_dt_dist(5, 2, seed=seed).depth() == 2
        assert gen_dt_dist(6, 3, seed=seed).depth() == 3
    assert gen_dt_dist(4, 0, seed=0).depth() == 0
    with pytest.raises(ConfigError):
        gen_dt_dist(3, 4, seed=0)


def test_gen_monotone_product_formula():
    for seed in (0, 5, 9):
        inst = gen_monotone_dist(5, 2, seed=seed)
        assert inst.kind == "monotone-product" and inst.monotone
        assert inst.depth() == 2
        J, c = inst.params["J"], inst.params["c"]
        assert len(J) == 2 and 1.5 <= c <= 3.0
        pts = all_points(5)
        plus = (pts[:, J] > 0).sum(axis=1)
        want = c ** plus / (1.0 + c) ** 2 / 2.0 ** 3
        assert np.allclose(inst.dense.table, want, atol=ATOL)


def test_monotone_product_frozen_example():
    # two-coordinate family with c = 2: pmf proportional to 2^(#plus),
    # normalized to [1/9, 2/9, 2/9, 4/9]
    c, z = 2.0, 9.0
    root = Internal(
        0,
        Internal(1, Leaf(1 / z), Leaf(c / z)),
        Internal(1, Leaf(c / z), Leaf(c * c / z)),
    )
    dense = tree_to_dense(DistTree(2, root))
    assert np.allclose(dense.table, [1 / 9, 2 / 9, 2 / 9, 4 / 9], atol=ATOL)
    assert is_monotone_dense(dense)


def test_is_monotone_dense(e2_dense):
    assert is_monotone_dense(e2_dense)
    assert is_monotone_dense(uniform_dense(3))
    assert not is_monotone_dense(DensePmf(2, [0.5, 0.125, 0.25, 0.125]))


def test_gen_target_determinism():
    for desc in ("depth:2", "junta:2", "signdeg:1"):
        a = gen_target(6, desc, seed=4)
        b = gen_target(6, desc, seed=4)
        assert np.array_equal(a, b)
        assert a.dtype == np.uint8 and a.shape == (64,)
        assert set(np.unique(a)) <= {0, 1}
    assert not np.array_equal(
        gen_target(6, "junta:2", seed=4), gen_target(6, "junta:2", seed=5)
    )


def test_gen_target_depth_realizable():
    # an exhaustive depth-k fit of the full truth table has zero error
    # exactly when the target is depth-k realizable
    for seed in range(5):
        table = gen_target(6, "depth:2", seed=seed)
        sample = LabeledSample(all_points(6), table)
        hyp = exhaustive_tree_learn(sample, 2)
        assert np.array_equal(hyp.predict_batch(all_points(6)), table)


def test_gen_target_junta_support():
    for seed in range(5):
        table = gen_target(7, "junta:2", seed=seed)
        deps = dependent_coords(table, 7)
        assert 1 <= len(deps) <= 2  # non-constant, at most 2 live coords


@pytest.mark.parametrize("n", [0, 1, 3, 8])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 10])
def test_gen_target_signdeg_matches_monomial_formula(n, k):
    desc = f"signdeg:{k}"
    want = oracles.signdeg_table(n, k, stream(5, "gen-target", desc, n))
    assert np.array_equal(gen_target(n, desc, seed=5), want)


# sha256 of a gen_target table of each class, recorded before signdeg built
# each character from its prefix's
GEN_TARGET_PINS = {
    (8, "depth:3"): "e094de7c2467b225c1596d0dbe0d252f5dc1276fdaa4df481723707ab610364a",
    (8, "junta:3"): "bd7d319e720fa76994e62d960713fcd8e3ba1019d5bf214173988fd6244e48a3",
    (8, "signdeg:3"): "ae1281bb4253617dc97043ef58e35d6ea0ab6ab81c0fb7ed52000cd5456052fd",
    (12, "signdeg:4"): "1e24d31746c7ef46367926d8a54f2067011147eb6090fdbbe78098c292618b68",
}


@pytest.mark.parametrize("n,desc", sorted(GEN_TARGET_PINS))
def test_gen_target_tables_are_pinned(n, desc):
    digest = hashlib.sha256(gen_target(n, desc, seed=3).tobytes()).hexdigest()
    assert digest == GEN_TARGET_PINS[(n, desc)]


def test_gen_target_rejects_bad_descriptors():
    with pytest.raises(ConfigError):
        gen_target(4, "depth", seed=0)
    with pytest.raises(ConfigError):
        gen_target(4, "depth:5", seed=0)
    with pytest.raises(ConfigError):
        gen_target(4, "mystery:2", seed=0)


# ---------------------------------------------------------------------------
# brute-force functionals


def test_brute_stats_e2(e2_dense):
    stats = brute_stats(weighting_table(e2_dense))
    assert np.allclose(stats.per_coord, E2_EXPECTED["influence"], atol=ATOL)
    assert stats.total == pytest.approx(E2_EXPECTED["total_influence"], abs=ATOL)
    assert stats.var1 == pytest.approx(E2_EXPECTED["var1"], abs=ATOL)
    assert stats.var_mu == pytest.approx(E2_EXPECTED["var_mu"], abs=ATOL)
    assert stats.sensitivity == E2_EXPECTED["sensitivity"]
    assert stats.mean == pytest.approx(E2_EXPECTED["mean"], abs=ATOL)


def test_brute_stats_dictator():
    # f(x) = x_1 on n=3: unit influence on one coordinate, sensitivity 1
    pts = all_points(3)
    stats = brute_stats(pts[:, 1].astype(np.float64))
    assert np.allclose(stats.per_coord, [0.0, 1.0, 0.0], atol=ATOL)
    assert stats.total == pytest.approx(1.0)
    assert stats.var1 == pytest.approx(1.0)
    assert stats.var_mu == pytest.approx(1.0)
    assert stats.sensitivity == 1
    assert stats.mean == pytest.approx(0.0)


def test_brute_stats_constant():
    stats = brute_stats(np.full(16, 2.5))
    assert np.all(stats.per_coord == 0.0)
    assert stats.total == 0.0 and stats.var1 == pytest.approx(0.0)
    assert stats.var_mu == 0.0 and stats.sensitivity == 0
    assert stats.mean == pytest.approx(2.5)


def test_brute_stats_vs_loop_oracles():
    rng = np.random.default_rng(17)
    for n in (3, 4):
        f = rng.uniform(0.0, 2.0, size=1 << n)
        stats = brute_stats(f)
        for i in range(n):
            assert stats.per_coord[i] == pytest.approx(
                oracles.influence(f, n, i), abs=ATOL
            )
        assert stats.total == pytest.approx(oracles.total_influence(f, n), abs=ATOL)
        assert stats.var1 == pytest.approx(oracles.l1_variance(list(f)), abs=ATOL)
        assert stats.var_mu == pytest.approx(oracles.mean_abs_dev(list(f)), abs=ATOL)
        assert stats.sensitivity == oracles.sensitivity(list(f), n)


def test_naive_total_influence_matches_exact():
    rng = np.random.default_rng(23)
    for seed in range(4):
        table = rng.uniform(0.1, 1.0, size=32)
        table /= table.sum()
        dense = DensePmf(5, table)
        w = weighting_table(dense)
        for fixed in ({}, {0: 1}, {2: -1}, {1: 1, 4: -1}):
            s = Restriction.of(fixed)
            assert naive_total_influence(w, 5, fixed) == pytest.approx(
                exact_total_influence(dense, s), abs=ATOL
            )


def test_brute_optimal_tree_e2(e2_dense):
    obj0, enc0 = brute_optimal_tree(e2_dense, 0, tau=0.05)
    assert obj0 == pytest.approx(E2_EXPECTED["total_influence"], abs=ATOL)
    assert enc0 == ("leaf",)
    obj1, enc1 = brute_optimal_tree(e2_dense, 1, tau=0.05)
    assert obj1 == pytest.approx(E2_EXPECTED["optimal_objective_d1_tau05"], abs=ATOL)
    assert enc1 == ("node", 0, ("leaf",), ("leaf",))
    obj2, _ = brute_optimal_tree(e2_dense, 2, tau=0.05)
    assert obj2 == pytest.approx(E2_EXPECTED["optimal_objective_d2_tau05"], abs=ATOL)
    # a threshold above every influence forbids all splits
    obj_hi, enc_hi = brute_optimal_tree(e2_dense, 2, tau=1.0)
    assert obj_hi == pytest.approx(E2_EXPECTED["total_influence"], abs=ATOL)
    assert enc_hi == ("leaf",)


def test_brute_optimal_tree_matches_plain_recursion():
    for seed in range(6):
        inst = gen_dt_dist(4, 2, seed=seed)
        for d, tau in ((1, 0.05), (2, 0.05), (2, 0.3)):
            obj, _ = brute_optimal_tree(inst.dense, d, tau)
            want = oracles.optimal_objective(inst.dense.table, 4, d, tau)
            assert obj == pytest.approx(want, abs=ATOL)


# ---------------------------------------------------------------------------
# relation checks


def make_instance(tree, dense, seed=0, kind="dt"):
    return Instance(
        tree=tree,
        dense=dense,
        seed=seed,
        kind=kind,
        monotone=is_monotone_dense(dense),
        params={},
    )


def test_check_names_and_kinds(e2_dense, e2_tree):
    records = check_inequalities(make_instance(e2_tree, e2_dense))
    assert [r.name for r in records] == CHECK_NAMES
    kinds = {r.name: r.kind for r in records}
    assert kinds["efron-stein"] == "le"
    assert kinds["weighting-mean-one"] == "eq"
    assert kinds["influence-drop"] == "eq"
    assert kinds["tv-as-label-error"] == "eq"
    for r in records:
        assert r.to_json_dict()["passed"] == r.passed


def test_check_e2_frozen_margins(e2_dense, e2_tree):
    inst = make_instance(e2_tree, e2_dense)
    uni = make_instance(uniform_tree(2), uniform_dense(2), kind="uniform")
    byname = {r.name: r for r in check_inequalities(inst, other=uni)}
    assert all(r.passed for r in byname.values())
    es = byname["efron-stein"]
    assert es.margin == pytest.approx(E2_EXPECTED["efron_stein_margin"], abs=ATOL)
    tvinf = byname["tv-vs-influence"]
    assert tvinf.lhs == pytest.approx(2 * E2_EXPECTED["tv_to_uniform"], abs=ATOL)
    assert tvinf.margin == pytest.approx(E2_EXPECTED["uniformity_margin"], abs=ATOL)
    # against the uniform partner the label-error form of tv is exact
    lab = byname["tv-as-label-error"]
    assert lab.lhs == pytest.approx(E2_EXPECTED["tv_to_uniform"], abs=ATOL)
    assert abs(lab.margin) <= ATOL
    # uniform partner has the single empty leaf, so the split-tv bound
    # reduces to plain tv <= 2 tv
    split = byname["tv-split"]
    assert split.lhs == pytest.approx(E2_EXPECTED["tv_to_uniform"], abs=ATOL)
    assert split.rhs == pytest.approx(2 * E2_EXPECTED["tv_to_uniform"], abs=ATOL)


def test_check_uniform_self_trivial():
    uni = make_instance(uniform_tree(3), uniform_dense(3), kind="uniform")
    byname = {r.name: r for r in check_inequalities(uni, other=uni)}
    assert all(r.passed for r in byname.values())
    assert byname["efron-stein"].lhs == pytest.approx(0.0, abs=ATOL)
    assert byname["weighting-mean-one"].lhs == pytest.approx(1.0, abs=ATOL)
    assert byname["tv-as-label-error"].lhs == pytest.approx(0.0, abs=ATOL)
    assert byname["tv-split"].lhs == pytest.approx(0.0, abs=ATOL)


def test_check_inequalities_random_instances():
    for seed in range(12):
        n = 3 + seed % 5
        d = min(n, seed % 4)
        inst = gen_dt_dist(n, d, seed=seed)
        records = check_inequalities(inst)
        bad = [r for r in records if not r.passed]
        assert not bad, f"seed {seed}: {[(r.name, r.margin) for r in bad]}"


def test_check_inequalities_monotone_instances():
    for seed in range(6):
        inst = gen_monotone_dist(5, 2, seed=seed)
        partner = gen_dt_dist(5, 2, seed=seed + 100)
        records = check_inequalities(inst, other=partner)
        assert all(r.passed for r in records)
        assert all(r.margin >= -CHECK_TOL for r in records)


@settings(max_examples=100, deadline=None)
@given(small_pmfs())
def test_inequalities_hold_on_any_pmf(d):
    # criterion 8 on arbitrary pmfs through their exact tree, not only on
    # generated trees
    inst = Instance(tree=dense_to_tree(d), dense=d, seed=5, kind="pmf", monotone=False)
    failed = [r.name for r in check_inequalities(inst) if not r.passed]
    assert not failed
