"""Tests for lifting uniform-distribution learners to tree distributions.

Sample-size formulas and tree counts are checked against the independent
reimplementations in oracles.py; Monte Carlo claims run at fixed seeds.
"""

import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    COUNT_DEPTH_TREES_8_2,
    COUNT_DEPTH_TREES_10_2,
    REQUIRED_M_50_3,
    pm1_stream,
)
from dtdist import (
    BudgetExceededError,
    ConfigError,
    ConstantHypothesis,
    DimensionMismatchError,
    DistOracle,
    DistTree,
    EstimatorBudget,
    Hypothesis,
    Internal,
    InvalidTreeError,
    KIND_EXACT,
    LabeledSample,
    Leaf,
    LowDegreeHypothesis,
    OracleMode,
    TreeRoutedHypothesis,
    TruthTableHypothesis,
    UniformLearner,
    all_points,
    boost,
    count_depth_trees,
    dense_to_tree,
    derive_seed,
    dist_error,
    end_to_end,
    exhaustive_tree_learn,
    hypothesis_from_json,
    index_to_point,
    json_dumps,
    learn_distribution_result,
    lift_learn_result,
    low_degree_learn,
    make_exhaustive_tree_learner,
    make_labeled_source,
    make_low_degree_learner,
    points_to_indices,
    required_sample_size,
    split_and_rerandomize,
    stream,
    tree_to_dense,
    uniform_dense,
    uniform_tree,
)
from dtdist import lift
from dtdist.testbed import gen_dt_dist, gen_monotone_dist, gen_target


def uniform_points(n, k, rng):
    return (2 * rng.integers(0, 2, size=(k, n)) - 1).astype(np.int8)


def labeled_uniform(target_table, n, k, rng):
    X = uniform_points(n, k, rng)
    return LabeledSample(X, target_table[points_to_indices(X)])


def coord_table(n, i):
    # truth table of the dictator f(x) = 1 iff x_i = +1
    pts = all_points(n)
    return ((pts[:, i] + 1) // 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# samples and hypotheses


def test_labeled_sample_validation():
    s = LabeledSample([[1, -1], [-1, 1], [1, 1]], [0, 1, 1])
    assert s.n == 2 and len(s) == 3
    assert s.X.dtype == np.int8 and s.y.dtype == np.uint8
    sub = s.subset([0, 2])
    assert len(sub) == 2 and sub.y.tolist() == [0, 1]
    with pytest.raises(DimensionMismatchError):
        LabeledSample([[1, -1]], [0, 1])
    with pytest.raises(ValueError):
        LabeledSample([[1, -1]], [2])


@pytest.mark.parametrize("X, y", [
    pytest.param([[0, 1], [3, -1]], [0, 1], id="zero-and-three"),
    pytest.param(np.array([[200, 1]]), [0], id="wraps-to-minus-56"),
    pytest.param([[1.5, -1]], [1], id="fraction"),
    pytest.param([[np.nan, 1]], [1], id="nan"),
    pytest.param([[1, -1]], [-1], id="label-minus-1"),
    pytest.param([[1, -1]], np.array([256]), id="label-wraps-to-0"),
])
def test_labeled_sample_rejects_entries_off_the_cube(X, y):
    with pytest.raises(ValueError):
        LabeledSample(X, y)


def test_constant_hypothesis():
    h = ConstantHypothesis(1)
    X = all_points(3)
    assert h.predict_batch(X).tolist() == [1] * 8
    assert h.to_json_dict() == {"kind": "const", "value": 1}


def test_truth_table_hypothesis():
    table = coord_table(3, 0)
    h = TruthTableHypothesis(3, table)
    assert np.array_equal(h.predict_batch(all_points(3)), table)
    with pytest.raises(ConfigError):
        TruthTableHypothesis(17, np.zeros(1 << 17, dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        TruthTableHypothesis(3, [0, 1])


def test_hypotheses_reject_wrong_width():
    # a narrower batch would read the wrong cells, a wider one ignore columns
    table = TruthTableHypothesis(3, coord_table(3, 0))
    lowdeg = LowDegreeHypothesis(3, {(0,): 1.0})
    for h in (table, lowdeg):
        for width in (2, 4):
            with pytest.raises(DimensionMismatchError):
                h.predict_batch(all_points(width))


def test_low_degree_hypothesis_sign_convention():
    X = all_points(2)
    # expansion of (-1)^label: positive -> label 0, ties -> label 0
    assert LowDegreeHypothesis(2, {(): -1.0}).predict_batch(X).tolist() == [1] * 4
    h = LowDegreeHypothesis(2, {(0,): 2.0})
    assert h.predict_batch(X).tolist() == [(1 - x[0]) // 2 for x in X.tolist()]
    assert LowDegreeHypothesis(2, {}).predict_batch(X).tolist() == [0] * 4


def test_tree_routed_hypothesis(e2_tree):
    hyps = [ConstantHypothesis(0), ConstantHypothesis(1), ConstantHypothesis(0)]
    h = TreeRoutedHypothesis(e2_tree, hyps)
    X = all_points(2)
    want = [1 if (x[0] > 0 and x[1] < 0) else 0 for x in X.tolist()]
    assert h.predict_batch(X).tolist() == want
    with pytest.raises(DimensionMismatchError):
        TreeRoutedHypothesis(e2_tree, hyps[:2])


def test_hypothesis_json_roundtrips(e2_tree):
    cases = [
        ConstantHypothesis(1),
        TruthTableHypothesis(3, coord_table(3, 2)),
        LowDegreeHypothesis(3, {(): 0.25, (0, 2): -1.0}),
        TreeRoutedHypothesis(
            e2_tree,
            [
                ConstantHypothesis(1),
                TruthTableHypothesis(2, np.array([0, 1, 1, 0], dtype=np.uint8)),
                LowDegreeHypothesis(2, {(1,): -0.5}),
            ],
        ),
        # depth 3 with leaves at depths 1, 2, 3 and 3
        TreeRoutedHypothesis(
            DistTree(3, Internal(0, Leaf(0.125), Internal(
                2, Leaf(0.125), Internal(1, Leaf(0.125), Leaf(0.125))))),
            [
                ConstantHypothesis(0),
                TruthTableHypothesis(3, coord_table(3, 1)),
                ConstantHypothesis(1),
                LowDegreeHypothesis(3, {(0, 2): 1.0}),
            ],
        ),
    ]
    for h in cases:
        text = json_dumps(h.to_json_dict())
        back = hypothesis_from_json(json.loads(text))
        n = h.tree.n if isinstance(h, TreeRoutedHypothesis) else 3
        assert np.array_equal(
            back.predict_batch(all_points(n)), h.predict_batch(all_points(n))
        )
        if isinstance(h, TreeRoutedHypothesis):
            assert json_dumps(back.to_json_dict()) == text
    with pytest.raises(ConfigError):
        hypothesis_from_json({"kind": "mystery"})


@pytest.mark.parametrize("bad", [True, 2.5, -1, "2"])
def test_hypothesis_from_json_rejects_non_integer_n_and_var(bad):
    # int() once read n=2.5 as 2 and var=true as 1
    def routed(n, var):
        return {"kind": "tree-routed", "n": n,
                "root": {"var": var, "lo": {"hyp": {"kind": "const", "value": 0}},
                         "hi": {"hyp": {"kind": "const", "value": 1}}}}

    with pytest.raises(InvalidTreeError, match="tree n must be a nonnegative integer"):
        hypothesis_from_json(routed(bad, 0))
    with pytest.raises(InvalidTreeError, match="split variable must be a nonnegative integer"):
        hypothesis_from_json(routed(2, bad))
    for obj in ({"kind": "table", "n": bad, "table": [0, 1]},
                {"kind": "lowdeg", "n": bad, "terms": []}):
        with pytest.raises(ConfigError, match="hypothesis n must be a nonnegative integer"):
            hypothesis_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"kind": "table", "n": 1, "table": [2, 0]},
    {"kind": "table", "n": 1, "table": [1.0, 0]},
    {"kind": "table", "n": 1, "table": [True, 0]},
    {"kind": "table", "n": 1, "table": "10"},
    {"kind": "const", "value": 7},
    {"kind": "const", "value": "1"},
    {"kind": "const", "value": False},
    {"kind": "lowdeg", "n": 1, "terms": [{"vars": [5], "coef": 1.0}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": [0, -1], "coef": 1.0}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": [1.0], "coef": 1.0}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": ["a"], "coef": 1.0}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": [0], "coef": "x"}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": [0], "coef": True}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": 5, "coef": 1.0}]},
    {"kind": "lowdeg", "n": 2, "terms": [{"vars": [[0]], "coef": 1.0}]},
    {"kind": "table", "n": 2, "table": [0, 1]},
    {"kind": "tree-routed", "n": 1,
     "root": {"var": 0, "lo": {"hyp": {"kind": "const", "value": 0}},
              "hi": {"hyp": {"kind": "const", "value": 2}}}},
])
def test_hypothesis_from_json_refuses_what_would_not_predict_0_or_1(obj):
    # a table entry 2 and a const 7 once loaded and predicted 2 and 7, and a
    # lowdeg term on var 5 at n=1 raised IndexError only at predict time; a
    # var "a" or a coef "x" escaped as ValueError, a short table as
    # DimensionMismatchError, a coef true loaded as 1.0, and vars 5 or [[0]]
    # escaped as TypeError
    with pytest.raises(ConfigError):
        hypothesis_from_json(obj)


# ---------------------------------------------------------------------------
# sample-size formula


def test_required_sample_size_frozen():
    assert required_sample_size(50, 3, 0.1, 0.1) == REQUIRED_M_50_3
    assert required_sample_size(50, 3, 0.1, 0.1) == oracles.required_m(50, 3, 0.1, 0.1)
    # depth 0 degenerates to ceil(8 * (m + ln(2/delta)) / eps)
    assert required_sample_size(10, 0, 1.0, 0.05) == 110
    assert required_sample_size(10, 0, 1.0, 0.05) == oracles.required_m(10, 0, 1.0, 0.05)


def test_required_sample_size_monotonicity():
    base = required_sample_size(30, 2, 0.1, 0.1)
    assert required_sample_size(40, 2, 0.1, 0.1) > base
    assert required_sample_size(30, 3, 0.1, 0.1) > base
    assert required_sample_size(30, 2, 0.05, 0.1) > base
    assert required_sample_size(30, 2, 0.1, 0.01) > base
    # doubling the depth costs at least the extra 2^d leaf factor
    assert required_sample_size(30, 6, 0.1, 0.1) >= (1 << 3) * base


def test_learner_sizes_are_only_formulas():
    # nothing is drawn here, so no row limit applies: a count past it is
    # returned as the formula gives it, and only an undefined one raises
    learner = make_exhaustive_tree_learner(10, 2, 0.0005, 0.1 / 16.0)
    assert required_sample_size(learner.m, 2, 0.001, 0.1) == 938_028_225
    assert make_low_degree_learner(10, 2, 1e-6, 0.1).m > lift._MAX_ROWS
    assert boost(learner, 1e-6).m > lift._MAX_ROWS
    with pytest.raises(ConfigError, match="learner samples inf is not a finite count"):
        make_exhaustive_tree_learner(10, 2, 0.1, 1e-320)  # log(1 / delta) overflows
    with pytest.raises(ConfigError, match="learner delta must be in"):
        make_exhaustive_tree_learner(10, 2, 0.1, 0.0)
    with pytest.raises(ConfigError, match="boosting delta must be in"):
        boost(learner, 0.0)


def test_lift_learn_result_below_a_huge_recommended_size_only_warns():
    # a depth-3 tree with m = 1000 at eps = 1e-4 recommends about 6.4e8 points
    u = Leaf(0.125)
    t = DistTree(3, Internal(0, Internal(1, Internal(2, u, u), u), u))
    learner = UniformLearner(name="const", m=1000, eps=0.1, delta=0.1,
                             learn=lambda s: ConstantHypothesis(0))
    sample = LabeledSample(all_points(3), np.zeros(8, dtype=np.uint8))
    with pytest.warns(UserWarning, match="below the recommended 6"):
        report = lift_learn_result(t, learner, sample, eps=1e-4, delta=0.1)
    assert [r.status for r in report.leaf_records] == ["skipped"] * 4


def test_required_sample_size_matches_oracle_grid():
    for m in (5, 50, 400):
        for d in (0, 1, 4):
            for eps, delta in ((0.5, 0.5), (0.1, 0.01)):
                assert required_sample_size(m, d, eps, delta) == oracles.required_m(
                    m, d, eps, delta
                )


# ---------------------------------------------------------------------------
# split and rerandomize


def test_split_single_leaf_untouched():
    t = uniform_tree(5)
    rng = stream(3, "split")
    X = uniform_points(5, 200, rng)
    y = (X[:, 0] > 0).astype(np.uint8)
    parts = split_and_rerandomize(t, LabeledSample(X, y), rng)
    assert len(parts) == 1
    assert np.array_equal(parts[0].X, X)
    assert np.array_equal(parts[0].y, y)


def test_split_routes_and_preserves_free_coords():
    # root splits coord 0, hi child splits coord 1; coords 2, 3 free everywhere
    root = Internal(
        0,
        Leaf(0.5 / 8),
        Internal(1, Leaf(0.25 / 4), Leaf(0.25 / 4)),
    )
    t = DistTree(4, root)
    oracle = DistOracle.exact(tree_to_dense(t), seed=11)
    X = oracle.sample_batch(6000)
    y = ((X[:, 3] + 1) // 2).astype(np.uint8)
    ords = t.leaf_index_batch(X)
    parts = split_and_rerandomize(t, LabeledSample(X, y), stream(11, "rerand"))
    assert sum(len(p) for p in parts) == len(X)
    for j, part in enumerate(parts):
        rows = np.flatnonzero(ords == j)
        assert len(part) == rows.size
        # routing keeps order, labels and off-path coordinates intact
        assert np.array_equal(part.y, y[rows])
        assert np.array_equal(part.X[:, 2:], X[rows][:, 2:])
        # the label function reads a free coordinate only, so it survives
        assert np.array_equal(part.y, ((part.X[:, 3] + 1) // 2).astype(np.uint8))


def test_split_e2_masses_and_path_uniformity(e2_tree):
    oracle = DistOracle.exact(tree_to_dense(e2_tree), seed=5)
    X = oracle.sample_batch(100_000)
    y = np.zeros(len(X), dtype=np.uint8)
    parts = split_and_rerandomize(e2_tree, LabeledSample(X, y), stream(5, "rerand"))
    # leaf {0=+1,1=+1} carries half the mass
    frac = len(parts[2]) / len(X)
    assert abs(frac - 0.5) < 0.01
    # its path fixed both coordinates at +1; both must come back unbiased
    means = parts[2].X.mean(axis=0)
    assert abs(means[0]) < 0.02 and abs(means[1]) < 0.02


def test_split_complete_tree_rerandomizes_everything():
    # depth-3 complete tree on n=3: every coordinate sits on every path
    def grow(depth, var):
        if depth == 3:
            return Leaf(1 / 8)
        return Internal(var, grow(depth + 1, var + 1), grow(depth + 1, var + 1))

    t = DistTree(3, grow(0, 0))
    X = np.ones((20_000, 3), dtype=np.int8)  # degenerate input, all one point
    y = np.zeros(20_000, dtype=np.uint8)
    parts = split_and_rerandomize(t, LabeledSample(X, y), stream(7, "rerand"))
    full = np.concatenate([p.X for p in parts if len(p)])
    assert full.shape == (20_000, 3)
    assert np.all(np.abs(full.mean(axis=0)) < 0.05)
    freqs = np.bincount(points_to_indices(full), minlength=8) / 20_000
    assert np.all(np.abs(freqs - 1 / 8) < 0.02)


def test_split_parts_near_uniform_for_random_trees():
    for seed in range(4):
        inst = gen_dt_dist(6, 2, seed=seed)
        oracle = DistOracle.exact(inst.dense, seed=seed + 100)
        X = oracle.sample_batch(20_000)
        y = np.zeros(len(X), dtype=np.uint8)
        parts = split_and_rerandomize(
            inst.tree, LabeledSample(X, y), stream(seed, "rerand")
        )
        for part in parts:
            if len(part) >= 500:
                assert np.all(np.abs(part.X.mean(axis=0)) < 0.1)


@st.composite
def split_cases(draw):
    # a generated tree (a single leaf at depth 0), arbitrary +-1 rows in 0
    # to 3 blocks of 64, and arbitrary labels
    n = draw(st.integers(1, 7))
    t = gen_dt_dist(n, draw(st.integers(0, min(3, n))), draw(st.integers(0, 2**16))).tree
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = 64 * draw(st.integers(0, 3)) + draw(st.integers(0, 63))
    X = uniform_points(n, k, rng)
    y = rng.integers(0, 2, size=k).astype(np.uint8)
    return t, X, y, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_matches_row_reference(case):
    t, X, y, seed = case
    rng, ref_rng = stream(seed, "rerand"), stream(seed, "rerand")
    parts = split_and_rerandomize(t, LabeledSample(X, y), rng)
    want = oracles.split_rows(t, X, y, ref_rng)
    ords = t.leaf_index_batch(X)
    assert len(parts) == len(want) == len(t.leaves())
    for j, ((r, _), part, (wX, wy)) in enumerate(zip(t.leaves(), parts, want)):
        rows = np.flatnonzero(ords == j)
        # the same points and labels as the row-matrix split
        assert part.n == t.n and len(part) == rows.size
        assert np.array_equal(part.X, wX) and np.array_equal(part.y, wy)
        # rows of leaf j in order, labels untouched, off-path coordinates kept
        assert np.array_equal(part.y, y[rows])
        off = [i for i in range(t.n) if not r.mask >> i & 1]
        assert np.array_equal(part.X[:, off], X[rows][:, off])
    assert rng.random() == ref_rng.random()


class _Seen(Hypothesis):
    """Predicts its leaf ordinal and keeps the rows it was asked about."""

    def __init__(self, j, seen):
        self.j, self.seen = j, seen

    def predict_batch(self, X):
        self.seen[self.j] = X
        return np.full(X.shape[0], self.j, dtype=np.uint8)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 40), st.integers(0, 2**16))
def test_leaf_grouping_matches_a_per_row_walk(n, d, k, seed):
    # the split and the stitched predictor group rows by leaf alike: as a
    # walk of each row against the leaves' restrictions, empty leaves and
    # n = 0 and k = 0 included, with the split's bits as the row reference's
    t = gen_dt_dist(n, min(d, n), seed).tree
    rng = np.random.default_rng(seed)
    X = (2 * rng.integers(0, 2, size=(k, n)) - 1).astype(np.int8)
    y = rng.integers(0, 2, size=k).astype(np.uint8)
    leaves = t.leaves()
    walk = np.array([next(j for j, (r, _) in enumerate(leaves)
                          if all((x[i] > 0) == (v > 0) for i, v in r.pairs)) for x in X],
                    dtype=np.int64)
    split_rng, ref_rng = stream(seed, "rerand"), stream(seed, "rerand")
    parts = split_and_rerandomize(t, LabeledSample(X, y), split_rng)
    want = oracles.split_rows(t, X, y, ref_rng)
    assert split_rng.random() == ref_rng.random()
    seen: dict = {}
    hyp = TreeRoutedHypothesis(t, [_Seen(j, seen) for j in range(len(leaves))])
    assert np.array_equal(hyp.predict_batch(X), walk)
    for j, ((r, _), part, (wX, _)) in enumerate(zip(leaves, parts, want)):
        rows = np.flatnonzero(walk == j)
        assert np.array_equal(part.y, y[rows]) and np.array_equal(part.X, wX)
        off = [i for i in range(n) if not r.mask >> i & 1]
        assert np.array_equal(part.X[:, off], X[rows][:, off])
        assert np.array_equal(seen[j], X[rows]) if rows.size else j not in seen


def test_split_parts_hold_indices_until_read():
    # a part is one int64 index per point; the point matrix is built only
    # when a learner reads X, which the tree learner never does
    inst = gen_dt_dist(6, 2, seed=4)
    sample = make_labeled_source(DistOracle.exact(inst.dense, seed=4),
                                 gen_target(6, "depth:2", seed=5))(5000)
    parts = split_and_rerandomize(inst.tree, sample, stream(4, "rerand"))
    assert all(p._X is None for p in parts)
    for part in parts:
        exhaustive_tree_learn(part, 2)
        assert part._X is None
        low_degree_learn(part, 1)
        assert part._X is not None
        assert np.array_equal(points_to_indices(part.X), part._idx)


def test_split_index_width_limit():
    # n=63 is the widest cube whose indices are nonnegative int64s: the top
    # coordinate splits and is rerandomized like any other
    def tree(n):
        return DistTree(n, Internal(n - 1, Leaf(2.0 ** -n), Leaf(2.0 ** -n)))

    rng = stream(9, "wide")
    X = uniform_points(63, 300, rng)
    y = (X[:, 0] > 0).astype(np.uint8)
    parts = split_and_rerandomize(tree(63), LabeledSample(X, y), stream(9, "r"))
    want = oracles.split_rows(tree(63), X, y, stream(9, "r"))
    for part, (wX, wy) in zip(parts, want):
        assert np.array_equal(part.X, wX) and np.array_equal(part.y, wy)
    wide = LabeledSample(uniform_points(64, 4, rng), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ConfigError):
        split_and_rerandomize(tree(64), wide, stream(9, "r"))


def test_split_dimension_mismatch():
    t = uniform_tree(3)
    sample = LabeledSample(np.ones((4, 2), dtype=np.int8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        split_and_rerandomize(t, sample, stream(0, "x"))


# ---------------------------------------------------------------------------
# lifting


def majority_learner(m=10):
    def learn(sample):
        return ConstantHypothesis(int(sample.y.mean() > 0.5))

    return UniformLearner(name="majority", m=m, eps=0.5, delta=0.1, learn=learn)


def test_lift_constant_target_zero_error():
    inst = gen_dt_dist(4, 2, seed=2)
    oracle = DistOracle.exact(inst.dense, seed=2)
    target = np.ones(1 << 4, dtype=np.uint8)
    sample = make_labeled_source(oracle, target)(500)
    with pytest.warns(UserWarning):
        report = lift_learn_result(inst.tree, majority_learner(), sample, stream(2, "lift"))
    hyp = report.hypothesis
    assert dist_error(hyp, target, uniform_dense(4)) == 0.0
    assert dist_error(hyp, target, inst.dense) == 0.0


def test_lift_skipped_leaves_default_to_zero(e2_tree):
    rng = stream(9, "skip")
    sample = labeled_uniform(np.ones(4, dtype=np.uint8), 2, 30, rng)
    with pytest.warns(UserWarning, match="below the recommended"):
        report = lift_learn_result(e2_tree, majority_learner(m=50), sample, rng)
    assert all(r.status == "skipped" for r in report.leaf_records)
    assert all("< m=50" in r.detail for r in report.leaf_records)
    assert report.hypothesis.predict_batch(all_points(2)).tolist() == [0] * 4


def test_lift_records_leaf_errors(e2_tree):
    def learn(sample):
        raise RuntimeError("leaf blew up")

    bad = UniformLearner(name="bad", m=1, eps=0.5, delta=0.5, learn=learn)
    rng = stream(10, "err")
    sample = labeled_uniform(np.zeros(4, dtype=np.uint8), 2, 400, rng)
    report = lift_learn_result(e2_tree, bad, sample, rng, eps=0.5, delta=0.5)
    assert [r.status for r in report.leaf_records] == ["error"] * 3
    assert "RuntimeError" in report.leaf_records[0].detail
    assert report.hypothesis.predict_batch(all_points(2)).tolist() == [0] * 4
    # per-record bookkeeping
    assert [r.leaf for r in report.leaf_records] == [0, 1, 2]
    assert report.leaf_records[1].restriction == "0=+1,1=-1"
    assert sum(r.count for r in report.leaf_records) == 400


def test_lift_dictator_on_unqueried_coordinate():
    # D's tree reads coords 0 and 1 only; the target is the dictator on
    # coord 2, so every leaf's conditional problem is the same dictator.
    root = Internal(
        0,
        Internal(1, Leaf(0.1 / 64), Leaf(0.2 / 64)),
        Internal(1, Leaf(0.3 / 64), Leaf(0.4 / 64)),
    )
    t = DistTree(8, root)
    dense = tree_to_dense(t)
    target = coord_table(8, 2)
    learner = make_exhaustive_tree_learner(8, 1, eps=0.02, delta=0.05)
    count = required_sample_size(learner.m, 2, 0.05, 0.05)
    wins = 0
    for trial in range(20):
        oracle = DistOracle.exact(dense, seed=1000 + trial)
        sample = make_labeled_source(oracle, target)(count)
        report = lift_learn_result(
            t, learner, sample, stream(trial, "lift-dict"), eps=0.05, delta=0.05
        )
        if dist_error(report.hypothesis, target, dense) <= 0.05:
            wins += 1
    assert wins >= 18


def test_lift_low_degree_learner_on_tree_target():
    # degree-2 target learned per leaf by the low-degree algorithm; the
    # drawn sample is deliberately below the formula recommendation, but
    # equal leaf masses still give every leaf well over learner.m points
    n = 10
    quarter = 0.25 / 2 ** (n - 2)
    root = Internal(
        0,
        Internal(1, Leaf(quarter), Leaf(quarter)),
        Internal(1, Leaf(quarter), Leaf(quarter)),
    )
    t = DistTree(n, root)
    dense = tree_to_dense(t)
    target = gen_target(n, "depth:2", seed=22)
    learner = make_low_degree_learner(n, 2, eps=0.1, delta=0.1)
    wins = 0
    for trial in range(10):
        oracle = DistOracle.exact(dense, seed=2000 + trial)
        sample = make_labeled_source(oracle, target)(250_000)
        with pytest.warns(UserWarning, match="below the recommended"):
            report = lift_learn_result(t, learner, sample, stream(trial, "lift-ld"))
        assert all(r.status == "ok" for r in report.leaf_records)
        if dist_error(report.hypothesis, target, dense) <= 0.1:
            wins += 1
    assert wins >= 9


# ---------------------------------------------------------------------------
# boosting


def test_boost_budget_formula():
    learner = majority_learner(m=10)
    boosted = boost(learner, 2.0 ** -9)
    runs = 10  # ceil(log2(2 / 2^-9))
    holdout = math.ceil(2.0 * math.log(4.0 * runs / 2.0 ** -9) / (0.05 * 0.5) ** 2)
    assert boosted.m == runs * 10 + holdout
    assert boosted.eps == pytest.approx(1.1 * 0.5)
    assert boosted.delta == 2.0 ** -9
    assert boosted.name == "boost(majority)"


def test_boost_perfect_learner_stays_perfect():
    target = coord_table(5, 3)

    def learn(sample):
        return TruthTableHypothesis(5, target)

    perfect = UniformLearner(name="oracle", m=5, eps=0.5, delta=0.5, learn=learn)
    boosted = boost(perfect, 0.25)
    rng = stream(31, "boost")
    sample = labeled_uniform(target, 5, boosted.m, rng)
    hyp = boosted.learn(sample)
    assert dist_error(hyp, target, uniform_dense(5)) == 0.0


def test_boost_insufficient_sample_raises():
    boosted = boost(majority_learner(m=10), 0.1)
    short = labeled_uniform(
        np.zeros(4, dtype=np.uint8), 2, boosted.m - 1, stream(1, "b")
    )
    with pytest.raises(BudgetExceededError):
        boosted.learn(short)


def test_boost_drives_failure_rate_down():
    # base learner declares delta = 1/2; boosted to 0.01 it should fail
    # (error beyond the declared 1.1 * eps) in at most a couple of trials
    base = make_exhaustive_tree_learner(8, 2, eps=0.4, delta=0.5)
    boosted = boost(base, 0.01)
    rng = stream(47, "boost-rate")
    uniform = uniform_dense(8)
    failures = 0
    for trial in range(30):
        target = gen_target(8, "depth:2", seed=300 + trial)
        sample = labeled_uniform(target, 8, boosted.m, rng)
        hyp = boosted.learn(sample)
        if dist_error(hyp, target, uniform) > boosted.eps:
            failures += 1
    assert failures <= 2


# ---------------------------------------------------------------------------
# reference learners


def test_count_depth_trees_frozen_and_oracle():
    assert count_depth_trees(10, 2) == COUNT_DEPTH_TREES_10_2
    assert count_depth_trees(8, 2) == COUNT_DEPTH_TREES_8_2
    assert count_depth_trees(8, 1) == 34
    for n in range(0, 6):
        for k in range(0, 4):
            assert count_depth_trees(n, k) == oracles.tree_depth_count(n, k)


def test_negative_tree_depth_is_config_error():
    sample = labeled_uniform(np.zeros(16, dtype=np.uint8), 4, 10, stream(22, "neg"))
    with pytest.raises(ConfigError):
        count_depth_trees(4, -1)
    with pytest.raises(ConfigError):
        make_exhaustive_tree_learner(4, -1, 0.1, 0.1)
    with pytest.raises(ConfigError):
        exhaustive_tree_learn(sample, -1)


def test_library_entry_points_refuse_a_bad_depth_or_learner_order():
    # each once escaped as another error, or returned something that fails
    # later: OverflowError at depth 5000, a depth -1 instance, numpy's own
    # error, a math domain error, and a learner that fails on every leaf
    inst = gen_dt_dist(4, 2, seed=7)
    oracle = DistOracle.exact(inst.tree, seed=7)
    learner = make_exhaustive_tree_learner(4, 1, 0.15, 0.01)
    source = make_labeled_source(DistOracle.sampler(inst.tree, seed=8),
                                 gen_target(4, "depth:1", seed=9))
    for bad in (5000, -1, 5):
        with pytest.raises(ConfigError, match="depth budget"):
            end_to_end(oracle, source, learner, bad, 0.3, 0.1)
    with pytest.raises(ConfigError, match="depth budget 5000 outside"):
        learn_distribution_result(oracle, 5000, 0.1, 0.1)
    for gen, d in ((gen_dt_dist, -1), (gen_monotone_dist, -1), (gen_monotone_dist, 9)):
        with pytest.raises(ConfigError, match="depth budget"):
            gen(4, d, 7)
    with pytest.raises(ConfigError, match="lowdeg learner degree"):
        make_low_degree_learner(4, -1, 0.1, 0.1)
    with pytest.raises(ConfigError, match="n <= 16"):
        make_exhaustive_tree_learner(20, 2, 0.1, 0.1)
    with pytest.raises(ConfigError, match="k <= 3"):
        make_exhaustive_tree_learner(4, 4, 0.1, 0.1)


def test_learner_budget_formulas():
    tl = make_exhaustive_tree_learner(10, 2, eps=0.04, delta=0.0125)
    want = math.ceil(
        (math.log(COUNT_DEPTH_TREES_10_2) + math.log(1 / 0.0125)) / 0.04
    )
    assert tl.m == want
    terms = 1 + 10 + 45
    ll = make_low_degree_learner(10, 2, eps=0.1, delta=0.1)
    assert ll.m == math.ceil(4.0 * terms * math.log(4.0 * terms / 0.1) / 0.1)


def test_exhaustive_tree_recovers_depth1():
    target = coord_table(6, 3)
    sample = labeled_uniform(target, 6, 1000, stream(12, "erm"))
    hyp = exhaustive_tree_learn(sample, 1)
    assert dist_error(hyp, target, uniform_dense(6)) == 0.0
    assert hyp.tree_encoding == (1, 3, (0, 0), (0, 1))


def test_exhaustive_tree_parity_two():
    pts = all_points(8)
    target = ((pts[:, 1] * pts[:, 4]) < 0).astype(np.uint8)
    sample = labeled_uniform(target, 8, 10_000, stream(13, "erm"))
    hyp = exhaustive_tree_learn(sample, 2)
    assert dist_error(hyp, target, uniform_dense(8)) <= 0.05


def test_exhaustive_tree_survives_label_noise():
    target = gen_target(8, "depth:2", seed=77)
    rng = stream(14, "noise")
    sample = labeled_uniform(target, 8, 4000, rng)
    flips = rng.random(len(sample)) < 0.05
    noisy = LabeledSample(sample.X, sample.y ^ flips.astype(np.uint8))
    hyp = exhaustive_tree_learn(noisy, 2)
    assert dist_error(hyp, target, uniform_dense(8)) <= 0.07


def test_exhaustive_tree_all_zero_labels():
    sample = labeled_uniform(np.zeros(16, dtype=np.uint8), 4, 200, stream(15, "z"))
    hyp = exhaustive_tree_learn(sample, 2)
    assert hyp.tree_encoding == (0, 0)
    assert hyp.predict_batch(all_points(4)).tolist() == [0] * 16


def test_exhaustive_tree_tie_break():
    # parity on two coordinates: every depth-1 tree and both constant
    # leaves err on exactly half the points, so the least encoding (the
    # constant-0 leaf) must win
    X = all_points(2)
    y = ((X[:, 0] * X[:, 1]) < 0).astype(np.uint8)
    hyp = exhaustive_tree_learn(LabeledSample(X, y), 1)
    assert hyp.tree_encoding == (0, 0)
    # and the choice is stable across identical calls
    again = exhaustive_tree_learn(LabeledSample(X, y), 1)
    assert again.tree_encoding == hyp.tree_encoding


@st.composite
def erm_cases(draw):
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n and draw(st.booleans()):
        # every point once, labeled by a parity: ties all over the search
        X = all_points(n)
        coords = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
        y = (np.prod(X[:, coords], axis=1) < 0).astype(np.uint8)
    else:
        # rows drawn from a few distinct points, so duplicates (also with
        # conflicting labels) are common
        N = draw(st.integers(0, 400))
        support = rng.integers(0, 1 << n, size=draw(st.integers(1, 1 << n)))
        X = index_to_point(rng.choice(support, size=N), n)
        y = (rng.random(N) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    return LabeledSample(X, y), k


def assert_matches_row_mask_search(sample, k):
    risk, encoding = oracles.tree_erm(sample.X, sample.y, k)
    hyp = exhaustive_tree_learn(sample, k)
    assert hyp.tree_encoding == encoding
    assert hyp.table.tolist() == oracles.encoding_table(encoding, sample.n)
    assert int((hyp.predict_batch(sample.X) != sample.y).sum()) == risk


@settings(max_examples=200, deadline=None)
@given(erm_cases())
def test_exhaustive_tree_matches_row_mask_search(case):
    assert_matches_row_mask_search(*case)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [8, 10, 12, 16])
def test_exhaustive_tree_matches_row_mask_search_wide(n, k):
    # the count tables have (2n)^k cells; a noisy parity on the top
    # coordinate and one below it makes the search split past coordinate 7
    rng = np.random.default_rng(100 * n + k)
    N = int(rng.integers(100, 301))
    support = rng.integers(0, 1 << n, size=int(rng.integers(8, 65)))
    X = index_to_point(rng.choice(support, size=N), n)
    coords = [n - 1, int(rng.integers(0, n - 1))]
    y = (np.prod(X[:, coords], axis=1) < 0) ^ (rng.random(N) < 0.1)
    assert_matches_row_mask_search(LabeledSample(X, y.astype(np.uint8)), k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("coords", [[3, 6], [1, 4, 7]])
def test_exhaustive_tree_matches_row_mask_search_all_points_parity(coords, k):
    # every point of the 8-cube once: splits tie with leaves up to the
    # parity's degree, and equal splits tie across variables
    X = all_points(8)
    y = (np.prod(X[:, coords], axis=1) < 0).astype(np.uint8)
    assert_matches_row_mask_search(LabeledSample(X, y), k)


def test_exhaustive_tree_memory_at_limit():
    # n=16, k=3: (2n)^3 table cells, built one literal prefix at a time;
    # a u x (2n)^2 product of all prefixes at once would take about 140 MB
    # per label for the ~17,000 distinct points here
    rng = stream(23, "erm-mem")
    X = uniform_points(16, 20_000, rng)
    y = ((X[:, 2] * X[:, 11] * X[:, 15]) < 0).astype(np.uint8)
    sample = LabeledSample(X, y)
    tracemalloc.start()
    try:
        hyp = exhaustive_tree_learn(sample, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20
    target = (all_points(16)[:, [2, 11, 15]].prod(axis=1) < 0).astype(np.uint8)
    assert dist_error(hyp, target, uniform_dense(16)) == 0.0


def test_exhaustive_tree_empty_and_zero_dimensional():
    empty = LabeledSample(np.zeros((0, 3), dtype=np.int8), np.zeros(0, dtype=np.uint8))
    hyp = exhaustive_tree_learn(empty, 2)
    assert hyp.tree_encoding == (0, 0) and hyp.table.tolist() == [0] * 8
    flat = LabeledSample(np.zeros((5, 0), dtype=np.int8), [1, 1, 0, 1, 0])
    hyp = exhaustive_tree_learn(flat, 3)
    assert hyp.tree_encoding == (0, 1) and hyp.table.tolist() == [1]


def test_exhaustive_tree_guards():
    sample = labeled_uniform(np.zeros(4, dtype=np.uint8), 2, 10, stream(16, "g"))
    with pytest.raises(BudgetExceededError):
        exhaustive_tree_learn(sample, 4)
    wide = LabeledSample(np.ones((3, 17), dtype=np.int8), np.zeros(3, dtype=np.uint8))
    with pytest.raises(BudgetExceededError):
        exhaustive_tree_learn(wide, 1)


def test_low_degree_dictator():
    target = coord_table(6, 2)
    sample = labeled_uniform(target, 6, 10_000, stream(17, "ld"))
    hyp = low_degree_learn(sample, 1)
    assert dist_error(hyp, target, uniform_dense(6)) == 0.0


def test_low_degree_parity_two():
    pts = all_points(8)
    target = ((pts[:, 1] * pts[:, 4]) < 0).astype(np.uint8)
    sample = labeled_uniform(target, 8, 10_000, stream(18, "ld"))
    hyp = low_degree_learn(sample, 2)
    assert dist_error(hyp, target, uniform_dense(8)) <= 0.05


def test_low_degree_constant_and_empty():
    ones = labeled_uniform(np.ones(8, dtype=np.uint8), 3, 500, stream(19, "ld"))
    uniform = uniform_dense(3)
    assert dist_error(low_degree_learn(ones, 2), np.ones(8, dtype=np.uint8), uniform) == 0.0
    zeros = labeled_uniform(np.zeros(8, dtype=np.uint8), 3, 500, stream(20, "ld"))
    assert dist_error(low_degree_learn(zeros, 2), np.zeros(8, dtype=np.uint8), uniform) == 0.0
    empty = LabeledSample(np.zeros((0, 3), dtype=np.int8), np.zeros(0, dtype=np.uint8))
    hyp = low_degree_learn(empty, 1)
    assert isinstance(hyp, ConstantHypothesis) and hyp.value == 0


def test_low_degree_noise_floor_kills_spurious_terms():
    # random labels carry no signal; with enough points every empirical
    # coefficient falls below the floor and the hypothesis is constant
    rng = stream(21, "ld")
    X = uniform_points(6, 50_000, rng)
    y = rng.integers(0, 2, size=50_000).astype(np.uint8)
    hyp = low_degree_learn(LabeledSample(X, y), 2)
    assert len(hyp.terms) <= 1


# ---------------------------------------------------------------------------
# evaluation helpers


def test_dist_error_weighs_by_mass(e2_dense):
    target = np.array([0, 1, 0, 1], dtype=np.uint8)
    assert dist_error(ConstantHypothesis(0), target, e2_dense) == pytest.approx(0.75)
    assert dist_error(ConstantHypothesis(1), target, e2_dense) == pytest.approx(0.25)


def test_uniform_error_counts_mismatches():
    # under the uniform pmf each mismatch weighs exactly 2^-n
    target = np.zeros(8, dtype=np.uint8)
    target[[1, 5, 6]] = 1
    assert dist_error(ConstantHypothesis(0), target, uniform_dense(3)) == 3 / 8
    assert dist_error(ConstantHypothesis(1), target, uniform_dense(3)) == 5 / 8


def test_make_labeled_source(e2_dense):
    oracle = DistOracle.exact(e2_dense, seed=33)
    target = np.array([1, 0, 0, 1], dtype=np.uint8)
    sample = make_labeled_source(oracle, target)(1000)
    assert len(sample) == 1000 and sample.n == 2
    assert np.array_equal(sample.y, target[points_to_indices(sample.X)])


def test_labeled_source_checks_the_table_when_built():
    oracle = DistOracle.sampler(uniform_dense(3), seed=34)
    # a short table once failed with IndexError at the first draw past its
    # end, and a (2, 4) one at the first draw
    for bad in (np.zeros(4, dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8),
                np.zeros(16, dtype=np.uint8), np.uint8(0)):
        with pytest.raises(DimensionMismatchError):
            make_labeled_source(oracle, bad)
    # -0.0 and object arrays are refused too, here and by LabeledSample
    for bad in ([0, 1, 2, 0, 0, 0, 0, 0], [0.5] * 8, [-1] + [0] * 7,
                [0] * 7 + [float("nan")], np.full(8, 255, dtype=np.uint8),
                np.array([0, 1] * 4, dtype=np.int64) + 256, ["0", "1"] * 4,
                [-0.0] + [1.0] * 7, np.array([0, 1] * 4, dtype=object)):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            make_labeled_source(oracle, bad)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledSample(np.ones((8, 3), dtype=np.int8), bad)
    assert oracle.query_count[OracleMode.SAMPLE] == 0
    # any numeric dtype holding only 0 and 1 is taken, and copied: a later
    # change to the caller's array changes no label
    for dtype in (np.int64, np.uint8, np.float32, ">i4", bool):
        target = np.zeros(8, dtype=dtype)
        target[[1, 6]] = 1
        source = make_labeled_source(oracle, target)
        want = target.astype(np.uint8)
        target[:] = 7
        sample = source(2000)
        assert sample.y.dtype == np.uint8
        assert np.array_equal(sample.y, want[points_to_indices(sample.X)])


@st.composite
def label_arrays(draw):
    # eight 0/1 labels of one dtype, maybe with one entry swapped for an odd value
    dtype = draw(st.sampled_from([np.uint8, np.int8, np.int64, ">i4", np.float32, np.float64,
                                  bool, object]))
    y = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8)), dtype=dtype)
    if draw(st.booleans()):
        odd = draw(st.sampled_from([2, -1, 255, 256, 0.5, -0.0, 1.0, float("nan"), True, "1"]))
        try:
            y[draw(st.integers(0, 7))] = odd
        except (ValueError, OverflowError):
            pass  # odd does not fit the dtype
    return y


@settings(max_examples=200, deadline=None)
@given(label_arrays())
def test_labeled_sample_and_source_take_the_same_labels(y):
    oracle = DistOracle.sampler(uniform_dense(3), seed=35)
    try:
        sample = make_labeled_source(oracle, y)(64)
    except ValueError:
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledSample(all_points(3), y)
        return
    got = LabeledSample(all_points(3), y).y
    assert got.dtype == np.uint8
    assert np.array_equal(sample.y, got[points_to_indices(sample.X)])


@pytest.mark.parametrize("kind", ["dense", "tree", "stream"])
@pytest.mark.parametrize("k", [0, 1, 5000])
def test_labeled_source_equals_checked_sample(kind, k):
    # the unchecked per-draw path builds what the public checked
    # LabeledSample builds from the same rows
    n = 6
    inst = gen_dt_dist(n, 2, seed=35)
    target = gen_target(n, "depth:2", seed=36).astype(np.int64)

    def oracle():
        backing = {"dense": inst.dense, "tree": inst.tree, "stream": pm1_stream(37, n)}[kind]
        return DistOracle.sampler(backing, seed=38, n=n)

    got = make_labeled_source(oracle(), target)(k)
    X = oracle().sample_batch(k)
    want = LabeledSample(X, target[points_to_indices(X)])
    assert got.X.dtype == np.int8 and np.array_equal(got.X, want.X)
    assert got.y.dtype == np.uint8 and np.array_equal(got.y, want.y)
    assert np.array_equal(got._index(), want._index())


@pytest.mark.parametrize("bad", [0, 200])
def test_labeled_source_stream_rows_are_still_checked(bad):
    n = 4
    gen = pm1_stream(39, n)

    def broken(k, rng):
        X = gen(k, rng)
        X[k // 2, 1] = bad
        return X

    source = make_labeled_source(DistOracle.sampler(broken, seed=1, n=n),
                                 np.zeros(1 << n, dtype=np.uint8))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        source(100)


# ---------------------------------------------------------------------------
# end to end


def test_end_to_end_depth0_degenerates_to_plain_learning():
    dense = uniform_dense(5)
    oracle = DistOracle.exact(dense, seed=41)
    target = coord_table(5, 1)
    learner = make_exhaustive_tree_learner(5, 1, eps=0.1, delta=0.01)
    result = end_to_end(
        oracle,
        make_labeled_source(oracle, target),
        learner,
        depth_budget=0,
        eps=0.1,
        delta=0.1,
        seed=41,
    )
    assert result.tree.depth() == 0
    assert len(result.leaf_records) == 1
    assert result.leaf_records[0].status == "ok"
    assert not result.boosted
    assert result.labeled_count == required_sample_size(learner.m, 0, 0.1, 0.1)
    assert dist_error(result.hypothesis, target, dense) == 0.0


# tree walks, each once a closure that called itself: its cell held the
# closure, and with it the generator or iterator it read, until the
# collector ran
_TREE_WALKS = {
    "gen_dt_dist": lambda inst: gen_dt_dist(6, 2, 3),
    "gen_monotone_dist": lambda inst: gen_monotone_dist(6, 2, 3),
    "gen_target": lambda inst: gen_target(6, "depth:2", 3),
    "dense_to_tree": lambda inst: dense_to_tree(inst.dense),
    "hypothesis_from_json": lambda inst: hypothesis_from_json(TreeRoutedHypothesis(
        DistTree(1, Internal(0, Leaf(0.5), Leaf(0.5))),
        [ConstantHypothesis(0), ConstantHypothesis(1)]).to_json_dict()),
    "DistTree.to_json_dict": lambda inst: inst.tree.to_json_dict(),
    "DistTree.from_json_dict": lambda inst: DistTree.from_json_dict(inst.tree.to_json_dict()),
}


@pytest.mark.parametrize("run", ["learn-exact", "learn-monotone", "learn-subcube", "lift",
                                 *_TREE_WALKS])
def test_a_warm_run_leaves_no_garbage_cycle(run):
    # a search's memo and difference rows, the tree's flattened arrays and
    # the lift's parts are freed by reference counts alone: a closure that
    # calls itself keeps them in a cycle until the collector runs
    kind = run.removeprefix("learn-")
    inst = (gen_monotone_dist if kind == "monotone" else gen_dt_dist)(6, 2, seed=3)
    target = gen_target(6, "depth:2", seed=5)

    def once():
        if run in _TREE_WALKS:
            _TREE_WALKS[run](inst)
            return
        if run == "lift":  # as `dtdist lift` runs: tree-backed oracles
            tree = DistTree(6, inst.tree.root)
            labels = DistOracle(tree, OracleMode.SAMPLE, 2)
            end_to_end(DistOracle(tree, OracleMode.EXACT_PMF, 1),
                       make_labeled_source(labels, target),
                       make_exhaustive_tree_learner(6, 2, 0.05, 0.1 / 16), 2, 0.1, 0.1, seed=1)
            return
        mode = {KIND_EXACT: OracleMode.EXACT_PMF, "monotone": OracleMode.SAMPLE,
                "subcube": OracleMode.SUBCUBE_SAMPLE}[kind]
        learn_distribution_result(DistOracle(inst.dense, mode, 4), 2, 0.2, 0.1, kind,
                                  budget=EstimatorBudget(max_pool=20_000, infest_reps_cap=200))

    once()
    gc.collect()
    gc.disable()
    try:
        once()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_end_to_end_learns_tree_and_lifts():
    inst = gen_dt_dist(6, 2, seed=51)
    oracle = DistOracle.exact(inst.dense, seed=51)
    target = gen_target(6, "depth:2", seed=52)
    # delta below delta / (2 * 2^d) = 0.0125, so no boosting kicks in
    learner = make_exhaustive_tree_learner(6, 2, eps=0.04, delta=0.01)
    result = end_to_end(
        oracle,
        make_labeled_source(oracle, target),
        learner,
        depth_budget=2,
        eps=0.1,
        delta=0.1,
        seed=51,
    )
    assert not result.boosted
    assert result.learner_name == "tree:2"
    assert result.labeled_count == required_sample_size(learner.m, 2, 0.1, 0.1)
    assert dist_error(result.hypothesis, target, inst.dense) <= 0.1
    assert result.learn_result.caps_bound == {}  # an exact stage 1 draws nothing to cap
    # the learned tree is itself exact here, so every leaf saw points
    assert all(r.status == "ok" for r in result.leaf_records)


# sha256 of the end_to_end hypothesis JSON (one line each) for the first 5
# items of the benchmark's lift workload on two seeds: n=10, d=2, the
# tree:2 learner at eps/2 and delta/(4 2^d), an exact stage-1 oracle and
# labels from a tree-backed sampler, as bench/workloads.py runs them.
# Recorded before the lift moved to dense-table indices; a change to the
# tree sampler, routing, rerandomisation or the learner shows here.
LIFT_BENCH_PINS = {
    1: "3cba172a84662be8923edc8cde02e130a26f1884294557a6bcb3cf2ebc1c2c6c",
    7: "920ca323a341c926408019078826cf916e6b67a07c899df9eefcb891b42e38dd",
}


@pytest.mark.parametrize("seed", sorted(LIFT_BENCH_PINS))
def test_lift_output_is_byte_stable_at_benchmark_size(seed):
    n, d, eps, delta = 10, 2, 0.1, 0.1
    h = hashlib.sha256()
    for j in range(5):
        inst_seed = derive_seed(seed, "lift", n, j)
        inst = gen_dt_dist(n, d, inst_seed)
        target = gen_target(n, f"depth:{d}", derive_seed(inst_seed, "target"))
        oracle_seed = derive_seed(seed, "oracle", 0, j)
        tree = DistTree(n, inst.tree.root)
        labels = DistOracle.sampler(tree, derive_seed(oracle_seed, "labels"))
        learner = make_exhaustive_tree_learner(n, d, eps / 2.0, delta / (4.0 * 2.0 ** d))
        res = end_to_end(DistOracle.exact(tree, oracle_seed),
                         make_labeled_source(labels, target), learner, d, eps, delta,
                         KIND_EXACT, dist_kwargs={"tau": None}, seed=oracle_seed)
        h.update(json_dumps(res.hypothesis.to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == LIFT_BENCH_PINS[seed]


def test_end_to_end_boosts_when_learner_is_unreliable():
    dense = uniform_dense(4)
    oracle = DistOracle.exact(dense, seed=61)
    target = coord_table(4, 0)
    weak = make_exhaustive_tree_learner(4, 1, eps=0.4, delta=0.5)
    result = end_to_end(
        oracle,
        make_labeled_source(oracle, target),
        weak,
        depth_budget=0,
        eps=0.4,
        delta=0.2,
        seed=61,
    )
    assert result.boosted
    assert result.learner_name == "boost(tree:1)"
    assert dist_error(result.hypothesis, target, dense) <= 0.44
