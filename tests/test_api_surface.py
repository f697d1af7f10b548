"""The package's public surface, pinned.

A new export, budget field, search knob or learn parameter fails here,
so that it shows up in review as a deliberate edit of these lists.
"""

import dataclasses
import inspect

import dtdist

EXPORTS = [
    "ATOL", "BruteStats", "BudgetExceededError", "BuildParams", "CheckRecord",
    "ConfigError", "ConstantHypothesis", "DegenerateEstimateError", "DensePmf",
    "DimensionMismatchError", "DistOracle", "DistTree", "DtdistError",
    "EstimatorBudget", "Hypothesis", "InfluenceEstimate", "InfluenceOracle",
    "Instance", "Internal", "InvalidPmfError", "InvalidTreeError", "KIND_EXACT",
    "KIND_MONOTONE", "KIND_SUBCUBE", "LabeledSample", "Leaf", "LeafRecord",
    "LearnResult", "LiftReport", "LiftResult", "LowDegreeHypothesis",
    "MAX_DENSE_N", "OracleMode", "OracleModeError", "RejectionCapExceededError",
    "Restriction", "SearchStats", "TreeRoutedHypothesis", "TruthTableHypothesis",
    "UniformLearner", "ZeroWeightSubcubeError", "all_points", "bias_sample_count",
    "boost", "brute_optimal_tree", "brute_stats", "build_dt", "builddt",
    "call_count_bound", "check_inequalities", "core", "count_depth_trees",
    "default_leaf_sample_count", "default_tau", "dense_to_tree", "derive_seed",
    "dist_error", "end_to_end", "errors", "exact_conditional_influence",
    "exact_influence", "exact_influence_all", "exact_total_influence",
    "exhaustive_tree_learn", "gen_dt_dist", "gen_monotone_dist", "gen_target",
    "hypothesis_from_json", "index_to_point", "infest", "infest_repetitions",
    "infest_sample_count", "influence", "is_monotone_dense", "json_dumps",
    "learn_distribution", "learn_distribution_result", "lift", "lift_learn",
    "lift_learn_result", "load_json", "low_degree_learn",
    "make_exhaustive_tree_learner", "make_labeled_source",
    "make_low_degree_learner", "naive_total_influence", "point_index",
    "points_to_indices", "required_sample_size", "restrict_dist", "save_json",
    "scale_to_restriction", "split_and_rerandomize", "stream", "subcube_weight",
    "testbed", "tree_to_dense", "tv_distance", "uniform_dense", "uniform_error",
    "uniform_tree", "weighting_table",
]


def test_exports():
    assert sorted(dtdist.__all__) == EXPORTS


def test_estimator_budget_fields():
    names = [f.name for f in dataclasses.fields(dtdist.EstimatorBudget)]
    assert names == ["max_pool", "infest_reps_cap"]


def test_build_params_fields():
    names = [f.name for f in dataclasses.fields(dtdist.BuildParams)]
    assert names == ["depth_budget", "tau", "eps", "delta", "leaf_sample_count"]


def test_learn_distribution_result_parameters():
    names = list(inspect.signature(dtdist.learn_distribution_result).parameters)
    assert names == ["d_oracle", "depth_budget", "eps", "delta", "estimator_kind",
                     "tau", "accuracy", "budget"]


def test_build_dt_parameters():
    names = list(inspect.signature(dtdist.build_dt).parameters)
    assert names == ["i_oracle", "s", "p"]


def test_dist_oracle_subcube_parameters():
    names = list(inspect.signature(dtdist.DistOracle.subcube).parameters)
    assert names == ["dist", "seed"]


def _public(obj) -> list:
    return sorted(name for name in dir(obj) if not name.startswith("_"))


def test_restriction_attributes():
    assert _public(dtdist.Restriction.of((0, 1))) == [
        "bits", "check", "consistent_mask", "coords", "empty", "extended",
        "free_coords", "mask", "of", "pairs", "parse",
    ]


def test_dist_tree_attributes():
    assert _public(dtdist.uniform_tree(2)) == [
        "conditional_masses", "depth", "eval", "eval_batch", "from_json_dict",
        "leaf_index_batch", "leaves", "n", "root", "to_json_dict",
    ]
