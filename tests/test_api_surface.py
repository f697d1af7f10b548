"""The package's public surface, pinned.

A new export, budget field, search knob or learn parameter fails here,
so that it shows up in review as a deliberate edit of these lists, and
so does a new math.ceil call site.  The README's python blocks run here
too, so its quick start cannot call a name the package no longer has.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

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
    "learn_distribution_result", "lift", "lift_learn_result", "load_json",
    "low_degree_learn", "make_exhaustive_tree_learner", "make_labeled_source",
    "make_low_degree_learner", "naive_total_influence", "points_to_indices",
    "required_sample_size", "restrict_dist", "split_and_rerandomize",
    "stream", "subcube_weight", "testbed", "tree_to_dense", "tv_distance",
    "uniform_dense", "weighting_table",
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


def test_influence_oracle_parameters():
    # caps that bind are recorded in caps_bound; no switch turns them into errors
    names = list(inspect.signature(dtdist.InfluenceOracle).parameters)
    assert names == ["kind", "source", "accuracy", "confidence", "budget"]


def test_learn_result_fields():
    names = [f.name for f in dataclasses.fields(dtdist.LearnResult)]
    assert names == ["tree", "objective", "stats", "params", "estimator_kind",
                     "raw_leaf_values", "normalization", "oracle_queries",
                     "influence_accuracy", "influence_confidence", "caps_bound"]


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
        "bits", "check", "consistent_mask", "coords", "empty", "free_coords",
        "mask", "of", "pairs", "parse",
    ]


def test_dist_tree_attributes():
    assert _public(dtdist.DistTree(2, dtdist.Leaf(0.25))) == [
        "conditional_masses", "depth", "eval_batch", "from_json_dict",
        "leaf_index_batch", "leaves", "n", "root", "to_json_dict",
    ]


def test_readme_python_blocks_run():
    # the quick start calls only public names; its blocks share one
    # namespace, as a reader pasting them in order would
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


# every ceil call in the package, as (file, enclosing function): each
# sample-size formula ends in core._count, so a formula that rounds up on
# its own shows up here
CEIL_SITES = [
    ("core.py", "_count"),
    ("core.py", "reject_sample"),
    ("influence.py", "InfluenceOracle.estimate_all"),
]


def _ceil_sites(node, path, scope, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _ceil_sites(child, path, scope + (child.name,), out)
            continue
        if isinstance(child, ast.Call):
            f = child.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "ceil":
                out.append((path.name, ".".join(scope)))
        _ceil_sites(child, path, scope, out)


def test_ceil_call_sites():
    out: list = []
    for path in sorted(pathlib.Path(dtdist.__file__).parent.glob("*.py")):
        _ceil_sites(ast.parse(path.read_text()), path, (), out)
    assert sorted(out) == CEIL_SITES
