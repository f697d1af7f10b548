"""Decision-tree distributions over the signed hypercube.

Learn depth-bounded tree models of a distribution from samples or exact
access, estimate variable influences of the density weighting, lift
uniform-distribution learners to tree distributions, and brute-force
check the identities the algorithms rely on.
"""

from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateEstimateError,
    DimensionMismatchError,
    DtdistError,
    InvalidPmfError,
    InvalidTreeError,
    OracleModeError,
    RejectionCapExceededError,
    ZeroWeightSubcubeError,
)
from .core import (
    ATOL,
    MAX_DENSE_N,
    DensePmf,
    DistOracle,
    DistTree,
    Internal,
    Leaf,
    OracleMode,
    Restriction,
    all_points,
    dense_to_tree,
    index_to_point,
    json_dumps,
    load_json,
    point_index,
    points_to_indices,
    restrict_dist,
    save_json,
    subcube_weight,
    tree_to_dense,
    tv_distance,
    uniform_dense,
    uniform_tree,
    weighting_table,
)
from .influence import (
    KIND_EXACT,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    EstimatorBudget,
    InfluenceEstimate,
    InfluenceOracle,
    bias_sample_count,
    exact_conditional_influence,
    exact_influence,
    exact_influence_all,
    exact_total_influence,
    infest,
    infest_repetitions,
    infest_sample_count,
    scale_to_restriction,
)
from .builddt import (
    BuildParams,
    LearnResult,
    SearchStats,
    build_dt,
    call_count_bound,
    default_leaf_sample_count,
    default_tau,
    learn_distribution,
    learn_distribution_result,
)
from .lift import (
    ConstantHypothesis,
    Hypothesis,
    LabeledSample,
    LeafRecord,
    LiftReport,
    LiftResult,
    LowDegreeHypothesis,
    TreeRoutedHypothesis,
    TruthTableHypothesis,
    UniformLearner,
    boost,
    count_depth_trees,
    dist_error,
    end_to_end,
    exhaustive_tree_learn,
    hypothesis_from_json,
    lift_learn,
    lift_learn_result,
    low_degree_learn,
    make_exhaustive_tree_learner,
    make_labeled_source,
    make_low_degree_learner,
    required_sample_size,
    split_and_rerandomize,
    uniform_error,
)
from .testbed import (
    BruteStats,
    CheckRecord,
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
from ._seeds import derive_seed, stream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
