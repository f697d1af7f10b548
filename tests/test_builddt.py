"""Influence-guided tree search and the learning pipeline around it."""

import hashlib
import json
import math

import numpy as np
import pytest

import oracles as O
from conftest import E2_EXPECTED, E2_TABLE
from dtdist import (
    BuildParams,
    ConfigError,
    DensePmf,
    DistOracle,
    EstimatorBudget,
    InfluenceOracle,
    KIND_EXACT,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    Leaf,
    Restriction,
    build_dt,
    call_count_bound,
    default_leaf_sample_count,
    default_tau,
    derive_seed,
    learn_distribution_result,
    stream,
    tree_to_dense,
    tv_distance,
    uniform_dense,
)
from dtdist.builddt import _Search
from dtdist.testbed import brute_optimal_tree, gen_dt_dist, gen_monotone_dist

ATOL = 1e-9


def exact_io(dense, accuracy=0.01, confidence=0.01, seed=1):
    return InfluenceOracle(KIND_EXACT, DistOracle.exact(dense, seed=seed), accuracy, confidence)


def exact_params(depth, eps=0.2, tau=None):
    return BuildParams(
        depth_budget=depth,
        tau=tau if tau is not None else default_tau(eps, depth),
        eps=eps,
        delta=0.1,
        leaf_sample_count=1000,
    )


# ---------------------------------------------------------------------------
# parameter plumbing


def test_default_tau():
    assert default_tau(0.1, 3) == pytest.approx(0.1 / 72, abs=1e-15)
    assert default_tau(0.15, 3) == pytest.approx(0.15 / 72, abs=1e-15)
    assert default_tau(0.3, 0) == pytest.approx(0.3)


def test_call_count_bound():
    assert call_count_bound(0.1, 3) == pytest.approx((16 * 27 / 0.1) ** 3)
    assert call_count_bound(0.5, 0) == 1.0


def test_default_leaf_sample_count():
    d, eps, delta = 3, 0.1, 0.1
    want = math.ceil(32.0 * 4 ** d * math.log(2 ** (d + 2) / delta) / eps ** 2)
    assert default_leaf_sample_count(eps, delta, d) == want


def test_build_params_validation(e2_dense):
    p = exact_params(1)
    p.validate(2)
    with pytest.raises(ConfigError):
        exact_params(5).validate(2)
    with pytest.raises(ConfigError):
        BuildParams(1, tau=0.0, eps=0.2, delta=0.1, leaf_sample_count=10).validate(2)
    with pytest.raises(ConfigError):
        BuildParams(1, tau=0.05, eps=1.5, delta=0.1, leaf_sample_count=10).validate(2)
    # an estimating oracle demands influence accuracy <= tau/4; an exact
    # one advertises an accuracy its values do not depend on
    io = InfluenceOracle(
        KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=1), 0.05, 0.1
    )
    bad = BuildParams(1, tau=0.1, eps=0.2, delta=0.1, leaf_sample_count=10)
    with pytest.raises(ConfigError):
        bad.validate(2, io)
    bad.validate(2, exact_io(e2_dense, accuracy=0.05))
    ok = BuildParams(1, tau=0.2, eps=0.2, delta=0.1, leaf_sample_count=10)
    ok.validate(2, io)


# ---------------------------------------------------------------------------
# candidate sets and leaf labels


def exact_search(dense, params):
    return _Search(exact_io(dense), params)


def test_candidate_set_e2(e2_dense):
    assert exact_search(e2_dense, exact_params(2, tau=0.1)).candidates(
        Restriction.empty()) == [0, 1]
    assert exact_search(e2_dense, exact_params(2, eps=0.5, tau=0.3)).candidates(
        Restriction.empty()) == [0]


def test_candidate_set_uniform_empty():
    search = exact_search(uniform_dense(3), exact_params(2, tau=0.05))
    assert search.candidates(Restriction.empty()) == []


def test_leaf_label_exact(e2_dense):
    search = exact_search(e2_dense, exact_params(2))
    assert search.leaf_density(Restriction.of((0, 1), (1, 1))) == pytest.approx(
        E2_EXPECTED["leaf_density_both_pos"], abs=ATOL
    )
    assert search.leaf_density(Restriction.of((0, -1))) == pytest.approx(
        E2_EXPECTED["leaf_density_x0_neg"], abs=ATOL
    )
    u = exact_search(uniform_dense(4), exact_params(2))
    assert u.leaf_density(Restriction.of((2, 1))) == pytest.approx(2.0 ** -4, abs=ATOL)


def test_leaf_label_sampled(e2_dense):
    # a fresh pool grows to leaf_sample_count draws for the first leaf; a
    # monotone oracle at accuracy 0.05 needs tau >= 0.2, which leaf masses
    # do not read
    p = exact_params(2, tau=0.2)
    o = DistOracle.sampler(e2_dense, seed=2)
    search = _Search(InfluenceOracle(KIND_MONOTONE, o, 0.05, 0.05), p)
    got = search.leaf_density(Restriction.of((0, 1), (1, 1)))
    assert abs(got - 0.5) <= 0.06
    assert o.query_count[o.mode.SAMPLE] == p.leaf_sample_count


# ---------------------------------------------------------------------------
# the search, exact thresholds


def test_build_dt_recovers_e2(e2_dense):
    o = DistOracle.exact(e2_dense, seed=1)
    res = learn_distribution_result(o, 2, 0.2, 0.1, "exact", tau=0.05)
    assert res.objective == pytest.approx(
        E2_EXPECTED["optimal_objective_d2_tau05"], abs=ATOL
    )
    assert tv_distance(tree_to_dense(res.tree), e2_dense) <= ATOL


def test_build_dt_depth1_objective(e2_dense):
    o = DistOracle.exact(e2_dense, seed=1)
    res = learn_distribution_result(o, 1, 0.2, 0.1, "exact", tau=0.05)
    assert res.objective == pytest.approx(
        E2_EXPECTED["optimal_objective_d1_tau05"], abs=ATOL
    )
    # splits the higher-influence coordinate at the root
    assert res.tree.root.var == 0


def test_build_uniform_single_leaf():
    o = DistOracle.exact(uniform_dense(5), seed=1)
    res = learn_distribution_result(o, 3, 0.2, 0.1, "exact")
    assert res.tree.depth() == 0
    assert res.tree.root.density == pytest.approx(2.0 ** -5, abs=ATOL)
    assert res.objective == pytest.approx(0.0, abs=ATOL)


def test_smallest_index_tie_break():
    # product measure, both coordinates identically biased: equal influences
    t = np.array([0.0625, 0.1875, 0.1875, 0.5625])
    d = DensePmf(2, t)
    o = DistOracle.exact(d, seed=1)
    res = learn_distribution_result(o, 1, 0.3, 0.1, "exact", tau=0.05)
    assert res.tree.root.var == 0


def test_objective_matches_loop_minimizer():
    # independent recursion over all trees, no memo, no library calls
    for seed in range(10):
        inst = gen_dt_dist(4, 2, seed=seed)
        o = DistOracle.exact(inst.dense, seed=77)
        res = learn_distribution_result(o, 2, 0.2, 0.1, "exact", tau=0.05)
        want = O.optimal_objective(list(inst.dense.table), 4, 2, 0.05)
        assert res.objective == pytest.approx(want, abs=ATOL)


def test_objective_matches_brute_module():
    for seed in range(10):
        inst = gen_dt_dist(5, 2, seed=100 + seed)
        o = DistOracle.exact(inst.dense, seed=78)
        for depth in (1, 2):
            res = learn_distribution_result(o, depth, 0.2, 0.1, "exact", tau=0.04)
            want, _ = brute_optimal_tree(inst.dense, depth, 0.04)
            assert res.objective == pytest.approx(want, abs=ATOL)


def test_exact_recovery_depth2_n8():
    inst = gen_dt_dist(8, 2, seed=5)
    o = DistOracle.exact(inst.dense, seed=6)
    res = learn_distribution_result(o, 2, 0.1, 0.1, "exact")
    assert tv_distance(tree_to_dense(res.tree), inst.dense) <= 0.1


def test_stats_and_query_accounting():
    inst = gen_dt_dist(6, 2, seed=9)
    o = DistOracle.exact(inst.dense, seed=10)
    res = learn_distribution_result(o, 2, 0.2, 0.1, "exact")
    assert res.stats.recursive_calls >= 1
    assert res.stats.recursive_calls <= call_count_bound(0.2, 2) * 6
    assert res.stats.influence_queries > 0
    # every explored leaf is estimated, including ones pruned from the result
    assert res.stats.leaf_estimates >= len(res.tree.leaves())
    assert set(res.oracle_queries) == {"SAMPLE", "SUBCUBE_SAMPLE", "EXACT_PMF"}


def test_exact_search_leaves_the_generator_unbuilt(e2_dense):
    # an exact search never draws, so it does not pay for seeding the
    # oracle's generator; the stream is unchanged when it is built later
    o = DistOracle.exact(e2_dense, seed=3)
    learn_distribution_result(o, 2, 0.2, 0.1, "exact")
    assert o._rng is None
    assert o.rng is o.rng
    assert o.rng.random() == stream(3, "oracle").random()


# ---------------------------------------------------------------------------
# estimated thresholds


def test_monotone_pipeline_small():
    inst = gen_monotone_dist(6, 2, seed=3)
    o = DistOracle.sampler(inst.dense, seed=4)
    res = learn_distribution_result(o, 2, 0.2, 0.1, "monotone")
    tv = tv_distance(tree_to_dense(res.tree), inst.dense)
    assert tv <= 0.2
    assert res.estimator_kind == KIND_MONOTONE
    # normalization holds exactly after rescaling
    assert sum(
        2.0 ** (6 - len(s)) * dens for s, dens in res.tree.leaves()
    ) == pytest.approx(1.0, abs=ATOL)
    assert res.normalization == pytest.approx(
        sum(2.0 ** (6 - len(s)) * v for (s, _), v in zip(res.tree.leaves(), res.raw_leaf_values)),
        abs=1e-6,
    )


def test_subcube_pipeline_small():
    inst = gen_dt_dist(6, 2, seed=5)
    o = DistOracle.subcube(inst.dense, seed=6)
    res = learn_distribution_result(o, 2, 0.2, 0.1, "subcube")
    assert tv_distance(tree_to_dense(res.tree), inst.dense) <= 0.2
    assert res.estimator_kind == KIND_SUBCUBE


@pytest.mark.parametrize("kind", [KIND_EXACT, KIND_MONOTONE])
@pytest.mark.parametrize("eps, delta, tau", [
    (0.0, 0.1, None), (-0.1, 0.1, None), (1.0, 0.1, None), (0.2, 0.0, None),
    (0.2, 1.0, None), (0.2, 0.1, 0.0), (0.2, 0.1, 0.5),
])
def test_learn_distribution_rejects_out_of_range_targets(e2_dense, kind, eps, delta, tau):
    # eps and delta are checked before the defaults, which divide by eps,
    # and tau before the default accuracy it feeds
    o = DistOracle.exact(e2_dense, seed=1)
    with pytest.raises(ConfigError, match="eps|delta" if tau is None else "tau"):
        learn_distribution_result(o, 1, eps, delta, kind, tau=tau)


def test_estimated_mode_requires_capable_oracle(e2_dense):
    plain = DistOracle.sampler(e2_dense, seed=1)
    with pytest.raises(Exception):
        learn_distribution_result(plain, 1, 0.2, 0.1, "subcube")


def test_budget_override_plumbs_through():
    inst = gen_monotone_dist(5, 2, seed=11)
    o = DistOracle.sampler(inst.dense, seed=12)
    small = EstimatorBudget(max_pool=50_000, infest_reps_cap=500)
    res = learn_distribution_result(o, 2, 0.2, 0.1, "monotone", budget=small)
    assert o.query_count[o.mode.SAMPLE] <= 50_000
    assert tv_distance(tree_to_dense(res.tree), inst.dense) <= 0.3


# sha256 over the first 40 criterion-1 instances (n=12, d=3, eps=0.1) of
# each learned tree's JSON, repr(objective), the raw leaf values and the
# SearchStats counts, recorded before the exact kernel read free positions
# through cached partner-index tables; any bit the kernel moves shows here
EXACT_SEARCH_PIN = "5b510841e859229f293131e0513c6acf393e58043cb3fdf50e43924b14b714b8"


def test_exact_search_output_is_byte_stable():
    h = hashlib.sha256()
    for t in range(40):
        inst = gen_dt_dist(12, 3, derive_seed(271828, "acc1", t))
        oracle = DistOracle.exact(inst.dense, derive_seed(271828, "acc1-oracle", t))
        res = learn_distribution_result(oracle, 3, 0.1, 0.1, KIND_EXACT)
        st = res.stats
        h.update(json.dumps(res.tree.to_json_dict()).encode())
        h.update(repr((res.objective, res.raw_leaf_values, st.recursive_calls,
                       st.influence_queries, st.leaf_estimates)).encode())
    assert h.hexdigest() == EXACT_SEARCH_PIN
