"""Influence-guided tree search and the learning pipeline around it."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from conftest import E2_EXPECTED, small_pmfs
from dtdist import (
    BudgetExceededError,
    BuildParams,
    ConfigError,
    DensePmf,
    DistTree,
    DtdistError,
    DistOracle,
    EstimatorBudget,
    InfluenceOracle,
    KIND_EXACT,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    Leaf,
    Restriction,
    SearchStats,
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
from dtdist import builddt, influence
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
    # (16 * 27 / 1e-105)^3 is past the largest float: no bound, not OverflowError
    assert call_count_bound(1e-105, 3) == math.inf


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


@pytest.mark.parametrize("depth", [1.5, True, np.float64(1.0), "1"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_depth_budget_must_be_an_integer(depth):
    # 1.5 once escaped as TypeError from range() and True ran as depth 1;
    # a numpy integer in range is an integer
    inst = gen_dt_dist(4, 2, seed=7)
    oracle = DistOracle.exact(inst.tree, seed=7)
    with pytest.raises(ConfigError, match="depth budget must be a nonnegative integer"):
        learn_distribution_result(oracle, depth, 0.1, 0.1)
    with pytest.raises(ConfigError, match="depth budget"):
        BuildParams(depth, tau=0.05, eps=0.2, delta=0.1, leaf_sample_count=10).validate(4)
    assert learn_distribution_result(oracle, np.int64(1), 0.1, 0.1).tree.depth() <= 1


# ---------------------------------------------------------------------------
# candidate sets and leaf labels


def exact_search(dense, params):
    return _Search(exact_io(dense), params)


def root_cut(dense, eps, tau):
    """(root node, SearchStats) of a depth-1 exact search.  Each root
    candidate adds its two leaf children, so the search makes 1 + 2|C|
    calls and reads 2|C| leaf masses for the candidate set C, one leaf
    mass when C is empty."""
    node, _, stats = build_dt(exact_io(dense), Restriction.empty(), exact_params(1, eps, tau))
    return node, stats


def test_candidate_set_e2(e2_dense):
    # influences (0.5, 0.25): both clear 0.1, and 0.25 exactly (the cut
    # keeps v >= tau); only coordinate 0 clears 0.3
    for tau in (0.1, 0.25):
        node, st = root_cut(e2_dense, 0.5, tau)
        assert (node.var, st.recursive_calls, st.leaf_estimates) == (0, 5, 4)
        assert st.influence_queries == 2 + 2 * 2 * 1
    node, st = root_cut(e2_dense, 0.5, 0.3)
    assert (node.var, st.recursive_calls, st.leaf_estimates) == (0, 3, 2)


def test_candidate_set_uniform_empty():
    node, st = root_cut(uniform_dense(3), 0.2, 0.05)
    assert isinstance(node, Leaf)
    assert (st.recursive_calls, st.influence_queries, st.leaf_estimates) == (1, 3, 1)


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
    assert set(res.caps_bound) == {"max_pool"}  # the default pool cap binds
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
    assert set(res.caps_bound) == {"max_pool", "infest_reps_cap"}  # both defaults bind


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


# ---------------------------------------------------------------------------
# the search against its reference on Restriction keys (tests/oracles.py)


@st.composite
def search_cases(draw):
    """(pmf, start restriction, BuildParams): small_pmfs, a start
    restriction of any size in a drawn path order, any depth in [0, n]
    and tau the default eps / (8 d^2) at eps = 0.25, 0.01 or 0.2."""
    d = draw(small_pmfs())
    coords = draw(st.permutations(range(d.n)))[: draw(st.integers(0, d.n))]
    s = Restriction.of(*((i, draw(st.sampled_from([-1, 1]))) for i in coords))
    depth = draw(st.integers(0, d.n))
    tau = draw(st.sampled_from([None, 0.01, 0.2]))
    tau = default_tau(0.25, depth) if tau is None else tau
    return d, s, BuildParams(depth, tau, eps=0.25, delta=0.1, leaf_sample_count=1000)


def assert_same_search(make_io, s, params):
    """build_dt and the reference agree on the tree, bit for bit on the
    objective, and on every SearchStats count; returns both oracles."""
    io, ref_io = make_io(), make_io()
    node, obj, stats = build_dt(io, s, params)
    ref_node, ref_obj, ref_stats = O.build_dt_by_restriction(ref_io, s, params)
    assert node == ref_node
    assert obj == ref_obj
    assert stats == ref_stats
    assert io.caps_bound == ref_io.caps_bound
    return io, ref_io


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_search_matches_restriction_keyed_reference(case):
    d, s, params = case
    assert_same_search(lambda: exact_io(d), s, params)


def test_exact_search_reads_only_the_returned_leaves_masses(monkeypatch):
    # every visited leaf is counted, but only the returned tree's leaves
    # are summed from the table, once each, after the recursion
    inst = gen_dt_dist(8, 3, seed=3)
    reads = []
    weight = influence.subcube_weight
    monkeypatch.setattr(influence, "subcube_weight",
                        lambda d, s: reads.append((s.mask, s.bits)) or weight(d, s))
    search = exact_search(inst.dense, exact_params(3, 0.1))
    search.build(0, 0, (), 3)
    assert reads == []
    node, _, stats = build_dt(exact_io(inst.dense), Restriction.empty(), exact_params(3, 0.1))
    leaves = DistTree(8, node).leaves()
    assert sorted(reads) == sorted((r.mask, r.bits) for r, _ in leaves)
    assert len(leaves) < stats.leaf_estimates
    for r, density in leaves:
        assert density == weight(inst.dense, r) / 2.0 ** (8 - len(r))


@pytest.mark.parametrize("kind", [KIND_MONOTONE, KIND_SUBCUBE])
def test_sampled_search_reads_each_leaf_mass_at_the_visit(kind):
    # a sampled mass grows the pool, so each visited leaf reads its own when
    # the recursion reaches it; 777 rows marks the leaf reads apart from
    # the weights estimate_all reads
    inst = gen_monotone_dist(5, 2, seed=21)
    o = (DistOracle.subcube if kind == KIND_SUBCUBE else DistOracle.sampler)(inst.dense, 22)
    io = InfluenceOracle(kind, o, 0.0125, 0.01, EstimatorBudget(max_pool=20_000,
                                                                infest_reps_cap=200))
    rows = []
    weight = io.weight
    io.weight = lambda s, min_rows: rows.append(min_rows) or weight(s, min_rows)
    search = _Search(io, BuildParams(2, 0.4, eps=0.5, delta=0.1, leaf_sample_count=777))
    node, _ = search.build(0, 0, (), 2)
    assert rows.count(777) == search.stats.leaf_estimates > 0
    assert search.resolve(node) == node
    assert rows.count(777) == search.stats.leaf_estimates


@pytest.mark.parametrize("kind", [KIND_MONOTONE, KIND_SUBCUBE])
def test_sampled_search_matches_restriction_keyed_reference(kind):
    # same seed, same draws: the oracle counts every query the same way.
    # The two relevant coordinates read about 0.33 at the root, between
    # the estimated kinds' 0.75 tau cut and tau itself
    inst = gen_monotone_dist(5, 2, seed=21)
    budget = EstimatorBudget(max_pool=20_000, infest_reps_cap=200)

    def make_io():
        o = (DistOracle.subcube if kind == KIND_SUBCUBE else DistOracle.sampler)(inst.dense, 22)
        return InfluenceOracle(kind, o, 0.0125, 0.01, budget)

    io, ref_io = assert_same_search(make_io, Restriction.empty(), exact_params(2, 0.5, 0.4))
    assert io.source.query_count == ref_io.source.query_count
    assert sum(io.source.query_count.values()) > 0


def test_search_guard_stops_at_the_reference_call(monkeypatch):
    # with the guard at g calls, both searches raise at call g + 1, memo
    # hit or not, with the same counts, or both finish
    table = np.random.default_rng(5).random(16)
    d = DensePmf(4, table / table.sum())
    s, params = Restriction.of((3, 1)), exact_params(3, tau=0.01)
    stats = build_dt(exact_io(d), s, params)[2]
    calls = stats.recursive_calls
    assert (calls, stats.influence_queries) == (55, 27)  # 27 restrictions, 28 memo hits
    for g in range(calls + 1):
        monkeypatch.setattr(builddt, "call_count_bound", lambda eps, depth, g=g: g / 4)
        if g == calls:
            assert_same_search(lambda: exact_io(d), s, params)
            break
        search, ref_stats = _Search(exact_io(d), params), SearchStats()
        with pytest.raises(BudgetExceededError) as got:
            search.build(s.mask, s.bits, s.pairs, params.depth_budget)
        with pytest.raises(BudgetExceededError) as want:
            O.build_dt_by_restriction(exact_io(d), s, params, ref_stats)
        assert str(got.value) == str(want.value)
        assert search.stats == ref_stats
        assert ref_stats.recursive_calls == g + 1


# ---------------------------------------------------------------------------
# generated pmfs: the paper's claims on any small D, not only on trees


@st.composite
def pmfs_with_ties(draw):
    """(d, depth, tau or None): small_pmfs, or, when the threshold (tau,
    or eps/(8 d^2) at eps = 0.25) is a power of two, often a pmf whose one
    biased coordinate has influence exactly that at the root,
    2^-n (1 + tau x_i); other near-ties round differently in the search
    and the brute force."""
    d = draw(small_pmfs())
    depth = draw(st.integers(0, d.n))
    tau = draw(st.sampled_from([None, 0.01, 0.05, 0.2]))
    bias = default_tau(0.25, depth) if tau is None else tau
    if d.n and math.frexp(bias)[0] == 0.5 and draw(st.booleans()):
        i = draw(st.integers(0, d.n - 1))
        sign = np.where(np.arange(1 << d.n) >> i & 1, 1.0, -1.0)
        d = DensePmf(d.n, 2.0 ** -d.n * (1.0 + bias * sign))
    return d, depth, tau


@settings(max_examples=150, deadline=None)
@given(pmfs_with_ties())
def test_exact_objective_matches_brute_force_on_any_pmf(case):
    # criterion 2 on arbitrary pmfs: zeros, point masses, Dirichlet(0.1),
    # every depth 0..n and thresholds with exact ties at tau
    d, depth, tau = case
    res = learn_distribution_result(DistOracle.exact(d, seed=1), depth, 0.25, 0.1,
                                    KIND_EXACT, tau=tau)
    want, _ = brute_optimal_tree(d, depth, res.params.tau)
    assert abs(res.objective - want) <= 1e-9
    assert res.caps_bound == {}  # the exact kind draws nothing to cap


@settings(max_examples=40, deadline=None)
@given(small_pmfs(), st.sampled_from([KIND_MONOTONE, KIND_SUBCUBE]),
       st.integers(0, 2**32 - 1), st.data())
def test_small_cap_sample_learn_is_normalized_or_raises(d, kind, seed, data):
    # the sample kinds on any pmf (monotone or not) under tight caps: a
    # normalized tree of the asked depth, or a package error, never a crash
    depth = data.draw(st.integers(0, min(d.n, 2)))
    source = DistOracle.subcube(d, seed) if kind == KIND_SUBCUBE else DistOracle.sampler(d, seed)
    budget = EstimatorBudget(max_pool=data.draw(st.integers(1, 2_000)),
                             infest_reps_cap=data.draw(st.integers(1, 50)))
    try:
        res = learn_distribution_result(source, depth, 0.3, 0.1, kind, budget=budget)
    except DtdistError:
        return
    table = tree_to_dense(res.tree).table
    assert res.tree.depth() <= depth
    assert np.all(table >= 0.0) and abs(table.sum() - 1.0) <= 1e-9
    assert set(res.caps_bound) <= {"max_pool", "infest_reps_cap"}
    assert all(count > 0 for count in res.caps_bound.values())


@pytest.mark.parametrize("kind", [KIND_MONOTONE, KIND_SUBCUBE])
def test_sample_learn_below_the_caps_records_none(e2_dense, kind):
    # at tau = eps = 0.5 every request stays below the default caps (the
    # largest is about 15,000 pool draws), so nothing is recorded, and the
    # learn matches one under caps far above
    def learn(budget=None):
        source = (DistOracle.subcube if kind == KIND_SUBCUBE else DistOracle.sampler)(e2_dense, 3)
        return learn_distribution_result(source, 2, 0.5, 0.1, kind, tau=0.5, budget=budget)

    res, roomy = learn(), learn(EstimatorBudget(max_pool=10**8, infest_reps_cap=10**8))
    assert res.caps_bound == roomy.caps_bound == {}
    assert roomy.tree.to_json_dict() == res.tree.to_json_dict()
