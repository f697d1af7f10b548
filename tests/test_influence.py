"""Exact influences, the three estimators, and the unified oracle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from conftest import E2_EXPECTED
from dtdist import influence
from dtdist import (
    ConfigError,
    DensePmf,
    DimensionMismatchError,
    DistOracle,
    DistTree,
    EstimatorBudget,
    InfluenceOracle,
    KIND_EXACT,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    OracleModeError,
    Restriction,
    ZeroWeightSubcubeError,
    bias_sample_count,
    dense_to_tree,
    derive_seed,
    end_to_end,
    exact_conditional_influence,
    exact_influence,
    exact_influence_all,
    exact_total_influence,
    infest,
    infest_repetitions,
    infest_sample_count,
    learn_distribution_result,
    make_exhaustive_tree_learner,
    make_labeled_source,
    points_to_indices,
    restrict_dist,
    subcube_weight,
    uniform_dense,
)
from dtdist.core import slice_cube
from dtdist.testbed import gen_dt_dist, gen_target

ATOL = 1e-9


def conditional(kind, oracle, i, s=Restriction.empty(), eps=0.05, delta=0.05):
    return InfluenceOracle(kind, oracle, eps, delta).estimate_conditional(i, s)


def random_dense(n, seed):
    rng = np.random.default_rng(seed)
    return DensePmf(n, rng.dirichlet(np.ones(1 << n)))


@st.composite
def restricted_tables(draw, max_n=9):
    """(d, s): n in 1..max_n, a share of zero cells, 0..n fixed coordinates."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.dirichlet(np.ones(1 << n))
    table[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if table.sum() == 0.0:
        table[rng.integers(1 << n)] = 1.0
    coords = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    s = Restriction.of(*[(c, draw(st.sampled_from([-1, 1]))) for c in coords])
    return DensePmf(n, table / table.sum()), s


def flipped_copy_influences(d, s):
    """The exact kernel as one flipped copy of the subcube per coordinate."""
    q, free = slice_cube(d.table, s), s.free_coords(d.n)
    m = len(free)
    scale = 2.0 ** (d.n - m - 1)
    vals = np.empty(m, dtype=np.float64)
    for pos in range(m):
        vals[pos] = scale * float(np.abs(q - np.flip(q, axis=m - 1 - pos)).sum())
    return free, vals


# ---------------------------------------------------------------------------
# exact influences


def test_uniform_influence_zero():
    free, vals = exact_influence_all(uniform_dense(4))
    assert free == [0, 1, 2, 3]
    assert np.abs(vals).max() <= ATOL
    assert exact_total_influence(uniform_dense(4)) <= ATOL


def test_e2_exact_influences(e2_dense):
    assert exact_influence(e2_dense, 0) == pytest.approx(0.5, abs=ATOL)
    assert exact_influence(e2_dense, 1) == pytest.approx(0.25, abs=ATOL)
    assert exact_total_influence(e2_dense) == pytest.approx(0.75, abs=ATOL)
    # restricted to {x0=+1} only x1 is free and carries influence 0.5
    s = Restriction.of((0, 1))
    assert exact_total_influence(e2_dense, s) == pytest.approx(
        E2_EXPECTED["restricted_total_x0_pos"], abs=ATOL
    )


def test_exact_influence_rejects_fixed_coordinate(e2_dense):
    with pytest.raises(ValueError):
        exact_influence(e2_dense, 0, Restriction.of((0, 1)))


@pytest.mark.parametrize("fn", [exact_influence, exact_conditional_influence])
@pytest.mark.parametrize("coord, s, error, match", [
    (5, Restriction.empty(), DimensionMismatchError, "coordinate 5 out of range"),
    (-1, Restriction.of((1, -1)), DimensionMismatchError, "coordinate -1 out of range"),
    (1, Restriction.of((1, -1)), ValueError, "coordinate 1 is fixed by the restriction"),
], ids=["above-n", "negative", "fixed"])
def test_exact_functions_check_coordinates(fn, coord, s, error, match):
    d = gen_dt_dist(3, 2, 5).dense
    with pytest.raises(error, match=match):
        fn(d, coord, s)


def test_restriction_coordinate_out_of_range():
    # coordinate n once wrapped to a negative axis: subcube_weight read the
    # weight of coordinate 0 = +1 and exact_influence_all raised AxisError
    d = gen_dt_dist(3, 2, 5).dense
    s = Restriction.of((3, 1))
    with pytest.raises(DimensionMismatchError):
        subcube_weight(d, s)
    with pytest.raises(DimensionMismatchError):
        restrict_dist(d, s)
    with pytest.raises(DimensionMismatchError):
        exact_influence_all(d, s)
    with pytest.raises(DimensionMismatchError):
        exact_influence(d, 0, s)


def test_exact_matches_loop_oracle_unrestricted():
    for seed in range(5):
        d = random_dense(5, seed)
        f = O.weighting_values(list(d.table))
        free, vals = exact_influence_all(d)
        for i, v in zip(free, vals):
            assert v == pytest.approx(O.influence(f, 5, i), abs=ATOL)


def test_exact_matches_loop_oracle_restricted():
    d = random_dense(6, 42)
    f = O.weighting_values(list(d.table))
    for s in [
        Restriction.of((2, 1)),
        Restriction.of((0, -1), (5, 1)),
        Restriction.of((1, 1), (3, -1), (4, 1)),
    ]:
        free, vals = exact_influence_all(d, s)
        assert free == s.free_coords(6)
        for i, v in zip(free, vals):
            assert v == pytest.approx(O.influence(f, 6, i, dict(s.pairs)), abs=ATOL)


def test_conditional_influence_e2(e2_dense):
    s = Restriction.of((0, 1))
    assert exact_conditional_influence(e2_dense, 1, s) == pytest.approx(
        E2_EXPECTED["cond_influence_x1_given_x0_pos"], abs=ATOL
    )


def test_scaling_identity_e2(e2_dense):
    s = Restriction.of((0, 1))
    cond = exact_conditional_influence(e2_dense, 1, s)
    w = subcube_weight(e2_dense, s)
    scaled = 2.0 ** len(s) * w * cond
    assert scaled == pytest.approx(0.5, abs=ATOL)
    assert scaled == pytest.approx(exact_influence(e2_dense, 1, s), abs=ATOL)


def test_scaling_identity_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        d = random_dense(n, int(rng.integers(1 << 30)))
        size = int(rng.integers(0, n))
        coords = rng.choice(n, size=size, replace=False)
        s = Restriction.of(*[(int(c), int(rng.choice([-1, 1]))) for c in coords])
        free = s.free_coords(n)
        i = int(rng.choice(free))
        w = subcube_weight(d, s)
        lhs = exact_influence(d, i, s)
        rhs = 2.0 ** len(s) * w * exact_conditional_influence(d, i, s)
        assert lhs == pytest.approx(rhs, abs=ATOL)


@settings(max_examples=150, deadline=None)
@given(restricted_tables(max_n=7), st.data())
def test_scaling_identity_property(case, data):
    d, s = case
    free = s.free_coords(d.n)
    if not free:
        return
    i = data.draw(st.sampled_from(free))
    w = subcube_weight(d, s)
    lhs = exact_influence(d, i, s)
    if w == 0.0:
        assert lhs == 0.0
        with pytest.raises(ZeroWeightSubcubeError):
            exact_conditional_influence(d, i, s)
        return
    rhs = 2.0 ** len(s) * w * exact_conditional_influence(d, i, s)
    assert lhs == pytest.approx(rhs, abs=ATOL)


@settings(max_examples=200, deadline=None)
@given(restricted_tables())
def test_exact_kernel_bit_equal_to_flipped_copy(case):
    d, s = case
    free, vals = exact_influence_all(d, s)
    want_free, want = flipped_copy_influences(d, s)
    assert free == want_free
    assert np.array_equal(vals, want)


@settings(max_examples=100, deadline=None)
@given(restricted_tables(), st.integers(1, 1 << 10))
def test_exact_kernel_bit_equal_across_chunks(case, chunk):
    # the full-size buffer splits rows into chunks only from m=13 on
    d, s = case
    with mock.patch.object(influence, "_CHUNK_CELLS", chunk):
        free, vals = exact_influence_all(d, s)
    want_free, want = flipped_copy_influences(d, s)
    assert free == want_free
    assert np.array_equal(vals, want)


def test_exact_kernel_memory_bound():
    # one 2^16-float row is 0.5 MB; an (m, 2^m) stack would be 8.4 MB
    d = random_dense(16, 3)
    tracemalloc.start()
    try:
        exact_influence_all(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("m, cells, kept", [
    (1, 2, True), (1, 1, False),
    (5, 5 << 5, True), (5, (5 << 5) - 1, False),
    (9, 9 << 9, True), (9, (9 << 9) - 1, False),
    (12, None, True), (13, None, False),  # the default _CHUNK_CELLS
])
def test_exact_kernel_bit_equal_at_chunk_boundary(m, cells, kept):
    # a subcube whose m x 2^m buffer fits one chunk returns it, for the
    # search to derive its children's rows from; one cell more and the rows
    # go in several chunks and none is returned
    d = random_dense(m + 2, m)
    s = Restriction.of((0, 1), (m + 1, -1))
    chunk = influence._CHUNK_CELLS if cells is None else cells
    with mock.patch.object(influence, "_CHUNK_CELLS", chunk):
        free, buf, _ = influence._kernel(d, s)
        assert (buf is not None) == (m * 2**m <= chunk) == kept
        free, vals = exact_influence_all(d, s)
    want_free, want = flipped_copy_influences(d, s)
    assert free == want_free
    assert np.array_equal(vals, want)


def _lift_stage_one():
    # item 0 of the lift benchmark at seed 1: stage 1 is an exact search
    n, d, eps, delta = 10, 2, 0.1, 0.1
    inst_seed = derive_seed(1, "lift", n, 0)
    inst = gen_dt_dist(n, d, inst_seed)
    target = gen_target(n, f"depth:{d}", derive_seed(inst_seed, "target"))
    oracle_seed = derive_seed(1, "oracle", 0, 0)
    tree = DistTree(n, inst.tree.root)
    labels = DistOracle.sampler(tree, derive_seed(oracle_seed, "labels"))
    learner = make_exhaustive_tree_learner(n, d, eps / 2.0, delta / (4.0 * 2.0 ** d))
    end_to_end(DistOracle.exact(tree, oracle_seed), make_labeled_source(labels, target),
               learner, d, eps, delta, KIND_EXACT, dist_kwargs={"tau": None}, seed=oracle_seed)


def _criterion_one():
    # trial 0 of acceptance criterion 1: n=12, d=3, eps=0.1
    inst = gen_dt_dist(12, 3, derive_seed(271828, "acc1", 0))
    oracle = DistOracle.exact(inst.dense, derive_seed(271828, "acc1-oracle", 0))
    learn_distribution_result(oracle, 3, 0.1, 0.1, KIND_EXACT)


@pytest.mark.parametrize("search", [_criterion_one, _lift_stage_one], ids=["criterion1", "lift"])
def test_exact_search_runs_kernel_once(search):
    # at n <= 12 the root's rows fit one chunk, and every deeper subcube the
    # depth-first search asks for derives its rows from its parent's
    with mock.patch.object(influence, "_kernel", wraps=influence._kernel) as kernel, \
            mock.patch.object(influence, "exact_influence_all",
                              wraps=influence.exact_influence_all) as reads:
        search()
    assert kernel.call_count == 1
    assert reads.call_count > 1


@st.composite
def exact_walks(draw):
    """(d, steps): a table of n in 1..12 (60% zeros, a point mass, or
    Dirichlet(0.1)) and a walk of queries on one engine.  Each step goes
    down one coordinate, back up, to the sibling, or jumps to a random
    restriction whose parent the engine need not hold, and queries either
    every free coordinate or a shuffled list of them."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeros", "point", "dirichlet"]))
    if kind == "point":
        table = np.zeros(1 << n)
        table[rng.integers(1 << n)] = 1.0
    else:
        table = rng.dirichlet(np.full(1 << n, 0.1 if kind == "dirichlet" else 1.0))
        if kind == "zeros":
            table[rng.random(1 << n) < 0.6] = 0.0
            if table.sum() == 0.0:
                table[rng.integers(1 << n)] = 1.0
    path, steps = [], []
    for _ in range(draw(st.integers(1, 3 * n + 3))):
        move = draw(st.sampled_from(["down", "down", "down", "up", "sibling", "jump"]))
        free = [i for i in range(n) if i not in dict(path)]
        if move == "down" and free:
            # either end of the free list (t = 0 and t = m - 1) or between
            i = draw(st.sampled_from([free[0], free[-1], draw(st.sampled_from(free))]))
            path.append((i, draw(st.sampled_from([-1, 1]))))
        elif move == "up" and path:
            path.pop()
        elif move == "sibling" and path:
            i, b = path.pop()
            path.append((i, -b))
        elif move == "jump":
            coords = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
            path = [(c, draw(st.sampled_from([-1, 1]))) for c in coords]
        shuffled = draw(st.booleans())
        steps.append((list(path), draw(st.randoms()) if shuffled else None))
    return DensePmf(n, table / table.sum()), steps


def _is_parent(key, s):
    if key is None:
        return False
    mask, bits = key
    return (s.mask & mask) == mask and s.bits & mask == bits and len(s) == bin(mask).count("1") + 1


@settings(max_examples=120, deadline=None)
@given(exact_walks())
def test_exact_engine_derives_children_bit_equal(case):
    # every query on one engine equals a cache-free kernel call and the
    # flipped-copy loop bit for bit; the kernel runs only where the engine
    # holds no parent one level up, and the engine keeps one buffer per
    # restriction length, none deeper than the last query
    d, steps = case
    io = InfluenceOracle(KIND_EXACT, DistOracle.exact(d, seed=1), 0.01, 0.01)
    held = []  # by restriction length: the (mask, bits) the engine should hold
    with mock.patch.object(influence, "_kernel", wraps=influence._kernel) as kernel:
        for pairs, shuffle in steps:
            s = Restriction.of(*pairs)
            free = s.free_coords(d.n)
            coords = None
            if shuffle is not None:
                coords = list(free)
                shuffle.shuffle(coords)
            calls = kernel.call_count
            got_coords, vals, _ = io.estimate_all(s, coords)
            parent = held[len(s) - 1] if 0 < len(s) <= len(held) else None
            assert kernel.call_count - calls == (parent is None or not _is_parent(parent, s))
            del held[len(s):]
            held += [None] * (len(s) - len(held)) + [(s.mask, s.bits)]
            want_free, want = exact_influence_all(d, s)
            ref_free, ref = flipped_copy_influences(d, s)
            assert want_free == ref_free == free
            assert np.array_equal(want, ref)
            if coords is not None:
                want = want[[free.index(i) for i in coords]]
            assert got_coords == (free if coords is None else coords)
            assert np.array_equal(vals, want)
            rows = io._rows
            assert [v and v[:2] for v in rows] == held
            bufs = [v[4] for v in rows if v is not None]
            assert len({id(b if b.base is None else b.base) for b in bufs}) <= len(bufs)
            _assert_kept_rows_nonzero(io, s, ref)


def _assert_kept_rows_nonzero(io, s, vals):
    # live pairs each free position whose row is nonzero with its buffer
    # row: the kept entry of s names exactly the positions of its nonzero
    # influences, and no named row of any kept entry sums to 0.0
    entry = io._rows[len(s)]
    if entry is not None:
        assert [p for p, _ in entry[3]] == np.flatnonzero(vals).tolist()
    for entry in io._rows:
        if entry is not None:
            _, _, free, live, buf = entry
            assert buf.shape[1] == 1 << len(free)
            assert len({j for _, j in live}) == len(live) <= buf.shape[0]
            assert all(np.add.reduce(buf[j]) > 0.0 for _, j in live)


@st.composite
def sparse_tables(draw):
    """(d, kind, rng): the table of a gen_dt_dist tree (n <= 10, depth <= 3,
    most difference rows zero), the uniform table (every row zero) or a
    Dirichlet table (no row zero), and a generator for a walk's choices."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["tree", "uniform", "dense"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "tree":
        d = gen_dt_dist(n, draw(st.integers(0, min(3, n))), seed).dense
    else:
        d = uniform_dense(n) if kind == "uniform" else random_dense(n, seed)
    return d, kind, np.random.default_rng(seed)


@settings(max_examples=40, deadline=None)
@given(sparse_tables())
def test_exact_engine_sparse_rows_on_a_depth_first_walk(case):
    # a depth-first walk to length 4, both signs of two free coordinates at
    # each node: every query equals the flipped-copy loop bit for bit, the
    # kernel runs only at the root, and no kept row sums to 0.0
    d, kind, rng = case
    io = InfluenceOracle(KIND_EXACT, DistOracle.exact(d, seed=1), 0.01, 0.01)

    def walk(pairs):
        s = Restriction.of(*pairs)
        free, vals, _ = io.estimate_all(s)
        want_free, want = flipped_copy_influences(d, s)
        assert free == want_free and vals.tobytes() == want.tobytes()
        _assert_kept_rows_nonzero(io, s, vals)
        if not pairs and kind != "tree":
            # the uniform table's rows are all zero, a Dirichlet table's none
            assert len(io._rows[0][3]) == (0 if kind == "uniform" else d.n)
        if len(pairs) < 4:
            for i in rng.permutation(free)[:2].tolist():
                for b in (-1, 1):
                    walk(pairs + [(i, b)])

    with mock.patch.object(influence, "_kernel", wraps=influence._kernel) as kernel:
        walk([])
    assert kernel.call_count == 1


def test_exact_engine_child_halves_at_either_end():
    # fixing the lowest free coordinate cuts each row to a strided half
    # (t = 0), the highest to a contiguous one (t = m - 1); both come from
    # the parent's nonzero rows
    d = random_dense(12, 8)
    for i in (0, 11, 5):
        io = InfluenceOracle(KIND_EXACT, DistOracle.exact(d, seed=1), 0.01, 0.01)
        io.estimate_all()
        for b in (-1, 1):
            s = Restriction.of((i, b))
            with mock.patch.object(influence, "_kernel") as kernel:
                coords, vals, _ = io.estimate_all(s)
            assert not kernel.called
            assert np.array_equal(vals, flipped_copy_influences(d, s)[1])
            _assert_kept_rows_nonzero(io, s, vals)


def test_exact_search_memory_bound():
    # the kept rows of an n=12 search: at most one buffer per restriction
    # length, 12 x 4,096 floats at the root and half as many per level
    inst = gen_dt_dist(12, 3, 3)
    learn_distribution_result(DistOracle.exact(inst.dense, seed=2), 3, 0.1, 0.1, KIND_EXACT)
    tracemalloc.start()
    try:
        learn_distribution_result(DistOracle.exact(inst.dense, seed=2), 3, 0.1, 0.1, KIND_EXACT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


# ---------------------------------------------------------------------------
# sizing formulas


def test_sample_count_formulas():
    assert bias_sample_count(0.1, 0.1) == math.ceil(math.log(20.0) / 0.02)
    assert infest_sample_count(0.01) == 10_000
    assert infest_repetitions(0.1, 0.05) == math.ceil(
        2.0 * math.log(40.0) / 0.05 ** 2
    )
    # monotone in the parameters
    assert bias_sample_count(0.05, 0.1) > bias_sample_count(0.1, 0.1)
    assert infest_repetitions(0.1, 0.01) > infest_repetitions(0.1, 0.05)


@pytest.mark.parametrize("count, args", [
    (bias_sample_count, (1e-300, 0.05)),  # eps^2 underflows to 0
    (infest_repetitions, (1e-300, 0.05)),
    (infest_sample_count, (1e-300,)),
    (bias_sample_count, (0.1, 1e-320)),  # log(2 / delta) overflows
])
def test_sample_counts_refuse_counts_that_are_not_finite(count, args):
    with pytest.raises(ConfigError, match="inf is not a finite"):
        count(*args)


def test_only_two_point_draws_per_run_must_fit_an_int64():
    # 10^20 draws per run go to rng.binomial whole; 2.95e21 runs are cut
    # at infest_reps_cap, and 1.5e20 bias samples at max_pool
    with pytest.raises(ConfigError, match="two-point draws per run 1e\\+20 is not a finite int64"):
        infest_sample_count(1e-10)
    assert infest_repetitions(1e-10, 0.05) == math.ceil(
        2.0 * math.log(2.0 / 0.05) / ((1e-10 / 2.0) ** 2))
    assert bias_sample_count(1e-10, 0.05) == math.ceil(math.log(2.0 / 0.05) / (2.0 * 1e-20))


def test_estimate_conditional_caps_its_runs(e2_dense):
    # accuracy 0.001 asks for 29,511,036 runs of 4,000,000 two-point draws;
    # the runs are cut to the budget's 20,000 and the cut is recorded
    io = InfluenceOracle(KIND_SUBCUBE, DistOracle.subcube(e2_dense, seed=8), 0.001, 0.05)
    assert infest_repetitions(0.001, 0.05) == 29_511_036
    est = io.estimate_conditional(0)
    assert io.caps_bound == {"infest_reps_cap": 1}
    assert est.samples_used == 20_000 * (infest_sample_count(0.0005) + 1)
    assert abs(est.value - 0.5) <= 0.01


def test_estimate_conditional_caps_its_monotone_draws(e2_dense):
    io = InfluenceOracle(KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=9), 0.05, 0.05,
                         EstimatorBudget(max_pool=100))
    est = io.estimate_conditional(0, Restriction.of((1, 1)))
    assert bias_sample_count(0.05, 0.05) == 738
    assert est.samples_used == 100 and io.caps_bound == {"max_pool": 1}
    # at the default caps the contract count is drawn whole, and nothing is cut
    io = InfluenceOracle(KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=9), 0.05, 0.05)
    assert io.estimate_conditional(0).samples_used == 738 and not io.caps_bound


# ---------------------------------------------------------------------------
# monotone bias estimator


def test_bias_estimate_uniform_near_zero():
    o = DistOracle.sampler(uniform_dense(4), seed=21)
    est = conditional(KIND_MONOTONE, o, 2)
    assert abs(est.value) <= 0.05
    assert est.samples_used == bias_sample_count(0.05, 0.05)


def test_bias_estimate_e2_unrestricted(e2_dense):
    vals0, vals1 = [], []
    for r in range(30):
        o = DistOracle.sampler(e2_dense, seed=1000 + r)
        vals0.append(conditional(KIND_MONOTONE, o, 0).value)
        vals1.append(conditional(KIND_MONOTONE, o, 1).value)
    assert abs(float(np.mean(vals0)) - 0.5) <= 0.02
    assert abs(float(np.mean(vals1)) - 0.25) <= 0.02


def test_bias_estimate_conditional(e2_dense):
    # E[x1 | x0=+1] = 1/3; estimator reports the conditional-scale value
    vals = []
    for r in range(30):
        o = DistOracle.sampler(e2_dense, seed=2000 + r)
        est = conditional(KIND_MONOTONE, o, 1, Restriction.of((0, 1)))
        vals.append(est.value)
    assert abs(float(np.mean(vals)) - 1 / 3) <= 0.02


def test_bias_estimate_json_fields(e2_dense):
    o = DistOracle.sampler(e2_dense, seed=3)
    d = conditional(KIND_MONOTONE, o, 0, eps=0.1, delta=0.1).to_json_dict()
    assert set(d) == {"coord", "value", "accuracy", "confidence", "samples"}


# ---------------------------------------------------------------------------
# infest


def test_infest_uniform_small():
    vals = [
        infest(DistOracle.subcube(uniform_dense(3), seed=4000 + r), 1, eps=0.05)
        for r in range(50)
    ]
    assert float(np.mean(vals)) <= 0.05 + 0.03


def test_infest_e2_means(e2_dense):
    # E over runs approaches the exact expectations 0.5 and 0.25
    m0 = float(
        np.mean(
            [infest(DistOracle.subcube(e2_dense, seed=5000 + r), 0, eps=0.02) for r in range(400)]
        )
    )
    m1 = float(
        np.mean(
            [infest(DistOracle.subcube(e2_dense, seed=9000 + r), 1, eps=0.02) for r in range(400)]
        )
    )
    assert abs(m0 - E2_EXPECTED["infest_expectation"][0]) <= 0.04
    assert abs(m1 - E2_EXPECTED["infest_expectation"][1]) <= 0.04


def test_infest_expectation_oracle_is_influence():
    # the run expectation E|2p-1| equals Inf_i(f_D) exactly; check the
    # loop-oracle identity on random tables
    for seed in range(4):
        d = random_dense(4, 100 + seed)
        f = O.weighting_values(list(d.table))
        for i in range(4):
            assert O.infest_expectation(list(d.table), 4, i) == pytest.approx(
                O.influence(f, 4, i), abs=ATOL
            )


def test_infest_high_accuracy_band(e2_dense):
    for r in range(5):
        est = conditional(
            KIND_SUBCUBE, DistOracle.subcube(e2_dense, seed=300 + r), 0, eps=0.05, delta=0.01
        )
        assert 0.45 <= est.value <= 0.55
        assert est.samples_used >= infest_repetitions(0.05, 0.01)
    u = conditional(
        KIND_SUBCUBE, DistOracle.subcube(uniform_dense(3), seed=42), 2, eps=0.1, delta=0.05
    )
    assert u.value <= 0.1


def test_infest_high_accuracy_conditional(e2_dense):
    est = conditional(
        KIND_SUBCUBE, DistOracle.subcube(e2_dense, seed=77), 1, Restriction.of((0, 1))
    )
    assert abs(est.value - 1 / 3) <= 0.05


# ---------------------------------------------------------------------------
# the unified oracle


def test_influence_oracle_mode_validation(e2_dense):
    plain = DistOracle.sampler(e2_dense, seed=1)
    with pytest.raises(OracleModeError):
        InfluenceOracle(KIND_EXACT, plain, 0.1, 0.1)
    with pytest.raises(OracleModeError):
        InfluenceOracle(KIND_SUBCUBE, plain, 0.1, 0.1)
    with pytest.raises(ValueError):
        InfluenceOracle("bogus", plain, 0.1, 0.1)
    InfluenceOracle(KIND_MONOTONE, plain, 0.1, 0.1)


@pytest.mark.parametrize("kind", [KIND_EXACT, KIND_MONOTONE, KIND_SUBCUBE])
def test_influence_oracle_rejects_bad_targets_and_caps(e2_dense, kind):
    o = DistOracle.exact(e2_dense, seed=1)
    for accuracy, confidence in ((0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, 1.0), (0.1, 1.5)):
        with pytest.raises(ConfigError):
            InfluenceOracle(kind, o, accuracy, confidence)
    for budget in (EstimatorBudget(max_pool=0), EstimatorBudget(max_pool=-5),
                   EstimatorBudget(infest_reps_cap=0), EstimatorBudget(infest_reps_cap=-3)):
        with pytest.raises(ConfigError):
            InfluenceOracle(kind, o, 0.1, 0.1, budget)
    InfluenceOracle(kind, o, 0.1, 0.1, EstimatorBudget(max_pool=1, infest_reps_cap=1))


def test_influence_oracle_exact_path(e2_dense):
    io = InfluenceOracle(KIND_EXACT, DistOracle.exact(e2_dense, seed=1), 0.01, 0.01)
    coords, vals, used = io.estimate_all()
    assert coords == [0, 1]
    assert vals == pytest.approx([0.5, 0.25], abs=ATOL)
    assert used == 0
    s = Restriction.of((0, 1))
    coords, vals, _ = io.estimate_all(s)
    assert coords == [1]
    assert vals[0] == pytest.approx(0.5, abs=ATOL)  # restricted scale
    est = io.estimate(1, s)
    assert est.value == pytest.approx(0.5, abs=ATOL)
    cond = io.estimate_conditional(1, s)
    assert cond.value == exact_conditional_influence(e2_dense, 1, s)
    assert cond.samples_used == 0


def test_influence_oracle_exact_path_picks_coords():
    d = random_dense(5, 11)
    io = InfluenceOracle(KIND_EXACT, DistOracle.exact(d, seed=1), 0.01, 0.01)
    s = Restriction.of((1, -1), (3, 1))
    free, all_vals = exact_influence_all(d, s)
    coords, vals, _ = io.estimate_all(s, [4, 0, 4])
    assert coords == [4, 0, 4]
    assert np.array_equal(vals, all_vals[[2, 0, 2]])
    with pytest.raises(ValueError):
        io.estimate_all(s, [0, 3])


@pytest.mark.parametrize("kind", [KIND_EXACT, KIND_MONOTONE, KIND_SUBCUBE])
@pytest.mark.parametrize("coord, error, match", [
    (6, DimensionMismatchError, "out of range"),
    (-1, DimensionMismatchError, "out of range"),
    (1, ValueError, "coordinate 1 is fixed by the restriction"),
])
def test_influence_oracle_checks_coordinates(kind, coord, error, match):
    inst = gen_dt_dist(6, 2, 5)
    io = InfluenceOracle(kind, DistOracle.exact(inst.dense, seed=1), 0.3, 0.3)
    s = Restriction.of((1, -1))
    with pytest.raises(error, match=match):
        io.estimate_all(s, [0, coord])
    with pytest.raises(error, match=match):
        io.estimate_conditional(coord, s)


@pytest.mark.parametrize("kind", [KIND_EXACT, KIND_MONOTONE, KIND_SUBCUBE])
def test_influence_oracle_rejects_restriction_past_n(kind):
    # the sample kinds once raised a bare IndexError from the pool filter
    inst = gen_dt_dist(6, 2, 5)
    io = InfluenceOracle(kind, DistOracle.exact(inst.dense, seed=1), 0.3, 0.3)
    s = Restriction.of((1, -1), (9, 1))
    for call in (lambda: io.estimate_all(s), lambda: io.estimate_all(s, [0]),
                 lambda: io.weight(s, 100), lambda: io.estimate_conditional(0, s)):
        with pytest.raises(DimensionMismatchError, match="restriction coordinate 9 out of range"):
            call()
    # rejected before any draw
    assert io.pool_draws == 0 and not any(io.source.query_count.values())


def test_influence_oracle_monotone_path(e2_dense):
    io = InfluenceOracle(
        KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=8), 0.05, 0.05
    )
    coords, vals, used = io.estimate_all()
    assert coords == [0, 1]
    assert abs(vals[0] - 0.5) <= 0.05
    assert abs(vals[1] - 0.25) <= 0.05
    assert used > 0
    # restricted scale: Inf_1((f_D)_{x0=+1}) = 0.5
    s = Restriction.of((0, 1))
    _, vals, _ = io.estimate_all(s)
    assert abs(vals[0] - 0.5) <= 0.08


def test_influence_oracle_subcube_path(e2_dense):
    io = InfluenceOracle(
        KIND_SUBCUBE, DistOracle.subcube(e2_dense, seed=9), 0.05, 0.05
    )
    coords, vals, _ = io.estimate_all()
    assert abs(vals[0] - 0.5) <= 0.05
    assert abs(vals[1] - 0.25) <= 0.05
    s = Restriction.of((0, 1))
    _, vals, _ = io.estimate_all(s)
    assert abs(vals[0] - 0.5) <= 0.08


def test_influence_oracle_pool_reuse(e2_dense):
    io = InfluenceOracle(
        KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=10), 0.1, 0.1
    )
    io.estimate_all()
    drawn_once = io.source.query_count[io.source.mode.SAMPLE]
    io.estimate_all()  # same accuracy: pool already large enough
    assert io.source.query_count[io.source.mode.SAMPLE] == drawn_once


def test_influence_oracle_budget_strict(e2_dense):
    # a binding cap is recorded, not raised: the weight and the bias counts
    # are cut to max_pool, and the full pool still yields fewer conditioned
    # draws than the cut bias count
    tiny = EstimatorBudget(max_pool=500, infest_reps_cap=50)
    with pytest.raises(TypeError):
        InfluenceOracle(KIND_MONOTONE, DistOracle.sampler(e2_dense, seed=11), 0.001, 0.01,
                        budget=tiny, strict=True)
    soft = InfluenceOracle(
        KIND_MONOTONE,
        DistOracle.sampler(e2_dense, seed=11),
        0.001,
        0.01,
        budget=tiny,
    )
    assert soft.caps_bound == {}
    _, vals, _ = soft.estimate_all(Restriction.of((0, 1)))
    assert soft.caps_bound == {"max_pool": 3}
    assert soft.source.query_count[soft.source.mode.SAMPLE] <= 500
    assert vals.shape == (1,)


def test_influence_oracle_subcube_caps(e2_dense):
    tiny = EstimatorBudget(max_pool=1000, infest_reps_cap=20)
    io = InfluenceOracle(
        KIND_SUBCUBE,
        DistOracle.subcube(e2_dense, seed=12),
        0.001,
        0.01,
        budget=tiny,
    )
    _, vals, used = io.estimate_all(Restriction.of((0, 1)))
    assert vals.shape == (1,)
    assert used > 0
    # the weight's count and the two-point runs were each cut once
    assert io.caps_bound == {"max_pool": 1, "infest_reps_cap": 1}
    assert io.pool_draws == 1000
    # the exact kind draws nothing, so nothing binds
    exact = InfluenceOracle(KIND_EXACT, DistOracle.exact(e2_dense, seed=1), 0.001, 0.01,
                            budget=tiny)
    exact.estimate_all(Restriction.of((0, 1)))
    exact.weight(Restriction.of((0, 1)), 10**9)
    assert exact.caps_bound == {}


def test_influence_oracle_zero_weight_returns_zero():
    d = DensePmf(2, [0.0, 0.0, 0.5, 0.5])
    io = InfluenceOracle(
        KIND_MONOTONE, DistOracle.sampler(d, seed=13), 0.05, 0.05
    )
    _, vals, _ = io.estimate_all(Restriction.of((1, -1)))
    assert np.abs(vals).max() == 0.0


def test_estimates_on_random_monotone_instances():
    # pooled monotone path against exact values, restricted scale
    for seed in range(3):
        inst = gen_dt_dist(5, 2, seed=seed)
        if not inst.monotone:
            continue
        io = InfluenceOracle(
            KIND_MONOTONE, DistOracle.sampler(inst.dense, seed=seed + 50), 0.05, 0.05
        )
        free, exact = exact_influence_all(inst.dense)
        _, vals, _ = io.estimate_all()
        assert np.abs(vals - exact).max() <= 0.1


# ---------------------------------------------------------------------------
# the pool's count store against a scan of the rows it was fed


def _row_stream(X):
    """Stream backing that hands out the rows of X in order."""
    cursor = [0]

    def draw(k, rng):
        lo = cursor[0]
        cursor[0] += k
        return X[lo:lo + k]

    return draw


@st.composite
def pool_cases(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 3000))
    # a per-coordinate bias towards +1 varies how many distinct points show
    p_plus = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.where(rng.random((rows, n)) < p_plus, 1, -1).astype(np.int8)
    # pool sizes of successive plain_pool calls, ending with all rows
    cuts = sorted(draw(st.lists(st.integers(1, rows), max_size=4))) + [rows]
    signs = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    s = Restriction.of(*[(i, b) for i, b in enumerate(signs) if b])
    coords = draw(st.lists(st.integers(0, n - 1), unique=True))
    return X, cuts, s, coords


@settings(max_examples=150, deadline=None)
@given(pool_cases())
def test_pool_counts_equal_row_scan(case):
    X, cuts, s, coords = case
    n = X.shape[1]
    io = InfluenceOracle(
        KIND_MONOTONE, DistOracle.sampler(_row_stream(X), n=n), 0.1, 0.1
    )
    for rows in cuts:
        io.plain_pool(rows)
        seen = X[:rows]
        mask = s.consistent_mask(seen)
        have, sums = io.pool_tally(s, coords)
        assert io.pool_draws == rows
        assert have == int(mask.sum())
        assert np.array_equal(sums, seen[mask][:, coords].sum(axis=0))
        # the estimates built on them match the row-scan floats bit for bit
        assert io.weight(s, rows) == float(mask.mean())
        if have:
            assert np.array_equal(sums / have, seen[mask][:, coords].mean(axis=0))
    # the store holds each distinct row once, in index order
    assert np.array_equal(points_to_indices(io.plain_pool(0)),
                          np.unique(points_to_indices(X)))
    assert io.source.query_count[io.source.mode.SAMPLE] == X.shape[0]


@st.composite
def sliced_pool_cases(draw):
    """A dense pmf over n <= 6 with empty cells, as a table or a tree, a
    small slice size, pool sizes past several slices and a pool cap."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(1 << n)
    w[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    w[int(rng.integers(1 << n))] += 1.0
    d = DensePmf(n, w / w.sum())
    backing = d if draw(st.booleans()) else dense_to_tree(d)
    sizes = draw(st.lists(st.integers(0, 700), min_size=1, max_size=5))
    return (backing, draw(st.integers(1, 64)), sizes, draw(st.integers(1, 800)),
            draw(st.integers(0, 2**31)))


@settings(max_examples=150, deadline=None)
@given(sliced_pool_cases())
def test_sliced_pool_equals_one_batch_growth(case):
    backing, chunk, sizes, cap, seed = case
    io = InfluenceOracle(KIND_MONOTONE, DistOracle.sampler(backing, seed=seed), 0.1, 0.1,
                         budget=EstimatorBudget(max_pool=cap))
    with mock.patch.object(InfluenceOracle, "CHUNK_ROWS", chunk):
        for rows in sizes:
            io.plain_pool(rows)
    ref = DistOracle.sampler(backing, seed=seed)
    keys, counts, draws = O.pool_one_batch(ref, [min(rows, cap) for rows in sizes], chunk)
    assert np.array_equal(io._keys, keys) and np.array_equal(io._counts, counts)
    assert np.array_equal(points_to_indices(io.plain_pool(0)), keys)
    assert io.pool_draws == draws
    assert io.source.query_count == ref.query_count
    assert io.source.rng.random() == ref.rng.random()


def test_pool_growth_memory_bound():
    # 2M draws in 2^16-row slices: one slice's rows, indices and np.unique
    # temporaries (about 3 MB); one batch held 16 MB of int64 indices and
    # 20 MB of rows at once (34.4 MiB)
    d = DensePmf(10, np.random.default_rng(3).dirichlet(np.ones(1 << 10)))
    io = InfluenceOracle(KIND_MONOTONE, DistOracle.sampler(d, seed=4), 0.1, 0.1)
    tracemalloc.start()
    try:
        io.plain_pool(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert io.pool_draws == 2_000_000
    assert peak <= 6 << 20


def test_pool_rejects_unkeyable_settings(e2_dense):
    with pytest.raises(ConfigError):
        InfluenceOracle(
            KIND_MONOTONE, DistOracle.sampler(e2_dense), 0.1, 0.1,
            budget=EstimatorBudget(max_pool=0),
        )
    wide = DistOracle.sampler(lambda k, rng: np.ones((k, 65), dtype=np.int8), n=65)
    with pytest.raises(ConfigError):
        InfluenceOracle(KIND_MONOTONE, wide, 0.1, 0.1)
