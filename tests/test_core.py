"""Representations, conversions, serialization, and the sampling oracle."""

import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as O
from conftest import E2_TABLE, E2_EXPECTED, pm1_stream
from dtdist import core
from dtdist import (
    ConfigError,
    DensePmf,
    DimensionMismatchError,
    DistOracle,
    DistTree,
    InfluenceOracle,
    Internal,
    InvalidPmfError,
    InvalidTreeError,
    KIND_MONOTONE,
    Leaf,
    OracleMode,
    OracleModeError,
    RejectionCapExceededError,
    Restriction,
    ZeroWeightSubcubeError,
    all_points,
    bias_sample_count,
    dense_to_tree,
    derive_seed,
    index_to_point,
    json_dumps,
    load_json,
    points_to_indices,
    restrict_dist,
    stream,
    subcube_weight,
    tree_to_dense,
    tv_distance,
    uniform_dense,
    weighting_table,
)

ATOL = 1e-9


# ---------------------------------------------------------------------------
# points and restrictions


def test_point_index_roundtrip():
    n = 6
    for idx in range(1 << n):
        x = index_to_point(idx, n)
        assert points_to_indices(x[None, :]).tolist() == [idx]
        assert tuple(x) == O.index_point(idx, n)


def test_all_points_order_and_indices():
    pts = all_points(4)
    assert pts.shape == (16, 4)
    assert np.array_equal(points_to_indices(pts), np.arange(16))


def _python_indices(X):
    """points_to_indices by Python ints: bit i set when x_i > 0, bit 63 in
    two's complement."""
    out = []
    for row in X > 0:
        v = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        out.append(v - (1 << 64) if v >> 63 else v)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 10, 24, 25, 53, 54, 64]),
       st.one_of(st.sampled_from([0, 1, 8191, 8192, 8193]), st.integers(0, 20_000)),
       st.sampled_from([np.int8, np.int64, np.float64]), st.integers(0, 2**32 - 1))
def test_points_to_indices_matches_python_ints(n, k, dtype, seed):
    # n 24/25 sit on either side of the float32 and int64 products, 53/54
    # on either side of a float64's exact integers, k on either side of a
    # block's end; the rule is x_i > 0, so entries off -1/+1 are read too
    values = [-1, 0, 1, 2] + ([-0.5] if dtype is np.float64 else [])
    X = np.random.default_rng(seed).choice(np.array(values, dtype=dtype), size=(k, n))
    got = points_to_indices(X)
    assert got.dtype == np.int64 and got.shape == (k,)
    assert got.tolist() == _python_indices(X)


def test_points_to_indices_keeps_the_callers_error_state():
    # the float32 product runs under its own errstate; the caller's comes back
    with np.errstate(all="raise"):
        assert np.array_equal(points_to_indices(all_points(10)), np.arange(1 << 10))
        assert np.geterr()["invalid"] == "raise"


def test_points_to_indices_refuses_more_than_64_coordinates():
    # at n=66 the points with only coordinate 64 or only 65 at +1 once
    # both mapped to index 0
    X = -np.ones((2, 66), dtype=np.int8)
    X[0, 64] = X[1, 65] = 1
    for n in (65, 66):
        with pytest.raises(DimensionMismatchError, match="n <= 64"):
            points_to_indices(X[:, :n])
    top = np.ones((1, 64), dtype=np.int8)
    assert points_to_indices(top).tolist() == [-1]
    top[0, :63] = -1
    assert points_to_indices(top).tolist() == [-(1 << 63)]


def test_restriction_construction_and_key():
    s = Restriction.of((3, -1), (1, 1))
    assert str(s) == "1=+1,3=-1"
    assert (s.mask, s.bits) == (0b1010, 0b0010)
    assert s.coords() == (3, 1)
    assert dict(s.pairs) == {3: -1, 1: 1}
    assert len(s) == 2
    assert Restriction.of({3: -1, 1: 1}) == s
    grown = Restriction(s.pairs + ((0, 1),))
    assert grown == Restriction.of((0, 1), (1, 1), (3, -1))
    assert str(grown) == "0=+1,1=+1,3=-1"
    assert s.free_coords(5) == [0, 2, 4]


def test_restriction_rejects_bad_input():
    with pytest.raises(ValueError):
        Restriction.of((1, 1), (1, -1))
    with pytest.raises(ValueError):
        Restriction.of((0, 2))
    with pytest.raises(ValueError):
        Restriction.of((-2, 1))


@pytest.mark.parametrize("build", [
    lambda: Restriction.parse("100000000=+1"),
    lambda: Restriction.of((10**12, 1)),
    lambda: Restriction.of((3, 1), (1 << 16, -1)),
])
def test_restriction_caps_coordinate_before_shifting(build):
    # the mask's bit for coordinate i takes i/8 bytes: 12.5 MB at 10^8, and
    # about 125 GB at 10^12, had the cap come after the shift
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be below 2"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert Restriction.of(((1 << 16) - 1, 1)).mask == 1 << ((1 << 16) - 1)


def test_restriction_pickle_keeps_key():
    # mask and bits are attributes, not fields: repr sees pairs alone, and
    # a restored restriction carries the same ones
    s = Restriction.of((3, -1), (1, 1))
    t = pickle.loads(pickle.dumps(s))
    assert t == s and hash(t) == hash(s)
    assert (t.mask, t.bits) == (s.mask, s.bits) == (0b1010, 0b0010)
    assert str(t) == "1=+1,3=-1"
    assert repr(t) == "Restriction(pairs=((3, -1), (1, 1)))"


def test_restriction_equality_follows_key():
    # one subcube named in two orders: equal and hashed alike, while pairs
    # keeps the order each was built in
    a, b = Restriction.of((2, -1), (0, 1)), Restriction.of((0, 1), (2, -1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.pairs == ((2, -1), (0, 1)) and b.pairs == ((0, 1), (2, -1))
    assert a != Restriction.of((0, 1), (2, 1)) and a != Restriction.of((0, 1))
    assert a != (a.mask, a.bits)


def test_restriction_parse_str_roundtrip():
    s = Restriction.parse("0=+1,3=-1")
    assert dict(s.pairs) == {0: 1, 3: -1}
    assert Restriction.parse(str(s)) == s
    assert Restriction.parse("").pairs == ()
    assert str(Restriction.empty()) == "(empty)"


def test_restriction_mask_and_apply():
    s = Restriction.of((0, 1), (2, -1))
    X = all_points(3)
    mask = s.consistent_mask(X)
    assert mask.sum() == 2
    assert (X[mask][:, 0] == 1).all() and (X[mask][:, 2] == -1).all()


@st.composite
def restriction_cases(draw):
    n = draw(st.integers(1, 10))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([-1, 1])),
                     unique_by=lambda p: p[0], max_size=n)
    a = draw(pairs)
    # the other restriction is often the same pairs in another order
    b = draw(st.one_of(st.permutations(a), pairs))
    return n, a, b


@settings(max_examples=200, deadline=None)
@given(restriction_cases(), st.randoms(use_true_random=False))
def test_restriction_integer_form(case, rnd):
    n, a, b = case
    s, t = Restriction(tuple(a)), Restriction(tuple(b))
    pts = all_points(n)
    in_s = s.consistent_mask(pts)
    # equal, and hashed alike, exactly when the two name one subcube
    assert (s == t) == np.array_equal(in_s, t.consistent_mask(pts))
    if s == t:
        assert hash(s) == hash(t)
    idx = np.flatnonzero((np.arange(1 << n) & s.mask) == s.bits)
    assert np.array_equal(idx, np.flatnonzero(in_s))
    # free_coords lists, in increasing order, the bits of [0, n) outside mask
    free = s.free_coords(n)
    assert free == sorted(free) and sum(1 << i for i in free) == (1 << n) - 1 - s.mask
    if a:
        top = max(i for i, _ in a)
        s.check(top + 1)
        with pytest.raises(DimensionMismatchError):
            s.check(top)
    # extending one pair at a time, in shuffled order, names the same subcube
    order = list(a)
    rnd.shuffle(order)
    grown = Restriction.empty()
    for i, sign in order:
        grown = Restriction(grown.pairs + ((i, sign),))
    assert grown.pairs == tuple(order)
    assert grown == s and (grown.mask, grown.bits) == (s.mask, s.bits)
    back = pickle.loads(pickle.dumps(s))
    assert back.pairs == s.pairs and (back.mask, back.bits) == (s.mask, s.bits)


_PAST_N = {
    "slice_cube": lambda d, t, s: core.slice_cube(d.table, s),
    "subcube_weight": lambda d, t, s: subcube_weight(d, s),
    "restrict_dist": lambda d, t, s: restrict_dist(d, s),
    "conditional_masses": lambda d, t, s: t.conditional_masses(s),
    "subcube_sample_batch dense":
        lambda d, t, s: DistOracle.subcube(d, seed=1).subcube_sample_batch(s, 5),
    "subcube_sample_batch tree":
        lambda d, t, s: DistOracle.subcube(t, seed=1).subcube_sample_batch(s, 5),
    "consistent_mask": lambda d, t, s: s.consistent_mask(all_points(d.n)),
    "free_coords": lambda d, t, s: s.free_coords(d.n),
}


@pytest.mark.parametrize("entry", sorted(_PAST_N))
def test_restriction_entry_points_reject_coordinate_past_n(entry):
    # conditional_masses once returned a root mass of 0.5 here
    d = DensePmf(6, np.random.default_rng(3).dirichlet(np.ones(64)))
    s = Restriction.of((1, -1), (9, 1))
    with pytest.raises(DimensionMismatchError, match="restriction coordinate 9 out of range"):
        _PAST_N[entry](d, dense_to_tree(d), s)


# ---------------------------------------------------------------------------
# trees and dense pmfs


def test_uniform_tree_eval():
    t = DistTree(5, Leaf(2.0 ** -5))
    assert t.depth() == 0
    assert t.eval_batch(all_points(5)[:3]) == pytest.approx([2.0 ** -5] * 3, abs=ATOL)


def test_e2_tree_eval(e2_tree):
    X = np.array([(1, 1), (-1, -1)], dtype=np.int8)
    assert e2_tree.eval_batch(X) == pytest.approx([0.5, 0.125], abs=ATOL)
    got = e2_tree.eval_batch(np.array([O.index_point(i, 2) for i in range(4)], dtype=np.int8))
    assert got == pytest.approx(E2_TABLE, abs=ATOL)


def test_tree_matches_naive_path_following():
    t = DistTree(
        3,
        Internal(1, Leaf(1 / 16), Internal(2, Leaf(1 / 8), Leaf(1 / 4))),
    )
    enc = ("node", 1, ("leaf", 1 / 16), ("node", 2, ("leaf", 1 / 8), ("leaf", 1 / 4)))
    naive = O.tree_pmf_table(enc, 3)
    got = t.eval_batch(all_points(3))
    assert got == pytest.approx(naive, abs=ATOL)


@st.composite
def routing_cases(draw):
    n = draw(st.integers(1, 8))
    max_depth = draw(st.integers(0, min(4, n)))

    def grow(path, depth):
        free = [i for i in range(n) if i not in path]
        if depth == max_depth or not draw(st.booleans()):
            return ("leaf", depth, draw(st.integers(1, 9)))
        v = draw(st.sampled_from(free))
        return ("node", v, grow(path | {v}, depth + 1), grow(path | {v}, depth + 1))

    shape = grow(frozenset(), 0)
    rows = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (2 * rng.integers(0, 2, size=(rows, n)) - 1).astype(np.int8)
    return n, shape, X


def _shape_tree(n, shape, var=int):
    """DistTree of a routing_cases shape and its node objects in preorder
    (a node's position is its id); leaf weights w become densities with
    leaf masses w / total, and split variables are of type var."""
    def weights(node):
        return node[2] if node[0] == "leaf" else weights(node[2]) + weights(node[3])

    total = weights(shape)
    preorder = []

    def build(node):
        j = len(preorder)
        preorder.append(None)
        if node[0] == "leaf":
            _, depth, w = node
            preorder[j] = Leaf(w / (total * 2.0 ** (n - depth)))
        else:
            lo, hi = build(node[2]), build(node[3])
            preorder[j] = Internal(var(node[1]), lo, hi)
        return preorder[j]

    return DistTree(n, build(shape)), preorder


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_route_matches_object_walk(case):
    n, shape, X = case
    t, preorder = _shape_tree(n, shape)
    ids = {id(node): j for j, node in enumerate(preorder)}
    leaf_ids = [j for j, node in enumerate(preorder) if isinstance(node, Leaf)]
    want = []
    for x in X:
        cur = t.root
        while isinstance(cur, Internal):
            cur = cur.hi if x[cur.var] > 0 else cur.lo
        want.append(ids[id(cur)])
    assert t._route(X).tolist() == want
    assert t.leaf_index_batch(X).tolist() == [leaf_ids.index(j) for j in want]
    assert t.eval_batch(X).tolist() == [preorder[j].density for j in want]


@settings(max_examples=150, deadline=None)
@given(routing_cases(), st.data())
def test_flattened_walk_matches_object_walks(case, data):
    # leaves, depth and conditional masses against the recursive walks the
    # tree ran before its validation walk recorded the depth and one
    # flattening walk the leaves; the masses must be bit-equal, as the
    # seeded tree sampler reads them.  Each leaf's unchecked Restriction
    # equals the checked one of its pairs, numpy split variables included
    n, shape, _ = case
    t, _ = _shape_tree(n, shape, data.draw(st.sampled_from([int, np.int64])))
    assert [(s.pairs, d) for s, d in t.leaves()] == O.tree_leaves(t.root)
    for s, _ in t.leaves():
        checked = Restriction(s.pairs)
        assert s == checked and s.pairs == checked.pairs
        assert (s.mask, s.bits) == (checked.mask, checked.bits)
        assert all(type(i) is int for i, _ in s.pairs)
    assert t.depth() == O.tree_depth(t.root)
    t.leaves().clear()  # a copy: the recorded list stays whole
    assert len(t.leaves()) == len(O.tree_leaves(t.root))
    signs = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1, 1])))
    got = t.conditional_masses(Restriction.of(signs)).tolist()
    assert got == O.conditional_masses(t.root, n, signs)


def test_tree_tables_are_fresh_per_call(e2_tree):
    # a caller may write to conditional_masses' array and to a tree-backed
    # oracle's dense table without changing what the next call returns
    o = DistOracle.exact(e2_tree)
    for get in (lambda: e2_tree.conditional_masses(Restriction.of()),
                lambda: e2_tree.conditional_masses(Restriction.of((1, 1))),
                lambda: o.dense().table):
        got = get()
        want = got.copy()
        got[:] = -1.0
        assert np.array_equal(get(), want)


def test_route_dimension_mismatch(e2_tree):
    with pytest.raises(DimensionMismatchError):
        e2_tree.leaf_index_batch(np.ones((2, 3), dtype=np.int8))


def _split_vars(shape):
    if shape[0] == "leaf":
        return set()
    return {shape[1]} | _split_vars(shape[2]) | _split_vars(shape[3])


@st.composite
def tree_draw_cases(draw):
    # a routing_cases tree; a restriction that is empty, fixes split
    # variables or fixes variables no split reads; 0 to 3 blocks of 64 rows
    n, shape, _ = draw(routing_cases())
    on = sorted(_split_vars(shape))
    pool = draw(st.sampled_from([[], on, [i for i in range(n) if i not in on]]))
    fixed = draw(st.lists(st.sampled_from(pool), unique=True, max_size=2)) if pool else []
    s = Restriction.of({i: draw(st.sampled_from([-1, 1])) for i in fixed})
    k = 64 * draw(st.integers(0, 3)) + draw(st.integers(0, 63))
    return n, shape, s, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(tree_draw_cases())
def test_tree_sampler_matches_row_reference(case):
    # writing each split's column once leaves the points and the
    # generator's stream where the two-write sampler in oracles.py did
    n, shape, s, k, seed = case
    t, _ = _shape_tree(n, shape)
    new, ref = DistOracle.subcube(t, seed=seed), DistOracle.subcube(t, seed=seed)
    X = new.subcube_sample_batch(s, k)
    assert X.dtype == np.int8 and X.shape == (k, n)
    assert np.array_equal(X, O.draw_tree(ref, s, k))
    assert new.rng.random() == ref.rng.random()


def test_tree_validation_errors():
    with pytest.raises(InvalidTreeError):
        DistTree(2, Internal(0, Leaf(0.25), Internal(0, Leaf(0.25), Leaf(0.25))))
    with pytest.raises(InvalidTreeError):
        DistTree(2, Internal(2, Leaf(0.25), Leaf(0.25)))
    with pytest.raises(InvalidTreeError):
        DistTree(1, Internal(0, Leaf(-0.5), Leaf(1.5)))
    with pytest.raises(InvalidTreeError):
        DistTree(1, Leaf(0.3))  # masses sum to 0.6
    # a non-finite density fails too; NaN once passed both checks
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidTreeError):
            DistTree(1, Internal(0, Leaf(0.5), Leaf(bad)))
    # n and split variables are nonnegative ints, never a bool or a float
    for n in (True, 1.5, 1.0, -1):
        with pytest.raises(InvalidTreeError, match="tree n must be a nonnegative integer"):
            DistTree.from_json_dict({"n": n, "root": {"leaf": 0.5}})
    for var in (True, 0.5, 0.0, -1):
        with pytest.raises(InvalidTreeError, match="split variable must be a nonnegative integer"):
            DistTree.from_json_dict(
                {"n": 1, "root": {"var": var, "lo": {"leaf": 0.5}, "hi": {"leaf": 0.5}}})


def test_leaves_preorder(e2_tree):
    leaves = e2_tree.leaves()
    assert [(str(s), d) for s, d in leaves] == [
        ("0=-1", 0.125),
        ("0=+1,1=-1", 0.25),
        ("0=+1,1=+1", 0.5),
    ]


def test_dense_validation():
    with pytest.raises(InvalidPmfError):
        DensePmf(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(InvalidPmfError):
        DensePmf(1, [-0.2, 1.2])
    with pytest.raises(DimensionMismatchError):
        DensePmf(2, [0.5, 0.5])
    with pytest.raises(InvalidPmfError):
        DensePmf(21, np.full(2 ** 21, 2.0 ** -21))
    # a non-finite probability fails too; NaN once passed both checks
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidPmfError):
            DensePmf(1, [0.5, bad])
    # n is a nonnegative int, never a bool or a float
    for n in (True, 1.5, 1.0, -1):
        with pytest.raises(InvalidPmfError, match="dense n must be a nonnegative integer"):
            DensePmf(n, [0.5, 0.5])
        with pytest.raises(InvalidPmfError, match="dense n must be a nonnegative integer"):
            DensePmf.from_json_dict({"n": n, "table": [0.5, 0.5]})


def test_weighting_values(e2_dense):
    table = weighting_table(e2_dense)
    idx = points_to_indices(np.array([(1, 1), (-1, 1)], dtype=np.int8))
    assert table[idx] == pytest.approx([2.0, 0.5], abs=ATOL)
    assert table == pytest.approx(E2_EXPECTED["weighting"], abs=ATOL)
    u = uniform_dense(5)
    assert weighting_table(u)[17] == pytest.approx(1.0, abs=ATOL)
    # uniform average of the weighting is exactly 1 for any distribution
    assert weighting_table(e2_dense).mean() == pytest.approx(1.0, abs=ATOL)


def test_tv_distance(e2_dense):
    assert tv_distance(e2_dense, e2_dense) == 0.0
    assert tv_distance(e2_dense, uniform_dense(2)) == pytest.approx(0.25, abs=ATOL)
    point = DensePmf(2, [0.0, 0.0, 0.0, 1.0])
    assert tv_distance(point, uniform_dense(2)) == pytest.approx(0.75, abs=ATOL)
    with pytest.raises(DimensionMismatchError):
        tv_distance(e2_dense, uniform_dense(3))


def test_restrict_dist_e2(e2_dense):
    cond, w = restrict_dist(e2_dense, Restriction.of((0, 1)))
    assert w == pytest.approx(E2_EXPECTED["weight_x0_pos"], abs=ATOL)
    assert cond.table == pytest.approx(E2_EXPECTED["cond_given_x0_pos"], abs=ATOL)
    cond2, w2 = restrict_dist(e2_dense, Restriction.of((0, -1)))
    assert w2 == pytest.approx(0.25, abs=ATOL)
    assert cond2.table == pytest.approx([0.5, 0.5], abs=ATOL)
    # matches the loop oracle on a bigger random pmf
    rng = np.random.default_rng(5)
    table = rng.dirichlet(np.ones(32))
    d = DensePmf(5, table)
    s = Restriction.of((1, -1), (4, 1))
    cond3, w3 = restrict_dist(d, s)
    assert w3 == pytest.approx(O.subcube_weight(table, 5, dict(s.pairs)), abs=ATOL)
    assert cond3.table == pytest.approx(
        O.conditional_table(table, 5, dict(s.pairs)), abs=ATOL
    )
    assert subcube_weight(d, s) == pytest.approx(w3, abs=ATOL)


def test_restrict_uniform_is_uniform():
    cond, w = restrict_dist(uniform_dense(4), Restriction.of((0, 1), (3, -1)))
    assert w == pytest.approx(0.25, abs=ATOL)
    assert cond.table == pytest.approx([0.25] * 4, abs=ATOL)


def test_restrict_zero_weight_raises():
    d = DensePmf(2, [0.0, 0.0, 0.5, 0.5])
    with pytest.raises(ZeroWeightSubcubeError):
        restrict_dist(d, Restriction.of((1, -1)))


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_tree_to_dense_equals_routed_densities(case):
    # each leaf's density written over its subcube is, bit for bit, the
    # density every point of the cube routes to
    n, shape, _ = case
    t, _ = _shape_tree(n, shape)
    assert np.array_equal(tree_to_dense(t).table, t.eval_batch(all_points(n)))


def test_tree_to_dense_at_n0():
    assert tree_to_dense(DistTree(0, Leaf(1.0))).table.tolist() == [1.0]


def test_tree_dense_conversions(e2_tree, e2_dense):
    assert tv_distance(tree_to_dense(e2_tree), e2_dense) == pytest.approx(0.0, abs=ATOL)
    t = dense_to_tree(e2_dense)
    got = t.eval_batch(np.array([O.index_point(i, 2) for i in range(4)], dtype=np.int8))
    assert got == pytest.approx(E2_TABLE, abs=ATOL)
    assert tv_distance(tree_to_dense(t), e2_dense) <= 1e-12
    assert dense_to_tree(uniform_dense(4)).depth() == 0


def test_conversion_roundtrip_random():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        table = rng.dirichlet(np.ones(16))
        d = DensePmf(4, table)
        assert np.abs(tree_to_dense(dense_to_tree(d)).table - table).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_conversion_roundtrip_property(n, levels, seed):
    # levels > 0 draws cells from that many values, so equal halves merge
    # into shared leaves; 0 draws a Dirichlet table
    rng = np.random.default_rng(seed)
    if levels:
        table = rng.integers(0, levels + 1, 1 << n).astype(np.float64)
        table[rng.integers(1 << n)] += 1.0
    else:
        table = rng.dirichlet(np.ones(1 << n))
    d = DensePmf(n, table / table.sum())
    back = tree_to_dense(dense_to_tree(d))
    assert back.n == n
    assert np.abs(back.table - d.table).max() <= core.ATOL_ROUNDTRIP


# ---------------------------------------------------------------------------
# sample counts


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e9), st.floats(1e-9, 1e3))
def test_count_is_the_ceiling_of_its_quotient(num, den):
    assert core._count(num, den, "x") == math.ceil(num / den)


@pytest.mark.parametrize("num, den, int64, match", [
    (1.0, 0.0, False, "inf is not a finite count"),  # eps^2 underflowed to 0
    (math.inf, 2.0, False, "inf is not a finite count"),  # log(2 / 1e-320)
    (math.nan, 1.0, False, "nan is not a finite count"),
    (2.0 ** 63, 1.0, True, "9.22e\\+18 is not a finite int64 count"),
    (4.0, 1e-20, True, "4e\\+20 is not a finite int64 count"),
])
def test_count_refuses_what_no_draw_can_take(num, den, int64, match):
    with pytest.raises(ConfigError, match=match):
        core._count(num, den, "x", int64)


def test_count_past_int64_feeds_a_cap_unchanged():
    # a count that a budget cap cuts is returned whole, as ceil gives it
    assert core._count(4.0, 1e-20, "x") == math.ceil(4.0 / 1e-20)
    assert core._count(2.0 ** 63 - 1024, 1.0, "x", int64=True) == 2 ** 63 - 1024


# ---------------------------------------------------------------------------
# serialization


def test_tree_json_roundtrip(e2_tree, tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json_dumps(e2_tree.to_json_dict()) + "\n")
    assert DistTree.from_json_dict(load_json(p)) == e2_tree
    # byte-identical re-serialization
    text = p.read_text()
    p.write_text(json_dumps(DistTree.from_json_dict(load_json(p)).to_json_dict()) + "\n")
    assert p.read_text() == text


def test_dense_json_roundtrip(e2_dense, tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json_dumps(e2_dense.to_json_dict()) + "\n")
    got = DensePmf.from_json_dict(load_json(p))
    assert np.array_equal(got.table, e2_dense.table)


def test_json_dumps_is_lossless_and_stable():
    vals = [0.1, 1 / 3, 2.0 ** -52, 1.0, 37169.0]
    text = json_dumps({"v": vals, "flag": True, "none": None})
    import json

    back = json.loads(text)
    assert back["v"] == vals
    assert back["flag"] is True
    assert json_dumps(np.float64(0.1)) == json_dumps(0.1)
    assert json_dumps(np.bool_(True)) == "true"
    assert json_dumps(np.int64(7)) == "7"


def _per_element(v) -> str:
    return "[" + ", ".join(json_dumps(x) for x in v) + "]"


_JSON_SCALARS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(),
    st.floats(width=64).map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.floats()), st.lists(st.integers()), st.lists(_JSON_SCALARS)))
def test_json_dumps_flat_lists_match_per_element(v):
    # a list of exact floats is formatted in one call; it must read as the
    # floats do one by one, and any other list falls back to its scalars
    assert json_dumps(v) == _per_element(v)
    assert json_dumps({"table": v}) == '{"table": ' + _per_element(v) + "}"


def test_json_dumps_flat_list_edge_values():
    floats = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, -2.5, 0.0, float("inf")]
    assert json_dumps(floats) == (
        "[-0, 4.9406564584124654e-324, 1e+308, 0.10000000000000001, "
        "0.33333333333333331, -2.5, 0, inf]"
    )
    ints = [0, -1, 2**70, 7]
    assert json_dumps(ints) == "[0, -1, 1180591620717411303424, 7]"
    for mixed in ([1, 0.5], [True, 1], [0.5, np.float64(0.5)], [np.int64(3), 3], [[0.5], 0.5]):
        assert json_dumps(mixed) == _per_element(mixed)
    assert json_dumps([True, False]) == "[true, false]"
    assert json_dumps([]) == "[]"


# ---------------------------------------------------------------------------
# seeds


def test_derived_seeds_are_stable_and_distinct():
    a = derive_seed(123, "x", 0)
    assert a == derive_seed(123, "x", 0)
    assert a != derive_seed(123, "x", 1)
    assert a != derive_seed(124, "x", 0)
    r1 = stream(9, "s").integers(0, 1 << 30, size=4)
    r2 = stream(9, "s").integers(0, 1 << 30, size=4)
    assert np.array_equal(r1, r2)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


_BIT_GENERATORS = {
    "stream": lambda seed: stream(seed, "bits"),
    "MT19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "Philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
    "SFC64": lambda seed: np.random.Generator(np.random.SFC64(seed)),
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(0, 9)),
                 st.tuples(st.integers(0, 70), st.integers(0, 5))),
       st.sampled_from(sorted(_BIT_GENERATORS)), st.sampled_from([0, 1, 2, 3]),
       st.integers(0, 2**32 - 1))
@example((0, 4), "stream", 1, 0)  # N = 0
@example((5, 0), "stream", 1, 0)  # n = 0
@example((1, 1), "stream", 1, 0)  # N mod 4 = 1, 2, 3, 0
@example((3, 2), "stream", 1, 0)
@example((4097, 3), "stream", 1, 0)
@example((2, 2), "stream", 1, 0)
def test_random_bits_equal_int8_draw(shape, kind, pending, seed):
    # numpy's bounded int8 draw over [0, 2) is the top bit of each byte of
    # a next_uint32 word; if numpy ever changes that algorithm, this fails.
    # An odd count of uint32 draws first leaves a half-word pending in the
    # generators that buffer one, which both draws must consume alike.
    a, b = _BIT_GENERATORS[kind](seed), _BIT_GENERATORS[kind](seed)
    for g in (a, b):
        g.integers(0, 1 << 32, size=pending, dtype=np.uint32)
    want = a.integers(0, 2, size=shape, dtype=np.int8)
    got = core._random_bits(b, shape)
    assert got.dtype == np.int8 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# oracle: sampling and accounting


def test_point_mass_tree_sampling():
    # all mass on the all-plus point
    t = dense_to_tree(DensePmf(2, [0.0, 0.0, 0.0, 1.0]))
    o = DistOracle.sampler(t, seed=1)
    X = o.sample_batch(500)
    assert (X == 1).all()


def test_uniform_tree_sampling_marginals():
    o = DistOracle.sampler(DistTree(6, Leaf(2.0 ** -6)), seed=2)
    X = o.sample_batch(100_000)
    assert np.abs(X.mean(axis=0)).max() <= 0.02


def test_e2_sampling_frequency(e2_tree):
    o = DistOracle.sampler(e2_tree, seed=3)
    X = o.sample_batch(100_000)
    frac = float(((X[:, 0] == 1) & (X[:, 1] == 1)).mean())
    assert abs(frac - 0.5) <= 0.01


def test_dense_backing_sampling_matches_table(e2_dense):
    o = DistOracle.sampler(e2_dense, seed=4)
    X = o.sample_batch(200_000)
    emp = np.bincount(points_to_indices(X), minlength=4) / X.shape[0]
    assert np.abs(emp - e2_dense.table).max() <= 0.01


def test_dense_sampling_tolerates_tiny_negative_mass():
    # validation admits entries down to -1e-12; the sampler must not choke
    # on them, and such a point must never be drawn
    table = np.array([-1e-13, 0.25, 0.25, 0.5 + 1e-13])
    o = DistOracle.subcube(DensePmf(2, table), seed=7)
    assert not (points_to_indices(o.sample_batch(20_000)) == 0).any()
    X = o.subcube_sample_batch(Restriction.of((0, -1)), 20_000)
    assert (points_to_indices(X) == 2).all()
    # the two-point partner of index 2 across coordinate 1 is index 0
    assert (o.two_point_fraction_batch(X[:5], [1], 100) == 1.0).all()


def test_subcube_sampling_conditional(e2_tree):
    o = DistOracle.subcube(e2_tree, seed=5)
    X = o.subcube_sample_batch(Restriction.of((0, 1)), 100_000)
    assert (X[:, 0] == 1).all()
    assert abs(float((X[:, 1] == 1).mean()) - 2 / 3) <= 0.01
    Y = o.subcube_sample_batch(Restriction.of((1, -1)), 100_000)
    assert abs(float(Y[:, 0].mean()) - 1 / 3) <= 0.02


def test_subcube_sampling_fully_fixed(e2_dense):
    o = DistOracle.subcube(e2_dense, seed=6)
    X = o.subcube_sample_batch(Restriction.of((0, -1), (1, -1)), 50)
    assert (X == -1).all()


def test_stream_backing_sampling():
    def gen(k, rng):
        # uniform bits from the supplied generator
        return (2 * rng.integers(0, 2, size=(k, 3)) - 1).astype(np.int8)

    o = DistOracle.sampler(gen, seed=7, n=3)
    X = o.sample_batch(20_000)
    assert X.shape == (20_000, 3)
    assert np.abs(X.mean(axis=0)).max() <= 0.05


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 50), st.integers(0, 2**32 - 1),
       st.sampled_from([0, 3, 200, -128, 1.5, np.nan]), st.data())
def test_stream_backing_rejects_entries_off_pm1(n, k, seed, bad, data):
    # 200 once came back as -56 and 0 reached the pools unchecked
    r, c = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1))
    gen = pm1_stream(seed, n)

    def broken(k, rng):
        X = gen(k, rng).astype(np.float64)
        X[r, c] = bad
        return X

    with pytest.raises(ValueError, match="-1 or \\+1"):
        DistOracle.sampler(broken, seed=1, n=n).sample_batch(k)
    # a valid stream's rows come back as they were, as int8
    X = DistOracle.sampler(pm1_stream(seed, n), seed=1, n=n).sample_batch(k)
    assert X.dtype == np.int8 and np.array_equal(X, pm1_stream(seed, n)(k, None))


def test_mode_gating(e2_dense):
    plain = DistOracle.sampler(e2_dense, seed=1)
    with pytest.raises(OracleModeError):
        plain.subcube_sample_batch(Restriction.of((0, 1)), 2)
    x = np.array([(1, 1)], dtype=np.int8)
    with pytest.raises(OracleModeError):
        plain.pmf_batch(x)
    sub = DistOracle.subcube(e2_dense, seed=1)
    with pytest.raises(OracleModeError):
        sub.pmf_batch(x)
    exact = DistOracle.exact(e2_dense, seed=1)
    assert exact.pmf_batch(x) == pytest.approx([0.5], abs=ATOL)
    # exact grants the lower modes too
    exact.sample_batch(3)
    exact.subcube_sample_batch(Restriction.of((0, 1)), 3)


@pytest.mark.parametrize("mode", ["SUBCUBE_SAMPLE", "EXACT_PMF"])
def test_stream_backing_grants_sample_only(mode):
    def gen(k, rng):
        return (2 * rng.integers(0, 2, size=(k, 2)) - 1).astype(np.int8)

    with pytest.raises(OracleModeError, match="SAMPLE only"):
        DistOracle(gen, OracleMode[mode], seed=0, n=2)


def test_query_accounting(e2_dense):
    o = DistOracle.subcube(e2_dense, seed=9)
    o.sample_batch(10)
    o.sample_batch(1)
    o.subcube_sample_batch(Restriction.of((0, 1)), 5)
    assert o.query_count[OracleMode.SAMPLE] == 11
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 5


def test_sampling_determinism(e2_tree):
    a = DistOracle.sampler(e2_tree, seed=11).sample_batch(100)
    b = DistOracle.sampler(e2_tree, seed=11).sample_batch(100)
    assert np.array_equal(a, b)


def test_rejection_cap_on_zero_weight():
    d = DensePmf(2, [0.0, 0.0, 0.5, 0.5])

    def gen(k, rng):
        return DistOracle.sampler(d, seed=int(rng.integers(1 << 31))).sample_batch(k)

    o = DistOracle(gen, OracleMode.SAMPLE, seed=12, n=2)
    with pytest.raises(RejectionCapExceededError):
        core.reject_sample(o.sample_batch, Restriction.of((1, -1)), 4)


def test_two_point_fraction(e2_dense):
    o = DistOracle.subcube(e2_dense, seed=13)
    x = np.array([[1, 1]], dtype=np.int8)
    # p = D(+,+)/(D(+,+)+D(-,+)) = (1/2)/(5/8) = 0.8 along coordinate 0
    fr = o.two_point_fraction_batch(np.repeat(x, 2000, axis=0), [0], 50)
    assert abs(float(fr.mean()) - 0.8) <= 0.01
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 2000 * 50


def test_stream_backing_counts_filtered_draws():
    # every plain row the stream hands over is counted as SAMPLE, also the
    # rows that rejection discards on the way to conditioned points
    drawn = []

    def gen(k, rng):
        drawn.append(k)
        return (2 * rng.integers(0, 2, size=(k, 4)) - 1).astype(np.int8)

    o = DistOracle.sampler(gen, seed=15, n=4)
    io = InfluenceOracle(KIND_MONOTONE, o, 0.2, 0.2)
    est = io.estimate_conditional(1, Restriction.of((0, 1), (2, -1)))
    assert est.samples_used == bias_sample_count(0.2, 0.2)
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 0
    assert o.query_count[OracleMode.SAMPLE] == sum(drawn) > est.samples_used


# ---------------------------------------------------------------------------
# the two-point kernel against its flipped-copy reference


def _two_point_backing(kind, table):
    n = int(table.size).bit_length() - 1
    return DensePmf(n, table) if kind == "dense" else dense_to_tree(DensePmf(n, table))


def _assert_kernel_matches_reference(kind, table, s, coords, rows, k, seed, X=None):
    """Equal seeds: the kernel and tests/oracles.py give bit-equal
    fractions on X (by default `rows` draws from D_s), or both raise, and
    they leave equal query counts and the two generators at the same
    point of their streams."""
    new = DistOracle.subcube(_two_point_backing(kind, table), seed=seed)
    ref = DistOracle.subcube(_two_point_backing(kind, table), seed=seed)
    # "tree-routed": a tree too large for a table evaluates flipped copies
    limit = 0 if kind == "tree-routed" else core.MAX_DENSE_N
    with mock.patch.object(core, "MAX_DENSE_N", limit):
        if X is None:
            X = new.subcube_sample_batch(s, rows)
            assert np.array_equal(X, ref.subcube_sample_batch(s, rows))
        try:
            got = new.two_point_fraction_batch(X, coords, k)
        except ZeroWeightSubcubeError:
            got = None
        try:
            want = O.two_point_fractions(ref, X, coords, k)
        except ZeroWeightSubcubeError:
            want = None
    if want is None:
        assert got is None
    else:
        assert got.shape == (len(coords), X.shape[0])
        assert np.array_equal(got, want)
    assert new.query_count == ref.query_count
    assert new.rng.random() == ref.rng.random()
    return got


@st.composite
def two_point_cases(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.dirichlet(np.ones(1 << n))
    table[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    signs = {i: draw(st.sampled_from([-1, 1]))
             for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))}
    # one point of the subcube keeps positive mass, so it can be sampled
    keep = int(rng.integers(1 << n))
    for i, b in signs.items():
        keep = keep | (1 << i) if b > 0 else keep & ~(1 << i)
    table[keep] += 0.05
    table /= table.sum()
    tiny = int(rng.integers(1 << n))
    if draw(st.booleans()) and tiny != keep:  # validation admits it; the kernel clamps it
        table[tiny] = -1e-13
        table[keep] += 1.0 - table.sum()
    coords = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    kind = draw(st.sampled_from(["dense", "tree", "tree-routed"]))
    return (kind, table, Restriction.of(signs), coords, draw(st.integers(0, 40)),
            draw(st.integers(1, 300)), draw(st.integers(0, 2**31)))


@settings(max_examples=150, deadline=None)
@given(two_point_cases())
def test_two_point_kernel_matches_flipped_copy_reference(case):
    _assert_kernel_matches_reference(*case)


@pytest.mark.parametrize("kind", ["dense", "tree", "tree-routed"])
def test_two_point_kernel_zero_mass_pair_raises(kind):
    # x = (-1, -1) and its partner across coordinate 0 both have mass 0;
    # coordinate 1 comes first and draws before coordinate 0 raises
    table = np.array([0.0, 0.0, 0.5, 0.5])
    X = np.repeat(all_points(2), 3, axis=0)
    o = DistOracle.subcube(_two_point_backing(kind, table), seed=3)
    with mock.patch.object(core, "MAX_DENSE_N", 0 if kind == "tree-routed" else core.MAX_DENSE_N):
        with pytest.raises(ZeroWeightSubcubeError):
            o.two_point_fraction_batch(X, [1, 0], 10)
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 2 * 12 * 10
    assert _assert_kernel_matches_reference(kind, table, None, [1, 0], 0, 10, 3, X) is None


@pytest.mark.parametrize("kind", ["dense", "tree", "tree-routed"])
def test_two_point_kernel_clamps_tiny_negative_mass(kind):
    table = np.array([-1e-13, 0.25, 0.25, 0.5 + 1e-13])
    for s in (Restriction.empty(), Restriction.of((0, 1)), Restriction.of((1, -1))):
        _assert_kernel_matches_reference(kind, table, s, [0, 1, 1, 0], 25, 60, 5)
    # index 1's partner across coordinate 0 is the clamped index 0: p = 1
    o = DistOracle.subcube(_two_point_backing(kind, table), seed=5)
    X = np.repeat(all_points(2)[[1]], 4, axis=0)
    assert (o.two_point_fraction_batch(X, [0], 50) == 1.0).all()


def test_dense_conditional_draws_match_mask_path():
    # the subcube's cells and points come from slice_cube; the old path
    # masked all 2^n points, and both list them in the same order, so the
    # weight and the draws are bit-equal at a fixed seed
    n, seed = 7, 23
    table = np.random.default_rng(4).dirichlet(np.ones(1 << n))
    table[:5] = 0.0
    table /= table.sum()
    d = DensePmf(n, table)
    for s in (Restriction.of((0, 1)), Restriction.of((6, -1), (2, 1)),
              Restriction.of((3, 1), (1, -1), (5, 1)), Restriction.of(*[(i, -1) for i in range(n)])):
        pts = all_points(n)
        mask = s.consistent_mask(pts)
        sub_idx = np.flatnonzero(mask)
        w_mask = float(table[mask].sum())
        sliced = core.slice_cube(table, s).reshape(-1)
        assert np.array_equal(sliced, table[sub_idx])
        assert np.array_equal(core.slice_cube(pts, s).reshape(sub_idx.size, n), pts[sub_idx])
        assert float(sliced.sum()) == w_mask
        if w_mask == 0.0:
            with pytest.raises(ZeroWeightSubcubeError):
                DistOracle.subcube(d, seed=seed).subcube_sample_batch(s, 10)
            continue
        rng = stream(seed, "oracle")
        want = pts[sub_idx[rng.choice(sub_idx.size, size=3000, p=table[sub_idx] / w_mask)]]
        got = DistOracle.subcube(d, seed=seed).subcube_sample_batch(s, 3000)
        assert np.array_equal(got, want)


@st.composite
def cube_restrictions(draw):
    """(n, s): n in 0..6 and s fixing 0..n coordinates, the full cube too."""
    n = draw(st.integers(0, 6))
    coords = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return n, Restriction.of(*[(c, draw(st.sampled_from([-1, 1]))) for c in coords])


@settings(max_examples=200, deadline=None)
@given(case=cube_restrictions())
@example(case=(0, Restriction.empty()))
@example(case=(3, Restriction.of((0, 1), (1, -1), (2, 1))))
def test_slice_cube_lists_subcube_rows_by_index(case):
    # a table with a trailing axis keeps it; the cells come by increasing
    # index, and a full restriction still gives an array view, not a scalar
    n, s = case
    m = n - len(s)
    want = [k for k in range(1 << n) if k & s.mask == s.bits]
    pts = all_points(n)
    got = core.slice_cube(pts, s)
    assert got.shape == (2,) * m + (n,)
    assert np.array_equal(got.reshape(1 << m, n), pts[want])
    idx = np.arange(1 << n)
    flat = core.slice_cube(idx, s)
    assert isinstance(flat, np.ndarray) and flat.shape == (2,) * m
    assert np.shares_memory(flat, idx)
    assert flat.reshape(-1).tolist() == want


# ---------------------------------------------------------------------------
# dense draws: guide-table inversion against rng.choice

CHUNK = core._DRAW_CHUNK


@st.composite
def inversion_pmfs(draw):
    """p over 1..2^12 cells: empty runs at either end and inside, cells
    that move the cumulative sum by about one ulp, neighbours one ulp
    apart, or a single positive cell."""
    size = draw(st.integers(1, 1 << 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = np.zeros(size)
        w[int(rng.integers(size))] = draw(st.sampled_from([1.0, 1e-300, 3.0]))
        return w / w.sum()
    w = rng.random(size) if draw(st.booleans()) else rng.integers(1, 4, size).astype(np.float64)
    w[:draw(st.integers(0, size - 1))] = 0.0
    w[size - draw(st.integers(0, size - 1)):] = 0.0
    w[rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    for j in rng.integers(size, size=draw(st.integers(0, 8))):
        w[j] = np.spacing(w[:j].sum())
    for j in rng.integers(size - 1, size=draw(st.integers(0, 8))) if size > 1 else ():
        w[j + 1] = np.nextafter(w[j], np.inf)
    if not w.sum() > 0.0:
        w[int(rng.integers(size))] = 1.0
    return w / w.sum()


@settings(max_examples=100, deadline=None)
@given(inversion_pmfs(), st.integers(0, 2**63 - 1),
       st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]),
                 st.integers(0, 3 * CHUNK)))
def test_inverse_cdf_matches_rng_choice(p, seed, k):
    ref, mine = np.random.default_rng(seed), np.random.default_rng(seed)
    want = ref.choice(p.size, k, p=p)
    got = core._inverse_cdf(mine, core._cdf_guide(p), k, np.arange(p.size)[:, None])[:, 0]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # both generators stand at the same position of the stream
    assert mine.random() == ref.random()


class _FixedUniforms:
    """Stands in for a Generator: random(m) hands out the next m values of
    a fixed array, so the lookup can be fed chosen uniforms."""

    def __init__(self, u):
        self.u, self.at = u, 0

    def random(self, m):
        got = self.u[self.at:self.at + m]
        self.at += m
        return got


@settings(max_examples=60, deadline=None)
@given(inversion_pmfs())
def test_inverse_cdf_lookup_on_adversarial_uniforms(p):
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # b / G for every power of two G <= 2^16, the guide's bucket edges
    edges = np.arange(1 << 16) / (1 << 16)
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = core._inverse_cdf(_FixedUniforms(u), core._cdf_guide(p), u.size,
                            np.arange(p.size)[:, None])[:, 0]
    assert np.array_equal(got, cdf.searchsorted(u, "right"))


def test_inverse_cdf_memory_bound():
    # 2M draws over 2^10 cells: the 16 MB result plus chunk-sized
    # temporaries (about 18 MB); rng.choice peaks near 32 MB, and a lookup
    # over all k uniforms at once near 57 MB
    p = np.random.default_rng(3).dirichlet(np.ones(1 << 10))
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        core._inverse_cdf(rng, core._cdf_guide(p), 2_000_000, np.arange(p.size)[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 << 20


_SIZES = st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]),
                   st.integers(0, 2 * CHUNK + 1))


@st.composite
def split_cases(draw):
    """A dense pmf over n <= 8 with empty cells, a restriction of weight
    > 0 (empty half the time), and two draw sizes about the chunk edges."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(1 << n)
    w[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    signs = {i: draw(st.sampled_from([-1, 1]))
             for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))}
    s = Restriction.of(signs) if draw(st.booleans()) else Restriction.empty()
    w[np.flatnonzero((np.arange(1 << n) & s.mask) == s.bits)[0]] += 1.0
    return DensePmf(n, w / w.sum()), s, draw(_SIZES), draw(_SIZES), draw(st.integers(0, 2**31))


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_dense_draws_are_split_invariant(case):
    # one double per draw: a batch of a + b is a batch of a then one of b
    d, s, a, b, seed = case
    whole, parts = DistOracle.subcube(d, seed=seed), DistOracle.subcube(d, seed=seed)
    if len(s):
        got = [parts.subcube_sample_batch(s, a), parts.subcube_sample_batch(s, b)]
        want = whole.subcube_sample_batch(s, a + b)
    else:
        got = [parts.sample_batch(a), parts.sample_batch(b)]
        want = whole.sample_batch(a + b)
    assert np.array_equal(np.concatenate(got), want) and want.shape == (a + b, d.n)
    assert parts.query_count == whole.query_count
    assert parts.rng.random() == whole.rng.random()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["dense", "tree", "stream"]), st.integers(0, 3 * CHUNK),
       st.integers(1, 2 * CHUNK), st.integers(0, 2**31))
def test_sample_slices_equal_one_batch(kind, k, rows, seed):
    d = DensePmf(5, np.random.default_rng(seed).dirichlet(np.ones(32)))
    backing = {"dense": d, "tree": dense_to_tree(d), "stream": pm1_stream(seed, 5)}[kind]
    sliced, whole = (DistOracle.sampler(backing, seed=seed, n=5) for _ in range(2))
    if kind == "stream":  # each oracle gets a stream of its own
        whole.backing = pm1_stream(seed, 5)
    got = list(sliced.sample_slices(k, rows))
    assert all(0 < X.shape[0] <= rows for X in got)
    want = whole.sample_batch(k)
    assert np.array_equal(np.concatenate(got) if got else want[:0], want)
    assert sliced.query_count == whole.query_count
    assert sliced.rng.random() == whole.rng.random()


# ---------------------------------------------------------------------------
# the conditional sampler's law


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # integer weights: every positive cell holds over 1/(10 * 2^n) of the
    # mass, so a 6-standard-error band is not left by a rare draw
    weights = rng.integers(1, 10, size=1 << n).astype(np.float64)
    weights[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    signs = {i: draw(st.sampled_from([-1, 1]))
             for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))}
    keep = int(rng.integers(1 << n))  # one point of the subcube keeps mass
    for i, b in signs.items():
        keep = keep | (1 << i) if b > 0 else keep & ~(1 << i)
    weights[keep] += 1.0
    d = DensePmf(n, weights / weights.sum())
    backing = d if draw(st.sampled_from(["dense", "tree"])) == "dense" else dense_to_tree(d)
    return d, backing, Restriction.of(signs), draw(st.integers(0, 2**31))


@settings(max_examples=150, deadline=None)
@given(sampler_cases())
def test_subcube_sampler_follows_conditional_pmf(case):
    d, backing, s, seed = case
    draws = 20_000
    X = DistOracle.subcube(backing, seed=seed).subcube_sample_batch(s, draws)
    assert X.shape == (draws, d.n)
    assert s.consistent_mask(X).all()
    assert (d.table[points_to_indices(X)] > 0.0).all()
    # the conditional pmf lists the free coordinates in increasing order
    cond, _ = restrict_dist(d, s)
    free = s.free_coords(d.n)
    freq = np.bincount(points_to_indices(X[:, free]), minlength=1 << len(free)) / draws
    se = np.sqrt(cond.table * (1.0 - cond.table) / draws)
    assert (np.abs(freq - cond.table) <= 6.0 * se).all()
