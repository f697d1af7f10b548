"""Representations, conversions, serialization, and the sampling oracle."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from conftest import E2_TABLE, E2_EXPECTED
from dtdist import core
from dtdist import (
    DensePmf,
    DimensionMismatchError,
    DistOracle,
    DistTree,
    Internal,
    InvalidPmfError,
    InvalidTreeError,
    Leaf,
    OracleMode,
    OracleModeError,
    RejectionCapExceededError,
    Restriction,
    ZeroWeightSubcubeError,
    all_points,
    dense_to_tree,
    derive_seed,
    index_to_point,
    json_dumps,
    load_json,
    point_index,
    points_to_indices,
    restrict_dist,
    save_json,
    stream,
    subcube_weight,
    tree_to_dense,
    tv_distance,
    uniform_dense,
    uniform_tree,
    weighting_table,
)

ATOL = 1e-9


# ---------------------------------------------------------------------------
# points and restrictions


def test_point_index_roundtrip():
    n = 6
    for idx in range(1 << n):
        x = index_to_point(idx, n)
        assert point_index(x) == idx
        assert tuple(x) == O.index_point(idx, n)


def test_all_points_order_and_indices():
    pts = all_points(4)
    assert pts.shape == (16, 4)
    assert np.array_equal(points_to_indices(pts), np.arange(16))


def test_restriction_construction_and_key():
    s = Restriction.of((3, -1), (1, 1))
    assert s.key() == ((1, 1), (3, -1))
    assert s.coords() == (3, 1)
    assert s.fixed() == {3: -1, 1: 1}
    assert len(s) == 2
    assert Restriction.of({3: -1, 1: 1}).key() == s.key()
    assert s.extended(0, 1).key() == ((0, 1), (1, 1), (3, -1))
    assert s.free_coords(5) == [0, 2, 4]


def test_restriction_rejects_bad_input():
    with pytest.raises(ValueError):
        Restriction.of((1, 1), (1, -1))
    with pytest.raises(ValueError):
        Restriction.of((0, 2))
    with pytest.raises(ValueError):
        Restriction.of((-2, 1))


def test_restriction_pickle_keeps_key():
    # the sorted key is an attribute, not a field: equality, hash and repr
    # see pairs alone, and a restored restriction carries the same key
    s = Restriction.of((3, -1), (1, 1))
    t = pickle.loads(pickle.dumps(s))
    assert t == s and hash(t) == hash(s)
    assert t.key() == s.key() == ((1, 1), (3, -1))
    assert repr(t) == "Restriction(pairs=((3, -1), (1, 1)))"


def test_restriction_parse_str_roundtrip():
    s = Restriction.parse("0=+1,3=-1")
    assert s.fixed() == {0: 1, 3: -1}
    assert Restriction.parse(str(s)).key() == s.key()
    assert Restriction.parse("").pairs == ()
    assert str(Restriction.empty()) == "(empty)"


def test_restriction_mask_and_apply():
    s = Restriction.of((0, 1), (2, -1))
    X = all_points(3)
    mask = s.consistent_mask(X)
    assert mask.sum() == 2
    assert (X[mask][:, 0] == 1).all() and (X[mask][:, 2] == -1).all()


# ---------------------------------------------------------------------------
# trees and dense pmfs


def test_uniform_tree_eval():
    t = uniform_tree(5)
    assert t.depth() == 0
    for x in all_points(5)[:3]:
        assert t.eval(x) == pytest.approx(2.0 ** -5, abs=ATOL)


def test_e2_tree_eval(e2_tree):
    assert e2_tree.eval((1, 1)) == pytest.approx(0.5, abs=ATOL)
    assert e2_tree.eval((-1, -1)) == pytest.approx(0.125, abs=ATOL)
    got = [e2_tree.eval(O.index_point(i, 2)) for i in range(4)]
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


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_route_matches_object_walk(case):
    n, shape, X = case
    # leaf weights w become densities with leaf masses w / total
    def weights(node):
        return node[2] if node[0] == "leaf" else weights(node[2]) + weights(node[3])

    total = weights(shape)
    preorder = []  # node objects in preorder; a node's position is its id

    def build(node):
        j = len(preorder)
        preorder.append(None)
        if node[0] == "leaf":
            _, depth, w = node
            preorder[j] = Leaf(w / (total * 2.0 ** (n - depth)))
        else:
            lo, hi = build(node[2]), build(node[3])
            preorder[j] = Internal(node[1], lo, hi)
        return preorder[j]

    t = DistTree(n, build(shape))
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


def test_route_dimension_mismatch(e2_tree):
    with pytest.raises(DimensionMismatchError):
        e2_tree.leaf_index_batch(np.ones((2, 3), dtype=np.int8))


def test_tree_validation_errors():
    with pytest.raises(InvalidTreeError):
        DistTree(2, Internal(0, Leaf(0.25), Internal(0, Leaf(0.25), Leaf(0.25))))
    with pytest.raises(InvalidTreeError):
        DistTree(2, Internal(2, Leaf(0.25), Leaf(0.25)))
    with pytest.raises(InvalidTreeError):
        DistTree(1, Internal(0, Leaf(-0.5), Leaf(1.5)))
    with pytest.raises(InvalidTreeError):
        DistTree(1, Leaf(0.3))  # masses sum to 0.6


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


def test_weighting_values(e2_dense):
    table = weighting_table(e2_dense)
    assert table[point_index((1, 1))] == pytest.approx(2.0, abs=ATOL)
    assert table[point_index((-1, 1))] == pytest.approx(0.5, abs=ATOL)
    assert table == pytest.approx(E2_EXPECTED["weighting"], abs=ATOL)
    u = uniform_dense(5)
    assert weighting_table(u)[point_index(all_points(5)[17])] == pytest.approx(1.0, abs=ATOL)
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
    assert w3 == pytest.approx(O.subcube_weight(table, 5, s.fixed()), abs=ATOL)
    assert cond3.table == pytest.approx(
        O.conditional_table(table, 5, s.fixed()), abs=ATOL
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


def test_tree_dense_conversions(e2_tree, e2_dense):
    assert tv_distance(tree_to_dense(e2_tree), e2_dense) == pytest.approx(0.0, abs=ATOL)
    t = dense_to_tree(e2_dense)
    got = [t.eval(O.index_point(i, 2)) for i in range(4)]
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
# serialization


def test_tree_json_roundtrip(e2_tree, tmp_path):
    p = tmp_path / "t.json"
    save_json(p, e2_tree.to_json_dict())
    assert DistTree.from_json_dict(load_json(p)) == e2_tree
    # byte-identical re-serialization
    text = p.read_text()
    save_json(p, DistTree.from_json_dict(load_json(p)).to_json_dict())
    assert p.read_text() == text


def test_dense_json_roundtrip(e2_dense, tmp_path):
    p = tmp_path / "d.json"
    save_json(p, e2_dense.to_json_dict())
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


# ---------------------------------------------------------------------------
# oracle: sampling and accounting


def test_point_mass_tree_sampling():
    # all mass on the all-plus point
    t = dense_to_tree(DensePmf(2, [0.0, 0.0, 0.0, 1.0]))
    o = DistOracle.sampler(t, seed=1)
    X = o.sample_batch(500)
    assert (X == 1).all()


def test_uniform_tree_sampling_marginals():
    o = DistOracle.sampler(uniform_tree(6), seed=2)
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
    # rejection-based conditioning works over a stream backing
    o2 = DistOracle.subcube(gen, seed=8, n=3)
    Y = o2.subcube_sample_batch(Restriction.of((2, 1)), 2_000)
    assert (Y[:, 2] == 1).all()


def test_mode_gating(e2_dense):
    plain = DistOracle.sampler(e2_dense, seed=1)
    with pytest.raises(OracleModeError):
        plain.subcube_sample_batch(Restriction.of((0, 1)), 2)
    with pytest.raises(OracleModeError):
        plain.pmf((1, 1))
    sub = DistOracle.subcube(e2_dense, seed=1)
    with pytest.raises(OracleModeError):
        sub.pmf((1, 1))
    exact = DistOracle.exact(e2_dense, seed=1)
    assert exact.pmf((1, 1)) == pytest.approx(0.5, abs=ATOL)
    # exact grants the lower modes too
    exact.sample_batch(3)
    exact.subcube_sample_batch(Restriction.of((0, 1)), 3)


def test_exact_mode_requires_explicit_dist():
    def gen(k, rng):
        return (2 * rng.integers(0, 2, size=(k, 2)) - 1).astype(np.int8)

    with pytest.raises(OracleModeError):
        DistOracle(gen, OracleMode.EXACT_PMF, seed=0, n=2)


def test_query_accounting(e2_dense):
    o = DistOracle.subcube(e2_dense, seed=9)
    o.sample_batch(10)
    o.sample()
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

    o = DistOracle.subcube(gen, seed=12, n=2)
    with pytest.raises(RejectionCapExceededError):
        o.subcube_sample_batch(Restriction.of((1, -1)), 4)


def test_two_point_fraction(e2_dense):
    o = DistOracle.subcube(e2_dense, seed=13)
    x = np.array([[1, 1]], dtype=np.int8)
    # p = D(+,+)/(D(+,+)+D(-,+)) = (1/2)/(5/8) = 0.8 along coordinate 0
    fr = o.two_point_fraction_batch(np.repeat(x, 2000, axis=0), [0], 50)
    assert abs(float(fr.mean()) - 0.8) <= 0.01
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 2000 * 50


def test_two_point_fraction_stream_backing(e2_dense):
    # literal rejection over a stream backing agrees in expectation
    def gen(k, rng):
        idx = rng.choice(4, size=k, p=np.asarray(E2_TABLE))
        return (2 * ((idx[:, None] >> np.arange(2)) & 1) - 1).astype(np.int8)

    o = DistOracle.subcube(gen, seed=14, n=2)
    x = np.array([[1, 1]], dtype=np.int8)
    fr = o.two_point_fraction_batch(np.repeat(x, 300, axis=0), [0], 40)
    assert abs(float(fr.mean()) - 0.8) <= 0.05


def test_stream_backing_counts_filtered_draws():
    # every plain row the stream hands over is counted as SAMPLE, also the
    # rows that rejection discards on the way to conditioned points
    drawn = []

    def gen(k, rng):
        drawn.append(k)
        return (2 * rng.integers(0, 2, size=(k, 4)) - 1).astype(np.int8)

    o = DistOracle.subcube(gen, seed=15, n=4)
    X = o.subcube_sample_batch(Restriction.of((0, 1), (2, -1)), 10)
    assert (X[:, 0] == 1).all() and (X[:, 2] == -1).all()
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 10
    assert o.query_count[OracleMode.SAMPLE] == sum(drawn) > 10
    before = sum(drawn)
    fr = o.two_point_fraction_batch(X[:3], [1], 5)
    assert fr.shape == (1, 3)
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 10 + 3 * 5
    assert o.query_count[OracleMode.SAMPLE] == sum(drawn) > before + 3 * 5


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
    # the subcube's indices come from slicing an index cube like the table;
    # the old path masked all 2^n points, and both list them in the same
    # order, so the weight and the draws are bit-equal at a fixed seed
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
        sliced = core.slice_cube(d, s, np.arange(1 << n)).reshape(-1)
        assert np.array_equal(sliced, sub_idx)
        assert float(table[sliced].sum()) == w_mask
        if w_mask == 0.0:
            with pytest.raises(ZeroWeightSubcubeError):
                DistOracle.subcube(d, seed=seed).subcube_sample_batch(s, 10)
            continue
        rng = stream(seed, "oracle")
        want = pts[sub_idx[rng.choice(sub_idx.size, size=3000, p=table[sub_idx] / w_mask)]]
        got = DistOracle.subcube(d, seed=seed).subcube_sample_batch(s, 3000)
        assert np.array_equal(got, want)
