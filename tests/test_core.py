"""Representations, conversions, serialization, and the sampling oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from conftest import E2_TABLE, E2_EXPECTED
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
    eval_pmf,
    index_to_point,
    json_dumps,
    load_dense,
    load_tree,
    point_index,
    points_to_indices,
    restrict_dist,
    save_dense,
    save_tree,
    stream,
    subcube_weight,
    tree_to_dense,
    tv_distance,
    uniform_dense,
    uniform_tree,
    weighting,
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
    assert all(s.matches(x) for x in X[mask])
    Y = s.apply(X)
    assert (Y[:, 0] == 1).all() and (Y[:, 2] == -1).all()
    assert np.array_equal(Y[:, 1], X[:, 1])


# ---------------------------------------------------------------------------
# trees and dense pmfs


def test_uniform_tree_eval():
    t = uniform_tree(5)
    assert t.depth() == 0
    for x in all_points(5)[:3]:
        assert eval_pmf(t, x) == pytest.approx(2.0 ** -5, abs=ATOL)


def test_e2_tree_eval(e2_tree):
    assert eval_pmf(e2_tree, (1, 1)) == pytest.approx(0.5, abs=ATOL)
    assert eval_pmf(e2_tree, (-1, -1)) == pytest.approx(0.125, abs=ATOL)
    got = [eval_pmf(e2_tree, O.index_point(i, 2)) for i in range(4)]
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
    assert weighting(e2_dense, (1, 1)) == pytest.approx(2.0, abs=ATOL)
    assert weighting(e2_dense, (-1, 1)) == pytest.approx(0.5, abs=ATOL)
    assert weighting_table(e2_dense) == pytest.approx(E2_EXPECTED["weighting"], abs=ATOL)
    u = uniform_dense(5)
    assert weighting(u, all_points(5)[17]) == pytest.approx(1.0, abs=ATOL)
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
    got = [eval_pmf(t, O.index_point(i, 2)) for i in range(4)]
    assert got == pytest.approx(E2_TABLE, abs=ATOL)
    assert tv_distance(tree_to_dense(t), e2_dense) <= 1e-12
    assert dense_to_tree(uniform_dense(4)).depth() == 0


def test_conversion_roundtrip_random():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        table = rng.dirichlet(np.ones(16))
        d = DensePmf(4, table)
        assert np.abs(tree_to_dense(dense_to_tree(d)).table - table).max() <= 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_tree_json_roundtrip(e2_tree, tmp_path):
    p = tmp_path / "t.json"
    save_tree(p, e2_tree)
    assert load_tree(p) == e2_tree
    # byte-identical re-serialization
    text = p.read_text()
    save_tree(p, load_tree(p))
    assert p.read_text() == text


def test_dense_json_roundtrip(e2_dense, tmp_path):
    p = tmp_path / "d.json"
    save_dense(p, e2_dense)
    got = load_dense(p)
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
    assert (o.two_point_fraction_batch(X[:5], 1, 100) == 1.0).all()


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
    o2 = o.split(1)
    o2.sample_batch(7)
    merged = DistOracle.merge_query_counts([o, o2])
    assert merged[OracleMode.SAMPLE] == 18


def test_split_streams_differ(e2_dense):
    o = DistOracle.sampler(e2_dense, seed=10)
    a = o.split(0).sample_batch(50)
    b = o.split(1).sample_batch(50)
    assert not np.array_equal(a, b)
    again = DistOracle.sampler(e2_dense, seed=10).split(0).sample_batch(50)
    assert np.array_equal(a, again)


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
    fr = o.two_point_fraction_batch(np.repeat(x, 2000, axis=0), 0, 50)
    assert abs(float(fr.mean()) - 0.8) <= 0.01
    assert o.query_count[OracleMode.SUBCUBE_SAMPLE] == 2000 * 50


def test_two_point_fraction_stream_backing(e2_dense):
    # literal rejection over a stream backing agrees in expectation
    def gen(k, rng):
        idx = rng.choice(4, size=k, p=np.asarray(E2_TABLE))
        return (2 * ((idx[:, None] >> np.arange(2)) & 1) - 1).astype(np.int8)

    o = DistOracle.subcube(gen, seed=14, n=2)
    x = np.array([[1, 1]], dtype=np.int8)
    fr = o.two_point_fraction_batch(np.repeat(x, 300, axis=0), 0, 40)
    assert abs(float(fr.mean()) - 0.8) <= 0.05
