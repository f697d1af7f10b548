"""Independent brute-force oracles used to compute expected test values.

Everything here is written from first principles with plain Python loops
and bit arithmetic, deliberately avoiding the library's vectorized code
paths, so agreement between the two is meaningful.  The exceptions are
tree_erm, the row-mask search exhaustive_tree_learn used before it
moved to a count cube, two_point_fractions, the flipped-copy two-point
kernel used before it moved to point indices, the tree walks
tree_leaves, tree_depth and conditional_masses, which DistTree ran
before its validation walk recorded the depth and one flattening walk
the leaves, and draw_tree and split_rows, the tree sampler and the lift's
split as they ran on point rows, pool_one_batch, the pool's growth
before dense draws came in slices, and build_dt_by_restriction, the tree
search before it ran on (mask, bits) ints; each is kept as the reference
for its rewrite.  Index convention: bit i of a dense index is 1 exactly when
coordinate i equals +1.
"""

import math

import numpy as np


def index_point(idx, n):
    """Dense index -> tuple of +-1 coordinates."""
    return tuple(1 if (idx >> i) & 1 else -1 for i in range(n))


def point_idx(x):
    idx = 0
    for i, b in enumerate(x):
        if b > 0:
            idx |= 1 << i
    return idx


def tree_pmf_table(node, n):
    """Evaluate a tree encoded as ("leaf", density) / ("node", var, lo, hi)
    at every point by literal path following."""
    out = []
    for idx in range(1 << n):
        x = index_point(idx, n)
        cur = node
        while cur[0] == "node":
            _, var, lo, hi = cur
            cur = hi if x[var] > 0 else lo
        out.append(cur[1])
    return out


def weighting_values(table):
    m = len(table)
    return [m * v for v in table]


def tv(table_a, table_b):
    return 0.5 * sum(abs(a - b) for a, b in zip(table_a, table_b))


def subcube_weight(table, n, fixed):
    total = 0.0
    for idx in range(1 << n):
        if all(((idx >> i) & 1) == (1 if b > 0 else 0) for i, b in fixed.items()):
            total += table[idx]
    return total


def conditional_table(table, n, fixed):
    """Conditional pmf over the free coordinates in increasing order."""
    free = [i for i in range(n) if i not in fixed]
    w = subcube_weight(table, n, fixed)
    out = [0.0] * (1 << len(free))
    for idx in range(1 << n):
        if not all(((idx >> i) & 1) == (1 if b > 0 else 0) for i, b in fixed.items()):
            continue
        sub = 0
        for a, i in enumerate(free):
            if (idx >> i) & 1:
                sub |= 1 << a
        out[sub] = table[idx] / w
    return out


def influence(f_values, n, i, fixed=None):
    """Inf_i of the restricted weighting: overwrite the fixed coordinates,
    average half the flip difference over the whole cube."""
    fixed = fixed or {}
    total = 0.0
    for idx in range(1 << n):
        y = idx
        for j, b in fixed.items():
            y = (y | (1 << j)) if b > 0 else (y & ~(1 << j))
        total += abs(f_values[y] - f_values[y ^ (1 << i)])
    return 0.5 * total / (1 << n)


def total_influence(f_values, n, fixed=None):
    fixed = fixed or {}
    return sum(influence(f_values, n, i, fixed) for i in range(n) if i not in fixed)


def conditional_bias(table, n, i, fixed):
    """E[x_i] under the conditional distribution on the subcube."""
    w = subcube_weight(table, n, fixed)
    acc = 0.0
    for idx in range(1 << n):
        if all(((idx >> j) & 1) == (1 if b > 0 else 0) for j, b in fixed.items()):
            acc += table[idx] * (1 if (idx >> i) & 1 else -1)
    return acc / w


def infest_expectation(table, n, i):
    """E_{x~D}|2 p(x) - 1| with p(x) = D(x)/(D(x)+D(x^flip i))."""
    acc = 0.0
    for idx in range(1 << n):
        a, b = table[idx], table[idx ^ (1 << i)]
        if a + b > 0:
            acc += table[idx] * abs(a - b) / (a + b)
    return acc


def l1_variance(f_values):
    """E|f(X) - f(Y)| for X, Y independent uniform, by double loop."""
    m = len(f_values)
    acc = 0.0
    for a in f_values:
        for b in f_values:
            acc += abs(a - b)
    return acc / (m * m)


def mean_abs_dev(f_values):
    mu = sum(f_values) / len(f_values)
    return sum(abs(v - mu) for v in f_values) / len(f_values)


def sensitivity(f_values, n):
    best = 0
    for idx in range(1 << n):
        cnt = sum(
            1 for i in range(n) if f_values[idx] != f_values[idx ^ (1 << i)]
        )
        best = max(best, cnt)
    return best


def optimal_objective(table, n, d, tau):
    """Minimum over depth-<=d trees with all splits tau-influential of the
    expected leaf total influence; plain recursion, no memo, no library."""
    f = weighting_values(table)

    def rec(fixed, depth):
        best = total_influence(f, n, fixed)
        if depth > 0:
            for i in range(n):
                if i in fixed or influence(f, n, i, fixed) < tau:
                    continue
                lo = rec({**fixed, i: -1}, depth - 1)
                hi = rec({**fixed, i: 1}, depth - 1)
                best = min(best, 0.5 * (lo + hi))
        return best

    return rec({}, d)


def tree_depth_count(n, k):
    """Number of decision-tree syntax trees of depth <= k on n variables,
    counting the two constants at every level."""
    if k == 0:
        return 2
    return 2 + n * tree_depth_count(n - 1, k - 1) ** 2


def required_m(m, d, eps, delta):
    """Sample size formula, written out independently."""
    return math.ceil(8.0 * (d + m + math.log(2.0 ** (d + 1) / delta)) * 2.0 ** d / eps)


def tree_erm(X, y, k):
    """(minimum risk, encoding) of the depth-<=k ERM tree, by the plain
    row-mask search: every node rescans the whole sample under its mask.
    Encodings and tie-breaking follow exhaustive_tree_learn: a leaf is
    (0, label), a split (1, var, lo, hi), and the least tuple wins."""
    X = np.asarray(X)
    y = np.asarray(y)
    n, N = X.shape[1], X.shape[0]
    memo = {}

    def rec(key, mask, depth):
        got = memo.get((key, depth))
        if got is not None:
            return got
        ones = int(y[mask].sum())
        zeros = int(mask.sum()) - ones
        best = (ones, (0, 0)) if ones <= zeros else (zeros, (0, 1))
        if depth > 0:
            taken = {i for i, _ in key}
            for v in range(n):
                if v in taken:
                    continue
                mlo = mask & (X[:, v] < 0)
                mhi = mask & (X[:, v] > 0)
                elo, tlo = rec(tuple(sorted(key + ((v, -1),))), mlo, depth - 1)
                ehi, thi = rec(tuple(sorted(key + ((v, 1),))), mhi, depth - 1)
                cand = (elo + ehi, (1, v, tlo, thi))
                if cand < best:
                    best = cand
        memo[(key, depth)] = best
        return best

    return rec((), np.ones(N, dtype=bool), k)


def encoding_table(enc, n):
    """Truth table of a tree encoding by literal path following."""
    out = []
    for idx in range(1 << n):
        x = index_point(idx, n)
        cur = enc
        while cur[0] == 1:
            _, var, lo, hi = cur
            cur = hi if x[var] > 0 else lo
        out.append(cur[1])
    return out


def two_point_fractions(oracle, X, coords, k):
    """DistOracle.two_point_fraction_batch on a tree or dense backing, as
    it ran before it moved to point indices: for each coordinate in turn,
    count rows*k subcube queries, evaluate the backing on X and on a
    flipped copy of X, clamp both at 0, and draw the binomial counts from
    the oracle's own generator.  Returns a (len(coords), rows) array."""
    from dtdist import OracleMode, ZeroWeightSubcubeError

    out = np.empty((len(coords), X.shape[0]), dtype=np.float64)
    for pos, i in enumerate(coords):
        oracle.query_count[OracleMode.SUBCUBE_SAMPLE] += X.shape[0] * k
        Xf = np.array(X, copy=True)
        Xf[:, i] *= -1
        px = np.maximum(oracle.backing.eval_batch(X), 0.0)
        pf = np.maximum(oracle.backing.eval_batch(Xf), 0.0)
        tot = px + pf
        if np.any(tot <= 0.0):
            raise ZeroWeightSubcubeError("two-point subcube has zero mass")
        out[pos] = oracle.rng.binomial(k, px / tot) / float(k)
    return out


def tree_leaves(node):
    """Preorder (path, density) over the leaves of a Leaf/Internal tree,
    where path lists the (var, sign) pairs from the root down."""
    out = []

    def walk(node, path):
        if not hasattr(node, "var"):
            out.append((path, node.density))
            return
        walk(node.lo, path + ((node.var, -1),))
        walk(node.hi, path + ((node.var, 1),))

    walk(node, ())
    return out


def tree_depth(node):
    if not hasattr(node, "var"):
        return 0
    return 1 + max(tree_depth(node.lo), tree_depth(node.hi))


def conditional_masses(node, n, fixed):
    """Preorder per-node mass of (subtree cell) intersect (subcube fixed),
    by the recursion DistTree.conditional_masses ran before it summed leaf
    cells bottom up: a split on a fixed coordinate takes its one
    consistent child, and nodes under the other child keep 0."""
    out = []

    def rec(node, depth, consumed, reached):
        j = len(out)
        out.append(0.0)
        if not hasattr(node, "var"):
            outside = len(fixed) - consumed  # fixed coordinates off the path
            if reached:
                out[j] = node.density * 2.0 ** (n - depth - outside)
            return out[j]
        if node.var in fixed:
            lo = rec(node.lo, depth + 1, consumed + 1, reached and fixed[node.var] < 0)
            hi = rec(node.hi, depth + 1, consumed + 1, reached and fixed[node.var] > 0)
            out[j] = lo if fixed[node.var] < 0 else hi
        else:
            out[j] = rec(node.lo, depth + 1, consumed, reached) + rec(
                node.hi, depth + 1, consumed, reached)
        return out[j]

    rec(node, 0, 0, True)
    return out


def draw_tree(oracle, s, k):
    """DistOracle._draw_tree as it ran before it wrote each split's column
    once: k uniform rows from the oracle's generator as 2 * bits - 1 through
    an int8 copy, s pinned, then a depth-first walk (hi subtree popped
    first) drawing one uniform per row at each free split and writing the
    +1 rows and the -1 rows in two fancy writes.  Returns the (k, n) int8
    points, or raises ZeroWeightSubcubeError for a massless s."""
    from dtdist import ZeroWeightSubcubeError

    t = oracle.backing
    cm = t.conditional_masses(s)
    if cm[0] <= 0.0:
        raise ZeroWeightSubcubeError(f"subcube {s} has zero mass")
    f = t._flatten()
    bits = oracle.rng.integers(0, 2, size=(k, oracle.n), dtype=np.int8)
    X = (2 * bits - 1).astype(np.int8)
    for i, b in s.pairs:
        X[:, i] = b
    todo = [(0, np.arange(k))]
    while todo:
        j, rows = todo.pop()
        if rows.size == 0:
            continue
        v = int(f["var"][j])
        if v < 0:
            continue
        if s.mask >> v & 1:
            child = f["hi"][j] if s.bits >> v & 1 else f["lo"][j]
            todo.append((child, rows))
            continue
        mlo, mhi = cm[f["lo"][j]], cm[f["hi"][j]]
        hi_sel = oracle.rng.random(rows.size) < mhi / (mlo + mhi)
        X[rows[hi_sel], v] = 1
        X[rows[~hi_sel], v] = -1
        todo.append((f["lo"][j], rows[~hi_sel]))
        todo.append((f["hi"][j], rows[hi_sel]))
    return X


def split_rows(t, X, y, rng):
    """split_and_rerandomize as it ran on point rows before it moved to
    dense-table indices: route X, copy each leaf's rows and overwrite the
    path columns with 2 * bits - 1 from one rng.integers(0, 2, (rows, path
    length), int8) draw per nonempty leaf with a path.  Returns one
    (points, labels) pair per leaf, in preorder."""
    ords = t.leaf_index_batch(X)
    parts = []
    for j, (restriction, _) in enumerate(t.leaves()):
        rows = np.flatnonzero(ords == j)
        Xl = np.array(X[rows], copy=True)
        coords = list(restriction.coords())
        if coords and rows.size:
            bits = rng.integers(0, 2, size=(rows.size, len(coords)), dtype=np.int8)
            Xl[:, coords] = 2 * bits - 1
        parts.append((Xl, y[rows]))
    return parts


def pool_one_batch(oracle, sizes, chunk_rows):
    """InfluenceOracle.plain_pool's count store as it grew before dense
    draws came in slices: for each pool size in turn, one sample_batch of
    the missing draws, tallied chunk_rows rows at a time and merged into
    the sorted keys by np.unique and np.add.at.  Returns (keys, counts,
    draws) after the last size."""
    from dtdist import points_to_indices

    keys, counts, draws = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    for want in sizes:
        if draws >= want:
            continue
        X = oracle.sample_batch(want - draws)
        draws += X.shape[0]
        ks, cs = [keys], [counts]
        for lo in range(0, X.shape[0], chunk_rows):
            k, c = np.unique(points_to_indices(X[lo:lo + chunk_rows]), return_counts=True)
            ks.append(k)
            cs.append(c)
        keys, where = np.unique(np.concatenate(ks), return_inverse=True)
        counts = np.zeros(keys.size, dtype=np.int64)
        np.add.at(counts, where, np.concatenate(cs))
    return keys, counts, draws


def build_dt_by_restriction(i_oracle, s, params, stats=None):
    """builddt.build_dt as it ran before the search moved to (mask, bits)
    ints: the memo keyed on (mask, bits, remaining budget), an influence
    cache read twice per miss, each child a checked Restriction, and the
    threshold cut as a loop over (coordinate, value) pairs.  The guard
    reads call_count_bound from dtdist.builddt when called.  Counts into
    stats (a fresh SearchStats by default), which a caller can read after
    the guard raised.  Returns (node, objective, stats)."""
    from dtdist import KIND_EXACT, BudgetExceededError, Internal, Leaf, Restriction, SearchStats
    from dtdist import builddt

    n = i_oracle.source.n
    params.validate(n, i_oracle)
    guard = builddt.call_count_bound(params.eps, params.depth_budget) * max(n, 1)
    stats = SearchStats() if stats is None else stats
    memo, inf_cache = {}, {}

    def influences(s):
        got = inf_cache.get((s.mask, s.bits))
        if got is None:
            coords, vals, _ = i_oracle.estimate_all(s)
            stats.influence_queries += len(coords)
            got = (coords, vals)
            inf_cache[(s.mask, s.bits)] = got
        return got

    def candidates(s):
        coords, vals = influences(s)
        cut = params.tau
        if i_oracle.kind != KIND_EXACT:
            cut = 0.75 * params.tau
        return [i for i, v in zip(coords, vals) if v >= cut]

    def leaf_density(s):
        stats.leaf_estimates += 1
        w = i_oracle.weight(s, params.leaf_sample_count)
        return w / 2.0 ** (n - len(s))

    def build(s, budget):
        stats.recursive_calls += 1
        if stats.recursive_calls > guard:
            raise BudgetExceededError(f"tree search exceeded {guard:.3g} recursive calls")
        key = (s.mask, s.bits, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        _, vals = influences(s)
        cands = candidates(s) if budget > 0 else []
        if not cands:
            node = Leaf(leaf_density(s))
            obj = float(vals.sum())
        else:
            best = None
            for i in cands:
                lo, lo_obj = build(Restriction(s.pairs + ((i, -1),)), budget - 1)
                hi, hi_obj = build(Restriction(s.pairs + ((i, 1),)), budget - 1)
                obj_i = 0.5 * (lo_obj + hi_obj)
                if best is None or obj_i < best[1]:
                    best = (Internal(i, lo, hi), obj_i)
            node, obj = best
        memo[key] = (node, obj)
        return node, obj

    node, obj = build(s, params.depth_budget)
    return node, obj, stats
