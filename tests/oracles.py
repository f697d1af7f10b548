"""Independent brute-force oracles used to compute expected test values.

Everything here is written from first principles with plain Python loops
and bit arithmetic, deliberately avoiding the library's vectorized code
paths, so agreement between the two is meaningful.  The one exception is
tree_erm, the row-mask search exhaustive_tree_learn used before it moved
to a count cube, kept as the reference for that rewrite.  Index convention:
bit i of a dense index is 1 exactly when coordinate i equals +1.
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
