"""Random instances and brute-force ground truth at desk scale.

Everything here favors obviousness over speed: the naive enumerations
are the reference the fast library paths are judged against, so they
deliberately avoid sharing code with them.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from ._seeds import derive_seed, stream
from .core import (
    DensePmf,
    DistTree,
    Internal,
    Leaf,
    Restriction,
    all_points,
    restrict_dist,
    tree_to_dense,
    tv_distance,
    uniform_dense,
    weighting_table,
)
from .builddt import check_depth
from .errors import BudgetExceededError, ConfigError, ZeroWeightSubcubeError

CHECK_TOL = 1e-9
# chance that a non-root node above the target depth of a random tree is a leaf
EARLY_LEAF = 0.2


# ---------------------------------------------------------------------------
# instance generation


@dataclass
class Instance:
    """A generated distribution with both representations kept in sync."""

    tree: DistTree
    dense: DensePmf
    seed: int
    kind: str
    monotone: bool
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tree.n

    def depth(self) -> int:
        return self.tree.depth()


def is_monotone_dense(d: DensePmf) -> bool:
    """True iff raising any single coordinate never lowers the pmf; by
    chaining flips this is equivalent to monotonicity over the
    coordinatewise order."""
    cube = d.table.reshape([2] * d.n)
    for ax in range(d.n):
        lo = np.take(cube, 0, axis=ax)
        hi = np.take(cube, 1, axis=ax)
        if not np.all(lo <= hi + 1e-12):
            return False
    return True


def _random_topology(n: int, d: int, rng: np.random.Generator):
    """Tree shape of depth exactly d: nodes split on fresh uniform
    coordinates and turn into leaves early with probability EARLY_LEAF;
    shapes are redrawn until one reaches depth d."""
    for _ in range(1000):
        shape = _random_shape(d, 0, list(range(n)), rng)
        if _shape_depth(shape) == d:
            return shape
    raise BudgetExceededError(f"could not draw a depth-{d} topology")


def _random_shape(d: int, depth: int, avail: list, rng: np.random.Generator):
    """("leaf",) or ("node", var, lo, hi), drawn in preorder, lo first."""
    if depth == d or (depth > 0 and rng.random() < EARLY_LEAF):
        return ("leaf",)
    var = int(avail[rng.integers(len(avail))])
    rest = [v for v in avail if v != var]
    return ("node", var, _random_shape(d, depth + 1, rest, rng),
            _random_shape(d, depth + 1, rest, rng))


def _shape_depth(shape) -> int:
    if shape[0] == "leaf":
        return 0
    return 1 + max(_shape_depth(shape[2]), _shape_depth(shape[3]))


def _shape_leaves(shape) -> int:
    return 1 if shape[0] == "leaf" else _shape_leaves(shape[2]) + _shape_leaves(shape[3])


def _shape_tree(shape, leaf, depth: int = 0):
    """The tree of a shape, with leaf(depth) the Leaf at each leaf, called in preorder."""
    if shape[0] == "leaf":
        return leaf(depth)
    return Internal(shape[1], _shape_tree(shape[2], leaf, depth + 1),
                    _shape_tree(shape[3], leaf, depth + 1))


def gen_dt_dist(n: int, d: int, seed: int) -> Instance:
    """Random depth-d tree distribution: random topology, then leaf
    masses drawn jointly uniform on the simplex (Dirichlet with all
    concentrations 1)."""
    check_depth(d, n)
    rng = stream(seed, "gen-dt", n, d)
    shape = _random_topology(n, d, rng) if d > 0 else ("leaf",)
    masses = rng.dirichlet(np.ones(_shape_leaves(shape)))
    it = iter(masses / masses.sum())
    tree = DistTree(n, _shape_tree(shape, lambda depth: Leaf(float(next(it)) / 2.0 ** (n - depth))))
    dense = tree_to_dense(tree)
    return Instance(
        tree=tree,
        dense=dense,
        seed=seed,
        kind="dt",
        monotone=is_monotone_dense(dense),
        params={"n": n, "d": d},
    )


def gen_monotone_dist(n: int, d: int, seed: int) -> Instance:
    """Monotone depth-d tree distribution from a constructive family:
    pick d coordinates J and a factor c > 1, and set pmf(x) proportional
    to c^(number of +1s of x on J), realized as the complete depth-d tree
    over J."""
    check_depth(d, n)
    rng = stream(seed, "gen-monotone", n, d)
    J = sorted(int(v) for v in rng.choice(n, size=d, replace=False))
    c = float(rng.uniform(1.5, 3.0))
    z = (1.0 + c) ** d
    tree = DistTree(n, _product_node(J, 0, lambda plus: Leaf(c ** plus / z / 2.0 ** (n - d))))
    dense = tree_to_dense(tree)
    assert is_monotone_dense(dense), "constructive family must be monotone"
    return Instance(
        tree=tree,
        dense=dense,
        seed=seed,
        kind="monotone-product",
        monotone=True,
        params={"n": n, "d": d, "J": J, "c": c},
    )


def _product_node(J: list, pos: int, leaf, plus: int = 0):
    """The complete tree over J[pos:], with leaf(plus) the Leaf below plus hi branches."""
    if pos == len(J):
        return leaf(plus)
    return Internal(J[pos], _product_node(J, pos + 1, leaf, plus),
                    _product_node(J, pos + 1, leaf, plus + 1))


def parse_target(n: int, descriptor: str) -> tuple:
    """(class name, order k) of a gen_target descriptor.  Raises
    ConfigError for any other class, or for an order k that is not an
    integer, is negative, or is above n for depth and junta; signdeg
    takes any k >= 0, and one above n adds no monomials."""
    name, _, arg = descriptor.partition(":")
    if name not in ("depth", "junta", "signdeg"):
        raise ConfigError(f"unknown target class {name!r}")
    try:
        k = int(arg)
    except ValueError:
        raise ConfigError(f"descriptor {descriptor!r} must look like 'depth:2'") from None
    if k < 0 or (k > n and name != "signdeg"):
        raise ConfigError(f"descriptor {descriptor!r}: the order must be nonnegative, "
                          f"and at most n={n} for depth and junta")
    return name, k


def gen_target(n: int, descriptor: str, seed: int) -> np.ndarray:
    """{0,1} truth table of a random member of a restriction-closed class:
    "depth:k" (depth-k tree predictors), "junta:k" (non-constant functions
    of k coordinates) or "signdeg:k" (signs of random degree <= k
    polynomials).  Raises as parse_target does."""
    name, k = parse_target(n, descriptor)
    rng = stream(seed, "gen-target", descriptor, n)
    pts = all_points(n)
    if name == "depth":
        shape = _random_topology(n, k, rng) if k > 0 else ("leaf",)
        return _shape_labels(shape, pts, rng)
    if name == "junta":
        coords = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        for _ in range(1000):
            sub = rng.integers(0, 2, size=1 << k).astype(np.uint8)
            if k == 0 or sub.min() != sub.max():
                break
        bits = (pts[:, coords] > 0).astype(np.int64)
        idx = bits @ (1 << np.arange(k, dtype=np.int64))
        return sub[idx]
    acc = np.zeros(1 << n)
    cols = np.ascontiguousarray(pts.T)
    # chis[j] = (t[j], the +-1 character of t[:j + 1]) for the last monomial
    # t; the next keeps the prefix they share and extends it a column at a
    # time, so every character is exact and the sums are the product formula's
    chis = []
    # no monomial has degree above n, so a larger k draws nothing more
    for size in range(min(k, n) + 1):
        for t in combinations(range(n), size):
            coef = rng.normal()
            del chis[next((j for j, (i, _) in enumerate(chis) if i != t[j]), len(chis)):]
            for i in t[len(chis):]:
                chis.append((i, chis[-1][1] * cols[i] if chis else cols[i]))
            acc += np.multiply(chis[-1][1], coef, dtype=np.float64) if t else coef
    return (acc < 0.0).astype(np.uint8)


def _shape_labels(shape, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A label per row of X from the shape's leaf its row reaches, each
    leaf's label drawn when the walk gets there, hi branch first."""
    if shape[0] == "leaf":
        return np.full(X.shape[0], rng.integers(2), dtype=np.uint8)
    out = np.empty(X.shape[0], dtype=np.uint8)
    sel = X[:, shape[1]] > 0
    out[sel] = _shape_labels(shape[3], X[sel], rng)
    out[~sel] = _shape_labels(shape[2], X[~sel], rng)
    return out


# ---------------------------------------------------------------------------
# brute-force functionals


@dataclass
class BruteStats:
    """Exhaustively computed functionals of a real-valued f on the cube."""

    per_coord: np.ndarray  # Inf_i(f) for every coordinate
    total: float
    var1: float  # E_{x,y independent uniform} |f(x) - f(y)|
    var_mu: float  # E |f - E f|
    sensitivity: int  # max over x of the number of sensitive coordinates
    mean: float


def brute_stats(f_table: np.ndarray) -> BruteStats:
    f = np.asarray(f_table, dtype=np.float64)
    n = int(round(math.log2(f.size)))
    cube = f.reshape([2] * n) if n else f.reshape([])
    per = np.empty(n)
    sens = np.zeros(f.size, dtype=np.int64)
    for ax in range(n):
        diff = cube - np.flip(cube, axis=ax)
        per[n - 1 - ax] = 0.5 * float(np.abs(diff).mean())
        sens += (diff.reshape(-1) != 0.0).astype(np.int64)
    # E|X - Y| over the value multiset via the sorted-values identity:
    # each s_j is the larger element of j pairs and the smaller of m-1-j
    s = np.sort(f)
    m = f.size
    weights = 2.0 * np.arange(m) - m + 1.0
    var1 = 2.0 / (m * m) * float((s * weights).sum())
    mean = float(f.mean())
    return BruteStats(
        per_coord=per,
        total=float(per.sum()),
        var1=var1,
        var_mu=float(np.abs(f - mean).mean()),
        sensitivity=int(sens.max()) if n else 0,
        mean=mean,
    )


def _naive_restricted_influence(table: np.ndarray, n: int, i: int, fixed: dict) -> float:
    """Inf_i((f_D)_s) from first principles: average the flip difference
    of the overwritten weighting over every point of the cube."""
    total = 0.0
    for idx in range(1 << n):
        y = idx
        for j, b in fixed.items():
            y = (y | (1 << j)) if b > 0 else (y & ~(1 << j))
        z = y ^ (1 << i)
        total += abs(table[y] - table[z])
    return 0.5 * total / (1 << n)


def naive_total_influence(table: np.ndarray, n: int, fixed: dict) -> float:
    return sum(
        _naive_restricted_influence(table, n, i, fixed)
        for i in range(n)
        if i not in fixed
    )


def brute_optimal_tree(dense: DensePmf, d: int, tau: float):
    """Exhaustive minimizer of the leaf-influence objective over depth <= d
    trees every split of which has restricted influence >= tau.

    Returns (objective, encoding) with encodings ("leaf",) and
    ("node", var, lo, hi).  Independent of the search module: influences
    come from the naive per-point loop above.  It sums them in another
    order than the search does, so the two agree on the objective away
    from near-ties: a coordinate whose influence is tau up to rounding
    may pass the tau cut here and not there, or the reverse (for the pmf
    2^-n (1 + 0.2 x_i) at tau = 0.2 the search reads 0.19999999999999996
    and keeps a leaf, this splits).
    """
    n = dense.n
    table = weighting_table(dense)
    memo: dict = {}

    def best(fixed: dict, depth: int):
        key = (tuple(sorted(fixed.items())), depth)
        got = memo.get(key)
        if got is not None:
            return got
        obj = naive_total_influence(table, n, fixed)
        tree = ("leaf",)
        if depth > 0:
            for i in range(n):
                if i in fixed:
                    continue
                if _naive_restricted_influence(table, n, i, fixed) < tau:
                    continue
                olo, tlo = best({**fixed, i: -1}, depth - 1)
                ohi, thi = best({**fixed, i: 1}, depth - 1)
                cand = 0.5 * (olo + ohi)
                if cand < obj:
                    obj, tree = cand, ("node", i, tlo, thi)
        memo[key] = (obj, tree)
        return obj, tree

    return best({}, d)


# ---------------------------------------------------------------------------
# inequality and identity checks


@dataclass
class CheckRecord:
    """One verified relation; pass means margin >= -1e-9, where margin is
    rhs - lhs for inequalities lhs <= rhs and -|lhs - rhs| for identities."""

    name: str
    kind: str  # "le" or "eq"
    lhs: float
    rhs: float
    margin: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "passed": bool(self.passed),
        }


def _record(name: str, kind: str, lhs: float, rhs: float) -> CheckRecord:
    margin = (rhs - lhs) if kind == "le" else -abs(lhs - rhs)
    return CheckRecord(name, kind, lhs, rhs, margin, margin >= -CHECK_TOL)


def check_inequalities(inst: Instance, other: Optional[Instance] = None) -> list:
    """All testable relations between influence, variance, sensitivity,
    and distance for one instance (plus a partner tree for the
    cross-distribution relations).

    `other` defaults to a fresh random tree over the same cube.
    """
    from .influence import exact_influence_all, exact_total_influence

    n = inst.n
    d = inst.depth()
    if other is None:
        other = gen_dt_dist(n, min(max(1, d), n), derive_seed(inst.seed, "partner"))
    f = weighting_table(inst.dense)
    stats = brute_stats(f)
    records = [
        _record("efron-stein", "le", stats.var1, stats.total),
        _record(
            "influence-vs-sensitivity",
            "le",
            stats.total,
            2.0 * stats.sensitivity * stats.var1,
        ),
        _record("var-sandwich-lower", "le", stats.var_mu, stats.var1),
        _record("var-sandwich-upper", "le", stats.var1, 2.0 * stats.var_mu),
        _record("per-coord-at-most-one", "le", float(stats.per_coord.max()) if n else 0.0, 1.0),
        _record("weighting-mean-one", "eq", stats.mean, 1.0),
    ]

    # averaging a coordinate's restriction removes exactly its influence
    _, inf_all = exact_influence_all(inst.dense)
    worst = 0.0
    for i in range(n):
        avg = 0.5 * (
            exact_total_influence(inst.dense, Restriction.of((i, -1)))
            + exact_total_influence(inst.dense, Restriction.of((i, 1)))
        )
        worst = max(worst, abs(avg - (stats.total - inf_all[i])))
    records.append(_record("influence-drop", "eq", worst, 0.0))

    tv_u = tv_distance(inst.dense, uniform_dense(n))
    records.append(_record("tv-vs-influence", "le", 2.0 * tv_u, stats.total))

    # cross-distribution relations against the partner tree
    tv_pair = tv_distance(inst.dense, other.dense)
    pts = all_points(n)
    f_tree = inst.tree.eval_batch(pts) * 2.0 ** n
    g_tree = other.tree.eval_batch(pts) * 2.0 ** n
    records.append(
        _record(
            "tv-as-label-error",
            "eq",
            tv_pair,
            2.0 ** -(n + 1) * float(np.abs(f_tree - g_tree).sum()),
        )
    )

    leaf_inf = 0.0
    split_tv = 0.0
    for restriction, _ in other.tree.leaves():
        leaf_inf += 2.0 ** -len(restriction) * exact_total_influence(
            inst.dense, restriction
        )
        try:
            cond_a, w_a = restrict_dist(inst.dense, restriction)
        except ZeroWeightSubcubeError:
            continue  # unreachable leaf under D contributes nothing
        cond_b, _ = restrict_dist(other.dense, restriction)
        split_tv += w_a * tv_distance(cond_a, cond_b)
    records.append(
        _record("leaf-influence-vs-l1", "le", leaf_inf, 4.0 * d * 2.0 * tv_pair)
    )
    records.append(_record("tv-split", "le", split_tv, 2.0 * tv_pair))
    return records
