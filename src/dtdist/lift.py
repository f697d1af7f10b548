"""Lifting uniform-distribution learners to tree-structured distributions.

Given a depth-d decision-tree distribution D (or a learned approximation
of one) and examples (x, f*(x)) with x ~ D, each leaf's conditional
distribution is uniform on its subcube.  So: route the sample by leaf,
rerandomize the coordinates fixed on each leaf's path (making the routed
points exactly uniform when D is exactly the tree), run any
uniform-distribution learner per leaf, and stitch the per-leaf
hypotheses back together by routing test points the same way.  The
D-weighted error of the stitched hypothesis is the reach-probability
weighted sum of per-leaf conditional errors.
"""

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from ._seeds import stream
from .core import (
    DensePmf,
    DistOracle,
    DistTree,
    Internal,
    Leaf,
    _count,
    _nonneg_int,
    _random_bits,
    all_points,
    index_to_point,
    points_to_indices,
)
from .errors import BudgetExceededError, ConfigError, DimensionMismatchError, InvalidTreeError
from .builddt import LearnResult, check_depth, check_unit, learn_distribution_result

# widest cube whose dense-table indices are nonnegative int64s
_MAX_INDEX_N = 63
# labeled points end_to_end may draw (2^24 at n=4 peak near 0.75 GB resident)
_MAX_ROWS = 1 << 24


# ---------------------------------------------------------------------------
# samples and hypotheses


class LabeledSample:
    """Points with {0,1} labels.

    X is a (rows, n) int8 matrix of -1/+1 entries and y the rows' uint8
    labels; any other entry in either raises ValueError (see _labels).
    The lift also reads each point as its dense-table index, one int64
    per point beside X, computed on first use and then reused: the parts
    split_and_rerandomize builds hold only indices and labels, and
    materialize X when a learner first reads it.
    """

    def __init__(self, X, y):
        X, y = np.asarray(X), np.asarray(y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise DimensionMismatchError(f"sample shapes {X.shape} / {y.shape} do not align")
        if not ((X == 1) | (X == -1)).all():
            raise ValueError("point entries must be -1 or +1")
        self._X = np.asarray(X, dtype=np.int8)
        self.y = _labels(y)
        self._n = X.shape[1]
        self._idx = None

    @classmethod
    def _of(cls, n: int, y: np.ndarray, X=None, idx=None) -> "LabeledSample":
        """A sample from parts already valid, X or indices or both; unchecked."""
        self = cls.__new__(cls)
        self._X, self.y, self._n, self._idx = X, y, n, idx
        return self

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            self._X = index_to_point(self._idx, self._n)
        return self._X

    def _index(self) -> np.ndarray:
        """Dense-table index of each point (int64), computed once."""
        if self._idx is None:
            if self._n > _MAX_INDEX_N:
                raise ConfigError(
                    f"the lift holds a point as one int64 index, so n <= {_MAX_INDEX_N}; "
                    f"got n={self._n}"
                )
            self._idx = points_to_indices(self._X)
        return self._idx

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self.y.shape[0]

    def subset(self, idx) -> "LabeledSample":
        return LabeledSample._of(
            self._n,
            self.y[idx],
            None if self._X is None else self._X[idx],
            None if self._idx is None else self._idx[idx],
        )


def _labels(y: np.ndarray) -> np.ndarray:
    """y as a fresh uint8 array; ValueError unless every entry survives a
    round trip through bool bit for bit, which refuses -0.0 and object
    arrays too, in about half the time of (y == 0) | (y == 1)."""
    bits = y.astype(bool)
    if bits.astype(y.dtype).tobytes() != y.tobytes():
        raise ValueError("labels must be 0 or 1")
    return bits.astype(np.uint8)


class Hypothesis:
    """A {0,1}-valued predictor on {-1,+1}^n."""

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class ConstantHypothesis(Hypothesis):
    def __init__(self, value: int):
        self.value = int(value)

    def predict_batch(self, X):
        return np.full(X.shape[0], self.value, dtype=np.uint8)

    def to_json_dict(self):
        return {"kind": "const", "value": self.value}


class TruthTableHypothesis(Hypothesis):
    """Explicit truth table, indexed like DensePmf (n <= 16)."""

    def __init__(self, n: int, table):
        n = self.n = _nonneg_int(n, "hypothesis n", ConfigError)
        if n > 16:
            raise ConfigError(f"truth tables capped at n=16, got {n}")
        self.table = np.asarray(table, dtype=np.uint8)
        if self.table.shape != (1 << n,):
            raise DimensionMismatchError(f"table shape {self.table.shape}")

    def predict_batch(self, X):
        if X.shape[1] != self.n:
            raise DimensionMismatchError(f"points have {X.shape[1]} coords, table has {self.n}")
        return self.table[points_to_indices(X)]

    def to_json_dict(self):
        return {"kind": "table", "n": self.n, "table": [int(v) for v in self.table]}


class LowDegreeHypothesis(Hypothesis):
    """Sign of a sparse low-degree expansion.

    terms maps coordinate tuples to coefficients of the parity on those
    coordinates; the predictor is label 0 where the expansion of
    (-1)^label is nonnegative.
    """

    def __init__(self, n: int, terms: dict):
        self.n = _nonneg_int(n, "hypothesis n", ConfigError)
        self.terms = {tuple(int(i) for i in t): float(c) for t, c in terms.items()}

    def predict_batch(self, X):
        if X.shape[1] != self.n:
            raise DimensionMismatchError(f"points have {X.shape[1]} coords, expansion has {self.n}")
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for t, c in self.terms.items():
            if t:
                acc += c * np.prod(X[:, t].astype(np.float64), axis=1)
            else:
                acc += c
        return (acc < 0.0).astype(np.uint8)

    def to_json_dict(self):
        return {
            "kind": "lowdeg",
            "n": self.n,
            "terms": [
                {"vars": list(t), "coef": c} for t, c in sorted(self.terms.items())
            ],
        }


class TreeRoutedHypothesis(Hypothesis):
    """Routes a point down a tree skeleton and defers to that leaf's
    hypothesis; leaf order matches DistTree.leaves() (preorder)."""

    def __init__(self, tree: DistTree, leaf_hyps: list):
        if len(tree.leaves()) != len(leaf_hyps):
            raise DimensionMismatchError("one hypothesis per leaf required")
        self.tree = tree
        self.leaf_hyps = list(leaf_hyps)

    def predict_batch(self, X):
        out = np.empty(X.shape[0], dtype=np.uint8)
        for hyp, rows in zip(self.leaf_hyps, self.tree._leaf_rows(X)):
            if rows.size:
                out[rows] = hyp.predict_batch(X[rows])
        return out

    def to_json_dict(self):
        hyps = iter(self.leaf_hyps)

        def conv(node):
            if hasattr(node, "density"):
                return {"hyp": next(hyps).to_json_dict()}
            return {"var": node.var, "lo": conv(node.lo), "hi": conv(node.hi)}

        return {"kind": "tree-routed", "n": self.tree.n, "root": conv(self.tree.root)}


def _binary(labels) -> bool:
    return isinstance(labels, list) and all(type(v) is int and v in (0, 1) for v in labels)


def hypothesis_from_json(obj: dict) -> Hypothesis:
    """Inverts to_json_dict.  Raises ConfigError before any constructor runs for
    an unknown kind, labels other than the integers 0 and 1, a table of length
    not 2^n (n <= 16), or lowdeg variables not lists of integers in [0, n) or
    coefficients not numbers."""
    kind = obj.get("kind")
    if kind == "const" and _binary([obj["value"]]):
        return ConstantHypothesis(obj["value"])
    if kind == "table" and _binary(obj["table"]):
        n = _nonneg_int(obj["n"], "hypothesis n", ConfigError)
        if n <= 16 and len(obj["table"]) != 1 << n:
            raise ConfigError(f"table hypothesis at n={n} needs {1 << n} labels")
        return TruthTableHypothesis(n, obj["table"])
    if kind in ("const", "table"):
        raise ConfigError(f"{kind} hypothesis labels must be the integers 0 and 1")
    if kind == "lowdeg":
        n = _nonneg_int(obj["n"], "hypothesis n", ConfigError)
        terms = [(t["vars"], t["coef"]) for t in obj["terms"]]
        if not all(type(v) is list and all(type(i) is int and 0 <= i < n for i in v)
                   for v, _ in terms):
            raise ConfigError(f"lowdeg term variables must be lists of integers in [0, {n})")
        if not all(type(c) in (int, float) for _, c in terms):
            raise ConfigError("lowdeg coefficients must be numbers")
        return LowDegreeHypothesis(n, {tuple(v): c for v, c in terms})
    if kind == "tree-routed":
        # n gets DistTree's own check before it sizes the leaves, and each
        # var goes to DistTree unconverted: a bool, a float or a negative
        # fails instead of being cast
        n = _nonneg_int(obj["n"], "tree n", InvalidTreeError)
        hyps: list = []

        # a routing skeleton: uniform leaves are a valid pmf on any full
        # tree, since the leaf masses 2^(n-depth) * 2^-n sum to exactly 1
        def conv(d):
            if "hyp" in d:
                hyps.append(hypothesis_from_json(d["hyp"]))
                return Leaf(2.0 ** -n)
            return Internal(d["var"], conv(d["lo"]), conv(d["hi"]))

        return TreeRoutedHypothesis(DistTree(n, conv(obj["root"])), hyps)
    raise ConfigError(f"unknown hypothesis kind {kind!r}")


# ---------------------------------------------------------------------------
# learners


@dataclass
class UniformLearner:
    """A PAC learner for the uniform distribution with declared budgets.

    learn maps a LabeledSample (>= m points) to a Hypothesis with error
    at most eps against uniform w.p. >= 1 - delta.
    """

    name: str
    m: int
    eps: float
    delta: float
    learn: Callable[[LabeledSample], Hypothesis]


def required_sample_size(m: int, d: int, eps: float, delta: float) -> int:
    """Labeled examples so every leaf of a depth-d tree that matters at
    error scale eps receives m points w.p. >= 1 - delta:
    ceil(8 * (d + m + ln(2^(d+1)/delta)) * 2^d / eps)."""
    return _count(8.0 * (d + m + math.log(2.0 ** (d + 1) / delta)) * 2.0 ** d, eps,
                  "labeled samples")


def split_and_rerandomize(
    t: DistTree, sample: LabeledSample, rng: np.random.Generator
) -> list:
    """Partition the sample by the leaf each point reaches and overwrite
    each point's path coordinates with fresh uniform signs.

    When the sample is drawn from exactly the distribution of t, each
    returned part is uniform on the full cube: the off-path coordinates
    were already uniform conditionally on the leaf, and the path
    coordinates are rerandomized.  Labels ride along untouched (the
    rerandomized coordinates are exactly the ones the leaf's restriction
    had fixed, which the conditional target does not read).

    The rows are routed once; each part is then built from the sample's
    dense-table indices alone, its path bits rewritten in place as
    (idx & ~mask) | packed bits, one int64 per point and no copy of the
    point matrix.  The bits come from _random_bits, per nonempty leaf
    with a path, in preorder: the same bits as one (rows, path length)
    rng.integers(0, 2) int8 draw, four to a 32-bit word, column p for the
    leaf's p-th path coordinate and bit 1 for +1.
    """
    if sample.n != t.n:
        raise DimensionMismatchError(f"sample n={sample.n}, tree n={t.n}")
    idx = sample._index()
    parts = []
    for (restriction, _), rows in zip(t.leaves(), t._leaf_rows(sample.X)):
        part = idx[rows]
        coords = restriction.coords()
        if coords and rows.size:
            bits = _random_bits(rng, (rows.size, len(coords)))
            part &= ~restriction.mask
            for p, i in enumerate(coords):
                part |= np.left_shift(bits[:, p], i, dtype=np.int64)
        parts.append(LabeledSample._of(t.n, sample.y[rows], idx=part))
    return parts


@dataclass
class LeafRecord:
    leaf: int
    restriction: str
    count: int
    status: str  # "ok", "skipped" (too few points), or "error"
    detail: str = ""


@dataclass
class LiftReport:
    hypothesis: Hypothesis
    leaf_records: list = field(default_factory=list)


def lift_learn_result(
    t: DistTree,
    learner: UniformLearner,
    sample: LabeledSample,
    rng: Optional[np.random.Generator] = None,
    eps: Optional[float] = None,
    delta: Optional[float] = None,
) -> LiftReport:
    """Run the learner on each leaf's rerandomized part and stitch.

    Leaves receiving fewer than learner.m points get the constant-0
    hypothesis, as does any leaf whose learner raises; both are recorded.
    A sample smaller than required_sample_size for the overall error
    target (eps, delta), defaulting to the learner's own, only warns.
    """
    rng = rng if rng is not None else stream(0, "lift")
    need = required_sample_size(
        learner.m,
        t.depth(),
        eps if eps is not None else learner.eps,
        delta if delta is not None else learner.delta,
    )
    if len(sample) < need:
        warnings.warn(
            f"sample of {len(sample)} is below the recommended {need}",
            stacklevel=2,
        )
    parts = split_and_rerandomize(t, sample, rng)
    hyps = []
    records = []
    for j, ((restriction, _), part) in enumerate(zip(t.leaves(), parts)):
        hyp, status, detail = ConstantHypothesis(0), "skipped", f"{len(part)} < m={learner.m}"
        if len(part) >= learner.m:
            try:
                hyp, status, detail = learner.learn(part), "ok", ""
            except Exception as exc:  # noqa: BLE001 - leaf failure must not kill the lift
                status, detail = "error", repr(exc)
        hyps.append(hyp)
        records.append(LeafRecord(j, str(restriction), len(part), status, detail))
    return LiftReport(TreeRoutedHypothesis(t, hyps), records)


# ---------------------------------------------------------------------------
# confidence boosting


def boost(learner: UniformLearner, delta_target: float) -> UniformLearner:
    """Drive the failure probability down to delta_target.

    Trains ceil(log2(2/delta_target)) independent runs on disjoint chunks
    and keeps the run with the lowest error on a holdout sized so that
    selection adds at most 10% to the error; the boosted learner declares
    (1.1 * eps, delta_target).
    """
    check_unit("boosting delta", delta_target)
    runs = max(1, _count(math.log2(2.0 / delta_target), 1.0, "boosting runs"))
    holdout = _count(2.0 * math.log(4.0 * runs / delta_target), (0.05 * learner.eps) ** 2,
                     "boosting holdout")
    m_new = runs * learner.m + holdout

    def learn(sample: LabeledSample) -> Hypothesis:
        if len(sample) < m_new:
            raise BudgetExceededError(
                f"boosted learner needs {m_new} points, got {len(sample)}"
            )
        train = len(sample) - holdout
        chunk = train // runs  # >= learner.m by the check above
        hold = sample.subset(slice(train, len(sample)))
        best = None
        for r in range(runs):
            part = sample.subset(slice(r * chunk, (r + 1) * chunk))
            hyp = learner.learn(part)
            err = float(np.mean(hyp.predict_batch(hold.X) != hold.y))
            if best is None or err < best[0]:
                best = (err, hyp)
        return best[1]

    return UniformLearner(
        name=f"boost({learner.name})",
        m=m_new,
        eps=1.1 * learner.eps,
        delta=delta_target,
        learn=learn,
    )


# ---------------------------------------------------------------------------
# reference uniform learners


def low_degree_learn(sample: LabeledSample, k: int) -> Hypothesis:
    """Estimate all parity correlations of degree <= k and predict with
    the sign of the thresholded expansion.

    Correlations are taken against (-1)^label; coefficients below the
    joint Hoeffding noise floor sqrt(2 ln(4 * #terms) / N) are zeroed.
    """
    n, N = sample.n, len(sample)
    if N == 0:
        return ConstantHypothesis(0)
    g = 1.0 - 2.0 * sample.y.astype(np.float64)  # label 0 -> +1, 1 -> -1
    Xf = sample.X.astype(np.float64)
    terms = [t for size in range(k + 1) for t in combinations(range(n), size)]
    floor = math.sqrt(2.0 * math.log(4.0 * len(terms)) / N)
    kept = {}
    for t in terms:
        chi = np.prod(Xf[:, t], axis=1) if t else np.ones(N)
        coef = float(np.mean(g * chi))
        if abs(coef) > floor:
            kept[t] = coef
    return LowDegreeHypothesis(n, kept)


def make_low_degree_learner(n: int, k: int, eps: float, delta: float) -> UniformLearner:
    _nonneg_int(k, "lowdeg learner degree", ConfigError)
    check_unit("learner delta", delta)
    terms = sum(math.comb(n, j) for j in range(k + 1))
    m = _count(4.0 * terms * math.log(4.0 * terms / delta), eps, "learner samples")
    return UniformLearner(
        name=f"lowdeg:{k}",
        m=m,
        eps=eps,
        delta=delta,
        learn=lambda s: low_degree_learn(s, k),
    )


def count_depth_trees(n: int, k: int) -> int:
    """Number of (not necessarily reduced) depth <= k tree predictors."""
    _nonneg_int(k, "tree depth", ConfigError)
    if k == 0 or n == 0:
        return 2
    return 2 + n * count_depth_trees(n - 1, k - 1) ** 2


def _tree_encoding(split: list, labels: list, path: tuple, j: int):
    """The chosen tree below literal tuple path at level j, as a leaf
    (0, label) or an internal node (1, var, lo, hi)."""
    v = int(split[j][path]) if j < len(split) else -1
    if v < 0:
        return (0, int(labels[j][path]))
    return (1, v, _tree_encoding(split, labels, path + (2 * v,), j + 1),
            _tree_encoding(split, labels, path + (2 * v + 1,), j + 1))


def _evaluate_encoding(enc, P: np.ndarray) -> np.ndarray:
    """uint8 labels the encoded tree gives the rows of P."""
    if enc[0] == 0:
        return np.full(P.shape[0], enc[1], dtype=np.uint8)
    _, v, lo, hi = enc
    out = np.empty(P.shape[0], dtype=np.uint8)
    sel = P[:, v] > 0
    out[sel] = _evaluate_encoding(hi, P[sel])
    out[~sel] = _evaluate_encoding(lo, P[~sel])
    return out


def exhaustive_tree_learn(sample: LabeledSample, k: int) -> Hypothesis:
    """Empirical-risk-minimizing decision tree of depth <= k.

    A literal a = 2v + [x_v > 0] fixes one coordinate.  The risk depends
    on the sample only through C_j[a_1..a_j, label], the number of draws
    that satisfy j literals and carry the label, so the tree is fit by a
    bottom-up dynamic program over literal tuples of length j <= depth =
    min(k, n).  C_depth comes from the u <= min(N, 2^n) distinct points
    by float64 matmuls, exact since counts stay below 2^53: per literal
    prefix of length depth - 2 and per label, one (R * w).T @ R over the
    rows R of the u x 2n literal indicator that satisfy the prefix, so
    transient memory is O(u * n) floats.  C_{j-1} is C_j summed over the
    two literals of coordinate 0.  A tuple's leaf error is min(zeros,
    ones); its split error on v is E_{j+1}[.., 2v] + E_{j+1}[.., 2v + 1],
    barred when v is on the path.  The draws are counted by the sample's
    dense-table indices, cell = idx * 2 + label: a part that
    split_and_rerandomize built already holds them, and any other sample
    computes them once, in O(N * n).  Then time is O(N) for the bincount,
    O(u * (2n)^depth) for the counts and O(n * (2n)^depth) for the
    program; nothing grows with 2^n apart from the bincount and the
    returned truth table.

    Among minimizers the lexicographically least encoding wins, where a
    leaf labeled 0 precedes a leaf labeled 1 precedes any split and splits
    compare by variable then subtrees: a node splits only when its best
    split errs strictly less than its leaf, and on the least v among
    equal splits.  Guarded by _tree_order, as BudgetExceededError.
    """
    n = sample.n
    _tree_order(n, k, BudgetExceededError)
    cell = sample._index() * 2 + sample.y
    cnt = np.bincount(cell, minlength=2 << n).reshape(-1, 2)
    pts = np.flatnonzero(cnt.any(axis=1))
    w = cnt[pts].astype(np.float64)  # (u, 2) label counts per distinct point
    lits = 2 * n
    bits = (pts[:, None] >> np.arange(n)) & 1
    L = np.stack((1 - bits, bits), axis=-1).reshape(pts.size, lits).astype(np.float64)

    # deepest count table C[a_1..a_depth, label]; a node deeper than n has
    # every coordinate on its path, so it is a leaf
    depth = min(k, n)
    if depth == 0:
        C = w.sum(axis=0)
    elif depth == 1:
        C = L.T @ w
    else:
        C = np.empty((lits,) * depth + (2,), dtype=np.float64)
        for prefix in np.ndindex(*(lits,) * (depth - 2)):
            rows = L[:, list(prefix)].all(axis=1)
            R = L[rows]
            for label in (0, 1):
                C[prefix + (Ellipsis, label)] = (R * w[rows, label, None]).T @ R

    # bottom-up: E is the least error below each tuple, split[j] the chosen
    # variable (-1 for a leaf) and labels[j] the leaf label at level j
    on_path = (np.arange(lits) // 2)[:, None] == np.arange(n)  # literal a names v
    split = [None] * depth
    labels = [None] * (depth + 1)
    labels[depth] = C[..., 1] > C[..., 0]
    E = C.min(axis=-1)
    for j in range(depth - 1, -1, -1):
        C = C[..., 0, :] + C[..., 1, :]
        labels[j] = C[..., 1] > C[..., 0]
        errs = E.reshape(E.shape[:-1] + (n, 2)).sum(axis=-1)
        barred = np.zeros(errs.shape, dtype=bool)
        for ax in range(j):
            barred |= on_path.reshape((1,) * ax + (lits,) + (1,) * (j - 1 - ax) + (n,))
        errs[barred] = np.inf
        v = errs.argmin(axis=-1)
        best = errs.min(axis=-1)
        leaf = C.min(axis=-1)
        take = best < leaf
        split[j] = np.where(take, v, -1)
        E = np.where(take, best, leaf)

    encoding = _tree_encoding(split, labels, (), 0)
    hyp = TruthTableHypothesis(n, _evaluate_encoding(encoding, all_points(n)))
    hyp.tree_encoding = encoding
    return hyp


def _tree_order(n: int, k: int, wide=ConfigError):
    """The exhaustive search's limits: ConfigError for k < 0, wide for k > 3 or n > 16."""
    _nonneg_int(k, "tree learner depth", ConfigError)
    if k > 3 or n > 16:
        raise wide(f"tree learner capped at depth k <= 3 and n <= 16; got k={k}, n={n}")


def make_exhaustive_tree_learner(n: int, k: int, eps: float, delta: float) -> UniformLearner:
    _tree_order(n, k)
    check_unit("learner delta", delta)
    log_h = math.log(count_depth_trees(n, k))
    m = _count(log_h + math.log(1.0 / delta), eps, "learner samples")
    return UniformLearner(
        name=f"tree:{k}",
        m=m,
        eps=eps,
        delta=delta,
        learn=lambda s: exhaustive_tree_learn(s, k),
    )


# ---------------------------------------------------------------------------
# evaluation helpers


def dist_error(hyp: Hypothesis, target_table: np.ndarray, dense: DensePmf) -> float:
    """Pr_{x ~ D}[hyp(x) != f*(x)] by enumeration."""
    pred = hyp.predict_batch(all_points(dense.n))
    return float(dense.table[pred != target_table].sum())


def make_labeled_source(d_oracle: DistOracle, target_table: np.ndarray) -> Callable:
    """labeled_source(k) drawing x ~ D and labeling with the target table.

    The table is checked once, here: shape (2^n,) for the oracle's n, or
    DimensionMismatchError, and LabeledSample's label rule, _labels.  It is
    copied as uint8, so a later change to the caller's array changes no
    label.  Each draw's sample is then built unchecked, its indices kept
    for the lift to split and learn from: DistOracle.sample_batch only
    returns -1/+1 int8 rows (tree and dense draws make them so, and a
    stream's rows are checked as they are drawn), and labels read from the
    checked table are 0 or 1.
    """
    n = d_oracle.n
    table = np.asarray(target_table)
    if table.shape != (1 << n,):
        raise DimensionMismatchError(f"target table shape {table.shape}, want ({1 << n},)")
    table = _labels(table)

    def source(k: int) -> LabeledSample:
        X = d_oracle.sample_batch(k)
        idx = points_to_indices(X)
        return LabeledSample._of(n, table[idx], X=X, idx=idx)

    return source


# ---------------------------------------------------------------------------
# end to end


@dataclass
class LiftResult:
    hypothesis: Hypothesis
    tree: DistTree
    learn_result: LearnResult
    leaf_records: list
    learner_name: str
    boosted: bool
    labeled_count: int


def end_to_end(
    d_oracle: DistOracle,
    labeled_source: Callable[[int], LabeledSample],
    learner: UniformLearner,
    depth_budget: int,
    eps: float,
    delta: float,
    estimator_kind: str = "exact",
    dist_eps: Optional[float] = None,
    dist_kwargs: Optional[dict] = None,
    seed: int = 0,
) -> LiftResult:
    """Learn the distribution, then lift the learner over the learned tree.

    Any (eps, delta) learner is (eps, 3m)-robust: trained on a
    distribution eta-close to uniform in total variation, its error
    guarantee degrades to eps + 3m * eta.  Stages: (1) learn a depth-d
    tree for D to total variation dist_eps, defaulting to the robustness
    budget eps / (3 * learner.m); (2) boost the learner to per-leaf
    failure delta / 2^(d+1) unless its declared delta already meets
    that; (3) draw required_sample_size labeled points and lift; a size
    past _MAX_ROWS, or a depth_budget outside [0, n], raises ConfigError
    before (1).  The default dist_eps makes stage (1) extremely demanding
    for sample-based estimators; pass dist_eps/dist_kwargs to trade
    guarantee for feasibility.
    """
    check_depth(depth_budget, d_oracle.n)
    delta_leaf = delta / (2.0 * 2.0 ** depth_budget)
    boosted = learner.delta > delta_leaf
    use = boost(learner, delta_leaf) if boosted else learner
    count = required_sample_size(use.m, depth_budget, eps, delta)
    if count > _MAX_ROWS:
        raise ConfigError(f"labeled samples {count} are above the {_MAX_ROWS} a lift may draw")
    if dist_eps is None:
        dist_eps = eps / (3.0 * learner.m)
    lr = learn_distribution_result(
        d_oracle,
        depth_budget,
        dist_eps,
        delta / 2.0,
        estimator_kind,
        **(dist_kwargs or {}),
    )
    sample = labeled_source(count)
    report = lift_learn_result(
        lr.tree, use, sample, stream(seed, "lift-rerand"), eps=eps, delta=delta
    )
    return LiftResult(
        hypothesis=report.hypothesis,
        tree=lr.tree,
        learn_result=lr,
        leaf_records=report.leaf_records,
        learner_name=use.name,
        boosted=boosted,
        labeled_count=count,
    )
