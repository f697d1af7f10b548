"""Fitting a depth-bounded decision tree to an unknown distribution.

The search minimizes the expected total influence left at the leaves,

    objective(T) = E_{leaf l of T, reached uniformly} [ Inf((f_D)_l) ],

over trees whose every split variable has restricted influence at least
tau where it is used.  Small leaf influence certifies closeness: a leaf
whose restricted weighting has low total influence is nearly constant,
so labeling it with its subcube mass approximates D there.  Splitting on
coordinate i lowers the objective by exactly Inf_i at that node, which
is why only influential coordinates are worth considering and why the
tree returned by exhaustive recursion over candidates is optimal among
all such trees.

Influences and leaf masses both come from one InfluenceOracle (exact,
monotone-bias, or two-point conditioning); its weight reads leaf masses
exactly or from its plain-sample pool.  The search knows the kind only
for the threshold rule, exact influences cut at tau and estimated ones
(accuracy <= tau/4) at 0.75 tau, and for when it reads a leaf mass: an
exact one once the tree is chosen, a sampled one when the leaf is visited.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    EMPTY,
    DistOracle,
    DistTree,
    Internal,
    Leaf,
    Node,
    Restriction,
    _count,
    _nonneg_int,
)
from .errors import BudgetExceededError, ConfigError, DegenerateEstimateError
from .influence import (
    KIND_EXACT,
    EstimatorBudget,
    InfluenceOracle,
)


def check_unit(name: str, value: float):
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be in (0,1), got {value}")


def check_depth(d: int, n: int):
    """Raises ConfigError unless d is an integer, not a bool, in [0, n]."""
    if isinstance(d, (int, np.integer)) and not 0 <= d <= n:
        raise ConfigError(f"depth budget {d} outside [0, {n}]")
    _nonneg_int(d, "depth budget", ConfigError)


def default_tau(eps: float, depth_budget: int) -> float:
    """Influence threshold eps / (8 d^2); with it the optimal tree's
    objective is small enough that the result lands within eps/2 of D in
    total variation, with slack for estimation error."""
    if depth_budget <= 0:
        return eps
    return eps / (8.0 * depth_budget * depth_budget)


def default_leaf_sample_count(eps: float, delta: float, depth_budget: int) -> int:
    """Plain samples per leaf-mass estimate: Hoeffding gives each leaf's
    weighting value +-eps/2 at confidence 1 - delta/2^(d+1) after a union
    bound over at most 2^(d+1) leaf evaluations."""
    d = max(depth_budget, 0)
    return _count(32.0 * 4.0 ** d * math.log(2.0 ** (d + 2) / delta), eps * eps, "leaf samples")


def call_count_bound(eps: float, depth_budget: int) -> float:
    """Upper bound (16 d^3 / eps)^d on recursive calls, 1 at d = 0; the
    factor-2 slack over the exact-threshold bound covers estimated thresholds.
    A bound past the largest float bounds nothing: math.inf."""
    try:
        return (16.0 * depth_budget ** 3 / eps) ** depth_budget
    except OverflowError:
        return math.inf


@dataclass
class BuildParams:
    """Knobs of one tree search."""

    depth_budget: int
    tau: float
    eps: float
    delta: float
    leaf_sample_count: int

    def validate(self, n: int, i_oracle: Optional[InfluenceOracle] = None):
        """Range checks; an estimating i_oracle must also have accuracy
        <= tau/4, so that its 0.75 tau cut keeps every coordinate of
        influence >= tau and drops every one below tau/2."""
        check_depth(self.depth_budget, n)
        check_unit("eps", self.eps)
        check_unit("delta", self.delta)
        if not 0.0 < self.tau <= self.eps:
            raise ConfigError(f"tau must be in (0, eps], got {self.tau}")
        if self.leaf_sample_count < 1:
            raise ConfigError("leaf_sample_count must be positive")
        if (
            i_oracle is not None
            and i_oracle.kind != KIND_EXACT
            and i_oracle.accuracy > self.tau / 4.0 + 1e-12
        ):
            raise ConfigError(
                f"estimated thresholds need influence accuracy <= tau/4 "
                f"({self.tau / 4.0:.3g}), oracle advertises {i_oracle.accuracy:.3g}"
            )


@dataclass
class SearchStats:
    """Counts of one search; the CLI prints them.

    recursive_calls: every call of the recursion, memo hits included.
    influence_queries: coordinates whose influence was read, one read per
    distinct restriction the search visits.
    leaf_estimates: visited restrictions that end as a leaf, whether or
    not the returned tree keeps them.  A sample-based search reads each
    one's mass at the visit; an exact search reads only the masses of the
    returned tree's leaves.
    """

    recursive_calls: int = 0
    influence_queries: int = 0
    leaf_estimates: int = 0


class _Search:
    """One memoized search: the memo, the stats and the recursion guard.

    The recursion carries a restriction as its (mask, bits) ints and its
    pairs in path order, and keys the memo on (mask, bits) alone: every
    restriction in one search extends the start one, so its length fixes
    the remaining budget.  A Restriction is built only on a memo miss,
    unchecked, since each child fixes one free coordinate of its parent.

    An exact leaf mass is a pure read of the table, so an exact search
    memoizes a leaf as its Restriction, pending, and resolve reads the
    masses of the returned tree's leaves alone.  A sampled mass grows the
    pool and moves the seeded stream, so it is read at the visit.
    """

    def __init__(self, i_oracle: InfluenceOracle, params: BuildParams):
        self.n = i_oracle.source.n
        params.validate(self.n, i_oracle)
        self.i_oracle = i_oracle
        self.params = params
        self.stats = SearchStats()
        # n = 0 still makes its one call
        self.guard = call_count_bound(params.eps, params.depth_budget) * max(self.n, 1)
        # exact influences are cut at tau, estimated ones at 0.75 tau
        self.cut = params.tau if i_oracle.kind == KIND_EXACT else 0.75 * params.tau
        self.pending = i_oracle.kind == KIND_EXACT
        self.memo: dict = {}

    def leaf_density(self, s: Restriction) -> float:
        w = self.i_oracle.weight(s, self.params.leaf_sample_count)
        # weighting value 2^|s| * w, stored as a density by dividing by 2^n
        return w / 2.0 ** (self.n - len(s))

    def build(self, mask: int, bits: int, pairs: tuple, budget: int):
        stats = self.stats
        stats.recursive_calls += 1
        if stats.recursive_calls > self.guard:
            raise BudgetExceededError(
                f"tree search exceeded {self.guard:.3g} recursive calls"
            )
        hit = self.memo.get((mask, bits))
        if hit is not None:
            return hit
        s = Restriction._of(pairs, mask, bits)
        coords, vals, _ = self.i_oracle.estimate_all(s)
        stats.influence_queries += len(coords)
        best = None
        if budget > 0:
            # ascending order + strictly lower objective = smallest index wins
            # ties; a float list compares faster than a numpy mask is built
            cut = self.cut
            for i, v in zip(coords, vals.tolist()):
                if not v >= cut:
                    continue
                bit = 1 << i
                lo, lo_obj = self.build(mask | bit, bits, pairs + ((i, -1),), budget - 1)
                hi, hi_obj = self.build(mask | bit, bits | bit, pairs + ((i, 1),), budget - 1)
                obj_i = 0.5 * (lo_obj + hi_obj)
                if best is None or obj_i < best[1]:
                    best = (Internal(i, lo, hi), obj_i)
        if best is None:
            stats.leaf_estimates += 1
            best = (s if self.pending else Leaf(self.leaf_density(s)), float(vals.sum()))
        self.memo[mask, bits] = best
        return best

    def resolve(self, node):
        """node with each pending leaf replaced by its Leaf."""
        if isinstance(node, Restriction):
            return Leaf(self.leaf_density(node))
        if isinstance(node, Leaf):
            return node
        return Internal(node.var, self.resolve(node.lo), self.resolve(node.hi))


def build_dt(i_oracle: InfluenceOracle, s: Restriction, p: BuildParams):
    """Best depth-limited subtree for the restriction s.

    Returns (root node, objective value, SearchStats).  Recursion over
    all candidate splits, memoized on the visited restriction's (mask,
    bits), which within one search also fixes the remaining budget;
    aborts past call_count_bound * n recursive calls.
    """
    search = _Search(i_oracle, p)
    node, obj = search.build(s.mask, s.bits, tuple(s.pairs), p.depth_budget)
    return search.resolve(node), obj, search.stats


# ---------------------------------------------------------------------------
# full learning pipeline


@dataclass
class LearnResult:
    """Learned tree plus the search's diagnostics.

    raw_leaf_values keeps the pre-normalization leaf densities (preorder)
    since the returned tree is rescaled to satisfy normalization exactly.
    caps_bound counts the EstimatorBudget cuts, by field (see InfluenceOracle).
    """

    tree: DistTree
    objective: float
    stats: SearchStats
    params: BuildParams
    estimator_kind: str
    raw_leaf_values: list = field(default_factory=list)
    normalization: float = 1.0
    oracle_queries: dict = field(default_factory=dict)
    influence_accuracy: float = 0.0
    influence_confidence: float = 0.0
    caps_bound: dict = field(default_factory=dict)


def _expected_query_count(n: int, d: int) -> int:
    """Distinct (restriction, coordinate) influence queries reachable by a
    memoized depth-d search; sizes the per-query confidence split."""
    restr = sum(math.comb(n, k) * 2 ** k for k in range(d + 1))
    return max(1, n * restr)


def _scaled(node: Node, factor: float) -> Node:
    if isinstance(node, Leaf):
        return Leaf(node.density * factor)
    return Internal(node.var, _scaled(node.lo, factor), _scaled(node.hi, factor))


def learn_distribution_result(
    d_oracle: DistOracle,
    depth_budget: int,
    eps: float,
    delta: float,
    estimator_kind: str = KIND_EXACT,
    tau: Optional[float] = None,
    accuracy: Optional[float] = None,
    budget: Optional[EstimatorBudget] = None,
) -> LearnResult:
    """Learn a depth-d tree distribution within eps total variation.

    eps and delta must lie in (0, 1).  The rest follows the analysis:
    threshold tau = eps/(8 d^2) unless given, influence accuracy
    min(tau/4, eps/n) unless given, per-query confidence delta split over
    the worst-case number of distinct queries, and
    default_leaf_sample_count plain draws per leaf mass.  The threshold
    rule follows from estimator_kind (see BuildParams.validate).  Those
    estimator targets can be extremely sample-hungry at deep
    restrictions; pass an EstimatorBudget (and optionally a coarser tau)
    to bound the work, at the cost of the formal guarantee (caps_bound
    reports it).  The returned tree is renormalized exactly; the raw
    estimated leaf values are kept in the result.
    """
    n = d_oracle.n
    check_unit("eps", eps)
    check_unit("delta", delta)
    check_depth(depth_budget, n)
    params = BuildParams(
        depth_budget=depth_budget,
        tau=default_tau(eps, depth_budget) if tau is None else float(tau),
        eps=eps,
        delta=delta,
        leaf_sample_count=default_leaf_sample_count(eps, delta, depth_budget),
    )
    params.validate(n)  # a bad tau is reported as such, not as the accuracy it feeds
    if accuracy is None:
        accuracy = min(params.tau / 4.0, eps / max(n, 1))
    confidence = delta / (2.0 * _expected_query_count(n, depth_budget))
    i_oracle = InfluenceOracle(estimator_kind, d_oracle, accuracy, confidence, budget)
    root, objective, stats = build_dt(i_oracle, EMPTY, params)

    # collect raw leaf densities and the realized normalization, preorder
    raw_vals: list = []
    total = 0.0
    todo = [(root, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, Leaf):
            raw_vals.append(node.density)
            total += node.density * 2.0 ** (n - depth)
        else:
            todo += ((node.hi, depth + 1), (node.lo, depth + 1))
    if total <= 0.0:
        raise DegenerateEstimateError("all estimated leaf masses are zero")
    tree = DistTree(n, _scaled(root, 1.0 / total))
    return LearnResult(
        tree=tree,
        objective=objective,
        stats=stats,
        params=params,
        estimator_kind=estimator_kind,
        raw_leaf_values=raw_vals,
        normalization=total,
        oracle_queries={m.name: c for m, c in d_oracle.query_count.items()},
        influence_accuracy=accuracy,
        influence_confidence=confidence,
        caps_bound=dict(i_oracle.caps_bound),
    )
