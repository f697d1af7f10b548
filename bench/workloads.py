"""The benchmark's workloads: their instances, one item run, its check, and
the dtdist entry points the traced run wraps.

An item is one generated instance run through one pipeline.  Every call
into the package goes through a module attribute (`dtdist.x`), never a
name bound here at import time, so the tracer's wrappers see it.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

import dtdist
from dtdist import OracleMode, derive_seed

# SEED of tests/test_acceptance.py: the learn workloads replay its trials
ACCEPTANCE_SEED = 271828


@dataclass(frozen=True)
class Size:
    n: int
    depth: int
    eps: float
    delta: float
    items: int  # items in one round
    max_pool: Optional[int] = None  # EstimatorBudget caps; None keeps the defaults
    infest_reps: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # an estimator kind of dtdist, or "lift"
    size: Size
    replay: Optional[str] = None  # acceptance trials to replay, e.g. "acc3"
    expected_spans: tuple = ()


# Tiny items: the untimed warm-up of every setup, and the --smoke rounds.
# The caps keep the sample pipelines to milliseconds at this size.
TINY = Size(n=4, depth=1, eps=0.5, delta=0.1, items=2, max_pool=20_000, infest_reps=200)

_LEARN_SPANS = ("builddt.learn_distribution_result", "builddt.build_dt",
                "influence.estimate_all", "testbed.gen")
_SAMPLE_SPANS = _LEARN_SPANS + ("core.consistent_mask", "influence.plain_pool",
                                "core.sample_batch")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn-exact", dtdist.KIND_EXACT,
                 Size(n=12, depth=3, eps=0.1, delta=0.1, items=400),
                 replay="acc1",
                 expected_spans=_LEARN_SPANS + ("influence.exact_influence_all",
                                                "builddt.subcube_weight")),
        Workload("learn-monotone", dtdist.KIND_MONOTONE,
                 Size(n=10, depth=3, eps=0.15, delta=0.1, items=1),
                 replay="acc3", expected_spans=_SAMPLE_SPANS),
        Workload("learn-subcube", dtdist.KIND_SUBCUBE,
                 Size(n=10, depth=3, eps=0.15, delta=0.1, items=1),
                 replay="acc4",
                 expected_spans=_SAMPLE_SPANS + ("core.two_point_fraction_batch",
                                                 "core.DensePmf.eval_batch",
                                                 "core.subcube_sample_batch")),
        Workload("lift", "lift",
                 Size(n=10, depth=2, eps=0.1, delta=0.1, items=20),
                 expected_spans=("lift.end_to_end", "lift.lift_learn_result",
                                 "lift.split_and_rerandomize", "lift.exhaustive_tree_learn",
                                 "core.DistTree.leaf_index_batch", "core.sample_batch",
                                 "builddt.learn_distribution_result",
                                 "influence.exact_influence_all", "testbed.gen")),
    )
}

_MODES = {
    dtdist.KIND_EXACT: OracleMode.EXACT_PMF,
    dtdist.KIND_MONOTONE: OracleMode.SAMPLE,
    dtdist.KIND_SUBCUBE: OracleMode.SUBCUBE_SAMPLE,
}


class CheckFailed(Exception):
    """A result that is not a well-formed tree or hypothesis."""


@dataclass
class Item:
    instance: object  # dtdist Instance
    target: Optional[np.ndarray]  # lift only: {0,1} truth table
    oracle_seed: Optional[int]  # replayed trials only: the trial's own oracle seed


def make_items(w: Workload, size: Size, seed: int, replay: bool = True) -> list:
    """One round's items.  A replayed workload runs the first trials of its
    acceptance criterion's sequence exactly; the lift draws from `seed`."""
    items = []
    for j in range(size.items):
        if replay and w.replay:
            inst_seed = derive_seed(ACCEPTANCE_SEED, w.replay, j)
            oracle_seed = derive_seed(ACCEPTANCE_SEED, w.replay + "-oracle", j)
        else:
            inst_seed, oracle_seed = derive_seed(seed, w.name, size.n, j), None
        if w.pipeline == dtdist.KIND_MONOTONE:
            inst = dtdist.gen_monotone_dist(size.n, size.depth, inst_seed)
        else:
            inst = dtdist.gen_dt_dist(size.n, size.depth, inst_seed)
        target = None
        if w.pipeline == "lift":
            target = dtdist.gen_target(size.n, f"depth:{size.depth}",
                                       derive_seed(inst_seed, "target"))
        items.append(Item(inst, target, oracle_seed))
    return items


def oracle_seed(item: Item, seed: int, round_index: int, j: int) -> int:
    if item.oracle_seed is not None:
        return item.oracle_seed
    return derive_seed(seed, "oracle", round_index, j)


def _budget(size: Size):
    budget = dtdist.EstimatorBudget()
    if size.max_pool:
        budget.max_pool = size.max_pool
    if size.infest_reps:
        budget.infest_reps_cap = size.infest_reps
    return budget


def run_item(w: Workload, size: Size, item: Item, seed: int):
    """Run one item; returns (learned tree or hypothesis, oracles used)."""
    inst = item.instance
    if w.pipeline != "lift":
        oracle = dtdist.DistOracle(inst.dense, _MODES[w.pipeline], seed)
        res = dtdist.learn_distribution_result(oracle, size.depth, size.eps, size.delta,
                                               w.pipeline, budget=_budget(size))
        return res.tree, [oracle]
    # as `dtdist lift` runs with its defaults: a tree loaded per run (fresh
    # caches), exact stage-1 oracle, labels from a tree-backed sampler, and
    # the tree:k learner at eps/2 with delta/(4 2^d)
    tree = dtdist.DistTree(inst.n, inst.tree.root)
    oracle = dtdist.DistOracle(tree, OracleMode.EXACT_PMF, seed)
    labels = dtdist.DistOracle(tree, OracleMode.SAMPLE, derive_seed(seed, "labels"), n=tree.n)
    learner = dtdist.make_exhaustive_tree_learner(
        tree.n, size.depth, size.eps / 2.0, size.delta / (4.0 * 2.0 ** size.depth))
    res = dtdist.end_to_end(
        oracle, dtdist.make_labeled_source(labels, item.target), learner,
        size.depth, size.eps, size.delta, dtdist.KIND_EXACT,
        dist_eps=None, dist_kwargs={"tau": None, "budget": _budget(size)}, seed=seed)
    return res, [oracle, labels]


def check_item(w: Workload, size: Size, item: Item, out) -> float:
    """Error of one result against the truth, by exact enumeration: the TV
    distance for a learned tree, the D-error for a lifted hypothesis.
    Raises CheckFailed on a malformed result."""
    inst = item.instance
    if w.pipeline != "lift":
        if not (isinstance(out, dtdist.DistTree) and out.n == size.n
                and out.depth() <= size.depth):
            raise CheckFailed(f"learned tree is malformed: {out!r}")
        return dtdist.tv_distance(inst.dense, dtdist.tree_to_dense(out))
    pred = out.hypothesis.predict_batch(dtdist.all_points(size.n))
    if pred.shape != item.target.shape or not np.isin(pred, (0, 1)).all():
        raise CheckFailed("lifted hypothesis does not predict 0/1 on every point")
    return dtdist.dist_error(out.hypothesis, item.target, inst.dense)


def output_json(w: Workload, out) -> str:
    obj = out.to_json_dict() if w.pipeline != "lift" else out.hypothesis.to_json_dict()
    return dtdist.json_dumps(obj)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# traced entry points: (span name, dotted path, count function)


def _add(metric, work):
    def count(tr, args, out):
        tr.counts[metric] += work(args, out)
    return count


def _mask(tr, args, out):
    tr.counts["core.consistent_mask.rows"] += out.shape[0]
    tr.counts["core.consistent_mask.kept"] += int(out.sum())


def _pool(tr, args, out):
    tr.maxima["influence.plain_pool.rows_max"] = max(
        tr.maxima["influence.plain_pool.rows_max"], out.shape[0])
    tr.maxima["influence.plain_pool.bytes"] = max(
        tr.maxima["influence.plain_pool.bytes"], out.nbytes)


def _coords(tr, args, out):
    tr.counts["influence.estimate_all.coords"] += len(out[0])


def _cells(tr, args, out):
    m = len(out[0])  # free coordinates: m flips over a 2^m-cell sub-table
    tr.counts["influence.exact_influence_all.cells"] += m * 2 ** m


def _search(tr, args, out):
    for key in ("recursive_calls", "influence_queries", "leaf_estimates"):
        tr.counts["builddt." + key] += getattr(out.stats, key)


def _lift(tr, args, out):
    tr.counts["lift.labeled_points"] += out.labeled_count
    tr.counts["lift.leaves"] += len(out.leaf_records)
    tr.counts["lift.leaves_ok"] += sum(r.status == "ok" for r in out.leaf_records)


TARGETS = (
    ("core.consistent_mask", "dtdist.core.Restriction.consistent_mask", _mask),
    ("core.DensePmf.eval_batch", "dtdist.core.DensePmf.eval_batch",
     _add("core.DensePmf.eval_batch.rows", lambda a, out: out.shape[0])),
    ("core.DistTree.leaf_index_batch", "dtdist.core.DistTree.leaf_index_batch",
     _add("core.DistTree.leaf_index_batch.rows", lambda a, out: out.shape[0])),
    ("core.sample_batch", "dtdist.core.DistOracle.sample_batch",
     _add("core.sample_batch.points", lambda a, out: out.shape[0])),
    ("core.subcube_sample_batch", "dtdist.core.DistOracle.subcube_sample_batch",
     _add("core.subcube_sample_batch.points", lambda a, out: out.shape[0])),
    ("core.two_point_fraction_batch", "dtdist.core.DistOracle.two_point_fraction_batch",
     _add("core.two_point_fraction_batch.rows", lambda a, out: out.shape[0])),
    ("builddt.subcube_weight", "dtdist.core.subcube_weight", None),
    ("influence.plain_pool", "dtdist.influence.InfluenceOracle.plain_pool", _pool),
    ("influence.estimate_all", "dtdist.influence.InfluenceOracle.estimate_all", _coords),
    ("influence.exact_influence_all", "dtdist.influence.exact_influence_all", _cells),
    ("builddt.learn_distribution_result", "dtdist.builddt.learn_distribution_result", _search),
    ("builddt.build_dt", "dtdist.builddt.build_dt", None),
    ("lift.end_to_end", "dtdist.lift.end_to_end", _lift),
    ("lift.lift_learn_result", "dtdist.lift.lift_learn_result", None),
    ("lift.split_and_rerandomize", "dtdist.lift.split_and_rerandomize",
     _add("lift.split_and_rerandomize.rows", lambda a, out: len(a[1]))),
    ("lift.exhaustive_tree_learn", "dtdist.lift.exhaustive_tree_learn",
     _add("lift.exhaustive_tree_learn.points", lambda a, out: len(a[0]))),
    ("lift.boost", "dtdist.lift.boost", None),
    ("testbed.gen", "dtdist.testbed.gen_dt_dist", None),
    ("testbed.gen", "dtdist.testbed.gen_monotone_dist", None),
    ("testbed.gen", "dtdist.testbed.gen_target", None),
)
