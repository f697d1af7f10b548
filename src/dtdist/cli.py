"""Command-line front end.

Commands: gen (random instances), learn-dist (fit a tree distribution),
estimate-influence (one influence query), lift (end-to-end lifting),
verify (randomized check suites).  Every command prints one JSON summary
line; --out writes artifacts.  Exit codes: 0 success, 1 check failure,
2 configuration error, 3 oracle/budget error.

All randomness derives from --seed (a fixed default keeps reruns
byte-identical apart from the elapsed_s field; pass "random" to draw
entropy).  verify parallelizes trials over a process pool sized by
--workers, the DTDIST_WORKERS environment variable, or the machine, and
never larger than the machine's cores or the trials per suite.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ._seeds import derive_seed, stream
from .core import (
    MAX_DENSE_N,
    DensePmf,
    DistOracle,
    DistTree,
    OracleMode,
    Restriction,
    json_dumps,
    load_json,
    points_to_indices,
    save_json,
    tree_to_dense,
    tv_distance,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    DtdistError,
    InvalidPmfError,
    InvalidTreeError,
    OracleModeError,
    RejectionCapExceededError,
    ZeroWeightSubcubeError,
)
from .influence import (
    KIND_EXACT,
    KIND_MODES,
    KIND_MONOTONE,
    KIND_SUBCUBE,
    EstimatorBudget,
    InfluenceOracle,
    exact_conditional_influence,
    exact_influence,
)
from .builddt import check_unit, learn_distribution_result
from .lift import (
    _binary,
    dist_error,
    end_to_end,
    make_exhaustive_tree_learner,
    make_low_degree_learner,
    make_labeled_source,
)
from .testbed import (
    brute_optimal_tree,
    check_inequalities,
    gen_dt_dist,
    gen_monotone_dist,
    gen_target,
    parse_target,
)

DEFAULT_SEED = 271828


def _parse_seed(text: str) -> int:
    if text == "random":
        return int(np.random.SeedSequence().entropy) & ((1 << 63) - 1)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--seed must be an integer or 'random', got {text!r}") from None


def _load_input(path: str):
    try:
        return load_json(path)
    except (OSError, ValueError) as exc:  # missing file, bad JSON
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_dist(path: str):
    obj = _load_input(path)
    try:
        if "root" in obj:
            tree = DistTree.from_json_dict(obj)
            # every command scores its result against the dense table
            if tree.n > MAX_DENSE_N:
                raise ConfigError(f"{path}: n={tree.n} is past the dense table's "
                                  f"limit n={MAX_DENSE_N}, which every command compares against")
            return tree
        if "table" in obj:
            return DensePmf.from_json_dict(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer mass past float range, or an n so
        # large that 2^n overflows while the masses are summed
        raise ConfigError(f"{path} is malformed: {exc!r}") from exc
    except (InvalidPmfError, InvalidTreeError, DimensionMismatchError) as exc:
        raise ConfigError(f"{path} is not a valid distribution: {exc}") from exc
    raise ConfigError(f"{path} holds neither a tree nor a dense pmf")


def _parse_restriction(text: str, n: int) -> Restriction:
    try:
        s = Restriction.parse(text)
        s.check(n)
    except (ValueError, DimensionMismatchError) as exc:
        raise ConfigError(f"--restrict {text!r}: {exc}") from exc
    return s


def _reference_dense(dist) -> DensePmf:
    return dist if isinstance(dist, DensePmf) else tree_to_dense(dist)


def _emit(result: dict, started: float) -> dict:
    result["elapsed_s"] = time.time() - started
    print(json_dumps(result))
    return result


def _estimator_budget(args) -> EstimatorBudget:
    b = EstimatorBudget()
    if args.max_pool is not None:
        b.max_pool = args.max_pool
    if args.infest_reps is not None:
        b.infest_reps_cap = args.infest_reps
    return b


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    started = time.time()
    if not 1 <= args.n <= 20:
        raise ConfigError(f"--n must be in [1,20], got {args.n}")
    if not 0 <= args.depth <= args.n:
        raise ConfigError(f"--depth must be in [0,{args.n}]")
    seed = _parse_seed(args.seed)
    if args.monotone:
        inst = gen_monotone_dist(args.n, args.depth, seed)
    else:
        inst = gen_dt_dist(args.n, args.depth, seed)
    if args.target:
        parse_target(args.n, args.target)  # checked whether or not --out asks for the table
    files = {}
    if args.out:
        save_json(args.out + ".tree.json", inst.tree.to_json_dict())
        files["tree"] = args.out + ".tree.json"
        save_json(args.out + ".dense.json", inst.dense.to_json_dict())
        files["dense"] = args.out + ".dense.json"
        if args.target:
            table = gen_target(args.n, args.target, derive_seed(seed, "target"))
            save_json(args.out + ".target.json", {"n": args.n, "table": [int(v) for v in table]})
            files["target"] = args.out + ".target.json"
    _emit(
        {
            "command": "gen",
            "n": args.n,
            "depth": inst.tree.depth(),
            "kind": inst.kind,
            "monotone": inst.monotone,
            "leaves": len(inst.tree.leaves()),
            "seed": seed,
            "files": files,
        },
        started,
    )
    return 0


def cmd_learn_dist(args) -> int:
    started = time.time()
    check_unit("--eps", args.eps)
    check_unit("--delta", args.delta)
    dist = _load_dist(args.dist)
    if not 0 <= args.depth <= dist.n:
        raise ConfigError(f"--depth must be in [0,{dist.n}]")
    seed = _parse_seed(args.seed)
    oracle = DistOracle(dist, KIND_MODES[args.oracle], seed)
    result = learn_distribution_result(
        oracle,
        args.depth,
        args.eps,
        args.delta,
        args.oracle,
        tau=args.tau,
        accuracy=args.accuracy,
        budget=_estimator_budget(args),
    )
    tv_exact = tv_distance(_reference_dense(dist), tree_to_dense(result.tree))
    if args.out:
        save_json(args.out, result.tree.to_json_dict())
    summary = {
        "command": "learn-dist",
        "n": dist.n,
        "depth": args.depth,
        "eps": args.eps,
        "delta": args.delta,
        "oracle": args.oracle,
        "tau": result.params.tau,
        "seed": seed,
        "calls": result.stats.recursive_calls,
        "influence_queries": result.stats.influence_queries,
        "leaf_estimates": result.stats.leaf_estimates,
        "queries": result.oracle_queries,
        "leaves": len(result.tree.leaves()),
        "tv_exact": tv_exact,
        "pass": tv_exact <= args.eps,
    }
    if args.oracle == "monotone":
        summary["samples_used"] = result.oracle_queries.get("SAMPLE", 0)
    _emit(summary, started)
    return 0 if summary["pass"] else 1


def cmd_estimate_influence(args) -> int:
    started = time.time()
    check_unit("--eps", args.eps)
    check_unit("--delta", args.delta)
    dist = _load_dist(args.dist)
    if not 0 <= args.coord < dist.n:
        raise ConfigError(f"--coord must be in [0,{dist.n})")
    s = _parse_restriction(args.restrict, dist.n)
    if args.coord in s.coords():
        raise ConfigError(f"--coord {args.coord} is fixed by --restrict")
    seed = _parse_seed(args.seed)
    oracle = DistOracle(dist, KIND_MODES[args.oracle], seed)
    i_oracle = InfluenceOracle(args.oracle, oracle, args.eps, args.delta)
    # the exact oracle reports on the restricted scale, samplers on the
    # conditional one; compare against the matching ground truth
    ref = _reference_dense(dist)
    if args.oracle == "exact":
        est = i_oracle.estimate(args.coord, s)
        exact = exact_influence(ref, args.coord, s)
    else:
        est = i_oracle.estimate_conditional(args.coord, s)
        exact = exact_conditional_influence(ref, args.coord, s)
    summary = {
        "command": "estimate-influence",
        "oracle": args.oracle,
        "restrict": str(s),
        "seed": seed,
        "estimate": est.to_json_dict(),
        "queries": {m.name: c for m, c in oracle.query_count.items()},
        "exact": exact,
        "abs_error": abs(est.value - exact),
    }
    _emit(summary, started)
    return 0


def cmd_lift(args) -> int:
    started = time.time()
    check_unit("--eps", args.eps)
    check_unit("--delta", args.delta)
    dist = _load_dist(args.dist)
    target_obj = _load_input(args.target)
    if not isinstance(target_obj, dict) or "table" not in target_obj:
        raise ConfigError(f"{args.target} holds no target table")
    labels = target_obj["table"]
    if not _binary(labels):
        raise ConfigError(f"{args.target}: target labels must be the integers 0 and 1")
    table = np.asarray(labels, dtype=np.uint8)
    if table.size != 1 << dist.n:
        raise ConfigError("target table size does not match the distribution")
    name, _, arg = args.learner.partition(":")
    try:
        k = int(arg)
    except ValueError:
        raise ConfigError("--learner must look like tree:2 or lowdeg:1") from None
    # the learner's own delta sits below delta/(2*2^depth) so the lift
    # never needs confidence boosting (whose holdout cost is enormous);
    # the learners only pay log(1/delta) for it
    leaf_delta = args.delta / (4.0 * 2.0 ** args.depth)
    if name == "tree":
        # the exhaustive search refuses larger orders at every leaf
        if not (0 <= k <= 3 and dist.n <= 16):
            raise ConfigError(f"--learner tree:K needs 0 <= K <= 3 and n <= 16, "
                              f"got K={k}, n={dist.n}")
        learner = make_exhaustive_tree_learner(dist.n, k, args.eps / 2.0, leaf_delta)
    elif name == "lowdeg":
        if k < 0:
            raise ConfigError(f"--learner lowdeg:K needs K >= 0, got {k}")
        learner = make_low_degree_learner(dist.n, k, args.eps / 2.0, leaf_delta)
    else:
        raise ConfigError(f"unknown learner {name!r}")
    seed = _parse_seed(args.seed)
    oracle = DistOracle(dist, KIND_MODES[args.oracle], seed)
    labeled = make_labeled_source(
        DistOracle(dist, OracleMode.SAMPLE, derive_seed(seed, "labels"), n=dist.n), table
    )
    result = end_to_end(
        oracle,
        labeled,
        learner,
        args.depth,
        args.eps,
        args.delta,
        args.oracle,
        dist_eps=args.dist_eps,
        dist_kwargs={"tau": args.tau, "budget": _estimator_budget(args)},
        seed=seed,
    )
    err = dist_error(result.hypothesis, table, _reference_dense(dist))
    if args.out:
        save_json(args.out, result.hypothesis.to_json_dict())
    summary = {
        "command": "lift",
        "n": dist.n,
        "depth": args.depth,
        "learner": result.learner_name,
        "boosted": result.boosted,
        "labeled": result.labeled_count,
        "leaves": len(result.tree.leaves()),
        "seed": seed,
        "error_exact": err,
        "pass": err <= args.eps,
        "leaf_status": {k: sum(r.status == k for r in result.leaf_records)
                        for k in ("ok", "skipped", "error")},
    }
    _emit(summary, started)
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# verify suites


def _trial_params(trial: int):
    n = 4 + trial % 7
    d = 1 + trial % 3
    return n, min(d, n)


def _verify_inequalities(trial: int, seed: int) -> list:
    n, d = _trial_params(trial)
    inst = gen_dt_dist(n, d, derive_seed(seed, "ineq", trial))
    partner = gen_dt_dist(n, max(1, (trial + 1) % 3 + 1), derive_seed(seed, "ineq-partner", trial))
    out = []
    for rec in check_inequalities(inst, partner):
        row = rec.to_json_dict()
        row.update({"suite": "inequalities", "trial": trial, "n": n, "d": d})
        out.append(row)
    return out


def _verify_builddt(trial: int, seed: int) -> list:
    n = 3 + trial % 3
    d = 1 + trial % 2
    tau = 0.05
    inst = gen_dt_dist(n, d, derive_seed(seed, "opt", trial))
    oracle = DistOracle.exact(inst.dense, derive_seed(seed, "opt-oracle", trial))
    res = learn_distribution_result(oracle, d, 0.2, 0.1, KIND_EXACT, tau=tau)
    brute_obj, _ = brute_optimal_tree(inst.dense, d, tau)
    gap = abs(res.objective - brute_obj)
    return [
        {
            "suite": "builddt-optimal",
            "trial": trial,
            "n": n,
            "d": d,
            "objective": res.objective,
            "brute": brute_obj,
            "margin": -gap,
            "passed": gap <= 1e-9,
        }
    ]


def _verify_estimators(trial: int, seed: int) -> list:
    # checked against 2x the advertised accuracy: the documented sample
    # counts leave the single-estimate miss rate near its confidence
    # parameter, so the 1x band would make the suite outcome a coin flip
    eps, delta, slack = 0.1, 0.1, 2.0
    n, d = 6, 2
    rng = stream(seed, "est-pick", trial)
    rows = []
    for kind, gen, tag in ((KIND_MONOTONE, gen_monotone_dist, "est-mono"),
                           (KIND_SUBCUBE, gen_dt_dist, "est-dt")):
        inst = gen(n, d, derive_seed(seed, tag, trial))
        i = int(rng.integers(n))
        oracle_seed = derive_seed(seed, tag + "-oracle", trial)
        oracle = DistOracle(inst.dense, KIND_MODES[kind], oracle_seed)
        est = InfluenceOracle(kind, oracle, eps, delta).estimate_conditional(i)
        exact = exact_conditional_influence(inst.dense, i)
        rows.append(
            {
                "suite": "estimators",
                "trial": trial,
                "estimator": kind,
                "coord": i,
                "value": est.value,
                "exact": exact,
                "eps": eps,
                "slack": slack,
                "margin": slack * eps - abs(est.value - exact),
                "passed": abs(est.value - exact) <= slack * eps,
            }
        )
    return rows


def _verify_core(trial: int, seed: int) -> list:
    n, d = 5, 2
    inst = gen_dt_dist(n, d, derive_seed(seed, "core", trial))
    oracle = DistOracle.subcube(inst.tree, derive_seed(seed, "core-oracle", trial))
    X = oracle.sample_batch(200_000)
    emp = np.bincount(points_to_indices(X), minlength=1 << n) / X.shape[0]
    worst = float(np.abs(emp - inst.dense.table).max())
    checks = (
        ("sampling-consistency", 0.005 - worst, worst <= 0.005),
        ("query-accounting", 0.0, oracle.query_count[OracleMode.SAMPLE] == 200_000),
    )
    return [{"suite": "core", "trial": trial, "check": check, "margin": margin, "passed": ok}
            for check, margin, ok in checks]


_SUITES = {
    "inequalities": _verify_inequalities,
    "builddt-optimal": _verify_builddt,
    "estimators": _verify_estimators,
    "core": _verify_core,
}

# suite-level pass bars: the estimator records are statistical, so a
# small failure fraction is expected even inside the 2x band
_SUITE_MIN_PASS = {"estimators": 0.9}


def _run_trial(packed) -> list:
    suite, trial, seed = packed
    return _SUITES[suite](trial, seed)


def _default_workers() -> int:
    env = os.environ.get("DTDIST_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"DTDIST_WORKERS must be an integer, got {env!r}") from None


def cmd_verify(args) -> int:
    started = time.time()
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    seed = _parse_seed(args.seed)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    workers = _default_workers() if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError(f"--workers (or DTDIST_WORKERS) must be at least 1, got {workers}")
    # a fork pool starts every worker at once: never more than the cores
    # or the trials of one suite
    workers = min(workers, os.cpu_count() or 1, args.trials)
    rows = []
    for suite in suites:
        jobs = [(suite, t, seed) for t in range(args.trials)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for batch in pool.map(_run_trial, jobs, chunksize=8):
                    rows.extend(batch)
        else:
            for job in jobs:
                rows.extend(_run_trial(job))
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json_dumps(row))
                fh.write("\n")
    summary_rows = []
    ok = True
    for suite in suites:
        srows = [r for r in rows if r["suite"] == suite]
        fails = sum(1 for r in srows if not r["passed"])
        rate = 1.0 - fails / len(srows) if srows else 1.0
        passed = rate >= _SUITE_MIN_PASS.get(suite, 1.0)
        ok = ok and passed
        summary_rows.append((suite, len(srows), fails, rate, passed))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("suite,records,failures,pass_rate,passed\n")
            for suite, cnt, fails, rate, passed in summary_rows:
                fh.write(f"{suite},{cnt},{fails},{rate:.6f},{passed}\n")
    _emit(
        {
            "command": "verify",
            "seed": seed,
            "trials": args.trials,
            "workers": workers,
            "suites": {
                suite: {"records": cnt, "failures": fails, "pass_rate": rate, "passed": passed}
                for suite, cnt, fails, rate, passed in summary_rows
            },
            "passed": ok,
        },
        started,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring


MAX_POOL_HELP = (
    "cap on the plain draws of the shared sample pool (default 2000000); the "
    "pool keeps distinct points with counts, so its memory is "
    "O(min(2^n, draws) * n)"
)


def _common(p: argparse.ArgumentParser):
    p.add_argument("--seed", default=str(DEFAULT_SEED), help="integer or 'random'")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dtdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--target", default=None, help="e.g. depth:2, junta:1, signdeg:2")
    _common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("learn-dist", help="fit a tree distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--oracle", choices=sorted(KIND_MODES), default="exact")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--accuracy", type=float, default=None)
    p.add_argument("--max-pool", type=int, default=None, help=MAX_POOL_HELP)
    p.add_argument("--infest-reps", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_learn_dist)

    p = sub.add_parser("estimate-influence", help="one influence estimate")
    p.add_argument("--dist", required=True)
    p.add_argument("--coord", type=int, required=True)
    p.add_argument("--restrict", default="", help="e.g. '0=+1,3=-1'")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--oracle", choices=sorted(KIND_MODES), default="subcube")
    _common(p)
    p.set_defaults(func=cmd_estimate_influence)

    p = sub.add_parser("lift", help="end-to-end lifted learning")
    p.add_argument("--dist", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--learner", required=True, help="tree:K or lowdeg:K")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--oracle", choices=sorted(KIND_MODES), default="exact")
    p.add_argument("--dist-eps", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--max-pool", type=int, default=None, help=MAX_POOL_HELP)
    p.add_argument("--infest-reps", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="randomized check suites")
    p.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes, at most the cores and the trials per suite")
    p.add_argument("--csv", default=None)
    _common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        OracleModeError,
        ZeroWeightSubcubeError,
        RejectionCapExceededError,
        BudgetExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DtdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
