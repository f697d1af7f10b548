"""Command-line front end.

Commands: gen (random instances), learn-dist (fit a tree distribution),
estimate-influence (one influence query), lift (end-to-end lifting),
verify (randomized check suites).  Each cmd_* function returns (summary,
passed) and neither prints nor opens a file: main times it, appends
elapsed_s to the summary, prints it as one JSON line and exits 0 if it
passed, 1 if not.  Artifacts (--out, --csv) are written through _write,
which reports a path it cannot write as a ConfigError.  An error exits
with the code _EXIT_CODES gives its class: 2 configuration error, 3
oracle/budget error, 1 any other error; it prints one "error:" line on
stderr and nothing on stdout.  learn-dist, estimate-influence and lift
read --dist, --eps, --delta, --oracle and --seed through _open.

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
    _dense,
    json_dumps,
    load_json,
    points_to_indices,
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
from .builddt import check_depth, check_unit, learn_distribution_result
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

# the exit code of an error is that of the first class in its method
# resolution order listed here
_EXIT_CODES = {
    ConfigError: 2,
    OracleModeError: 3,
    ZeroWeightSubcubeError: 3,
    RejectionCapExceededError: 3,
    BudgetExceededError: 3,
    DtdistError: 1,
}


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


def _write(path: str, *lines: str) -> None:
    """Writes each line and a newline to path; raises ConfigError if the
    path cannot be written."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _open(args):
    """(dist, oracle, seed) of a --dist command, after checking --eps and
    --delta."""
    check_unit("--eps", args.eps)
    check_unit("--delta", args.delta)
    dist = _load_dist(args.dist)
    seed = _parse_seed(args.seed)
    return dist, DistOracle(dist, KIND_MODES[args.oracle], seed), seed


def _estimator_budget(args) -> EstimatorBudget:
    b = EstimatorBudget()
    if args.max_pool is not None:
        b.max_pool = args.max_pool
    if args.infest_reps is not None:
        b.infest_reps_cap = args.infest_reps
    return b


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> tuple:
    if not 1 <= args.n <= 20:
        raise ConfigError(f"--n must be in [1,20], got {args.n}")
    seed = _parse_seed(args.seed)
    if args.monotone:
        inst = gen_monotone_dist(args.n, args.depth, seed)
    else:
        inst = gen_dt_dist(args.n, args.depth, seed)
    if args.target:
        parse_target(args.n, args.target)  # checked whether or not --out asks for the table
    files = {}
    if args.out:
        files = {"tree": args.out + ".tree.json", "dense": args.out + ".dense.json"}
        _write(files["tree"], json_dumps(inst.tree.to_json_dict()))
        _write(files["dense"], json_dumps(inst.dense.to_json_dict()))
        if args.target:
            files["target"] = args.out + ".target.json"
            table = gen_target(args.n, args.target, derive_seed(seed, "target"))
            _write(files["target"], json_dumps({"n": args.n, "table": [int(v) for v in table]}))
    summary = {
        "command": "gen",
        "n": args.n,
        "depth": inst.tree.depth(),
        "kind": inst.kind,
        "monotone": inst.monotone,
        "leaves": len(inst.tree.leaves()),
        "seed": seed,
        "files": files,
    }
    return summary, True


def cmd_learn_dist(args) -> tuple:
    dist, oracle, seed = _open(args)
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
    tv_exact = tv_distance(_dense(dist), tree_to_dense(result.tree))
    if args.out:
        _write(args.out, json_dumps(result.tree.to_json_dict()))
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
    return summary, summary["pass"]


def cmd_estimate_influence(args) -> tuple:
    dist, oracle, seed = _open(args)
    if not 0 <= args.coord < dist.n:
        raise ConfigError(f"--coord must be in [0,{dist.n})")
    s = _parse_restriction(args.restrict, dist.n)
    if args.coord in s.coords():
        raise ConfigError(f"--coord {args.coord} is fixed by --restrict")
    i_oracle = InfluenceOracle(args.oracle, oracle, args.eps, args.delta)
    # the exact oracle reports on the restricted scale, samplers on the
    # conditional one; compare against the matching ground truth
    ref = _dense(dist)
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
    return summary, True


def cmd_lift(args) -> tuple:
    dist, oracle, seed = _open(args)
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
    factories = {"tree": make_exhaustive_tree_learner, "lowdeg": make_low_degree_learner}
    if name not in factories:
        raise ConfigError(f"unknown learner {name!r}")
    check_depth(args.depth, dist.n)
    # the learner's own delta sits below delta/(2*2^depth) so the lift
    # never needs confidence boosting (whose holdout cost is enormous);
    # the learners only pay log(1/delta) for it
    leaf_delta = args.delta / (4.0 * 2.0 ** args.depth)
    learner = factories[name](dist.n, k, args.eps / 2.0, leaf_delta)
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
    err = dist_error(result.hypothesis, table, _dense(dist))
    if args.out:
        _write(args.out, json_dumps(result.hypothesis.to_json_dict()))
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
    return summary, summary["pass"]


# ---------------------------------------------------------------------------
# verify suites


def _verify_inequalities(trial: int, seed: int) -> list:
    n, d = 4 + trial % 7, 1 + trial % 3
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


def cmd_verify(args) -> tuple:
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
        _write(args.out, *map(json_dumps, rows))
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
        _write(args.csv, "suite,records,failures,pass_rate,passed",
               *(f"{suite},{cnt},{fails},{rate:.6f},{passed}"
                 for suite, cnt, fails, rate, passed in summary_rows))
    summary = {
        "command": "verify",
        "seed": seed,
        "trials": args.trials,
        "workers": workers,
        "suites": {
            suite: {"records": cnt, "failures": fails, "pass_rate": rate, "passed": passed}
            for suite, cnt, fails, rate, passed in summary_rows
        },
        "passed": ok,
    }
    return summary, ok


# ---------------------------------------------------------------------------
# argument wiring


MAX_POOL_HELP = (
    "cap on the plain draws of the shared sample pool (default 2000000); the "
    "pool keeps distinct points with counts, so its memory is "
    "O(min(2^n, draws) * n)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dtdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    gen, learn, estimate, lift, verify = (
        sub.add_parser(name, help=text)
        for name, text in (("gen", "generate a random instance"),
                           ("learn-dist", "fit a tree distribution"),
                           ("estimate-influence", "one influence estimate"),
                           ("lift", "end-to-end lifted learning"),
                           ("verify", "randomized check suites")))
    for p, eps, delta, oracle in ((learn, None, 0.1, "exact"), (estimate, 0.05, 0.05, "subcube"),
                                  (lift, None, 0.1, "exact")):
        p.add_argument("--dist", required=True)
        p.add_argument("--eps", type=float, required=eps is None, default=eps)
        p.add_argument("--delta", type=float, default=delta)
        p.add_argument("--oracle", choices=sorted(KIND_MODES), default=oracle)
    for p in (gen, learn, lift):
        p.add_argument("--depth", type=int, required=True)
    for p in (learn, lift):
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--max-pool", type=int, default=None, help=MAX_POOL_HELP)
        p.add_argument("--infest-reps", type=int, default=None)

    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--monotone", action="store_true")
    gen.add_argument("--target", default=None, help="e.g. depth:2, junta:1, signdeg:2")
    learn.add_argument("--accuracy", type=float, default=None)
    estimate.add_argument("--coord", type=int, required=True)
    estimate.add_argument("--restrict", default="", help="e.g. '0=+1,3=-1'")
    lift.add_argument("--target", required=True)
    lift.add_argument("--learner", required=True, help="tree:K or lowdeg:K")
    lift.add_argument("--dist-eps", type=float, default=None)
    verify.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--workers", type=int, default=None,
                        help="worker processes, at most the cores and the trials per suite")
    verify.add_argument("--csv", default=None)
    for p, func in ((gen, cmd_gen), (learn, cmd_learn_dist), (estimate, cmd_estimate_influence),
                    (lift, cmd_lift), (verify, cmd_verify)):
        p.set_defaults(func=func)
        p.add_argument("--seed", default=str(DEFAULT_SEED), help="integer or 'random'")
        if p is not estimate:  # the one command that writes no artifact
            p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        summary, passed = args.func(args)
    except DtdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
    summary["elapsed_s"] = time.time() - started
    print(json_dumps(summary))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
