"""Setup, timed rounds, checks and metrics of one benchmark run.

Imported by run.py once the package path and thread limits are set.
"""

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

import hostspeed
import spans
import workloads

# set-up repetitions before the rounds, and again after them (untraced),
# so that setup_s spans the run as wall_s does
SETUP_REPS = 4
IMPORT_REPS = 5
# no round starts that would end past this, so a slow commit still exits in time
TIME_CAP_S = 140.0
# share of items within eps that a run needs: criterion 1 for the exact
# search, criteria 3, 4 and 9 for the sample pipelines and the lift
ACCURACY_FLOOR = {"learn-exact": 1.0}
DEFAULT_ACCURACY_FLOOR = 0.9
# the per-layer self times must add up to the traced wall time within this
# share of it, plus the cost of entering and leaving the root span per item
SELF_TOLERANCE = 0.02
SELF_TOLERANCE_PER_ITEM_S = 5e-5
# share of the traced wall time that no wrapped entry point may cover: the
# root span's own time, so a top-level entry point that is renamed, inlined
# or bypassed shows up as a failed check
UNATTRIBUTED_MAX = 0.02
OUT_DIR = ".bench_out"

END_TO_END = {"wall_norm": "loops", "setup_s": "s", "peak_rss_mb": "MB"}
WORK = {
    "core.consistent_mask.rows": "count",
    "core.consistent_mask.kept_ratio": "ratio",
    "core.DensePmf.eval_batch.rows": "count",
    "core.DistTree.leaf_index_batch.rows": "count",
    "core.sample_batch.points": "count",
    "core.subcube_sample_batch.points": "count",
    "core.two_point_fraction_batch.rows": "count",
    "core.oracle.SAMPLE": "count",
    "core.oracle.SUBCUBE_SAMPLE": "count",
    "core.oracle.EXACT_PMF": "count",
    "influence.plain_pool.rows_max": "count",
    "influence.plain_pool.bytes": "B",
    "influence.estimate_all.coords": "count",
    "influence.exact_influence_all.cells": "count",
    "builddt.recursive_calls": "count",
    "builddt.influence_queries": "count",
    "builddt.leaf_estimates": "count",
    "lift.split_and_rerandomize.rows": "count",
    "lift.exhaustive_tree_learn.points": "count",
    "lift.labeled_points": "count",
    "lift.leaf_ok_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.self_coverage": "ratio",
    "trace.unattributed_share": "ratio",
}


def span_names():
    return ["bench.item"] + list(dict.fromkeys(name for name, _, _ in workloads.TARGETS))


def per_layer_units():
    """{metric: unit} of the traced run, in a fixed order."""
    units = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(WORK)
    return units


class Round:
    """Results of running every item once."""

    def __init__(self):
        self.times = []
        self.loop_s = None  # median reference-loop time while the round ran
        self.errors = []
        self.outputs = []
        self.queries = {}
        self.attempted = 0
        self.failed = 0
        self.malformed = 0


def run_round(w, size, items, seed, r, tracer=None):
    """Run every item once, then check each result outside the timed region
    (and, when tracing, with the entry points unwrapped again).  An
    untraced round samples the host's speed while it runs; the sampling
    time is taken out of each item's time."""
    rnd = Round()
    results = []
    run = workloads.run_item
    sampler = hostspeed.Sampler()
    installed = sampler
    if tracer is not None:
        run = tracer.wrap("bench.item", run)
        installed = tracer.installed(workloads.TARGETS)
    with installed:
        for j, item in enumerate(items):
            rnd.attempted += 1
            if tracer is not None:
                tracer.trace_id = f"r{r}.i{j}"
            start, sampled = time.perf_counter(), sampler.spent()
            try:
                out, oracles = run(w, size, item, workloads.oracle_seed(item, seed, r, j))
            except Exception:  # an item that raises is a failed operation, not a crash
                traceback.print_exc(file=sys.stderr)
                rnd.failed += 1
                continue
            rnd.times.append(time.perf_counter() - start - (sampler.spent() - sampled))
            results.append((item, out, oracles))
    rnd.loop_s = sampler.loop_s()
    for item, out, oracles in results:
        for oracle in oracles:
            for mode, count in oracle.query_count.items():
                rnd.queries[mode.name] = rnd.queries.get(mode.name, 0) + count
        try:
            rnd.errors.append(workloads.check_item(w, size, item, out))
            rnd.outputs.append(workloads.output_json(w, out))
        except workloads.CheckFailed as exc:
            print(f"bench: malformed result: {exc}", file=sys.stderr)
            rnd.malformed += 1
    return rnd


def import_times(src):
    """Time `import dtdist` in IMPORT_REPS fresh interpreters, one at a time.
    numpy is imported first and not timed: its import is the same for every
    commit of the package and moves with the host's file cache."""
    code = ("import time, numpy; start = time.perf_counter(); import dtdist; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=src)
    return [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(IMPORT_REPS)]


def setup(w, size, seed, tracer):
    """Generate the round's items and run one tiny warm-up item, SETUP_REPS
    times; returns (items, the time of each repetition)."""
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        with tracer.installed(workloads.TARGETS) if tracer else contextlib.nullcontext():
            if tracer is not None:
                tracer.trace_id = "setup"
            items = workloads.make_items(w, size, seed)
            warm = workloads.make_items(w, workloads.TINY, seed, replay=False)[0]
            workloads.run_item(w, workloads.TINY, warm, workloads.oracle_seed(warm, seed, -1, rep))
        times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.trace_id = None
        tracer.counts.clear()
        tracer.maxima.clear()
    return items, times


def measure(w, size, items, seed, seconds, tracer):
    """Rounds until `seconds` have passed; with a tracer every round runs
    untraced and then traced with the same seeds.  Returns (untraced
    rounds, traced rounds)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        r = len(plain)
        plain.append(run_round(w, size, items, seed, r))
        if tracer is not None:
            traced.append(run_round(w, size, items, seed, r, tracer))
            tracer.trace_id = None
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed * (r + 2) / (r + 1) > TIME_CAP_S:
            return plain, traced


def end_to_end_metrics(plain, setup_s, peak_rss_mb):
    return {
        "wall_norm": statistics.median(sum(rnd.times) / rnd.loop_s for rnd in plain),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(w, tracer, plain, traced):
    """Per-round means over the traced rounds (testbed.gen: per setup)."""
    units = per_layer_units()
    rounds = len(traced)
    items = tracer.table(lambda tid: tid is not None and tid != "setup")
    setup_rows = tracer.table(lambda tid: tid == "setup")
    missing = [name for name in w.expected_spans
               if name not in (setup_rows if name == "testbed.gen" else items)]
    if missing:
        raise RuntimeError(f"expected spans never fired on {w.name}: {missing}")
    out = {}
    for name in span_names():
        rows, per = (setup_rows, SETUP_REPS) if name == "testbed.gen" else (items, rounds)
        for what in ("calls", "s", "self_s"):
            out[f"{name}.{what}"] = rows.get(name, {}).get(what, 0) / per
    c, m = tracer.counts, tracer.maxima
    for metric in WORK:
        if metric in m:
            out[metric] = m[metric]
        elif metric in c:
            out[metric] = c[metric] / rounds
        else:
            out[metric] = 0.0
    out["core.consistent_mask.kept_ratio"] = (
        c["core.consistent_mask.kept"] / c["core.consistent_mask.rows"]
        if c["core.consistent_mask.rows"] else 0.0)
    out["lift.leaf_ok_ratio"] = c["lift.leaves_ok"] / c["lift.leaves"] if c["lift.leaves"] else 0.0
    for mode in ("SAMPLE", "SUBCUBE_SAMPLE", "EXACT_PMF"):
        out[f"core.oracle.{mode}"] = sum(rnd.queries.get(mode, 0) for rnd in traced) / rounds
    walls = [sum(rnd.times) for rnd in traced]
    out["trace.overhead_s"] = statistics.median(
        t - sum(p.times) for t, p in zip(walls, plain))
    out["trace.self_coverage"] = sum(row["self_s"] for row in items.values()) / sum(walls)
    out["trace.unattributed_share"] = items["bench.item"]["self_s"] / items["bench.item"]["s"]
    return {k: out[k] for k in units}, units


def run(args, src, load_before):
    """Run one workload as run.py's arguments say; prints the result."""
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.smoke else w.size
    tracer = spans.Tracer("dtdist") if args.trace else None

    items, setup_times = setup(w, size, args.seed, tracer)
    imports = import_times(src) if tracer is None else []
    plain, traced = measure(w, size, items, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        setup_times += setup(w, size, args.seed, None)[1]
        imports += import_times(src)

    every = plain + traced
    attempted = sum(rnd.attempted for rnd in every)
    failed = sum(rnd.failed for rnd in every)
    errors = [e for rnd in every for e in rnd.errors]
    times = [t for rnd in plain for t in rnd.times]
    accuracy = sum(e <= size.eps for e in errors) / len(errors) if errors else 0.0
    floor = ACCURACY_FLOOR.get(w.name, DEFAULT_ACCURACY_FLOOR)
    digest = workloads.digest(plain[0].outputs)
    problems = []
    if not errors:
        problems.append("no item completed")
    if any(rnd.malformed for rnd in every):
        problems.append("malformed results")
    if errors and accuracy < floor:
        problems.append(f"accuracy_rate {accuracy:.3f} below {floor}")
    if failed:
        problems.append(f"{failed} of {attempted} items raised")

    if tracer is None:
        metrics = end_to_end_metrics(
            plain, statistics.median(imports) + statistics.median(setup_times), peak_rss_mb)
        units = END_TO_END
    else:
        metrics, units = per_layer_metrics(w, tracer, plain, traced)
        if any(workloads.digest(t.outputs) != workloads.digest(p.outputs)
               for p, t in zip(plain, traced)):
            problems.append("traced results differ from untraced ones")
        traced_items = sum(len(rnd.times) for rnd in traced)
        allowed = SELF_TOLERANCE + SELF_TOLERANCE_PER_ITEM_S * traced_items / sum(
            sum(rnd.times) for rnd in traced)
        if abs(metrics["trace.self_coverage"] - 1.0) > allowed:
            problems.append(f"self times cover {metrics['trace.self_coverage']:.4f} "
                            f"of the traced wall time")
        if not args.smoke and metrics["trace.unattributed_share"] > UNATTRIBUTED_MAX:
            problems.append(f"{metrics['trace.unattributed_share']:.4f} of the traced wall "
                            f"time is in no wrapped entry point")

    # the highest percentile with at least ten items beyond it
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None
    reported = {
        "import_s": imports,
        "setup_reps_s": setup_times,
        "rounds": len(plain),
        "wall_s": statistics.median(sum(rnd.times) for rnd in plain),
        "round_walls_s": [sum(rnd.times) for rnd in plain],
        "round_loop_s": [rnd.loop_s for rnd in plain],
        "items_per_round": size.items,
        "items_timed": len(times),
        "item_p50_s": statistics.median(times) if times else None,
        "item_p90_s": p90,
        "fail_rate": failed / attempted,
        "accuracy_rate": accuracy,
        "mean_error": statistics.fmean(errors) if errors else None,
        "output_digest": digest,
    }
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    for key, val in env.items():
        print(f"  env {key} = {val}")
    for key, val in reported.items():
        print(f"  {key} = {val}")
    if p90 is None:
        print(f"  (item_p90_s needs 100 timed items to have ten beyond it; "
              f"this run timed {len(times)})")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]!r} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}"
                              f"{'-smoke' if args.smoke else ''}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                   "smoke": args.smoke, "env": env, "reported": reported,
                   "problems": problems, **result}, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0
