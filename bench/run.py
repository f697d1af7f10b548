"""Benchmark of the dtdist learn and lift pipelines.

    python3 bench/run.py --workload learn-exact --seed 1 --seconds 20 --trace 0

Run from the repository root: the package is imported from ./src, and
the run fails (exit 2, no result) where ./src/dtdist is missing.

A run sets up (import, instance generation and one tiny warm-up item,
each repeated), then runs rounds of the workload's items until --seconds
have passed.  Each item's result is checked against the truth
by exact enumeration outside the timed region.  --trace 0 reports the
end-to-end metrics; --trace 1 wraps the package's entry points (see
workloads.TARGETS), runs every round untraced and then traced with the
same seeds, and reports the per-layer metrics.  The last line of stdout
is one JSON object; the lines before it and .bench_out/ hold the rest.
"""

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny items instead of the workload's own (self-test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "dtdist", "__init__.py")):
        print("bench: no src/dtdist here; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    load_before = os.getloadavg()
    sys.path.insert(0, src)
    import dtdist
    if os.path.dirname(os.path.dirname(os.path.abspath(dtdist.__file__))) != src:
        print(f"bench: imported dtdist from {dtdist.__file__}, not ./src", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, src, load_before)


if __name__ == "__main__":
    sys.exit(main())
