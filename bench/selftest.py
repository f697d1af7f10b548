"""Smoke test of the benchmark: a few tiny items of every workload.

    python3 bench/selftest.py

Run from the repository root.  Every workload of workloads.py runs in
both modes, each in a fresh process and one at a time.  A run passes when
it exits 0, is correct with no failed item, and emits exactly the metrics
BENCHMARK.json names for its mode with their units.  A traced run is
correct only if its per-layer self times add up to the traced wall time
(harness.py checks that).  Last, run.py must refuse to run, without a
result line, where ./src/dtdist is missing.
"""

import json
import os
import subprocess
import sys

RUN = os.path.abspath(os.path.join(os.path.dirname(__file__), "run.py"))
TIMEOUT_S = 170


def run(args, cwd="."):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def check(spec, name, trace):
    proc = run(["--workload", name, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {key: val["unit"] for key, val in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    return problems


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, "src")
    import workloads  # every workload run.py knows, gated in BENCHMARK.json or not

    failures = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check(spec, name, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    empty = os.path.join(".bench_out", "no-src")
    os.makedirs(empty, exist_ok=True)
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=empty)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without src/dtdist")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
