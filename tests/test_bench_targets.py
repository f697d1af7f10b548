"""The benchmark's traced entry points still exist in the package and
still fire.

The benchmark wraps each dotted path in bench/workloads.py TARGETS and
errors if a workload's expected span never fires, so a rename, a
deletion or a refactor that stops calling one in dtdist would otherwise
only show when the benchmark runs.  bench/ is imported and run, not
changed.
"""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, path", [(name, path) for name, path, _ in workloads.TARGETS])
def test_target_resolves(name, path):
    owner, attr = spans._resolve(path)
    assert callable(getattr(owner, attr)), name


def test_expected_spans_are_targets():
    names = {name for name, _, _ in workloads.TARGETS}
    for w in workloads.WORKLOADS.values():
        assert set(w.expected_spans) <= names, w.name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_fires_expected_spans(name):
    # a traced run exits 2 when one of the workload's expected spans never
    # fires; --smoke keeps it to tiny items (about a second)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-600:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_item_time_outside_entry_points_stays_small():
    # a full traced run fails when more than UNATTRIBUTED_MAX of the item
    # time is in no wrapped entry point, a check --smoke runs skip; 40
    # full-size learn-exact items (under a second) keep half that limit
    w = workloads.WORKLOADS["learn-exact"]
    size = dataclasses.replace(w.size, items=40)
    tracer = spans.Tracer("dtdist")
    harness.run_round(w, size, workloads.make_items(w, size, 1), 1, 0, tracer)
    item = tracer.table(lambda tid: tid is not None)["bench.item"]
    assert item["self_s"] <= harness.UNATTRIBUTED_MAX / 2 * item["s"], item
