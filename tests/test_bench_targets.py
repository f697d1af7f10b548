"""The benchmark's traced entry points still exist in the package and
still fire.

The benchmark wraps each dotted path in bench/workloads.py TARGETS and
errors if a workload's expected span never fires, so a rename, a
deletion or a refactor that stops calling one in dtdist would otherwise
only show when the benchmark runs.  bench/ is imported and run, not
changed.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

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
