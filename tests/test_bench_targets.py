"""The benchmark's traced entry points still exist in the package.

The benchmark wraps each dotted path in bench/workloads.py TARGETS and
errors if a workload's expected span never fires, so a rename or a
deletion in dtdist would otherwise only show when the benchmark runs.
bench/ is imported, not changed.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

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
