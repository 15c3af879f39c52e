"""The benchmark's entry points run against this tree.

`perfbench/worker.py` and `perfbench/workloads.py` are only read here.  A
change that drops a name the benchmark calls fails this test, not the
benchmark run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the item counts of `perfbench/run.py --smoke`
SMOKE_ITEMS = {"tower-scan": 40, "series-exact": 3, "pipeline": 8,
               "split-trace": 8}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return _load("worker"), _load("workloads")


@pytest.mark.parametrize("name", SMOKE_ITEMS)
def test_smoke_workload_runs_in_process(harness, name, tmp_path):
    worker, workloads = harness
    wl = workloads.WORKLOADS[name](0, SMOKE_ITEMS[name], Counter(), str(tmp_path))
    worker.empty_caches()
    wl.begin()
    outcomes = Counter(wl.run(item) for item in wl.items)
    assert set(outcomes) <= {"ok", "inconclusive"}, outcomes
    assert set(wl.checks) <= wl.ran, (wl.checks, wl.ran)
    if name != "pipeline":
        assert outcomes["inconclusive"] == 0

