"""The benchmark's entry points run against this tree.

`perfbench/worker.py` and `perfbench/workloads.py` are only read here.  A
change that drops a name the benchmark calls fails this test, not the
benchmark run.
"""

import importlib.util
import os
import subprocess
import sys
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


# Tracer.install() patches every layer for the rest of its process, so the
# check runs in a fresh interpreter
_TRACED_CACHES = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer, worker
from kummerlab import cyclotomic
t = tracer.Tracer()
t.install()
missing = set(tracer.CACHES) - set(t.cache_info())
assert not missing, f"the tracer records no cache_info for {sorted(missing)}"
cyclotomic.unit_group_structure(12)
worker.empty_caches()
assert t.cache_info()["unit_group_structure"]["currsize"] == 0
"""


def test_tracer_sees_every_cache():
    # each name in tracer.CACHES is an lru_cache in a traced layer, and
    # worker.empty_caches() still clears the unit table through the wrappers
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _TRACED_CACHES, str(PERFBENCH)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
