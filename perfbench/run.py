"""kummerlab benchmark: one seeded workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload tower-scan --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
A pass is one worker interpreter (``worker.py``) that runs the workload's
fixed item list, ITEMS[workload] long, with cold caches; 100 items or more,
so that ``item_ms_p90`` has ten samples beyond it.  A run spawns passes one
after another for ``--seconds``: it starts another pass while the last one
would still end in time, and makes at least MIN_PASSES (a ``pipeline`` pass
takes about 20 s on a 2-core Xeon, so its runs last about 45 s).  On a
shared 2-core box the same pass varies by a fifth to a third from one pass
to the next, so the run reports medians: ``run_s`` over passes, item latencies over
each item's passes, and ``setup_s`` (spawn until ``kummerlab.cli`` is
imported) over the workers plus enough import-only interpreters to make
SETUP_SAMPLES.  ``--trace 1`` runs one untraced and one traced pass
(``tracer.py``) and reports the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result; earlier lines are for people.
Files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_metrics  # noqa: E402

WORKLOADS = ("tower-scan", "series-exact", "pipeline", "split-trace")
ITEMS = {"tower-scan": 225, "series-exact": 100, "pipeline": 100,
         "split-trace": 100}
SMOKE_ITEMS = {"tower-scan": 40, "series-exact": 3, "pipeline": 8,
               "split-trace": 8}
MIN_PASSES = 2
SETUP_SAMPLES = 5
MAX_SECONDS = 120.0   # --seconds is cut to this, so that a run ends in time
RUN_BUDGET_S = 175.0
PROBE = ("import time, kummerlab.cli; "
         "print(time.monotonic(), kummerlab.cli.__file__)")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("items_per_s", "1/s"),
              ("item_ms_p50", "ms"), ("item_ms_p90", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _env():
    # a fixed hash seed makes set order, and so the work done, repeat across passes
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def _from_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def _spawn(argv, deadline):
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} ran past the run budget")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_time(deadline) -> float:
    t0 = time.monotonic()
    mono, path = _spawn([sys.executable, "-c", PROBE], deadline).split(maxsplit=1)
    if not _from_checkout(path):
        raise BenchError(f"kummerlab imported from {path}, not from {SRC}")
    return float(mono) - t0


def run_worker(name, seed, n_items, trace, scratch, deadline) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed),
            str(n_items), "1" if trace else "0", str(scratch)]
    t0 = time.monotonic()
    res = json.loads(_spawn(argv, deadline))
    if not _from_checkout(res["kummerlab_file"]):
        raise BenchError(f"kummerlab imported from {res['kummerlab_file']}")
    res["setup_s"] = res["setup_mono"] - t0
    res["wall_s"] = time.monotonic() - t0
    return res


def percentile_ms(latencies, p: float) -> float:
    """Nearest-rank percentile in milliseconds."""
    xs = sorted(latencies)
    return 1000 * xs[max(0, math.ceil(p * len(xs)) - 1)]


def merge_passes(passes: list[dict], setups: list[float]) -> dict:
    """One result from several passes over the same items."""
    res = dict(passes[0])
    run_s = statistics.median(p["run_s"] for p in passes)
    latencies = [statistics.median(ls) for ls in zip(*(p["latencies"] for p in passes))]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "items_per_s": len(latencies) / run_s,
        "item_ms_p50": percentile_ms(latencies, 0.5),
        "item_ms_p90": percentile_ms(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for key in ("attempted", "failed", "inconclusive"):
        res[key] = sum(p[key] for p in passes)
    res["failures"] = [f for p in passes for f in p["failures"]][:5]
    res["checks_ran"] = sorted(set().union(*(p["checks_ran"] for p in passes)))
    res["metrics"] = {name: {"value": values[name], "unit": unit}
                      for name, unit in END_TO_END}
    return res


def stamp(name, seed, res) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": name, "seed": seed, "commit": commit,
            "python": res["python"], "sympy": res["sympy"],
            "nproc": os.cpu_count(), "cpu": cpu}


def bench(name: str, seed: int, n_items: int, trace: bool, seconds: float) -> dict:
    """One run: the workers, then interpreters that only import."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        if trace:
            plain = run_worker(name, seed, n_items, False, scratch, deadline)
            res = run_worker(name, seed, n_items, True, scratch, deadline)
            res["metrics"] = layer_metrics(res["trace"], res["run_s"], plain["run_s"])
            tag = f"{name}-seed{seed}"
            shutil.move(scratch / "spans.jsonl.gz", OUT / f"{tag}-spans.jsonl.gz")
            with open(OUT / f"{tag}-trace.json", "w") as fh:
                json.dump({"stamp": stamp(name, seed, res), "metrics": res["metrics"],
                           "untraced_run_s": plain["run_s"], "spans": res["spans"],
                           **res["trace"]}, fh, indent=1)
        else:
            runs = []
            while (len(runs) < MIN_PASSES or
                   time.monotonic() + runs[-1]["wall_s"] <= start + seconds):
                runs.append(run_worker(name, seed, n_items, False, scratch, deadline))
            setups = [r["setup_s"] for r in runs]
            setups += [setup_time(deadline) for _ in range(SETUP_SAMPLES - len(runs))]
            res = merge_passes(runs, setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return res


def report(name, seed, res) -> dict:
    """Print the human-readable lines; return the result object."""
    n = res["attempted"]
    print("stamp " + json.dumps(stamp(name, seed, res)))
    print(f"items {n}  failed {res['failed']}  inconclusive {res['inconclusive']}  "
          f"checks {','.join(res['checks_ran'])}")
    for line in res["failures"]:
        print("failure " + line)
    for metric, m in res["metrics"].items():
        print(f"{metric:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_share':42s} {res['failed'] / n:.6g} 1")
    print(f"{'inconclusive_share':42s} {res['inconclusive'] / n:.6g} 1")
    correct = res["failed"] == 0 and set(res["checks"]) <= set(res["checks_ran"])
    return {"correct": correct, "attempted": n, "failed": res["failed"],
            "metrics": res["metrics"]}


def smoke() -> bool:
    """Tiny runs of every workload, traced and not, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    ok &= want[True] == {name: unit for name, unit, _k, _a in PER_LAYER}
    for name in WORKLOADS:
        for trace in (False, True):
            res = report(name, 0, bench(name, 0, SMOKE_ITEMS[name], trace, 0))
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            good = res["correct"] and got == want[trace]
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAIL'}")
            ok &= good
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25,
                    help="how long a run measures; it makes at least two passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check the harness itself on tiny inputs")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills its worker, finally removes scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kummerlab" / "cli.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            ap.error("--workload is required")
        res = bench(args.workload, args.seed, ITEMS[args.workload], bool(args.trace),
                    min(args.seconds, MAX_SECONDS))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
