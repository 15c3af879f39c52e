"""One workload run in a fresh interpreter, so every lru_cache starts cold.

Usage: python3 worker.py WORKLOAD SEED N_ITEMS TRACE SCRATCH_DIR

Prints one JSON object: the monotonic clock reading once ``kummerlab.cli`` is
imported, the timed phase's wall time, per-item latencies, outcome counts,
peak RSS and, when TRACE is 1, the tracer's summary.  Spans go to
SCRATCH_DIR/spans.jsonl.gz.
"""

import time

import kummerlab.cli  # first, so that the clock reading below is set-up time

SETUP_MONO = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import sympy  # noqa: E402
from kummerlab import automorphic, cyclotomic, finitefield  # noqa: E402

# lru_caches that generating the inputs may fill.  CycloField stays: the
# inputs hold its fields, and elements of two instances of one field do not mix.
COLD = ((finitefield, "make_ext_field"), (cyclotomic, "cyclotomic_poly_coeffs"),
        (cyclotomic, "cyclo_primes_above"), (automorphic, "unit_group_structure"),
        (automorphic, "_unit_logs"))


def empty_caches():
    for mod, name in COLD:
        fn = getattr(mod, name)
        clear = getattr(fn, "cache_clear", None) or fn.__wrapped__.cache_clear
        clear()
    automorphic._H_CACHE.clear()  # norm_subgroup tables, filled by norm_equal


def main(argv):
    name, seed, n_items, trace, scratch = argv
    seed, n_items, trace = int(seed), int(n_items), trace == "1"
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    counts = tracer.counts if tracer else Counter()
    wl = WORKLOADS[name](seed, n_items, counts, scratch)
    empty_caches()

    if tracer:
        tracer.start()
    latencies, outcomes, failures = [], Counter(), []
    start = time.perf_counter()
    try:
        wl.begin()
    except Exception as e:  # a failed set-up check fails the run as a whole
        outcomes["failed"] += 1
        failures.append(f"begin: {e!r}"[:500])
    for i, item in enumerate(wl.items):
        if tracer:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            outcomes[wl.run(item)] += 1
        except Exception as e:  # the item boundary: record and go on
            # InconclusiveError too: only the workload may call an item inconclusive
            outcomes["failed"] += 1
            if len(failures) < 5:
                failures.append(f"item {i}: {e!r}"[:500])
        latencies.append(time.perf_counter() - t0)
    run_s = time.perf_counter() - start

    result = {
        "setup_mono": SETUP_MONO,
        "kummerlab_file": kummerlab.cli.__file__,
        "run_s": run_s,
        "latencies": latencies,
        "attempted": len(wl.items),
        "failed": outcomes["failed"],
        "inconclusive": outcomes["inconclusive"],
        "failures": failures,
        "checks_ran": sorted(wl.ran),
        "checks": list(wl.checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(scratch, "spans.jsonl.gz"))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
