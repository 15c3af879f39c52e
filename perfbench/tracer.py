"""Per-layer tracing from outside the program.

The layers are the ``kummerlab`` modules plus the ``sympy`` number-theory
entry points they call.  ``Tracer.install`` wraps every public module-level
function of each layer and patches the wrapper in wherever the original is
bound: in its own module, in every other ``kummerlab`` module that imported
it, and (for sympy) on the ``sympy`` namespace that ``kummerlab`` reads it
from.  The program's sources are not touched.

Each wrapped call records a span ``[name, start, end, parent, item, top,
resume]`` in memory; ``top`` is false for a call nested inside a call of
the same function, ``resume`` marks one resumption of a generator the
function returned.  Two hot methods (``CycloElement.__mul__`` and
``CycloElement.norm``) are only counted, because a span per arithmetic
operation would swamp the run; their time lands in the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("finitefield", "cyclotomic", "tower", "splitting", "automorphic",
          "lseries", "determination", "cli")

# the sympy.ntheory entry points (and sympy.gcd on ints) kummerlab calls
SYMPY_NAMES = ("primefactors", "factorint", "isprime", "n_order", "primerange",
               "totient", "primitive_root", "jacobi_symbol", "integer_nthroot",
               "divisors", "nextprime", "gcd")

# lru_cache'd constructors whose hit/miss counts the trace records
CACHES = ("make_ext_field", "cyclo_primes_above", "CycloField", "unit_group_structure")

# (metric, unit, kind, argument); every per_layer metric in BENCHMARK.json
PER_LAYER = (
    ("finitefield.self_s", "s", "self", "finitefield"),
    ("finitefield.make_ext_field_s", "s", "time", "finitefield.make_ext_field"),
    ("finitefield.fields_built", "count", "misses", "make_ext_field"),
    ("finitefield.pth_roots_s", "s", "time", "finitefield.pth_roots"),
    ("finitefield.pth_roots_calls", "count", "calls", "finitefield.pth_roots"),
    ("cyclotomic.self_s", "s", "self", "cyclotomic"),
    ("cyclotomic.cyclo_primes_above_s", "s", "time", "cyclotomic.cyclo_primes_above"),
    ("cyclotomic.cyclo_primes_above_hit_ratio", "ratio", "hit_ratio", "cyclo_primes_above"),
    ("cyclotomic.norm_calls", "count", "counter", "cyclotomic.norm_calls"),
    ("cyclotomic.mul_calls", "count", "counter", "cyclotomic.mul_calls"),
    ("cyclotomic.datum_power_certificate_s", "s", "time", "cyclotomic.datum_power_certificate"),
    ("tower.self_s", "s", "self", "tower"),
    ("tower.verify_nested_s", "s", "time", "tower.verify_nested"),
    ("splitting.self_s", "s", "self", "splitting"),
    ("splitting.classify_prime_s", "s", "time", "splitting.classify_prime"),
    ("splitting.trace_prime_s", "s", "time", "splitting.trace_prime"),
    ("splitting.inert_chain_certificate_s", "s", "time", "splitting.inert_chain_certificate"),
    ("splitting.element_pth_roots_s", "s", "time", "splitting.element_pth_roots"),
    ("splitting.norm_subgroup_s", "s", "time", "splitting.norm_subgroup"),
    ("splitting.inert_splits_in_top_s", "s", "time", "splitting.inert_splits_in_top"),
    ("automorphic.self_s", "s", "self", "automorphic"),
    ("automorphic.satake_s", "s", "time", "automorphic.satake"),
    ("automorphic.satake_calls", "count", "calls", "automorphic.satake"),
    ("automorphic.base_change_s", "s", "time", "automorphic.base_change"),
    ("automorphic.make_isobaric_s", "s", "time", "automorphic.make_isobaric"),
    ("automorphic.twist_equivalent_s", "s", "time", "automorphic.twist_equivalent"),
    ("lseries.self_s", "s", "self", "lseries"),
    ("lseries.rs_coeffs_s", "s", "time", "lseries.rs_coeffs"),
    ("lseries.root_of_unity_s", "s", "time", "lseries.root_of_unity"),
    ("lseries.root_of_unity_calls", "count", "calls", "lseries.root_of_unity"),
    ("determination.self_s", "s", "self", "determination"),
    ("determination.check_agreement_s", "s", "time", "determination.check_agreement"),
    ("determination.rows_compared", "count", "counter", "determination.rows_compared"),
    ("determination.build_L_s", "s", "time", "determination.build_L"),
    ("determination.descend_chain_s", "s", "time", "determination.descend_chain"),
    ("determination.final_descent_s", "s", "time", "determination.final_descent"),
    ("cli.self_s", "s", "self", "cli"),
    ("cli.report_bytes", "bytes", "counter", "cli.report_bytes"),
    ("sympy.self_s", "s", "self", "sympy"),
    ("sympy.calls", "count", "calls", "sympy"),
    ("trace.run_s", "s", "run", None),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.remainder_s", "s", "remainder", None),
)


class Tracer:
    """Spans and counters for one traced run; install once per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._caches: dict = {}
        self._cache_start: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _open(self, key, resume):
        rec = [key, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.item, self._depth[key] == 0, resume]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self._depth[key] += 1
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._depth[rec[0]] -= 1
        self.stack.pop()

    def _resumed(self, key, gen):
        while True:
            rec = self._open(key, True)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                self._close(rec)
            yield value

    def _wrap(self, key, fn, after=None):
        def traced(*args, **kwargs):
            rec = self._open(key, False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result)
            if inspect.isgenerator(result):
                return self._resumed(key, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _rows(self, hyp):
        self.counts["determination.rows_compared"] += len(hyp.rows)

    def install(self):
        """Wrap every layer's public functions and patch them in everywhere."""
        import sympy
        mods = {layer: importlib.import_module(f"kummerlab.{layer}")
                for layer in LAYERS}
        after = {"determination.check_agreement": self._rows}
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrapped[id(obj)] = self._wrap(key, obj, after.get(key))
                if name in CACHES:
                    self._caches[name] = obj
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        for name in SYMPY_NAMES:
            setattr(sympy, name, self._wrap(f"sympy.{name}", getattr(sympy, name)))
        elem = mods["cyclotomic"].CycloElement
        elem.__mul__ = elem.__rmul__ = self._count("cyclotomic.mul_calls", elem.__mul__)
        elem.norm = self._count("cyclotomic.norm_calls", elem.norm)

    # -- the timed phase ----------------------------------------------------

    def cache_info(self) -> dict:
        return {name: fn.cache_info()._asdict() for name, fn in self._caches.items()}

    def start(self):
        """Forget everything recorded so far (input generation, imports)."""
        if self.stack:
            raise RuntimeError("tracer reset inside a traced call")
        self.spans.clear()
        self.counts.clear()
        self._cache_start = self.cache_info()

    def cache_delta(self) -> dict:
        end = self.cache_info()
        return {name: {k: end[name][k] - self._cache_start[name][k]
                       for k in ("hits", "misses")} | {"currsize": end[name]["currsize"]}
                for name in end}

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer, top-level time and call count per function."""
        child = [0.0] * len(self.spans)
        for key, t0, t1, parent, _item, _top, _res in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        fn_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (key, t0, t1, _parent, _item, top, resume) in enumerate(self.spans):
            layer = key.split(".", 1)[0]
            self_s[layer] += (t1 - t0) - child[i]
            if top:
                fn_s[key] += t1 - t0
            if not resume:
                calls[key] += 1
                calls[layer] += 1
        return {"self_s": dict(self_s), "fn_s": dict(fn_s), "calls": dict(calls),
                "counts": dict(self.counts), "caches": self.cache_delta()}

    def write_spans(self, path):
        """Gzipped JSON lines [name, start, end, parent, item]; times in us from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for key, start, end, parent, item, _top, _resume in self.spans:
                fh.write(json.dumps([key, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), parent, item]) + "\n")


def layer_metrics(summary: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """The PER_LAYER metrics from one traced worker's summary."""
    out = {}
    for name, unit, kind, arg in PER_LAYER:
        if kind == "self":
            value = summary["self_s"].get(arg, 0.0)
        elif kind == "time":
            value = summary["fn_s"].get(arg, 0.0)
        elif kind == "calls":
            value = summary["calls"].get(arg, 0)
        elif kind == "counter":
            value = summary["counts"].get(arg, 0)
        elif kind == "misses":
            value = summary["caches"][arg]["misses"]
        elif kind == "hit_ratio":
            c = summary["caches"][arg]
            value = c["hits"] / (c["hits"] + c["misses"]) if c["hits"] + c["misses"] else 0.0
        elif kind == "run":
            value = traced_run_s
        elif kind == "overhead":
            value = traced_run_s - untraced_run_s
        else:  # remainder: traced time spent outside every wrapped call
            value = traced_run_s - sum(summary["self_s"].values())
        out[name] = {"value": value, "unit": unit}
    return out
