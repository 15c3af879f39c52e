"""The four benchmark workloads: seeded inputs, one timed item, output checks.

Every workload keeps the shape of the work fixed and lets the seed change the
numbers the program computes with.  Seed 0 uses the acceptance-gate inputs
the workload mirrors, thinned or capped to fit a run; any other seed rewrites
each input into another one with the same structure:

* tower data alpha become alpha * beta^(p^r) for a seeded prime beta above
  every scanned prime (the same tower field, so the same inert/split pattern
  and the same fields to build);
* characters become Galois conjugates chi^k with k prime to the order (the
  same moduli, orders and value fields), and pair sides are shuffled.

Fresh inputs per seed would make the run time measure the draw rather than
the code: item costs are heavy tailed (one criterion-6 pair takes 16 s where
most take tens of milliseconds).

The program is reached through module attributes (``splitting.trace_prime``)
so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import sympy

from kummerlab import (automorphic, cli, cyclotomic, determination, lseries,
                       splitting, tower)

SCAN_BOUND = 2000           # criterion 1's prime bound
BETA_RANGE = (2003, 4999)   # multiplier primes: above every scanned prime


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


class Workload:
    name = ""
    checks: tuple[str, ...] = ()

    def __init__(self, seed: int, n_items: int, counts: Counter, scratch: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.counts = counts
        self.scratch = scratch
        self.ran: set[str] = set()
        self.items = self.make_items(n_items)

    def make_items(self, n: int) -> list:
        raise NotImplementedError

    def begin(self):
        """Timed work that belongs to no single item."""

    def run(self, item) -> str:
        """Run one item and check it; 'ok' or 'inconclusive', or raise.

        Any exception, InconclusiveError included, counts the item as failed.
        """
        raise NotImplementedError

    def check(self, name: str, ok: bool, detail=""):
        self.ran.add(name)
        if not ok:
            raise CheckFailed(f"{name}: {detail}")


# ---------------------------------------------------------------------------
# towers shared by tower-scan and split-trace

CHAIN_DATA = {  # acceptance criterion 1
    (4, 2): ("3", "5", "6", "7", "10", "11", "1+z", "2+z", "1+2*z", "3+2*z"),
    (9, 3): ("2", "3", "5", "7", "10", "11", "13", "1+z", "2+z", "1+z+z**2"),
}


def _chain_towers(rng, seed, keep=lambda m, r, text: True):
    """Criterion-1 towers (height i % 3 + 1), seeded multiplier applied."""
    betas = list(sympy.primerange(*BETA_RANGE))
    out = []
    for (m, p), data in CHAIN_DATA.items():
        for i, text in enumerate(data):
            r = i % 3 + 1
            if not keep(m, r, text):
                continue
            alpha = cli.parse_alpha(text, m)
            if seed:
                alpha = alpha.scale(rng.choice(betas) ** (p ** r))
            out.append(tower.KummerTower(m, p, r, alpha))
    return out


def _ramified(t) -> set[int]:
    bad = {t.p} | set(sympy.primefactors(t.m))
    for d in (t.datum,) + t.pre_steps:
        bad |= d.core_support()
        bad |= set(sympy.primefactors(abs(d.rat.numerator)))
        bad |= set(sympy.primefactors(d.rat.denominator))
    return bad


def _scan_items(towers, primes, n: int) -> list[tuple[int, int]]:
    """(tower index, base prime) for every unramified pair, by prime; the first n."""
    skips = [_ramified(t) for t in towers]
    items = [(i, q) for q in primes for i, skip in enumerate(skips) if q not in skip]
    if len(items) < n:
        raise ValueError(f"only {len(items)} items for {n}")
    return items[:n]


class TowerScan(Workload):
    """Criterion 1: certify 20 towers, classify every base prime, follow inert chains."""

    name = "tower-scan"
    checks = ("chain_degrees", "unique_lift", "norm_powers", "inert_trace")

    def make_items(self, n):
        # criterion 1 scans every prime below 2000; keep every k-th prime so
        # that large residue fields, whose construction dominates there,
        # stay in a run of n items
        self.towers = _chain_towers(self.rng, self.seed)
        primes = list(sympy.primerange(2, SCAN_BOUND))
        k = max(1, len(primes) * len(self.towers) // n)
        return _scan_items(self.towers, primes[::k], n)

    def begin(self):
        for t in self.towers:
            cert = tower.verify_nested(t)
            self.check("chain_degrees", cert.chain_degrees ==
                       tuple(t.p ** j for j in range(t.r + 1)), t)

    def run(self, item):
        i, q = item
        t = self.towers[i]
        levels = tuple(t.p ** j for j in range(t.r + 1))
        for P in cyclotomic.cyclo_primes_above(t.m, q):
            if splitting.classify_prime(t, P) is not splitting.DegreeClass.DEGREEP:
                continue
            cert = splitting.inert_chain_certificate(t, P)
            self.check("unique_lift", cert.unique_lift, (t, q))
            self.check("norm_powers",
                       cert.norms == tuple(P.norm ** e for e in levels), (t, q))
            trace = splitting.trace_prime(t, P)
            self.check("inert_trace", all(trace.places(j) == ((P.f * e, 1),)
                                          for j, e in enumerate(levels)), (t, q))
        return "ok"


class SplitTrace(Workload):
    """``kummerlab split trace``: every base prime through towers of height >= 2."""

    name = "split-trace"
    checks = ("degree_sum", "place_profile")

    def make_items(self, n):
        # Of the Q(zeta_9) towers only 1+z stays.  With the other five (data
        # 3, 5, 10, 11, 1+z+z^2) the first 100 items take 11 s instead of 3:
        # two exhaustive root searches over F_{5^6} take 7 s of that, and
        # the item costs change with the seed's multiplier, so that the
        # quartile spread of item_ms_p90 over seeds reaches 0.45.
        self.towers = _chain_towers(
            self.rng, self.seed,
            keep=lambda m, r, text: r >= 2 and (m == 4 or text == "1+z"))
        return _scan_items(self.towers, sympy.primerange(2, SCAN_BOUND), n)

    def run(self, item):
        i, q = item
        t = self.towers[i]
        agg: Counter = Counter()
        for P in cyclotomic.cyclo_primes_above(t.m, q):
            trace = splitting.trace_prime(t, P)
            for j in range(t.r + 1):
                total = sum(e * c for e, c in trace.places(j))
                self.check("degree_sum", total == P.f * t.level_degree(j), (t, q, j))
            for e, c in trace.places(t.r):
                agg[e] += c
        if t.m == 4 and t.datum.cyc == t.datum.cyc.field.one():
            # rational datum over Q(i): the integer-only path must agree
            self.check("place_profile",
                       tuple(sorted(agg.items())) == splitting.place_profile(t, q),
                       (t, q))
        return "ok"


# ---------------------------------------------------------------------------
# series-exact

UNITARY_POOL = ((3, 2), (4, 2), (5, 2), (5, 4), (7, 3), (7, 6),
                (8, 2), (9, 3), (9, 6), (11, 5), (13, 4), (13, 12))
SERIES_M = 300       # coefficient cutoff (criterion 6 uses 10^4)
SERIES_N_CAP = 120   # largest lcm of the pair's moduli kept


def _conjugate(rng, comps):
    out = []
    for chi, mult in comps:
        ks = [k for k in range(1, chi.order + 1) if math.gcd(k, chi.order) == 1]
        out.append((chi ** rng.choice(ks), mult))
    return out


def _bad_primes(*reps) -> frozenset:
    bad = set()
    for pi in reps:
        for chi, _ in pi.components:
            bad |= set(sympy.primefactors(chi.modulus))
    return frozenset(bad)


class SeriesExact(Workload):
    """Criterion 6: Z-series coefficients rebuilt exactly from Satake classes."""

    name = "series-exact"
    checks = ("unitary", "coefficients_exact")

    def make_items(self, n):
        # criterion 6's draws, skipping pairs whose trace tables run over
        # more than SERIES_N_CAP residues (a single one can take 16 s)
        draw = random.Random(1729)
        chars = [automorphic.NormCharacter.trivial(1)] + [
            automorphic.character_of_order(m, o) for m, o in UNITARY_POOL]
        items = []
        while len(items) < n:
            left = [(draw.choice(chars), draw.randint(1, 2))
                    for _ in range(draw.randint(1, 3))]
            right = [(draw.choice(chars), draw.randint(1, 2))
                     for _ in range(draw.randint(1, 3))]
            N = math.lcm(*(chi.modulus for chi, _ in left + right))
            if N > SERIES_N_CAP:
                continue
            if self.seed:
                left, right = _conjugate(self.rng, left), _conjugate(self.rng, right)
                if self.rng.random() < 0.5:
                    left, right = right, left
            items.append((left, right))
        return items

    def run(self, item):
        left, right = item
        pi = automorphic.make_isobaric(left, Fraction(0), 1)
        pi2 = automorphic.make_isobaric(right, Fraction(0), 1)
        M = SERIES_M
        sel = lseries.PrimeSelector(1, M, exclude=_bad_primes(pi, pi2))
        series = lseries.rs_coeffs(pi, pi2, sel, M, "Z")
        F = lseries.value_field(pi, pi2)
        zero = F.element(0)
        expected = {}
        for Nv, _q, _f in sel.places():
            A, B = automorphic.satake(pi, Nv), automorphic.satake(pi2, Nv)
            idx, r = Nv, 1
            while idx <= M:
                z = zero
                for sign, cls in ((1, A), (-1, B)):
                    for a, tp in cls.power(r).eigenvalues:
                        self.check("unitary", tp == 0, (left, right, Nv))
                        root = lseries.root_of_unity(F, a)
                        z = z + root if sign > 0 else z - root
                if not z.is_zero():
                    term = z * z.conjugate() * Fraction(1, r)
                    expected[idx] = expected.get(idx, zero) + term
                idx *= Nv
                r += 1
        bad = [idx for idx in set(expected) | set(series.coeffs)
               if expected.get(idx, zero) != series.coeffs.get(idx, zero)]
        self.check("coefficients_exact", not bad, (left, right, bad[:3]))
        return "ok"


# ---------------------------------------------------------------------------
# pipeline

def _components(rng, pool, degree):
    comps, remaining = [], degree
    while remaining:
        mult = rng.randint(1, remaining)
        comps.append((rng.choice(pool), mult))
        remaining -= mult
    return comps


def _random_components(rng, pool, budget):   # criterion 10's draw
    return _components(rng, pool, rng.randint(2, budget) if budget > 2 else 2)


class Pipeline(Workload):
    """Criterion 10 through ``kummerlab theorem-a``, plus shapes that end INCONCLUSIVE."""

    name = "pipeline"
    checks = ("exit_code", "oracle", "positive_decided", "control_refuted", "stage_count")

    def make_items(self, n):
        QI = 4
        K3 = tower.KummerTower(1, 2, 1, cyclotomic.Datum.of(3))
        order = automorphic.character_of_order
        match = automorphic.components_match

        def pool_over(K):
            return (automorphic.NormCharacter.trivial(K), order(5, 4).retag(K),
                    order(5, 2).retag(K), order(8, 2).retag(K),
                    order(13, 4).retag(K), order(3, 2).retag(K))

        draw = random.Random(777)
        cases = []
        while len(cases) < n:
            # one block: criterion 10's 50 positives and 20 controls, then
            # 15 equal n = 3 pairs over Q(sqrt 3) and 15 equal n = 4 pairs
            # over Q(i), which the pipeline cannot decide today
            groups = []
            for K, budget, count in ((QI, 3, 25), (K3, 2, 25)):
                pool = pool_over(K)
                norm_trivial = order(4, 2).retag(K) if K == QI else None
                group = []
                for _ in range(count):
                    comps = _random_components(draw, pool, budget)
                    comps2 = list(comps)
                    draw.shuffle(comps2)
                    if norm_trivial is not None and draw.random() < 0.4:
                        comps2 = [(c * norm_trivial, k) for c, k in comps2]
                    group.append((K, comps, comps2, "positive"))
                groups.append(group)
            deltas = (order(5, 2), order(13, 2))
            for K, budget, count in ((QI, 3, 10), (K3, 2, 10)):
                pool = pool_over(K)
                group = []
                for j in range(count):
                    comps = _random_components(draw, pool, budget)
                    pi = automorphic.make_isobaric(comps, Fraction(0), K)
                    for k in (j, j + 1):  # skip twists the multiset absorbs
                        delta = deltas[k % 2].retag(K)
                        comps2 = [(c * delta, m) for c, m in comps]
                        if not match(pi, automorphic.make_isobaric(comps2, Fraction(0), K)):
                            break
                    group.append((K, comps, comps2, "control"))
                groups.append(group)
            for K, degree in ((K3, 3), (QI, 4)):
                pool = pool_over(K)
                group = []
                for _ in range(15):
                    comps = _components(draw, pool, degree)
                    comps2 = list(comps)
                    draw.shuffle(comps2)
                    group.append((K, comps, comps2, "open"))
                groups.append(group)
            # interleave the groups so any prefix mixes every kind
            longest = max(len(g) for g in groups)
            cases += [g[i] for i in range(longest) for g in groups if i < len(g)]
        cases = cases[:n]

        items = []
        for idx, (K, comps, comps2, kind) in enumerate(cases):
            if self.seed:
                # one Galois conjugation for both sides keeps every relation;
                # all pool orders divide 4, so k = 3 is the other choice
                k = self.rng.choice((1, 3))
                comps = [(c ** k, m) for c, m in comps]
                comps2 = [(c ** k, m) for c, m in comps2]
                self.rng.shuffle(comps2)
            pi = automorphic.make_isobaric(comps, Fraction(0), K)
            pi2 = automorphic.make_isobaric(comps2, Fraction(0), K)
            path = os.path.join(self.scratch, f"pair-{idx}.json")
            with open(path, "w") as fh:
                json.dump({"pi": pi.to_json(), "pi2": pi2.to_json()}, fh)
            items.append(("Q(i)" if K == QI else "Q(sqrt3)", path, pi, pi2, kind))
        return items

    def run(self, item):
        field, path, pi, pi2, kind = item
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["theorem-a", "--K", field, "--pair", path])
        report = out.getvalue()
        self.counts["cli.report_bytes"] += len(report.encode())
        if code == cli.EXIT_INCONCLUSIVE and not report:
            verdict = "INCONCLUSIVE"       # InconclusiveError, reported on stderr
        else:
            doc = json.loads(report)
            verdict = doc["verdict"]
        self.check("exit_code", code == determination.EXIT_CODES[verdict],
                   (path, code, verdict, err.getvalue()))
        positive = verdict in ("EQUAL", "TWIST-EQUIVALENT")
        if positive or verdict == "NOT-HYPOTHESIS":
            self.check("oracle", positive == automorphic.components_match(pi, pi2),
                       (path, verdict))
        if kind == "positive":
            self.check("positive_decided", positive and code == 0, (path, code, verdict))
        if kind == "control":
            self.check("control_refuted", verdict == "NOT-HYPOTHESIS", (path, verdict))
        if positive:
            self.check("stage_count", len(doc["stages"]) == 9, (path, len(doc["stages"])))
        # only the open shapes may end undecided; the checks above fail the others
        return "inconclusive" if verdict == "INCONCLUSIVE" else "ok"


WORKLOADS = {w.name: w for w in (TowerScan, SeriesExact, Pipeline, SplitTrace)}
