"""Ten-point acceptance gate.

Every test prints exactly one ``[acceptance]`` line with its verdict and the
measured evidence, through the capture-disabled channel so the checklist is
visible under any pytest invocation.  The heavy scans keep their own clocks;
the stated time limits are asserted, not aspirational.
"""

import functools
import random
import time
from fractions import Fraction

import sympy

from kummerlab.automorphic import (NormCharacter, base_change, character_of_order,
                                   components_match, make_isobaric,
                                   ramified_primes, satake)
from kummerlab.cli import parse_alpha
from kummerlab.cyclotomic import Datum, cyclo_primes_above, pp_lattice
from kummerlab.determination import run_pipeline
from kummerlab.lseries import (PrimeSelector, pole_book, root_of_unity, rs_coeffs,
                               slope_experiment, value_field)
from kummerlab.splitting import (DegreeClass, Field, classify_prime, classify_rational,
                                 compositum_min_norm, degree1_density,
                                 fold_degree_multisets, inert_chain_certificate,
                                 inert_prime_subfield, inert_splits_in_top,
                                 kummer_step, place_profile, trace_prime)
from kummerlab.tower import KummerTower, verify_nested


def criterion(number, name):
    """Print one PASS/FAIL line per criterion, whatever the failure mode."""
    def deco(fn):
        @functools.wraps(fn)
        def run(capsys):
            try:
                detail = fn(capsys)
            except BaseException as e:
                with capsys.disabled():
                    print(f"[acceptance] criterion {number} ({name}): FAIL -- {e}")
                raise
            with capsys.disabled():
                print(f"[acceptance] criterion {number} ({name}): PASS -- {detail}")
        return run
    return deco


def ramified_for(tower):
    """Rational primes not covered by the unramified splitting criteria."""
    bad = {tower.p} | set(sympy.primefactors(tower.m))
    for d in (tower.datum,) + tower.pre_steps:
        bad |= d.core_support()
        bad |= set(sympy.primefactors(abs(d.rat.numerator)))
        bad |= set(sympy.primefactors(d.rat.denominator))
    return bad


def rep_bad_primes(*reps):
    bad = set()
    for pi in reps:
        for chi, _ in pi.components:
            bad |= set(sympy.primefactors(chi.modulus))
    return bad


# ---------------------------------------------------------------------------
# 1. nested chains: unique inert lifts with exactly doubling norms

CHAIN_DATA = {
    (4, 2): ("3", "5", "6", "7", "10", "11", "1+z", "2+z", "1+2*z", "3+2*z"),
    (9, 3): ("2", "3", "5", "7", "10", "11", "13", "1+z", "2+z", "1+z+z**2"),
}


@criterion(1, "inert chain suite")
def test_inert_chain_suite(capsys):
    t0 = time.monotonic()
    towers = []
    for (m, p), data in CHAIN_DATA.items():
        for i, text in enumerate(data):
            towers.append(KummerTower(m, p, i % 3 + 1, parse_alpha(text, m)))
    assert len(towers) == 20
    for t in towers:
        cert = verify_nested(t)
        assert cert.chain_degrees == tuple(t.p ** j for j in range(t.r + 1))

    scanned = chains = 0
    for t in towers:
        skip = ramified_for(t)
        levels = tuple(t.p ** j for j in range(t.r + 1))
        for q in sympy.primerange(2, 2001):
            if q in skip:
                continue
            for P in cyclo_primes_above(t.m, q):
                scanned += 1
                if classify_prime(t, P) is not DegreeClass.DEGREEP:
                    continue
                cert = inert_chain_certificate(t, P)
                assert cert.unique_lift, (t, q)
                assert cert.norms == tuple(P.norm ** e for e in levels), (t, q)
                trace = trace_prime(t, P)
                for j, e in enumerate(levels):
                    assert trace.places(j) == ((P.f * e, 1),), (t, q, j)
                chains += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"scan took {elapsed:.0f}s"
    return (f"20 towers certified; {chains} inert chains out of {scanned} base "
            f"primes below 2000, all with unique lifts and exact norm powers; "
            f"0 exceptions; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. composita of disjoint chains keep the min-norm lower bound

COMPOSITUM_CFGS = (
    (4, 2, ((3, 2), (5, 1))),
    (4, 2, ((3, 2), (7, 2))),
    (4, 2, ((5, 2), (3, 1), (7, 1))),
    (9, 3, ((2, 1), (5, 1))),
)


def _step_places(step, q):
    """Residue degrees over Q above q for a single unramified datum step."""
    agg = {}
    for P, cls in classify_rational(step, q):
        assert cls is not DegreeClass.RAMIFIED
        if cls is DegreeClass.DEGREE1:
            agg[P.f] = agg.get(P.f, 0) + step.p
        else:
            agg[P.f * step.p] = agg.get(P.f * step.p, 0) + 1
    return tuple(sorted(agg.items()))


@criterion(2, "compositum min-norm suite")
def test_compositum_min_norms(capsys):
    certified = bounds = 0
    for m, p, chains in COMPOSITUM_CFGS:
        lead_val, r = chains[0]
        lead = Datum.of(lead_val, m=m)
        others = tuple(Datum.of(v, m=m) for v, _ in chains[1:])
        joint = KummerTower(m, p, r, lead, pre_steps=others)
        cert = verify_nested(joint)
        base = p ** len(others)
        assert cert.chain_degrees == tuple(base * p ** j for j in range(r + 1))
        certified += 1

        chain = KummerTower(m, p, r, lead)
        other_towers = tuple(KummerTower(m, p, rr, Datum.of(v, m=m))
                             for v, rr in chains[1:])
        for t in (chain,) + other_towers:
            verify_nested(t)
        skip = ramified_for(joint)

        found = 0
        for q in sympy.primerange(2, 501):
            if q in skip:
                continue
            profile = None
            for ot in other_towers:
                part = (place_profile(ot, q) if ot.m == 4
                        else _step_places(ot, q))
                profile = part if profile is None else fold_degree_multisets(profile, part)
            try:
                bound = compositum_min_norm(chain, q, other_degrees=profile)
            except ValueError:
                continue  # q not inert along the lead chain: out of scope
            top = bound.certificate.prime.norm ** p ** r
            assert bound.min_norm == top == bound.certificate.norms[-1], (m, chains, q)
            assert min(q ** d for d, _ in bound.folded) >= top, (m, chains, q)
            found += 1
        assert found > 0, (m, chains)
        bounds += found
    return (f"{certified} composita disjointness-certified; {bounds} starting "
            f"primes below 500 all meet the top-norm lower bound; 0 exceptions")


# ---------------------------------------------------------------------------
# 3. inert primes land in exactly one imaginary quadratic subfield

LATTICE_DS = (3, 5)


@criterion(3, "subfield assignment suite")
def test_imaginary_subfield_assignment(capsys):
    assigned = 0
    for D in LATTICE_DS:
        lat = pp_lattice(Datum.of(D), Datum.of(-1))
        bad = lat.bad_primes()
        for q in sympy.primerange(3, 10**4 + 1):
            if q in bad or sympy.jacobi_symbol(D, q) != -1:
                continue
            cls = inert_prime_subfield(lat, q)
            assert cls.datum.cyc == cls.datum.cyc.field.one()
            d = int(cls.datum.rat)
            assert Fraction(d) == cls.datum.rat and d in (-1, -D)
            # direct verification with residue symbols: q splits in the
            # assigned field and in no other quadratic of the lattice
            assert sympy.jacobi_symbol(d, q) == 1, (D, q)
            other = -1 if d == -D else -D
            assert sympy.jacobi_symbol(other, q) == -1, (D, q)
            # and the two top places have residue degree 2: inert upstairs
            cert = inert_splits_in_top(lat, q)
            assert cert.primes_in_top == 2 and cert.relative_degree == 1, (D, q)
            assigned += 1
    assert assigned > 0
    return (f"{assigned} inert primes across {len(LATTICE_DS)} lattices each "
            f"assigned a unique split subfield, confirmed by residue symbols "
            f"and top residue degrees; 100%")


# ---------------------------------------------------------------------------
# 4. the split/inert dichotomy upstairs

@criterion(4, "top splitting dichotomy")
def test_inert_primes_split_upstairs(capsys):
    checked = 0
    for D in LATTICE_DS:
        lat = pp_lattice(Datum.of(D), Datum.of(-1))
        bad = lat.bad_primes()
        for q in sympy.primerange(3, 10**4 + 1):
            if q in bad or sympy.jacobi_symbol(D, q) != -1:
                continue
            cert = inert_splits_in_top(lat, q)
            assert cert.k_class is DegreeClass.DEGREEP, (D, q)
            assert cert.primes_in_top == 2, (D, q)
            checked += 1
    assert checked > 0
    return f"{checked} primes inert downstairs all split upstairs; 100%"


# ---------------------------------------------------------------------------
# 5. degree-one places dominate

@criterion(5, "degree-one density")
def test_degree_one_density(capsys):
    report = degree1_density(kummer_step(1, 2, Datum.of(-1)), 10**6)
    assert (report.degree1, report.total) == (78350, 78437)
    assert report.ratio >= Fraction(99, 100)
    return (f"counts {report.degree1}/{report.total} below 1e6; "
            f"ratio {float(report.ratio):.5f} >= 0.99")


# ---------------------------------------------------------------------------
# 6. pair-difference series coefficients are exactly nonnegative

UNITARY_POOL = ((3, 2), (4, 2), (5, 2), (5, 4), (7, 3), (7, 6),
                (8, 2), (9, 3), (9, 6), (11, 5), (13, 4), (13, 12))


@criterion(6, "exact positivity")
def test_exact_positivity(capsys):
    rng = random.Random(1729)
    chars = [NormCharacter.trivial(1)] + [character_of_order(m, o)
                                          for m, o in UNITARY_POOL]
    M = 10**4
    pairs = nonzero = 0
    while pairs < 25:
        left = [(rng.choice(chars), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))]
        right = [(rng.choice(chars), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))]
        pi = make_isobaric(left, Fraction(0), 1)
        pi2 = make_isobaric(right, Fraction(0), 1)
        assert ramified_primes(pi, pi2) == rep_bad_primes(pi, pi2)
        sel = PrimeSelector(1, M, exclude=frozenset(rep_bad_primes(pi, pi2)))
        series = rs_coeffs(pi, pi2, sel, M, "Z")

        # rebuild each coefficient as an exact sum of (1/r) z zbar terms;
        # equality makes nonnegativity a theorem, not a float comparison
        F = value_field(pi, pi2)
        zero = F.element(0)
        expected = {}
        for Nv, q, f in sel.places():
            A, B = satake(pi, Nv), satake(pi2, Nv)
            idx, r = Nv, 1
            while idx <= M:
                z = zero
                for a, tp in A.power(r).eigenvalues:
                    assert tp == 0
                    z = z + root_of_unity(F, a)
                for a, tp in B.power(r).eigenvalues:
                    assert tp == 0
                    z = z - root_of_unity(F, a)
                if not z.is_zero():
                    term = z * z.conjugate() * Fraction(1, r)
                    expected[idx] = expected.get(idx, zero) + term
                idx *= Nv
                r += 1
        for idx in set(expected) | set(series.coeffs):
            assert expected.get(idx, zero) == series.coeffs.get(idx, zero), (pairs, idx)
        nonzero += len(series.coeffs)
        pairs += 1
    return (f"25 random unitary pairs; {nonzero} nonzero coefficients up to "
            f"1e4 reconstructed exactly as sums of (1/r)|z|^2 -- nonnegative "
            f"with zero tolerance")


# ---------------------------------------------------------------------------
# 7. pole order read off the slope of the partial series

@criterion(7, "pole-order slopes")
def test_pole_order_slopes(capsys):
    t0 = time.monotonic()
    triv = NormCharacter.trivial(1)
    chi4 = character_of_order(4, 2)
    cases = (
        ("1 | chi4", [(triv, 1)], [(chi4, 1)], 2),
        ("1+1 | chi4+chi4", [(triv, 2)], [(chi4, 2)], 8),
    )
    sel = PrimeSelector(1, 10**6, exclude=frozenset({2}))
    lines = []
    for label, left, right, want in cases:
        pi = make_isobaric(left, Fraction(0), 1)
        pi2 = make_isobaric(right, Fraction(0), 1)
        book = pole_book(pi, pi2)
        assert book.neg_ord == want
        rep = slope_experiment(pi, pi2, sel)
        err = abs(rep.completed_slope - want) / want
        assert err <= 0.20, (label, rep.completed_slope, want)
        lines.append(f"{label}: slope {rep.completed_slope:.2f} vs {want} "
                     f"({100 * err:.1f}%)")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"experiments took {elapsed:.0f}s"
    return "; ".join(lines) + f"; {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 8. base change matches Frobenius powers place by place

@criterion(8, "base-change coherence")
def test_base_change_coherence(capsys):
    triv = NormCharacter.trivial(1)
    chi3 = character_of_order(3, 2)
    chi4 = character_of_order(4, 2)
    chi5 = character_of_order(5, 4)
    chi7 = character_of_order(7, 6)
    chi8 = character_of_order(8, 2)
    rep_specs = (
        [(triv, 1)], [(chi4, 1)], [(chi3, 1)], [(chi5, 1)], [(chi8, 1)],
        [(chi7, 1)], [(triv, 1), (chi4, 1)], [(chi3, 1), (chi5, 1)],
        [(triv, 1), (chi3, 1), (chi5, 1)], [(chi8, 2)],
    )
    reps = [make_isobaric(spec, Fraction(0), 1) for spec in rep_specs]
    assert len(reps) == 10

    T2 = KummerTower(1, 2, 1, Datum.of(3))
    T4 = KummerTower(4, 2, 1, Datum.of(3, m=4))
    T8 = KummerTower(4, 2, 2, Datum.of(3, m=4))
    fields = (3, 4, 5, 8, 15, 16, T2, T4, T8)  # degrees 2..8
    chains = ((1, 3), (1, 5), (0, 4), (2, 4), (7, 8))  # 4->8, 4->16, 3->15, 5->15, T4->T8

    lifted = {}
    places = 0
    for i, pi in enumerate(reps):
        bad = rep_bad_primes(pi)
        for j, M in enumerate(fields):
            piM = base_change(pi, M, verify_upto=10**3)
            lifted[i, j] = piM
            K = Field(M)
            skip = bad | K.bad_primes()
            for q in sympy.primerange(2, 10**3 + 1):
                if q in skip:
                    continue
                below = satake(pi, q)
                for f, count in K.profile(q):
                    assert (satake(piM, q ** f).eigenvalues
                            == below.power(f).eigenvalues), (i, M, q)
                    places += count
    transits = 0
    for i in range(len(reps)):
        for a, b in chains:
            step = base_change(lifted[i, a], fields[b], verify_upto=10**3)
            assert step == lifted[i, b], (i, a, b)
            transits += 1
    return (f"10 reps lifted through {len(fields)} fields; {places} places "
            f"matched Frobenius powers exactly; {transits} transitivity "
            f"squares commute exactly")


# ---------------------------------------------------------------------------
# 9. strict eigenvalue bound across the unitary model

def _lrs_check(A, n, q_v):
    """Strict bound |alpha| < q_v^(1/2 - 1/(n^2+1)), decided exactly.

    |alpha| = q_v^tpow for our classes, so the comparison is between
    rational exponents.  n = 1 makes the bound vacuous-false for unitary
    characters; the ambient degree must be >= 2.
    """
    if n < 2:
        raise ValueError("the bound needs the ambient degree n >= 2")
    cap = Fraction(1, 2) - Fraction(1, n * n + 1)
    return all(tp < cap for _, tp in A.eigenvalues)


@criterion(9, "strict Satake bound")
def test_satake_bound(capsys):
    triv = NormCharacter.trivial(1)
    base = [triv, character_of_order(4, 2), character_of_order(3, 2),
            character_of_order(5, 4), character_of_order(8, 2),
            character_of_order(7, 6)]
    classes = 0
    for n in range(2, 7):
        for spec in ([(c, 1) for c in base[:n]],
                     [(character_of_order(5, 4), n)]):
            pi = make_isobaric(spec, Fraction(0), 1)
            assert pi.n == n
            bad = rep_bad_primes(pi)
            for q in sympy.primerange(2, 10**3 + 1):
                if q in bad:
                    continue
                assert _lrs_check(satake(pi, q), n, q), (n, q)
                classes += 1
    # strictness control: a genuinely shifted class must fail
    shifted = make_isobaric([(triv, 2)], Fraction(1, 2), 1)
    assert not _lrs_check(satake(shifted, 3), 2, 3)
    return (f"{classes} classes for n = 2..6 at q <= 1000 inside the strict "
            f"bound; shifted control rejected")


# ---------------------------------------------------------------------------
# 10. the full determination pipeline, positives and controls

def _random_components(rng, pool, budget):
    degree = rng.randint(2, budget) if budget > 2 else 2
    comps, remaining = [], degree
    while remaining:
        mult = rng.randint(1, remaining)
        comps.append((rng.choice(pool), mult))
        remaining -= mult
    return comps


@criterion(10, "end-to-end determination")
def test_end_to_end_determination(capsys):
    t0 = time.monotonic()
    QI = 4
    K3 = KummerTower(1, 2, 1, Datum.of(3))

    def pool_over(K):
        return (NormCharacter.trivial(K), character_of_order(5, 4).retag(K),
                character_of_order(5, 2).retag(K), character_of_order(8, 2).retag(K),
                character_of_order(13, 4).retag(K), character_of_order(3, 2).retag(K))

    rng = random.Random(777)
    X = 10**5
    positives = 0
    for K, budget, count in ((QI, 3, 25), (K3, 2, 25)):
        pool = pool_over(K)
        norm_trivial = character_of_order(4, 2).retag(K) if K is QI else None
        for _ in range(count):
            comps = _random_components(rng, pool, budget)
            pi = make_isobaric(comps, Fraction(0), K)
            comps2 = list(comps)
            rng.shuffle(comps2)
            if norm_trivial is not None and rng.random() < 0.4:
                comps2 = [(c * norm_trivial, k) for c, k in comps2]
            pi2 = make_isobaric(comps2, Fraction(0), K)
            rep = run_pipeline(K, pi, pi2, X=X)
            assert rep.verdict == "EQUAL", (K, comps)
            assert rep.exit_code == 0 and rep.corollary
            assert len(rep.stages) == 9
            assert all(st.verdict and st.certificate is not None
                       for st in rep.stages)
            assert components_match(pi, pi2), (K, comps)  # independent oracle
            positives += 1

    deltas = (character_of_order(5, 2), character_of_order(13, 2))
    witnesses = []
    for K, budget, count in ((QI, 3, 10), (K3, 2, 10)):
        pool = pool_over(K)
        for j in range(count):
            comps = _random_components(rng, pool, budget)
            pi = make_isobaric(comps, Fraction(0), K)
            for k in (j, j + 1):  # skip twists the multiset absorbs
                delta = deltas[k % 2].retag(K)
                pi2 = make_isobaric([(c * delta, m) for c, m in comps],
                                    Fraction(0), K)
                if not components_match(pi, pi2):
                    break
            assert not components_match(pi, pi2), (K, comps)
            rep = run_pipeline(K, pi, pi2, X=X)
            assert rep.verdict == "NOT-HYPOTHESIS" and rep.exit_code == 2, (K, comps)
            w = rep.stages[-1].certificate["witness"]
            assert w is not None and w <= 200, (K, comps, w)
            witnesses.append(w)
    elapsed = time.monotonic() - t0
    return (f"{positives} equal pairs confirmed with full 9-stage certificates "
            f"and the direct-comparison oracle; 20 twisted controls refuted, "
            f"witnesses <= {max(witnesses)}; {elapsed:.0f}s")
