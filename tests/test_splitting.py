"""Trace engine: classification, inert chains, lattices, densities."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from kummerlab import splitting
from kummerlab.cyclotomic import CycloField, Datum, cyclo_primes_above, pp_lattice
from kummerlab.splitting import (
    DegreeClass,
    RElement,
    RelField,
    classify_prime,
    classify_rational,
    compositum_min_norm,
    Field,
    degree1_density,
    fold_degree_multisets,
    inert_chain_certificate,
    inert_prime_subfield,
    inert_splits_in_top,
    kummer_step,
    norm_subgroup,
    place_profile,
    trace_prime,
)
from kummerlab.finitefield import (
    is_pth_power,
    make_ext_field,
    order_p_valuation,
    pth_roots,
    sylow_valuation,
)
from kummerlab.tower import KummerTower

from test_finitefield import _elements, mult_order
from test_tower import _tame_entries, _v_q


def _image_keys(trace, level):
    """The residue images on one level, sorted: a level can mix residue-field
    (int) and RelField (tuple) keys, and the ints come first."""
    return tuple(sorted((b.image.key() for b in trace.branches[level]
                         if b.image is not None),
                        key=lambda k: (isinstance(k, tuple), k)))


def _norms(trace, level):
    """The norms of the places at a level, one per place."""
    return tuple(trace.prime.q ** e for e, c in trace.places(level)
                 for _ in range(c))


def _gauss_step():
    F4 = CycloField(4)
    return kummer_step(4, 2, Datum(F4.element((1, 1))))


def test_classify_frozen_13():
    cls = classify_rational(_gauss_step(), 13)
    assert [(P.zbar.coeffs, c) for P, c in cls] == \
        [((5,), DegreeClass.DEGREEP), ((8,), DegreeClass.DEGREE1)]


def test_trace_split_roots_frozen():
    P8 = cyclo_primes_above(4, 13)[1]
    tr = trace_prime(_gauss_step(), P8)
    assert _image_keys(tr, 1) == (3, 10)       # the two square roots of 9
    assert tr.places(1) == ((1, 2),)
    assert _norms(tr, 1) == (13, 13)


_ASSERTS_OFF = """
try:
    assert False
except AssertionError:
    raise SystemExit("asserts are on")
"""


def _run_optimized(script):
    """stdout lines of `script` run under python -O, asserts verified off."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", _ASSERTS_OFF + script],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


_BREAK_A_TRACE = """
from kummerlab import cyclotomic, splitting
from kummerlab.cyclotomic import CycloField, Datum, cyclo_primes_above
step = splitting.kummer_step(4, 2, Datum(CycloField(4).element((1, 1))))
P = cyclo_primes_above(4, 13)[1]
roots, enter = splitting.pth_roots, splitting._enter
for name, fake in (("pth_roots", lambda x, p: roots(x, p)[1:]),
                   ("_enter", lambda t, P, root: (enter(t, P, root)[0], 2, ()))):
    real = getattr(splitting, name)
    setattr(splitting, name, fake)
    try:
        splitting.trace_prime(step, P)
    except AssertionError as e:
        print(e)
    setattr(splitting, name, real)
# a residue field too small to hold the m-th roots of unity
real = cyclotomic.make_ext_field
cyclotomic.make_ext_field = lambda q, f: real(q, 1)
try:
    cyclo_primes_above(4, 3)
except AssertionError as e:
    print(e)
cyclotomic.make_ext_field = real
"""


def test_trace_checks_survive_optimize():
    # a dropped root, a wrong degree sum and a residue field without the
    # m-th roots of unity still raise under python -O
    assert _run_optimized(_BREAK_A_TRACE) == [
        "1 p-th roots of a split datum, expected 2",
        "degree sum mismatch",
        "F_3^2 has no primitive 4-th root of unity"]


_BREAK_A_CERTIFICATE = """
from fractions import Fraction
from kummerlab import determination, lseries, splitting, tower
from kummerlab.automorphic import NormCharacter, make_isobaric
from kummerlab.cyclotomic import CycloField, Datum, pp_lattice

def report(fn, *args):
    try:
        fn(*args)
    except AssertionError as e:
        print(e)

def patched(owner, name, fake, fn, *args):
    real = getattr(owner, name)
    setattr(owner, name, fake)
    report(fn, *args)
    setattr(owner, name, real)

patched(determination, "hilbert_symbol", lambda a, b, v: -1 if v == 0 else 1,
        determination.hilbert_obstructions, 3, 5)
pi = make_isobaric([(NormCharacter.trivial(1), 1)], 0, 1)
patched(lseries.CoefficientSeries, "floats", lambda self: {2: -1.0},
        lseries.positivity_check, pi, pi, lseries.PrimeSelector(1, 20), 20)
gauss = tower.KummerTower(4, 2, 2, Datum(CycloField(4).element((1, 1)), Fraction(3)))
patched(splitting, "fold_degree_multisets", lambda A, B: ((3, 1),),
        splitting.compositum_min_norm, gauss, 5, ((1, 2),))
# 5 is inert in Q(sqrt 3) and splits in Q(i); 13 splits in both
lat = pp_lattice(Datum.of(3), Datum.of(-1))
patched(lat, "subfields", (), splitting.inert_prime_subfield, lat, 5)
lat = pp_lattice(Datum.of(3), Datum.of(-1))
lat.kummer_exponent = lambda d, P: 1
report(splitting.inert_prime_subfield, lat, 5)
lat = pp_lattice(Datum.of(3), Datum.of(-1))
lat.frobenius_coordinates = lambda P: (1, 0)
report(splitting.inert_prime_subfield, lat, 13)
patched(splitting, "order_p_valuation", lambda x, p: 9,
        splitting.inert_splits_in_top, pp_lattice(Datum.of(3), Datum.of(-1)), 5)
patched(tower, "_kummer_lines", lambda t: (), tower.verify_nested, gauss)
"""


def test_certificate_checks_survive_optimize():
    # every certificate cross-check raises under python -O when the value it
    # checks is broken
    assert _run_optimized(_BREAK_A_CERTIFICATE) == [
        "product formula violated",
        "squared-modulus coefficient evaluated negative",
        "folded degrees ((3, 1),) not all divisible by the chain's top degree 4",
        "no subfield other than K holds Frobenius coordinates (1, 0)",
        "q = 5 does not split in subfield 2",
        "q = 13 splits in K",
        "vF <= sF < s_up fails: 9, 2, 3",
        "no Kummer line certifies the main datum"]


def _with_pre_towers():
    F4, F9 = CycloField(4), CycloField(9)
    return (KummerTower(4, 2, 3, Datum(F4.element((Fraction(1, 5), 1))),
                        pre_steps=(Datum.of(6, 4), Datum(F4.element((2, 1))))),
            KummerTower(9, 3, 2, Datum(F9.element((1, 1))),
                        pre_steps=(Datum.of(Fraction(5, 11), 9),)))


def test_field_bad_primes_frozen():
    assert Field(1).bad_primes() == set()
    assert Field(12).bad_primes() == {2, 3}
    gauss_pre, nonic_pre = _with_pre_towers()
    assert Field(gauss_pre).bad_primes() == {2, 3, 5, 13}
    assert Field(nonic_pre).bad_primes() == {3, 5, 11}


def test_inert_certificate_refuses_ramified_and_matches_trace():
    # the certificate and the trace enter a tower by the same rule: wherever
    # the datum or a pre-step ramifies, no chain is certified, and a certified
    # chain has the trace's norms on each of its branches
    towers = _with_pre_towers() + (
        KummerTower(4, 2, 1, Datum.of(3, m=4), pre_steps=(Datum.of(5, m=4),)),)
    certified = refused = 0
    for tower in towers:
        for q in sympy.primerange(2, 200):
            if q == tower.p:
                continue
            try:
                entries = _tame_entries(tower, q)
            except ValueError:      # q in the datum's core support
                continue
            ramified = any(e > 1 for e in entries) or any(
                q in d.core_support() or _v_q(d, q) % tower.p
                for d in tower.pre_steps)
            for P in cyclo_primes_above(tower.m, q):
                try:
                    cert = inert_chain_certificate(tower, P)
                except ValueError:
                    refused += 1
                    continue
                assert not ramified, (tower, q)
                certified += 1
                trace = trace_prime(tower, P)
                for j in range(tower.r + 1):
                    assert _norms(trace, j) == \
                        (cert.norms[j],) * cert.branch_count
    assert certified and refused


def test_classify_ramified_and_wild():
    step = kummer_step(1, 2, Datum.of(-1))
    (P,) = cyclo_primes_above(1, 3)
    assert classify_prime(step, P) is DegreeClass.DEGREEP
    (P5,) = cyclo_primes_above(1, 5)
    assert classify_prime(step, P5) is DegreeClass.DEGREE1
    with pytest.raises(ValueError, match="wild|q = p"):
        classify_prime(step, cyclo_primes_above(1, 2)[0])
    step6 = kummer_step(1, 2, Datum.of(6))
    (P3,) = cyclo_primes_above(1, 3)
    assert classify_prime(step6, P3) is DegreeClass.RAMIFIED


def test_inert_chain_certificate_frozen():
    F4 = CycloField(4)
    tower = KummerTower(4, 2, 2, Datum(F4.element((1, 1))))
    cert = inert_chain_certificate(tower, 3)
    assert cert.norms == (9, 81, 6561)
    assert cert.order_valuation == cert.sylow_valuation == 3
    assert cert.unique_lift


def test_inert_chain_picks_certifiable_prime():
    F4 = CycloField(4)
    tower = KummerTower(4, 2, 2, Datum(F4.element((1, 1)), Fraction(3)))
    cert = inert_chain_certificate(tower, 5)
    assert cert.prime.zbar.coeffs == (3,)    # zbar = 2 sees a square image
    assert cert.norms == (5, 25, 625)
    cert13 = inert_chain_certificate(tower, 13)
    assert cert13.prime.zbar.coeffs == (5,)  # 3(1+z) = 1 at the other prime
    assert cert13.norms == (13, 169, 28561)


def test_inert_chain_rejects_wild_and_square():
    F4 = CycloField(4)
    tower = KummerTower(4, 2, 2, Datum(F4.element((1, 1))))
    with pytest.raises(ValueError):
        inert_chain_certificate(tower, 2)
    square = KummerTower(1, 2, 2, Datum.of(9))
    with pytest.raises(ValueError, match="no prime above"):
        inert_chain_certificate(square, 7)


def test_trace_agreement_with_certificate():
    F4 = CycloField(4)
    tower = KummerTower(4, 2, 2, Datum(F4.element((1, 1))))
    P = cyclo_primes_above(4, 3)[0]
    tr = trace_prime(tower, P)
    cert = inert_chain_certificate(tower, P)
    for j in range(3):
        assert _norms(tr, j) == (cert.norms[j],)


def test_trace_ramified_flag():
    step = kummer_step(1, 2, Datum.of(6))
    (P3,) = cyclo_primes_above(1, 3)
    trace = trace_prime(step, P3)
    assert trace.ramified
    with pytest.raises(ValueError, match="ramified trace has no place data"):
        trace.places(0)


def test_stacked_ramification_matches_profile():
    # oracle: the tame profile e_j = P_j / gcd(P_j, v_q(alpha)).  The top of
    # a chain adjoins alpha^(1/p^s), s = stacked_steps, so the trace and the
    # inert-chain certificate call q ramified unless p^s | v_q(alpha); the
    # classifier reads the first step alone, so p | v_q(alpha) is its rule
    swept = disagree = 0
    for m, p, heights in ((1, 2, 3), (4, 2, 3), (5, 5, 1), (9, 3, 2)):
        F = CycloField(m)
        cores = (F.one(), F.element((1, 1))) if m > 1 else (F.one(),)
        for r, base_is_step in itertools.product(range(1, heights + 1),
                                                 (False, True)):
            s = r + base_is_step
            ks = {0, 1, 2, p ** s - p} | {p ** j for j in range(1, s + 1)}
            first = 0 if base_is_step else 1
            for q, core, u, k in itertools.product(
                    sympy.primerange(2, 40), cores,
                    (Fraction(1), Fraction(-2, 7)), sorted(ks)):
                if (q == p or m % q == 0 or q in Datum(core).core_support()
                        or (u.numerator * u.denominator) % q == 0):
                    continue
                tower = KummerTower(m, p, r, Datum(core, u * Fraction(q) ** k),
                                    base_is_step=base_is_step)
                entries = _tame_entries(tower, q)
                for P in cyclo_primes_above(m, q):
                    swept += 1
                    trace = trace_prime(tower, P)
                    disagree += trace.ramified != (entries[-1] > 1)
                    assert (classify_prime(tower, P) is DegreeClass.RAMIFIED) \
                        == (entries[first] > 1), (tower, P)
                    try:
                        inert_chain_certificate(tower, P)
                    except ValueError as e:
                        assert ("ramifies" in str(e)) == trace.ramified
                    else:
                        assert not trace.ramified
    assert swept > 5000 and disagree == 0


def test_compositum_fold_bound():
    F4 = CycloField(4)
    tower = KummerTower(4, 2, 2, Datum(F4.element((1, 1)), Fraction(3)))
    cb = compositum_min_norm(tower, 5, other_degrees=((1, 2), (3, 1)))
    assert cb.min_norm == 625
    assert cb.folded == ((4, 2), (12, 1))
    assert all(d % 4 == 0 for d, _ in cb.folded)


def test_fold_degree_multisets_preserves_total():
    A = ((1, 2), (2, 3))
    B = ((2, 1), (3, 2))
    folded = fold_degree_multisets(A, B)
    total = sum(d * c for d, c in folded)
    assert total == sum(d * c for d, c in A) * sum(d * c for d, c in B)
    assert folded == tuple(sorted(folded))


# ---------------------------------------------------------------------------
# lattice classification

@pytest.fixture(scope="module")
def quad_lattice():
    return pp_lattice(Datum.of(3), Datum.of(-1))


def test_inert_prime_subfield_frozen(quad_lattice):
    assert inert_prime_subfield(quad_lattice, 5).label == 1    # splits in Q(i)
    assert inert_prime_subfield(quad_lattice, 7).label == 2    # in Q(sqrt -3)
    with pytest.raises(ValueError, match="splits in K"):
        inert_prime_subfield(quad_lattice, 11)
    with pytest.raises(ValueError, match="excluded"):
        inert_prime_subfield(quad_lattice, 3)


def test_inert_prime_subfield_matches_direct_test(quad_lattice):
    for q in (5, 7, 17, 19, 29, 31):
        try:
            res = inert_prime_subfield(quad_lattice, q)
        except ValueError:
            assert sympy.jacobi_symbol(3, q) == 1
            continue
        datum = res.datum.value().as_fraction()
        assert sympy.jacobi_symbol(3, q) == -1
        assert sympy.jacobi_symbol(int(datum), q) == 1


def test_inert_splits_in_top(quad_lattice):
    cert = inert_splits_in_top(quad_lattice, 7)
    assert cert.primes_in_top == 2 and cert.relative_degree == 1
    assert cert.k_class is DegreeClass.DEGREEP
    cert5 = inert_splits_in_top(quad_lattice, 5)
    assert cert5.primes_in_top == 2
    with pytest.raises(ValueError, match="not inert"):
        inert_splits_in_top(quad_lattice, 11)


# ---------------------------------------------------------------------------
# densities and places

def test_degree1_density_frozen():
    rep = degree1_density(kummer_step(1, 2, Datum.of(-1)), 100)
    assert (rep.degree1, rep.total) == (22, 24)
    assert rep.ratio == Fraction(11, 12)


def test_degree1_density_int_path_matches_object_path():
    # the count's reading of the places must agree with full classification
    step = _gauss_step()
    rep = degree1_density(step, 300)
    deg1 = total = 0
    for q in sympy.primerange(3, 301):
        f = sympy.n_order(q, 4)
        if q ** f > 300:
            continue
        for P, cls in classify_rational(step, q):
            if cls is DegreeClass.DEGREE1:
                total += 2
                if f == 1:
                    deg1 += 2
            elif cls is DegreeClass.DEGREEP and q ** (2 * f) <= 300:
                total += 1
    assert (rep.degree1, rep.total) == (deg1, total)


def test_degree1_density_of_a_pre_step_tower():
    # Q(i)(sqrt 2) over Q is Q(zeta_8): the density reads the field's count
    step = KummerTower(1, 2, 1, Datum.of(2), pre_steps=(Datum.of(-1),))
    rep = degree1_density(step, 3000)
    rows = [(q, f, c) for q, f, c in Field(8).places(3000) if q ** f <= 3000]
    assert (rep.degree1, rep.total) == (
        sum(c for _, f, c in rows if f == 1), sum(c for _, _, c in rows))


def test_place_table_small():
    places = Field(4).places(50)
    assert [q for q, _, _ in places] == list(sympy.primerange(3, 50))
    assert (3, 2, 1) in places and (7, 2, 1) in places
    assert (5, 1, 2) in places and (13, 1, 2) in places
    assert (11, 2, 1) in places              # norms are not cut at X
    # norm count agrees with a direct count of zeta_4 places
    total = sum(c for q, f, c in places if q ** f <= 50)
    assert total == 2 + sum(2 for q in (5, 13, 17, 29, 37, 41))


def test_norm_subgroup_gaussian():
    assert norm_subgroup(4, 8) == frozenset({1, 5})
    assert norm_subgroup(kummer_step(1, 2, Datum.of(-1)), 8) == frozenset({1, 5})
    assert norm_subgroup(1, 8) == frozenset({1, 3, 5, 7})
    assert norm_subgroup(3, 9) == frozenset({1, 4, 7})  # Q(zeta_3) in Q(zeta_9)


def _span_by_closure(gens, N):
    """Reference: the subgroup of (Z/N)^* generated by gens, breadth first."""
    group = {1 % N}
    frontier = [1 % N]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % N
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


@pytest.mark.parametrize("field", [
    1, 4, 9, 12, kummer_step(1, 2, Datum.of(3)), kummer_step(1, 2, Datum.of(-5)),
    KummerTower(4, 2, 2, Datum.of(3, m=4)),
    KummerTower(1, 2, 1, Datum.of(2), pre_steps=(Datum.of(-1),)),
], ids=["Q", "zeta4", "zeta9", "zeta12", "sqrt3", "sqrt-5", "quartic3", "zeta8"])
def test_norm_subgroup_matches_closure(field):
    # cosets of the group so far, against the breadth-first closure
    for N in (1, 8, 13, 15, 16, 21, 35, 40, 63, 120):
        gens = {pow(q, f, N) for q, f, _ in Field(field).places(60) if N % q}
        assert norm_subgroup(field, N, bound=60) == _span_by_closure(gens, N)


# ---------------------------------------------------------------------------
# relative extensions

def test_rel_field_roots_round_trip():
    F5 = make_ext_field(5, 1)
    R = RelField(F5, F5.element(2), 2)       # 2 is not a square mod 5
    four = R.embed(F5.element(4))
    roots = pth_roots(four, 2)
    assert len(roots) == 2
    assert all(r ** 2 == four for r in roots)
    assert (R.gen() ** 2) == R.embed(F5.element(2))


@pytest.mark.parametrize("q,a,p", [(5, 2, 2), (7, 3, 3)])
def test_rel_field_roots_against_brute_force(q, a, p):
    # F_q[t]/(t^p - a): every element's p-th roots, against y -> y^p inverted
    F = make_ext_field(q, 1)
    R = RelField(F, F.element(a), p)
    elements = [RElement(R, cs) for cs in
                itertools.product(list(_elements(F)), repeat=p)]
    brute = {}
    for y in elements:
        brute.setdefault((y ** p).key(), []).append(y)
    for x in elements:
        want = sorted(brute.get(x.key(), []), key=lambda r: r.key())
        assert pth_roots(x, p) == want


def test_rel_field_index_order():
    # from_index reads base-|parent| digits, low coefficient first, and
    # recurses through a nested RelField
    F5 = make_ext_field(5, 1)
    R = RelField(F5, F5.element(2), 2)
    assert R.from_index(0) == R.zero() and R.from_index(1) == R.one()
    assert R.from_index(5) == R.gen()
    assert R.from_index(17) == R.gen() * R.embed(F5.element(3)) + R.embed(F5.element(2))
    assert len({R.from_index(n).key() for n in range(R.size)}) == R.size
    RR = RelField(R, R.gen(), 2)             # sqrt of sqrt 2: F_625
    assert RR.from_index(25 * 5) == RR.gen() * RR.embed(R.gen())
    assert RR.from_index(RR.size - 1).key() == ((4, 4), (4, 4))


def test_rel_field_nonresidue_in_characteristic_3():
    # F_27[t]/(t^2 - a) at a prime above 3 in Q(zeta_13): t, t+1, t+2 are
    # all squares there, so the scan has to go past the generator's coset
    tower = KummerTower(13, 2, 2, Datum(CycloField(13).zeta() - 1))
    P = cyclo_primes_above(13, 3)[3]
    tr = trace_prime(tower, P)
    x = tr.branches[1][0].image
    R = x.field
    assert isinstance(R, RelField) and R.size == 729
    assert all(is_pth_power(R.gen() + R.embed(R.parent.element(c)), 2)
               for c in range(3))
    assert not is_pth_power(R.nonresidue(2), 2)
    elements = [R.from_index(n) for n in range(R.size)]
    brute = {}
    for y in elements:
        brute.setdefault((y * y).key(), []).append(y)
    for y in elements:
        want = sorted(brute.get(y.key(), []), key=lambda r: r.key())
        assert pth_roots(y, 2) == want
    assert _image_keys(tr, 2) == tuple(r.key() for r in pth_roots(x, 2))


def test_image_keys_mixed_residue_fields():
    # above 7 the chain sqrt(2), sqrt(sqrt 2) gives two split branches in
    # F_7 and one branch in F_7[t]/(t^2 - 5): int keys first, then tuples
    tr = trace_prime(KummerTower(1, 2, 2, Datum.of(2)), cyclo_primes_above(1, 7)[0])
    assert tr.places(2) == ((1, 2), (2, 1))
    assert _image_keys(tr, 2) == (2, 5, (0, 1))


def test_rel_field_rejects_power():
    F5 = make_ext_field(5, 1)
    with pytest.raises(ValueError):
        RelField(F5, F5.element(4), 2)       # 4 = 2^2
    # no mu_3 in F_5: 2 = 3^3, so F_5[t]/(t^3 - 2) is not a field
    with pytest.raises(ValueError, match="mu_p missing"):
        RelField(F5, F5.element(2), 3)


@pytest.mark.parametrize("q,d,rel", [
    (3, 4, None), (13, 2, None), (5, 1, (2, 2)), (7, 1, (3, 3)),
], ids=["F3^4", "F13^2", "F5(sqrt2)", "F7(cbrt3)"])
def test_euler_criterion_against_order_valuation(q, d, rel):
    # x is a p-th power iff its order's p-part is below the group's
    field = make_ext_field(q, d)
    elements = list(_elements(field))
    if rel is not None:                     # F_q[t]/(t^p - a)
        a, p = rel
        field = RelField(field, field.element(a), p)
        elements = [RElement(field, cs) for cs in
                    itertools.product(elements, repeat=p)]
    n = field.size - 1
    for ell in sympy.primefactors(n):
        s = sylow_valuation(n, ell)
        for x in elements:
            if not x.is_zero():
                assert is_pth_power(x, ell) == (order_p_valuation(x, ell) < s)


def test_mixed_pre_step_trace_matches_cyclotomic():
    # Q < Q(i) < Q(zeta_8): places above 3 are (f=2, two of them)
    tower = KummerTower(1, 2, 1, Datum.of(2), pre_steps=(Datum.of(-1),))
    (P3,) = cyclo_primes_above(1, 3)
    tr = trace_prime(tower, P3)
    assert tr.places(0) == ((2, 1),)
    assert tr.places(1) == ((2, 2),)
    (P7,) = cyclo_primes_above(1, 7)         # 7 = -1 mod 8: f = 2 as well
    tr7 = trace_prime(tower, P7)
    assert tr7.places(1) == ((2, 2),)
    (P17,) = cyclo_primes_above(1, 17)       # 17 = 1 mod 8: full split
    tr17 = trace_prime(tower, P17)
    assert tr17.places(1) == ((1, 4),)


def test_relative_amm_odd_p():
    # pre-step 5 inert at 7, datum 2 must then split in the cubic extension
    F3 = CycloField(3)
    tower = KummerTower(3, 3, 1, Datum.of(2, m=3), pre_steps=(Datum.of(5, m=3),))
    for P in cyclo_primes_above(3, 7):
        tr = trace_prime(tower, P)
        assert tr.places(0) == ((3, 1),)
        assert tr.places(1) == ((3, 3),)
        for b in tr.branches[1]:
            assert (b.image ** 3) == b.image.field.embed(
                tower.datum.unit_part_image(P))


@pytest.mark.parametrize("m,p,mm0", [
    (4, 2, 8),
    (9, 3, 27),
])
def test_cyclotomic_chain_oracle(m, p, mm0):
    """Root-of-unity towers are cyclotomic: places must match order counts."""
    F = CycloField(m)
    tower = KummerTower(m, p, 2, Datum(F.zeta()), base_is_step=True)
    for q in (2, 5, 7, 11, 13, 19):
        if q == p or m % q == 0:
            continue
        base_primes = cyclo_primes_above(m, q)
        for P in base_primes:
            tr = trace_prime(tower, P)
            for j in range(3):
                mm = mm0 * p ** j
                f = sympy.n_order(q, mm)
                count = (sympy.totient(mm) // f) // len(base_primes)
                assert tr.places(j) == ((f, count),)


def test_group_p_valuation_matches_mult_order():
    F = make_ext_field(13, 2)
    for idx in (2, 7, 30, 100, 44):
        x = F.from_index(idx)
        n = mult_order(x)
        for p in (2, 3, 7):
            v = 0
            nn = n
            while nn % p == 0:
                nn //= p
                v += 1
            assert order_p_valuation(x, p) == v


def _bare(m, p, r, a, base_is_step=False):
    return KummerTower(m, p, r, Datum.of(a, m=m), base_is_step=base_is_step)


# bare towers with a rational datum: one reading serves every prime above q
RATIONAL = {
    "sqrt3": _bare(1, 2, 1, 3), "sqrt-5": _bare(1, 2, 1, -5),
    "quartic3": _bare(4, 2, 2, 3), "quartic-2": _bare(4, 2, 2, -2),
    "2^(1/8)": _bare(1, 2, 3, 2), "3^(1/4)": _bare(1, 2, 1, 3, True),
    "chain-top": _bare(4, 2, 4, 3), "zeta4-step": _bare(4, 2, 1, -2, True),
    # sqrt 2 lies in Q(zeta_8), sqrt 3 in Q(zeta_12), sqrt 5 in Q(zeta_5)
    "zeta8-sqrt2": _bare(8, 2, 2, 2), "zeta8-step": _bare(8, 2, 1, -1, True),
    "zeta12-sqrt3": _bare(12, 2, 2, 3),
    "zeta12-step": _bare(12, 2, 1, -3, True),
    "zeta5": _bare(5, 2, 2, 3), "zeta5-sqrt5": _bare(5, 2, 1, 5),
    "zeta3-cubic": _bare(3, 3, 2, 2), "zeta9-cubic": _bare(9, 3, 1, 2),
    "zeta9-step": _bare(9, 3, 1, 5, True),
    "zeta5-quintic": _bare(5, 5, 1, 2), "zeta5-step": _bare(5, 5, 1, 3, True),
    "zeta25-quintic": _bare(25, 5, 1, 2),
}
_F3, _F4, _F9 = CycloField(3), CycloField(4), CycloField(9)
# the core of test_core_power_at_a_degree_2_prime_traces_as_its_cofactor
_CORE12 = CycloField(12).element((-3, -3, 1, 1))
# cyclotomic cores, scaled cores, zeta-chains and pre-steps: each prime
# above q reads its own images
OTHER = {
    "zeta-p2": KummerTower(4, 2, 2, Datum(_F4.zeta()), base_is_step=True),
    "zeta-p3": KummerTower(9, 3, 1, Datum(_F9.zeta()), base_is_step=True),
    "gauss": KummerTower(4, 2, 1, Datum(_F4.element((1, 1)))),
    "pre-step": KummerTower(4, 2, 2, Datum.of(3, m=4),
                            pre_steps=(Datum.of(5, m=4),)),
    "gauss-times-7": KummerTower(4, 2, 2, Datum(_F4.element((1, 1)), 7)),
    "zeta9-2+z": KummerTower(9, 3, 1, Datum(_F9.element((2, 1)))),
    "two-pre-steps": KummerTower(1, 2, 2, Datum.of(3),
                                 pre_steps=(Datum.of(-1), Datum.of(5))),
    "zeta3-pre-step": KummerTower(3, 3, 2, Datum.of(2, m=3),
                                  pre_steps=(Datum(_F3.zeta()),)),
    "zeta12-core-times-3": KummerTower(12, 2, 2, Datum(_CORE12, 3)),
}
TOWERS = {**RATIONAL, **OTHER}
CONDUCTORS = {"Q": 1, "zeta4": 4, "zeta9": 9}


@pytest.mark.parametrize("field", [*TOWERS.values(), *CONDUCTORS.values()],
                         ids=[*TOWERS, *CONDUCTORS])
def test_place_profile_matches_trace(field):
    """Closed forms, the count and the place table must agree with the
    residue trace (with the base primes for a conductor), counts included,
    at every q < 2000 (q < 500 for a tower at odd p)."""
    bad = Field(field).bad_primes()
    X = 500 if isinstance(field, KummerTower) and field.p != 2 else 2000
    expected = []
    for q in sympy.primerange(2, X):
        if q in bad:
            continue
        agg = {}
        if isinstance(field, int):
            for P in cyclo_primes_above(field, q):
                agg[P.f] = agg.get(P.f, 0) + 1
        else:
            for P in cyclo_primes_above(field.m, q):
                for e, c in trace_prime(field, P).places(field.r):
                    agg[e] = agg.get(e, 0) + c
        profile = tuple(sorted(agg.items()))
        assert place_profile(field, q) == profile, q
        if q < 41:
            expected += [(q, f, c) for f, c in profile]
    assert Field(field).places(40) == tuple(expected)


def test_counted_profiles_trace_nothing(monkeypatch):
    def traced(*args):
        raise AssertionError("a profile was traced")
    monkeypatch.setattr(splitting, "trace_prime", traced)
    for t in TOWERS.values():
        K = Field(t)
        assert all(K.profile(q) for q in sympy.primerange(2, 200)
                   if q not in K.bad_primes())


def test_counted_profile_refuses_bad_primes():
    # the count would answer at a prime of the datum, wrongly: it refuses
    # (the zeta-chains read the closed form of their cyclotomic top)
    counted = [t for name, t in TOWERS.items()
               if name not in ("zeta-p2", "zeta-p3")]
    towers = (*counted, _bare(5, 2, 1, Fraction(14, 3)),
              _bare(3, 3, 1, 10), _bare(1, 2, 1, Fraction(-11, 7), True),
              # the core 1+2z has norm 5
              KummerTower(4, 2, 1, Datum(_F4.element((1, 2)))))
    for t in towers:
        K = Field(t)
        for q in K.bad_primes():
            with pytest.raises(ValueError, match="ramification"):
                K.profile(q)
    assert 5 in Field(towers[-1]).bad_primes()
    # with mu_3 missing from F_5 the count refuses as the trace does
    t = _bare(1, 3, 1, 2)
    with pytest.raises(ValueError, match="mu_p missing"):
        Field(t).profile(5)
    with pytest.raises(ValueError, match="mu_p missing"):
        trace_prime(t, cyclo_primes_above(1, 5)[0])


def test_core_power_at_a_degree_2_prime_traces_as_its_cofactor():
    # c = -3 - 3z + z^2 + z^3 vanishes at one of the two primes above 7 in
    # Q(zeta_12), both of degree 2; a * c^(p^r) traces as a does
    c = CycloField(12).element((-3, -3, 1, 1))
    for p, a in ((2, 3), (3, 2)):
        for r in (1, 2):
            t = KummerTower(12, p, r, Datum(c ** p ** r * a))
            t0 = _bare(12, p, r, a)
            for P in cyclo_primes_above(12, 7):
                assert trace_prime(t, P).places(r) \
                    == trace_prime(t0, P).places(r)


@pytest.mark.parametrize("field", [4, 9, 12, 15, 64])
def test_place_profile_refuses_ramified_q(field):
    for q in sympy.primefactors(field):
        with pytest.raises(ValueError, match="ramifies in conductor"):
            place_profile(field, q)
