"""kummerlab.ntheory against sympy, which serves here as the oracle."""

import math
import random
import time

import pytest
import sympy

from kummerlab import ntheory
from kummerlab.cyclotomic import (InconclusiveError, cyclotomic_poly_coeffs,
                                  unit_group_structure)

# the least strong pseudoprimes to the first 4, 5, 6, 7 and 9 prime bases
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051)
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185, 5394826801,
              232250619601, 9746347772161)


def test_isprime_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if ntheory.isprime(n)] == \
        list(sympy.primerange(2, 10 ** 5))


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_isprime_pseudoprimes(n):
    assert not sympy.isprime(n) and not ntheory.isprime(n)
    # a prime just past each one, reached by Miller-Rabin
    q = sympy.nextprime(n)
    assert ntheory.isprime(q)


def test_isprime_past_the_deterministic_range():
    # BPSW from MR_LIMIT on, as in sympy; 4919^8 is a norm the tower-scan
    # benchmark factors at seed 21
    rng = random.Random(2)
    ns = [ntheory.MR_LIMIT, ntheory.MR_LIMIT + 2, 4919 ** 8, 2 ** 89 - 1,
          2 ** 127 - 1, (2 ** 61 - 1) * (2 ** 89 - 1)]
    ns += [rng.randrange(ntheory.MR_LIMIT, 10 ** 60) | 1 for _ in range(500)]
    ns += [sympy.nextprime(rng.randrange(10 ** 25, 10 ** 50)) for _ in range(50)]
    for n in ns:
        assert ntheory.isprime(n) == sympy.isprime(n), n
    assert ntheory.factorint(4919 ** 8) == {4919: 8}


def test_strong_lucas_half_of_bpsw():
    # every odd prime passes; the strong Lucas pseudoprimes pass too, and
    # the base-2 Miller-Rabin half of BPSW is what rejects them
    for n in range(5, 20000, 2):
        if sympy.isprime(n):
            assert ntheory._strong_lucas_probable_prime(n), n
    for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
        assert ntheory._strong_lucas_probable_prime(n), n
        assert not ntheory._strong_probable_prime(n, (2,)), n


def test_factorint_below_1e5():
    for n in range(1, 10 ** 5):
        assert list(ntheory.factorint(n).items()) == \
            list(sympy.factorint(n).items()), n


def test_factorint_up_to_1e12():
    # sympy lists large factors in the order it finds them; ours ascend
    rng = random.Random(0)
    ns = [rng.randrange(1, 10 ** 12) for _ in range(2000)]
    ns += [1009 ** 2, 1009 ** 3, 999983 * 1000003, 1000003 ** 2, 2 ** 39, 3 ** 25]
    for n in ns:
        got = ntheory.factorint(n)
        assert got == sympy.factorint(n) and list(got) == sorted(got), n
        assert ntheory.primefactors(n) == sympy.primefactors(n), n
    # past rho's reach: a Mersenne pair that p - 1 splits, a cube and
    # semiprimes of two primes near 10^15 that only ECM splits.  sympy takes
    # 15 s on the first, so each answer is checked as a product of primes
    rng = random.Random(3)
    big = [(2 ** 61 - 1) * (2 ** 89 - 1), sympy.nextprime(10 ** 15 + 12345) ** 3,
           sympy.nextprime(10 ** 15) * sympy.nextprime(3 * 10 ** 15)]
    big += [sympy.nextprime(rng.randrange(10 ** 15, 10 ** 16)) *
            sympy.nextprime(rng.randrange(10 ** 15, 10 ** 16)) for _ in range(2)]
    for n in big:
        start = time.perf_counter()
        got = ntheory.factorint(n)
        assert time.perf_counter() - start < 30, n
        assert math.prod(q ** e for q, e in got.items()) == n, n
        assert all(sympy.isprime(q) for q in got) and list(got) == sorted(got), n


def test_factorint_split_steps():
    mersennes = (2 ** 61 - 1) * (2 ** 89 - 1)
    assert ntheory._rho(mersennes, ntheory.RHO_STEPS) is None
    assert ntheory._pm1(mersennes, ntheory.PM1_BOUND) == 2 ** 61 - 1
    n = sympy.nextprime(10 ** 15) * sympy.nextprime(3 * 10 ** 15)
    assert ntheory._pm1(n, ntheory.PM1_BOUND) is None
    assert ntheory._ecm(n, 11000) in (sympy.nextprime(10 ** 15),
                                      sympy.nextprime(3 * 10 ** 15))


def test_split_gives_up_past_its_bound():
    # two 30-digit primes are out of reach at B1 = 2000: an error, not a hang
    n = sympy.nextprime(10 ** 29) * sympy.nextprime(3 * 10 ** 29)
    start = time.perf_counter()
    with pytest.raises(InconclusiveError):
        ntheory._split(n, 2000)
    assert time.perf_counter() - start < 30


def test_factorint_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            ntheory.factorint(n)
    assert ntheory.primefactors(0) == ntheory.primefactors(1) == []


def test_jacobi_matches_sympy():
    # (a / n) depends on a mod n: sympy's symbol once per residue, then every
    # a in [-n, n] against its residue's symbol
    for n in range(1, 1000, 2):
        ref = [int(sympy.jacobi_symbol(a, n)) for a in range(n)]
        for a in range(-n, n + 1):
            assert ntheory.jacobi(a, n) == ref[a % n], (a, n)


def test_least_primitive_roots():
    for n in range(3, 2001):
        fs = sympy.factorint(n)
        if len(fs) == 1 and 2 not in fs:
            assert ntheory.primitive_root(n) == sympy.primitive_root(n), n
    for n in (1, 2, 4, 9 * 5, 2 * 9):
        with pytest.raises(ValueError):
            ntheory.primitive_root(n)


def test_unit_group_structure_generators():
    # each odd prime power's generator is sympy's least primitive root there
    # and 1 at the rest of N; the 2-part's generators come first
    for N in range(3, 2001):
        odd = [ell ** k for ell, k in sympy.factorint(N).items() if ell > 2]
        gens = unit_group_structure(N)
        for (g, d), pk in zip(gens[len(gens) - len(odd):], odd):
            assert g % pk == sympy.primitive_root(pk), N
            assert g % (N // pk) == 1 % (N // pk), N
            assert d == sympy.totient(pk), N


def test_cyclotomic_poly_coeffs():
    for m in range(1, 1001):
        ref = sympy.cyclotomic_poly(m, polys=True).all_coeffs()
        assert cyclotomic_poly_coeffs(m) == tuple(int(c) for c in reversed(ref)), m


def test_primerange_and_divisors():
    for a, b in ((0, 2), (2, 3), (5, 100), (100, 5000), (7919, 7920),
                 (10 ** 5, 10 ** 5 + 1000), (3, 2)):
        assert ntheory.primerange(a, b) == list(sympy.primerange(a, b)), (a, b)
    for n in range(1, 3000):
        assert ntheory.divisors(n) == sympy.divisors(n), n


def test_iroot():
    rng = random.Random(1)
    for n in list(range(2000)) + [rng.randrange(10 ** 40) for _ in range(200)]:
        for k in range(1, 8):
            assert ntheory.iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)
    with pytest.raises(ValueError):
        ntheory.iroot(-8, 3)
