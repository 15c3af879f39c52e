from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_gcd, gf_mul, gf_pow_mod, gf_rem,
                                     gf_strip, gf_sub)

from kummerlab.finitefield import (
    ExtField,
    _irreducible_binomials,
    is_pth_power,
    make_ext_field,
    order_p_valuation,
    pth_roots,
)

# Oracle helpers: exhaustive searches and Rabin's irreducibility test, the
# slow paths the library replaced, kept here as references.

EXHAUSTION_BOUND = 2 ** 20


def find_roots_by_exhaustion(coeffs, field):
    """Roots in `field` of the integer polynomial sum(coeffs[i] X^i), sorted."""
    if field.size > EXHAUSTION_BOUND:
        raise ValueError("field too large for exhaustive root search")
    cs = [field.element((c,)) for c in coeffs]
    roots = []
    for x in _elements(field):
        acc = field.zero()
        for c in reversed(cs):
            acc = acc * x + c
        if acc.is_zero():
            roots.append(x)
    return sorted(roots, key=lambda r: r.key())


def mult_order(x):
    """Multiplicative order of a nonzero element, from the factored group order."""
    if x.is_zero():
        raise ValueError("multiplicative order of zero")
    e = x.field.size - 1
    for ell, k in sympy.factorint(e).items():
        for _ in range(k):
            if x ** (e // ell) == x.field.one():
                e //= ell
            else:
                break
    return e


def _elements(field):
    return map(field.from_index, range(field.size))


def brute_pth_roots(elements, p):
    """Oracle: every p-th root of every element, by inverting y -> y^p once."""
    roots = {}
    for y in elements:
        roots.setdefault((y ** p).key(), []).append(y)
    return {k: sorted(v, key=lambda r: r.key()) for k, v in roots.items()}


def rabin_is_irreducible(f, q):
    """Rabin's test on a monic f over F_q, coefficients highest first."""
    d = len(f) - 1
    if d == 1:
        return True
    x = [1, 0]
    frob = [x]
    for _ in range(d):
        frob.append(gf_pow_mod(frob[-1], q, f, q, ZZ))
    if frob[d] != x:
        return False
    return all(gf_gcd(f, gf_sub(frob[d // e], x, q, ZZ), q, ZZ) == [1]
               for e in sympy.primefactors(d))


def sympy_poly(coeffs):
    """Low-first coefficients as a sympy dense polynomial (highest first)."""
    return gf_strip([ZZ(c) for c in reversed(coeffs)])


def sympy_mul(x, y):
    """x * y in x's field through sympy's gf_mul and gf_rem."""
    F = x.field
    r = gf_rem(gf_mul(sympy_poly(x.coeffs), sympy_poly(y.coeffs), F.q, ZZ),
               sympy_poly(F.modulus), F.q, ZZ)
    return F.element(tuple(int(c) for c in reversed(r)))


def sympy_pow(x, e):
    """x ** e (e >= 0) in x's field through sympy's gf_pow_mod."""
    F = x.field
    r = gf_pow_mod(sympy_poly(x.coeffs), e, sympy_poly(F.modulus), F.q, ZZ)
    return F.element(tuple(int(c) for c in reversed(r)))


def rabin_least_modulus(q, d):
    """Least monic irreducible of degree d in (c_{d-1}, ..., c_0) order, low first."""
    for n in range(q ** d):
        f = [1] + [(n // q ** i) % q for i in reversed(range(d))]
        if rabin_is_irreducible(f, q):
            return tuple(reversed(f))
    raise AssertionError("no irreducible polynomial found")


def test_canonical_moduli_small():
    assert make_ext_field(3, 1).modulus == (0, 1)
    assert make_ext_field(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert make_ext_field(5, 1).modulus == (0, 1)
    # determinism: cached object identity and value equality on rebuild
    assert make_ext_field(3, 2) is make_ext_field(3, 2)


def test_elements_mix_only_within_one_field():
    # fields compare by identity: make_ext_field hands out one per (q, d)
    F = make_ext_field(7, 2)
    a, b = F.element((0, 1)), make_ext_field(7, 2).element((1, 1))
    assert a + b == F.element((1, 2)) and b - a == F.one()
    assert a * b == a * a + a and b == 1 + a
    rebuilt = ExtField(7, 2, F.modulus)     # F_49 again, outside the cache
    for other in (make_ext_field(7, 3).element((0, 1)),
                  make_ext_field(11, 2).element((0, 1)),
                  rebuilt.element((0, 1))):
        assert a != other
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y):
            with pytest.raises(ValueError, match="different fields"):
                op(a, other)


def test_modulus_is_least_in_high_first_order():
    # oracle: enumerate all monic irreducible quadratics over F_3 directly
    q = 3
    irreducible = []
    for c1, c0 in itertools.product(range(q), repeat=2):
        f = [c0, c1, 1]
        if all(sum(c * x ** i for i, c in enumerate(f)) % q for x in range(q)):
            irreducible.append((c1, c0))
    assert min(irreducible) == (0, 1)
    got = make_ext_field(3, 2).modulus
    assert (got[1], got[0]) == min(irreducible)


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (5, 2), (7, 2), (2, 8), (13, 2)])
def test_modulus_irreducible_by_root_check(q, d):
    f = make_ext_field(q, d).modulus
    field = make_ext_field(q, d)
    # the generator is a root of the modulus
    g = field.element((0, 1))
    acc = field.zero()
    for c in reversed(f):
        acc = acc * g + field.element(c)
    assert acc.is_zero()
    # no roots in the prime subfield unless d == 1
    if d > 1:
        for x in range(q):
            assert sum(c * x ** i for i, c in enumerate(f)) % q != 0


@pytest.mark.parametrize("q", list(sympy.primerange(2, 60)))
def test_modulus_matches_rabin_reference_search(q):
    # every q < 60 has q^6 <= 10^12; q = 11, 23, 29, 41 (q = 2, 5 mod 9) at
    # d = 6 reject every binomial t^6 - a before the first irreducible
    for d in range(1, 7):
        assert make_ext_field(q, d).modulus == rabin_least_modulus(q, d), (q, d)


def test_is_pth_power_frozen_values():
    F7 = make_ext_field(7, 1)
    assert {x for x in range(1, 7) if is_pth_power(F7.element(x), 3)} == {1, 6}
    assert not is_pth_power(F7.element(2), 3)
    assert is_pth_power(F7.element(2), 5)  # gcd(5, 6) = 1
    F9 = make_ext_field(3, 2)
    assert not is_pth_power(F9.element((1, 1)), 2)  # 1 + i


def test_zero_input_flag():
    F7 = make_ext_field(7, 1)
    assert is_pth_power(F7.zero(), 3)
    assert is_pth_power(F7.element(1), 3)
    assert pth_roots(F7.zero(), 3) == [F7.zero()]


def test_pth_roots_frozen_values():
    F5 = make_ext_field(5, 1)
    assert [r.key() for r in pth_roots(F5.element(4), 2)] == [2, 3]
    assert pth_roots(F5.element(2), 2) == []
    F7 = make_ext_field(7, 1)
    assert [r.key() for r in pth_roots(F7.element(1), 3)] == [1, 2, 4]


def test_mult_order_frozen_values():
    F9 = make_ext_field(3, 2)
    assert mult_order(F9.element((1, 1))) == 8
    assert mult_order(F9.one()) == 1
    assert mult_order(make_ext_field(7, 1).element(2)) == 3
    with pytest.raises(ValueError):
        mult_order(F9.zero())


@pytest.mark.parametrize("q,d,p", [(3, 2, 2), (5, 1, 2), (7, 1, 3), (2, 4, 3),
                                   (5, 2, 2), (13, 1, 3), (3, 3, 2), (11, 1, 5),
                                   (3, 4, 2), (5, 6, 2), (5, 6, 3), (7, 3, 3),
                                   (2, 6, 3)])
def test_pth_power_criterion_against_brute_force(q, d, p):
    field = make_ext_field(q, d)
    brute = brute_pth_roots(_elements(field), p)
    for x in _elements(field):
        assert is_pth_power(x, p) == (x.key() in brute)
        roots = pth_roots(x, p)
        assert roots == brute.get(x.key(), [])
        assert len(roots) in (0, 1, p) or x.is_zero()


@pytest.mark.parametrize("q,d", [(3, 2), (7, 1), (2, 4), (5, 2)])
def test_order_divides_group_and_valuation(q, d):
    field = make_ext_field(q, d)
    n_ = field.size - 1
    for x in _elements(field):
        if x.is_zero():
            continue
        e = mult_order(x)
        assert n_ % e == 0
        assert x ** e == field.one()
        if e > 1:
            assert x ** (e // sympy_least_factor(e)) != field.one() or e == 1
        for p in (2, 3):
            v, m = 0, e
            while m % p == 0:
                m //= p
                v += 1
            assert order_p_valuation(x, p) == v


def sympy_least_factor(n):
    return min(sympy.primefactors(n))


def test_amm_matches_exhaustion_just_above_bound():
    # smallest prime above the exhaustion oracle's reach
    q = sympy.nextprime(EXHAUSTION_BOUND)
    field = make_ext_field(q, 1)
    for val in (4, 9, 1024, q - 1):
        x = field.element(val)
        roots = pth_roots(x, 2)
        for r in roots:
            assert r ** 2 == x
        if roots:
            assert roots == sorted(roots, key=lambda r: r.key())
            # oracle: the classical Euler criterion
            assert pow(val % q, (q - 1) // 2, q) == 1


def test_amm_odd_p_big_field():
    q = sympy.nextprime(2 ** 21)
    while q % 3 != 1:
        q = sympy.nextprime(q)
    field = make_ext_field(q, 1)
    x = field.element(8)  # 2^3
    roots = pth_roots(x, 3)
    assert len(roots) == 3
    assert all(r ** 3 == x for r in roots)
    assert field.element(2) in roots


def test_arithmetic_field_axioms_small():
    field = make_ext_field(3, 2)
    els = list(_elements(field))
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a * b.inverse()) * b == a
    for a in els:
        assert a * field.one() == a
        assert a + field.zero() == a


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=80),
       st.integers(min_value=0, max_value=80))
@settings(max_examples=60, deadline=None)
def test_distributivity_f81(i, j, k):
    field = make_ext_field(3, 4)
    a, b, c = field.from_index(i), field.from_index(j), field.from_index(k)
    assert a * (b + c) == a * b + a * c


def test_subfield_elements_are_squares_in_even_degree():
    # prime-subfield elements are p-th powers in F_{q^p} (norm argument)
    for q in (3, 5, 7):
        field = make_ext_field(q, 2)
        for x in range(1, q):
            assert is_pth_power(field.element(x), 2)


def test_find_roots_by_exhaustion():
    F81 = make_ext_field(3, 4)
    roots = find_roots_by_exhaustion((1, 0, 1), F81)  # t^2 + 1 splits here
    assert len(roots) == 2
    for r in roots:
        assert (r * r + F81.one()).is_zero()
    assert roots[0].key() < roots[1].key()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 31])
def test_prime_field_arithmetic_matches_poly_reference(q):
    # over F_q, * and ** run on ints; sympy's gf_* polynomials are the reference
    field = make_ext_field(q, 1)
    assert field.modulus == (0, 1)
    for a in range(q):
        x = field.element(a)
        for b in range(q):
            assert x * field.element(b) == sympy_mul(x, field.element(b))
        for e in [*range(2 * q + 1), 10 ** 21 + 7]:
            assert x ** e == sympy_pow(x, e)


@pytest.mark.parametrize("q,d", [(2, 8), (5, 6), (13, 12), (1999, 2), (1999, 6),
                                 (1289, 6), (3, 7)])
def test_packed_arithmetic_matches_sympy(q, d):
    # products and powers run on packed ints for d >= 2; sympy is the reference.
    # Over F_{3^7} the square of the all-(q - 1) element folds a slot past
    # d (q - 1)^2, so a slot width sized for the product alone would overflow.
    rng = random.Random(q * 100 + d)
    field = make_ext_field(q, d)
    edge = [field.zero(), field.one(), field.from_index(q ** (d - 1)),
            field.element((q - 1,) * d)]
    els = edge + [field.from_index(rng.randrange(field.size)) for _ in range(12)]
    for x in els:
        for y in els:
            assert (x * y).coeffs == sympy_mul(x, y).coeffs
        exps = [0, 1, 2, q, field.size - 2, 10 ** 21 + 7, rng.randrange(10 ** 21)]
        for e in exps:
            assert (x ** e).coeffs == sympy_pow(x, e).coeffs, (x, e)
        if not x.is_zero():
            assert x * x ** -1 == field.one()


@pytest.mark.parametrize("q", list(sympy.primerange(2, 60)))
def test_binomial_criterion_matches_rabin(q):
    # the criterion decides each t^d + c; Rabin's test is the reference.  q = 2
    # and q = 3 mod 4 with 4 | d are the branches that reject every binomial.
    for d in (2, 3, 4, 6, 8):
        if q ** d > 10 ** 12:
            continue
        fast = set(_irreducible_binomials(q, d))
        slow = {c for c in range(q) if rabin_is_irreducible([1] + [0] * (d - 1) + [c], q)}
        assert fast == slow, (q, d)


def test_large_tower_scan_moduli_frozen():
    # beyond the Rabin reference's reach: no binomial t^6 + c is irreducible
    # over F_1289 or F_401 (3 does not divide q - 1)
    assert make_ext_field(1289, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert make_ext_field(401, 6).modulus == (5, 1, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_and_zero_match_element(q, d):
    # one() and zero() build their padded tuples directly; element() is the
    # reference
    field = make_ext_field(q, d)
    assert field.one() == field.element((1,))
    assert field.zero() == field.element(())
    assert hash(field.one()) == hash(field.element((1,)))
    assert (field.one().key(), field.zero().key()) == (1, 0)


def test_big_exponent_arithmetic():
    field = make_ext_field(3, 2)
    x = field.element((1, 1))
    assert x ** (10 ** 30) == x ** (10 ** 30 % 8)
