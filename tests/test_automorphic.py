"""Character model: exact tables, isobaric normalization, Satake data."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from kummerlab.automorphic import (
    IsobaricRep,
    NormCharacter,
    base_change,
    central_char_and_t,
    character_of_order,
    components_match,
    dirichlet_characters,
    make_isobaric,
    norm_equal,
    pair_components,
    satake,
    satake_agreement,
    twist_eliminate,
    unit_group_structure,
)
from kummerlab.cyclotomic import Datum
from kummerlab.tower import KummerTower

from test_acceptance import _lrs_check

TRIV = NormCharacter.trivial()
CHI4 = dirichlet_characters(4)[1]
CHI8 = character_of_order(8, 2)          # kernel {1, 7}: the sqrt(2) character
K3 = KummerTower(1, 2, 1, Datum.of(3))   # Q(sqrt 3)


def test_unit_group_structure_frozen():
    assert unit_group_structure(8) == ((7, 2), (5, 2))
    assert unit_group_structure(12) == ((7, 2), (5, 2))
    assert unit_group_structure(5) == ((2, 4),)
    assert unit_group_structure(1) == ()
    assert unit_group_structure(2) == ()


@pytest.mark.parametrize("N", [3, 4, 5, 7, 8, 9, 12, 15, 16, 24, 40])
def test_unit_group_generates(N):
    gens = unit_group_structure(N)
    span = {1 % N}
    for g, d in gens:
        assert pow(g, d, N) == 1
        assert all(pow(g, d // ell, N) != 1 for ell in sympy.primefactors(d))
        span = {(x * pow(g, k, N)) % N for x in span for k in range(d)}
    assert span == {a for a in range(N) if math.gcd(a, N) == 1} or N == 1


@pytest.mark.parametrize("N", [5, 8, 12])
def test_character_group_is_complete_and_orthogonal(N):
    chars = dirichlet_characters(N)
    assert len(chars) == sympy.totient(N)
    assert chars[0].is_trivial
    assert len({c.key() for c in chars}) == len(chars)
    for c in chars[1:]:
        s = sum(complex(math.cos(2 * math.pi * c.angle(a)),
                        math.sin(2 * math.pi * c.angle(a)))
                for a in range(N) if math.gcd(a, N) == 1)
        assert abs(s) < 1e-9


def test_chi4_frozen():
    assert CHI4.order == 2 and CHI4.conductor() == 4
    assert CHI4.angle(3) == Fraction(1, 2)
    assert CHI4.angle(5) == 0
    with pytest.raises(ValueError, match="not a unit"):
        CHI4.angle(2)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_prime_modulus_quadratic_character_is_legendre(q):
    chi = character_of_order(q, 2)
    for a in range(1, q):
        expected = 0 if sympy.jacobi_symbol(a, q) == 1 else Fraction(1, 2)
        assert chi.angle(a) == expected


def _lift(chi, M):
    """chi read mod a multiple M of its modulus: an imprimitive character."""
    return NormCharacter(M, chi.order, {a: chi.exps[a % chi.modulus]
                                        for a in range(M) if math.gcd(a, M) == 1},
                         chi.field)


def test_conductor_and_primitive():
    lifted = _lift(CHI4, 12)
    assert lifted.modulus == 12 and lifted.conductor() == 4
    assert lifted.primitive().key() == CHI4.key()
    chi3 = character_of_order(3, 2)
    prod = CHI4 * chi3
    assert prod.conductor() == 12
    assert TRIV.conductor() == 1


def test_bad_table_rejected():
    with pytest.raises(ValueError, match="multiplicative"):
        NormCharacter(5, 4, {1: 0, 2: 1, 3: 1, 4: 1})
    with pytest.raises(ValueError, match="cover exactly"):
        NormCharacter(5, 1, {1: 0})


def test_character_arithmetic():
    assert (CHI4 * CHI4).is_trivial
    assert (CHI8 ** 2).is_trivial
    assert CHI4.inverse().key() == CHI4.key()      # order 2 is self-inverse
    chi5 = character_of_order(5, 4)
    assert (chi5 * chi5.inverse()).is_trivial
    assert (chi5 ** 4 * chi5).key() == chi5.key()


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0,
                                                          max_value=7))
def test_multiplicativity_mod_24(i, j):
    chars = dirichlet_characters(24)
    chi = chars[i]
    units = [a for a in range(24) if math.gcd(a, 24) == 1]
    a, b = units[i], units[j]
    assert chi.angle(a * b) == (chi.angle(a) + chi.angle(b)) % 1


# ---------------------------------------------------------------------------
# oracle: a character as a table of Fraction turns, the form the int
# exponents replace.  A reference character is (N, {unit: Fraction in [0, 1)}).

def _ref_units(N):
    return [a for a in range(N) if math.gcd(a, N) == 1]


def _ref_characters(N):
    """Every character mod N from its generator images, in product order."""
    gens = unit_group_structure(N)
    ranges = [range(d) for _, d in gens]
    out = []
    for ks in itertools.product(*ranges):
        table = {}
        for js in itertools.product(*ranges):
            a = math.prod(pow(g, j, N) for (g, _), j in zip(gens, js)) % N
            table[a] = sum((Fraction(k * j, d) for k, j, (_, d)
                            in zip(ks, js, gens)), Fraction(0)) % 1
        out.append((N, table))
    return out


def _ref_canon(ref):
    """(modulus, order, exps): the exact order and exponents, units sorted."""
    N, table = ref
    order = math.lcm(*(t.denominator for t in table.values()))
    return N, order, {a: t.numerator * (order // t.denominator)
                       for a, t in sorted(table.items())}


def _ref_conductor(ref):
    N, table = ref
    return next(d for d in sorted(sympy.divisors(N))
                if all(t == 0 for a, t in table.items() if a % d == 1 % d))


def _ref_primitive(ref):
    N, table = ref
    c = _ref_conductor(ref)
    lift = {a: next(b % N for b in range(a, N + c, c) if math.gcd(b, N) == 1)
            for a in _ref_units(c)}
    return c, {a: table[b] for a, b in lift.items()}


def _ref_lift(ref, M):
    N, table = ref
    return M, {a: table[a % N] for a in _ref_units(M)}


def _ref_mul(x, y):
    (N1, t1), (N2, t2) = x, y
    M = math.lcm(N1, N2)
    return _ref_primitive((M, {a: (t1[a % N1] + t2[a % N2]) % 1
                               for a in _ref_units(M)}))


def _ref_pow(ref, k):
    N, table = ref
    return _ref_primitive((N, {a: (k * t) % 1 for a, t in table.items()}))


def _ref_inverse(ref):
    N, table = ref
    return N, {a: (-t) % 1 for a, t in table.items()}


def _assert_same(chi, ref):
    N, order, exps = _ref_canon(ref)
    assert (chi.modulus, chi.order) == (N, order)
    assert list(chi.exps.items()) == list(exps.items())
    c, o, e = _ref_canon(_ref_primitive(ref))
    assert chi.key() == (c, o, tuple(e.values()))
    assert chi.conductor() == c


SMALL = [pair for M in (4, 5)
         for pair in zip(dirichlet_characters(M), _ref_characters(M))]


@pytest.mark.parametrize("N", range(1, 61))
def test_int_exponents_match_fraction_tables(N):
    chars, refs = dirichlet_characters(N), _ref_characters(N)
    assert len(chars) == len(refs)
    for i, (chi, ref) in enumerate(zip(chars, refs)):
        _assert_same(chi, ref)
        back = NormCharacter.from_json(chi.to_json())
        assert list(back.exps.items()) == list(chi.exps.items())
        assert (back.modulus, back.order) == (chi.modulus, chi.order)
        _assert_same(chi.inverse(), _ref_inverse(ref))
        _assert_same(chi.primitive(), _ref_primitive(ref))
        for M in (2 * N, 3 * N):
            _assert_same(_lift(chi, M), _ref_lift(ref, M))
        for k in range(-3, 6):
            _assert_same(chi ** k, _ref_pow(ref, k))
        j = (i + 1) % len(chars)
        _assert_same(chi * chars[j], _ref_mul(ref, refs[j]))
        for psi, ref2 in SMALL:
            _assert_same(chi * psi, _ref_mul(ref, ref2))


def test_constructor_reduces_and_rejects_orders():
    chi = NormCharacter(5, 8, {1: 0, 2: 4, 3: 4, 4: 0})
    assert (chi.order, chi.exps) == (2, {1: 0, 2: 1, 3: 1, 4: 0})
    assert NormCharacter(5, 4, {1: 4, 2: -3, 3: 7, 4: 2}).exps == \
        character_of_order(5, 4).exps
    for order in (0, -4):
        with pytest.raises(ValueError, match="order must be >= 1"):
            NormCharacter(5, order, {1: 0, 2: 1, 3: 3, 4: 2})


# ---------------------------------------------------------------------------
# isobaric sums

def test_make_isobaric_normalization():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    assert pi.n == 2 and pi.is_unitary
    double = make_isobaric([(CHI4, 2)])
    assert double.n == 2 and double.components[0][1] == 2
    merged = make_isobaric([(CHI4, 1), (CHI4, 1)])
    assert merged == double
    with pytest.raises(ValueError, match="at least one"):
        make_isobaric([])
    with pytest.raises(ValueError, match="multiplicities"):
        make_isobaric([(CHI4, 0)])


def test_satake_frozen():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    A3 = satake(pi, 3)
    assert [a for a, _ in A3.eigenvalues] == [0, Fraction(1, 2)]
    A5 = satake(pi, 5)
    assert [a for a, _ in A5.eigenvalues] == [0, 0]
    assert satake(make_isobaric([(TRIV, 2)]), 7).eigenvalues == \
        ((0, 0), (0, 0))
    with pytest.raises(ValueError, match="ramified"):
        satake(pi, 2)


def test_satake_agreement_matches_satake():
    # criterion 10's pool and draw over Q(i) and Q(sqrt 3); second sides are
    # shuffled copies, twists and independent draws, so moduli differ too
    def pool_over(K):
        return (NormCharacter.trivial(K), character_of_order(5, 4).retag(K),
                character_of_order(5, 2).retag(K), CHI8.retag(K),
                character_of_order(13, 4).retag(K),
                character_of_order(3, 2).retag(K))

    def draw(rng, pool):
        comps, remaining = [], rng.randint(2, 3)
        while remaining:
            mult = rng.randint(1, remaining)
            comps.append((rng.choice(pool), mult))
            remaining -= mult
        return comps

    rng = random.Random(17)
    pairs = []
    for K in (4, K3):
        pool = pool_over(K)
        delta = character_of_order(13, 2).retag(K)
        for _ in range(4):
            comps = draw(rng, pool)
            shuffled = list(comps)
            rng.shuffle(shuffled)
            pi = make_isobaric(comps, 0, K)
            pairs += [(pi, make_isobaric(shuffled, 0, K)),
                      (pi, make_isobaric([(c * delta, m) for c, m in comps],
                                         0, K)),
                      (pi, make_isobaric(draw(rng, pool), 0, K))]
        pairs.append((pi, make_isobaric(comps, Fraction(1, 2), K)))
    norms = [q ** f for q in sympy.primerange(2, 2001) for f in (1, 2, 3)
             if q ** f <= 2000]
    seen = set()
    for pi, pi2 in pairs:
        agree = satake_agreement(pi, pi2)
        moduli = [chi.modulus for rep in (pi, pi2) for chi, _ in rep.components]
        for Nv in norms:
            if all(math.gcd(Nv, N) == 1 for N in moduli):
                want = satake(pi, Nv) == satake(pi2, Nv)
                assert agree(Nv) == want, (pi, pi2, Nv)
                seen.add(want)
    assert seen == {True, False}


def test_base_change_eigenvalue_powers():
    pi = make_isobaric([(CHI4, 1)])
    piM = base_change(pi, 4)
    # above 3 the place has degree 2 and the eigenvalue is (-1)^2 = 1
    assert satake(piM, 9).eigenvalues == ((0, 0),)
    assert base_change(make_isobaric([(TRIV, 1)]), 4) == \
        make_isobaric([(TRIV, 1)], 0, 4)


def test_base_change_collapse_over_gaussians():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    piQi = base_change(pi, 4)
    assert len(piQi.components) == 1
    assert piQi.components[0][1] == 2
    assert piQi == make_isobaric([(TRIV, 2)], 0, 4)
    # but over Q(sqrt 3) the two components stay distinct
    piK = base_change(pi, K3)
    assert len(piK.components) == 2


def test_base_change_transitivity():
    pi = make_isobaric([(TRIV, 1), (CHI8, 1)])
    assert base_change(base_change(pi, 4), 8) == base_change(pi, 8)
    with pytest.raises(ValueError, match="unsupported"):
        base_change(base_change(pi, 4), 3)


def test_pair_components_multiplicities_and_leftovers():
    chi5 = character_of_order(5, 4)
    chi3 = character_of_order(3, 2)
    pi = make_isobaric([(TRIV, 2), (CHI4, 1), (chi5, 1)])
    pi2 = make_isobaric([(CHI4, 3), (chi3, 1), (TRIV, 1)])
    pairs, left, right = pair_components(pi, pi2)
    assert [(a.key(), m, b.key(), m2) for a, m, b, m2 in pairs] == [
        (TRIV.key(), 2, TRIV.key(), 1), (CHI4.key(), 1, CHI4.key(), 3)]
    assert [(c.key(), m) for c, m in left] == [(chi5.key(), 1)]
    assert [(c.key(), m) for c, m in right] == [(chi3.key(), 1)]
    # over Q(i) chi8 and chi4 chi8 are one character: partners keep their
    # own Dirichlet characters, and unequal multiplicities break equality
    up = make_isobaric([(CHI8, 2), (chi5, 1)], field=4)
    up2 = make_isobaric([(CHI4 * CHI8, 1), (chi5, 1), (chi3, 1)], field=4)
    pairs, left, right = pair_components(up, up2)
    assert [(a.key(), m, b.key(), m2) for a, m, b, m2 in pairs] == [
        (chi5.key(), 1, chi5.key(), 1), (CHI8.key(), 2, (CHI4 * CHI8).key(), 1)]
    assert left == () and [(c.key(), m) for c, m in right] == [(chi3.key(), 1)]
    assert up != make_isobaric([(CHI4 * CHI8, 1), (chi5, 2)], field=4)
    assert up == make_isobaric([(CHI4 * CHI8, 2), (chi5, 1)], field=4)
    with pytest.raises(ValueError, match="one field"):
        pair_components(pi, up)


def test_norm_equality_examples():
    assert norm_equal(CHI4.retag(4), TRIV.retag(4))
    assert not norm_equal(CHI4, TRIV)
    assert not norm_equal(CHI4.retag(K3), TRIV.retag(K3))
    assert norm_equal(CHI8.retag(4), (CHI4 * CHI8).retag(4))
    assert not norm_equal(CHI8.retag(4), TRIV.retag(4))


def test_central_char_and_t():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    om, t = central_char_and_t(pi)
    assert om.key() == CHI4.key() and t == 0
    shifted = make_isobaric([(CHI4, 1)], Fraction(3, 10))
    assert central_char_and_t(shifted)[1] == Fraction(3, 10)
    chi5 = character_of_order(5, 4)
    pi2 = make_isobaric([(chi5, 2)])
    om2, _ = central_char_and_t(pi2)
    both = make_isobaric([(TRIV, 1), (CHI4, 1), (chi5, 2)])
    omb, _ = central_char_and_t(both)
    assert omb.key() == (om * om2).key()


def test_lrs_check():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    assert _lrs_check(satake(pi, 3), 2, 3)
    scaled = make_isobaric([(TRIV, 1), (CHI4, 1)], Fraction(1, 2))
    assert not _lrs_check(satake(scaled, 3), 2, 3)
    five = make_isobaric([(TRIV, 5)])
    assert _lrs_check(satake(five, 3), 5, 2)
    with pytest.raises(ValueError, match="n >= 2"):
        _lrs_check(satake(pi, 3), 1, 3)


def test_twist_eliminate_frozen():
    chi5 = character_of_order(5, 2)
    delta = character_of_order(11, 2)
    assert twist_eliminate(chi5, chi5, delta, 11) == 0
    with pytest.raises(ValueError, match="inconsistent premise"):
        twist_eliminate(chi5, chi5 * delta, delta, 11)
    with pytest.raises(ValueError, match="prime order"):
        twist_eliminate(chi5, chi5, TRIV, 11)
    with pytest.raises(ValueError, match="divide the conductor"):
        twist_eliminate(chi5, chi5, delta, 7)


def test_twist_eliminate_odd_order():
    eta = character_of_order(7, 3)
    delta = character_of_order(13, 3)
    assert twist_eliminate(eta, eta, delta, 13) == 0


def test_strong_multiplicity_one_witness_bound():
    """Unequal reps are separated by a prime below the squared modulus lcm."""
    pairs = [
        (make_isobaric([(TRIV, 1), (CHI4, 1)]), make_isobaric([(TRIV, 2)])),
        (make_isobaric([(CHI8, 1)]), make_isobaric([(CHI4 * CHI8, 1)])),
        (make_isobaric([(TRIV, 2)]), make_isobaric([(TRIV, 1), (CHI8, 1)])),
    ]
    for pi, pi2 in pairs:
        assert not components_match(pi, pi2)
        bound = 64          # lcm of moduli squared
        witness = None
        for q in sympy.primerange(3, bound):
            if satake(pi, q).eigenvalues != satake(pi2, q).eigenvalues:
                witness = q
                break
        assert witness is not None
    same = make_isobaric([(TRIV, 1), (CHI4, 1)])
    for q in sympy.primerange(3, 64):
        assert satake(same, q).eigenvalues == \
            satake(make_isobaric([(CHI4, 1), (TRIV, 1)]), q).eigenvalues


def test_json_round_trip():
    chi5 = character_of_order(5, 4)
    pi = make_isobaric([(chi5, 2), (CHI4, 1)], Fraction(1, 3))
    doc = pi.to_json()
    assert doc["t"] == "1/3"
    back = IsobaricRep.from_json(doc)
    assert back == pi
    assert back.to_json() == doc
