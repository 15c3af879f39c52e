import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kummerlab.automorphic import (NormCharacter, character_of_order,
                                   dirichlet_characters, make_isobaric)
from kummerlab.cyclotomic import CycloField, Datum
from kummerlab.lseries import (CoefficientSeries, PoleBook, PrimeSelector,
                               exp1, pole_book, positivity_check,
                               root_of_unity, rs_coeffs, slope_experiment,
                               tail_threshold, to_complex, value_field)
from kummerlab.tower import KummerTower

TRIV = NormCharacter.trivial()
CHI4 = dirichlet_characters(4)[1]
ONE = make_isobaric([(TRIV, 1)])
PI4 = make_isobaric([(CHI4, 1)])


def quartic_tower():
    return KummerTower(1, 2, 1, Datum.of(-1), base_is_step=True)


# -- exponential integral ----------------------------------------------------

def test_exp1_frozen_values():
    assert abs(exp1(1.0) - 0.21938393439552026) < 1e-14
    assert abs(exp1(0.1) - 1.8229239584193906) < 1e-13
    assert abs(exp1(5.0) - 0.001148295591275326) < 1e-16


def test_exp1_bracket_bounds():
    # x/(x+1) < x e^x E1(x) < 1 for x > 0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        scaled = x * math.exp(x) * exp1(x)
        assert x / (x + 1) < scaled < 1


def test_exp1_branch_seam():
    assert abs(exp1(0.9999) - exp1(1.0001)) < 1e-3
    with pytest.raises(ValueError):
        exp1(0.0)


# -- exact roots of unity ----------------------------------------------------

def test_root_of_unity_divisor_orders():
    F = CycloField(12)
    z = root_of_unity(F, Fraction(1, 3))
    assert z == F.zeta() ** 4
    assert root_of_unity(F, Fraction(1, 2)) == -F.one()
    assert root_of_unity(F, Fraction(0)) == F.one()
    assert root_of_unity(F, Fraction(7, 3)) == F.zeta() ** 4


def test_root_of_unity_doubled_odd_order():
    # order-6 roots live in Q(zeta_3)
    F = CycloField(3)
    z = root_of_unity(F, Fraction(1, 6))
    w = to_complex(z)
    assert abs(w - complex(math.cos(math.pi / 3), math.sin(math.pi / 3))) < 1e-12
    assert (z ** 6) == F.one()
    assert not (z ** 3) == F.one()


def test_root_of_unity_rejects_missing_orders():
    with pytest.raises(ValueError):
        root_of_unity(CycloField(4), Fraction(1, 3))


@given(st.integers(0, 11))
def test_root_of_unity_multiplicative(k):
    F = CycloField(12)
    a = Fraction(k, 12)
    b = Fraction(5, 12)
    lhs = root_of_unity(F, a) * root_of_unity(F, b)
    assert lhs == root_of_unity(F, a + b)


def test_value_field_canonical_conductor():
    chi3 = character_of_order(7, 3)
    assert value_field(make_isobaric([(chi3, 1)]), PI4).m == 3
    assert value_field(ONE, ONE).m == 1
    assert value_field(ONE, PI4).m == 2


# -- place selection ---------------------------------------------------------

def test_selector_rational_places():
    sel = PrimeSelector(1, 12, exclude=frozenset({5}))
    assert sel.places() == [(2, 2, 1), (3, 3, 1), (7, 7, 1), (11, 11, 1)]


def test_selector_gaussian_places_frozen():
    sel = PrimeSelector(4, 30)
    assert sel.places() == [
        (5, 5, 1), (5, 5, 1), (9, 3, 2), (13, 13, 1), (13, 13, 1),
        (17, 17, 1), (17, 17, 1), (29, 29, 1), (29, 29, 1)]


def test_selector_tower_places_frozen():
    sel = PrimeSelector(quartic_tower(), 100, degrees=frozenset({2, 4}))
    assert sel.places() == [(9, 3, 2), (9, 3, 2), (25, 5, 2), (25, 5, 2),
                            (49, 7, 2), (49, 7, 2)]


def test_selector_validation():
    with pytest.raises(ValueError):
        PrimeSelector(1, 1)
    with pytest.raises(ValueError):
        PrimeSelector(1, 10, degrees=frozenset())
    for degrees in ({0}, {-1}, {0, 1}):
        with pytest.raises(ValueError, match="degrees must be positive"):
            PrimeSelector(1, 10, degrees=frozenset(degrees))
    for exclude in ({4}, {0}, {-3}, {2, 9}):
        with pytest.raises(ValueError, match="exclusions must be primes"):
            PrimeSelector(1, 10, exclude=frozenset(exclude))


@given(st.integers(10, 120))
@settings(max_examples=25, deadline=None)
def test_selector_degree_partition(cutoff):
    whole = PrimeSelector(4, cutoff).places()
    split = PrimeSelector(4, cutoff, degrees=frozenset({1})).places()
    inert = PrimeSelector(4, cutoff, degrees=frozenset({2})).places()
    assert sorted(split + inert) == whole


# -- coefficient series ------------------------------------------------------

def test_log_coeffs_single_prime_frozen():
    sel = PrimeSelector(1, 3, exclude=frozenset({2}))
    ser = rs_coeffs(ONE, ONE, sel, 30, "log")
    assert {m: c.as_fraction() for m, c in ser.coeffs.items()} == {
        3: Fraction(1), 9: Fraction(1, 2), 27: Fraction(1, 3)}
    assert sorted(ser.coeffs) == [3, 9, 27]


def test_Z_coeffs_quadratic_pair_frozen():
    sel = PrimeSelector(1, 20, exclude=frozenset({2}))
    ser = rs_coeffs(ONE, PI4, sel, 20, "Z")
    assert {m: to_complex(c) for m, c in ser.coeffs.items()} == {
        3: 4 + 0j, 7: 4 + 0j, 11: 4 + 0j, 19: 4 + 0j}


def test_Z_coeffs_equal_pair_vanish():
    sel = PrimeSelector(1, 100, exclude=frozenset({2}))
    ser = rs_coeffs(PI4, PI4, sel, 10 ** 4, "Z")
    assert ser.coeffs == {}


def test_Z_is_log_square_expansion():
    # |a-b|^2 = |a|^2 + |b|^2 - conj(a)b - conj(b)a, coefficient by coefficient
    a = make_isobaric([(character_of_order(5, 4), 1)])
    b = make_isobaric([(character_of_order(13, 4), 1)])
    sel = PrimeSelector(1, 60, exclude=frozenset({2, 5, 13}))
    M = 200
    z = rs_coeffs(a, b, sel, M, "Z")
    laa = rs_coeffs(a, a, sel, M, "log")
    lbb = rs_coeffs(b, b, sel, M, "log")
    lab = rs_coeffs(a, b, sel, M, "log")
    lba = rs_coeffs(b, a, sel, M, "log")
    support = set(laa.coeffs) | set(lbb.coeffs) | set(lab.coeffs) | set(lba.coeffs)
    F = z.value_field
    for m in support:
        want = (laa.coeffs.get(m, F.zero()) + lbb.coeffs.get(m, F.zero())
                - lab.coeffs.get(m, F.zero()) - lba.coeffs.get(m, F.zero()))
        got = z.coeffs.get(m, F.zero())
        assert (want - got).is_zero()


def test_rs_coeffs_rejects_ramified_selector():
    sel = PrimeSelector(1, 20)
    with pytest.raises(ValueError, match="ramified"):
        rs_coeffs(ONE, PI4, sel, 20, "Z")


def test_rs_coeffs_rejects_nonunitary():
    shifted = make_isobaric([(TRIV, 1)], t=Fraction(1, 5))
    sel = PrimeSelector(1, 20, exclude=frozenset({2}))
    with pytest.raises(ValueError, match="unitary"):
        rs_coeffs(shifted, ONE, sel, 20, "Z")
    with pytest.raises(ValueError):
        rs_coeffs(ONE, PI4, sel, 20, "partial")


# -- pole bookkeeping --------------------------------------------------------

def test_pole_book_frozen_triple():
    chi8 = character_of_order(8, 2)
    assert pole_book(PI4, PI4).neg_ord == 0
    two = make_isobaric([(TRIV, 2)])
    chi4sq = make_isobaric([(CHI4, 2)])
    assert pole_book(two, chi4sq) == PoleBook(4, 4, 0)
    pa = make_isobaric([(TRIV, 1), (CHI4, 1)])
    pb = make_isobaric([(CHI4, 1), (chi8, 1)])
    assert pole_book(pa, pb) == PoleBook(2, 2, 1)
    assert pole_book(pa, pb).neg_ord == 2


def test_pole_book_is_field_relative():
    # chi4 is a norm character of Q(i): upstairs the pair shares its line
    assert pole_book(ONE, PI4).neg_ord == 2
    one_up = make_isobaric([(NormCharacter.trivial(4), 1)], field=4)
    pi4_up = make_isobaric([(CHI4.retag(4), 1)], field=4)
    assert pole_book(one_up, pi4_up).neg_ord == 0


def test_pole_book_rejects_mixed_fields():
    up = make_isobaric([(NormCharacter.trivial(4), 1)], field=4)
    with pytest.raises(ValueError, match="one field"):
        pole_book(ONE, up)


# -- positivity --------------------------------------------------------------

def test_positivity_report_frozen():
    sel = PrimeSelector(1, 200, exclude=frozenset({2}))
    rep = positivity_check(ONE, PI4, sel, 200)
    assert rep.all_nonnegative
    assert rep.checked == 53          # prime powers <= 200 from 45 odd primes
    assert rep.zero == 28             # split classes and even powers vanish
    assert rep.min_value == pytest.approx(4 / 3)   # (1/3)|1-chi4(27)|^2


def test_positivity_zero_count_equal_pair():
    sel = PrimeSelector(1, 50, exclude=frozenset({2}))
    rep = positivity_check(PI4, PI4, sel, 50)
    assert rep.zero == rep.checked
    assert rep.min_value == 0.0


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_positivity_random_character_pairs(i, j):
    chars = dirichlet_characters(12)
    a = make_isobaric([(chars[i], 1)])
    b = make_isobaric([(chars[j], 1)])
    sel = PrimeSelector(1, 60, exclude=frozenset({2, 3}))
    rep = positivity_check(a, b, sel, 120)
    assert rep.all_nonnegative
    assert rep.min_value >= 0.0
    if i == j:
        assert rep.zero == rep.checked


def test_tail_threshold_frozen():
    assert tail_threshold(2) == 3
    assert tail_threshold(1) == 2
    assert tail_threshold(3) == 6
    with pytest.raises(ValueError):
        tail_threshold(0)


# -- slope experiment --------------------------------------------------------

def test_slope_experiment_order_two_pair():
    sel = PrimeSelector(1, 10 ** 5, exclude=frozenset({2}))
    rep = slope_experiment(ONE, PI4, sel)
    predicted = pole_book(ONE, PI4).neg_ord      # = mu + mu' here
    assert abs(rep.completed_slope - predicted) / predicted < 0.2
    assert abs(rep.compensated_slope - predicted) / predicted < 0.2
    assert rep.raw_slope < predicted * 0.5       # cutoff-blind fit saturates
    assert abs(rep.mean_tail_coeff - 2.0) < 0.1
    assert rep.cutoff == 10 ** 5
    assert len(rep.log_values) == 4


def test_slope_experiment_isobaric_pair():
    two = make_isobaric([(TRIV, 2)])
    chi4sq = make_isobaric([(CHI4, 2)])
    sel = PrimeSelector(1, 10 ** 5, exclude=frozenset({2}))
    rep = slope_experiment(two, chi4sq, sel)
    assert abs(rep.completed_slope - 8) / 8 < 0.2
    assert abs(rep.compensated_slope - 8) / 8 < 0.2
    assert abs(rep.mean_tail_coeff - 8.0) < 0.4


def test_slope_experiment_grid_validation():
    sel = PrimeSelector(1, 1000, exclude=frozenset({2}))
    with pytest.raises(ValueError):
        slope_experiment(ONE, PI4, sel, grid=(0.01, 0.05))
    with pytest.raises(ValueError):
        slope_experiment(ONE, PI4, sel, grid=(0.1, -0.05))
