"""Chain certification, datum modification, and ramification profiles."""

import math
from fractions import Fraction

import pytest

from kummerlab.cyclotomic import (CycloField, Datum, InconclusiveError,
                                  cyclo_primes_above)
from kummerlab.finitefield import sylow_valuation
from kummerlab.tower import (
    KummerTower,
    build_nested_chain,
    fresh_prime_plan,
    modify_datum,
    verify_nested,
)


def _v_q(datum, q):
    """v_q(alpha) from the rational part, away from the core support."""
    if q in datum.core_support():
        raise ValueError(f"valuation at q = {q} not readable from the "
                         "rational part")
    return (sylow_valuation(datum.rat.numerator, q)
            - sylow_valuation(datum.rat.denominator, q))


def _tame_entries(tower, q):
    """Oracle for the ramification of q along the chain, levels 0..r: the
    tame formula e_j = P_j / gcd(P_j, v_q(alpha))."""
    t = _v_q(tower.datum, q)
    return tuple(P // math.gcd(P, abs(t))
                 for P in map(tower.root_exponent, range(tower.r + 1)))


def _gauss_tower(r=2):
    F4 = CycloField(4)
    return KummerTower(4, 2, r, Datum(F4.element((1, 1))))


def test_verify_nested_frozen_witness():
    cert = verify_nested(_gauss_tower())
    assert cert.witness_q == 3
    assert cert.witness_prime.norm == 9
    assert cert.mu_source == "conductor"
    assert cert.chain_degrees == (1, 2, 4)


def test_chain_levels_multiply_by_p():
    for tower in (_gauss_tower(3),
                  KummerTower(9, 3, 2, Datum(CycloField(9).zeta()),
                              base_is_step=True)):
        chain = build_nested_chain(tower)
        for a, b in zip(chain, chain[1:]):
            assert b.rel_degree == tower.p * a.rel_degree
            assert b.root_exponent == tower.p * a.root_exponent


def test_stacking_over_rationals_needs_mu4():
    with pytest.raises(ValueError, match="step 2"):
        verify_nested(KummerTower(1, 2, 2, Datum.of(2)))
    # a single step is fine
    cert = verify_nested(KummerTower(1, 2, 1, Datum.of(2)))
    assert cert.witness_q == 3 and cert.mu_source == "not-needed"


def test_pre_step_can_supply_mu4():
    tower = KummerTower(1, 2, 2, Datum.of(2), pre_steps=(Datum.of(-1),))
    cert = verify_nested(tower)
    assert cert.mu_source == "pre-step"
    assert cert.chain_degrees == (2, 4, 8)
    # every Kummer line got its own witness
    assert {c for c, _ in cert.line_witnesses} == {(1, 0), (0, 1), (1, 1)}
    assert all(w is not None for _, w in cert.line_witnesses)


def test_pth_power_datum_rejected():
    F4 = CycloField(4)
    with pytest.raises(ValueError, match="power"):
        verify_nested(KummerTower(4, 2, 2, Datum(F4.element((1, 1)) ** 2)))
    with pytest.raises(ValueError, match="power"):
        verify_nested(KummerTower(1, 2, 1, Datum.of(16)))


def test_degree_collapse_across_pre_steps_rejected():
    # -4 * -1 = 4 is a square: Q(sqrt(-4)) = Q(sqrt(-1))
    with pytest.raises(ValueError, match="power"):
        verify_nested(KummerTower(1, 2, 1, Datum.of(-4),
                                  pre_steps=(Datum.of(-1),)))


def test_odd_p_tower_over_nine():
    F9 = CycloField(9)
    tower = KummerTower(9, 3, 2, Datum(F9.zeta()), base_is_step=True)
    cert = verify_nested(tower)
    assert cert.witness_q == 2
    assert cert.mu_source == "conductor"
    assert cert.chain_degrees == (3, 9, 27)


def test_odd_p_mu_via_pre_step():
    F3 = CycloField(3)
    tower = KummerTower(3, 3, 2, Datum.of(2, m=3),
                        pre_steps=(Datum(F3.zeta()),))
    assert verify_nested(tower).mu_source == "pre-step"


def test_modify_datum_frozen():
    md = modify_datum(Datum.of(2), [(3, 2), (5, 4)])
    assert md.value().as_fraction() == 11250
    assert [md.reading(cyclo_primes_above(1, q)[0])[0] for q in (3, 5, 2)] \
        == [2, 4, 1]


def test_modify_datum_validates():
    with pytest.raises(ValueError):
        modify_datum(Datum.of(2), [(4, 2)])
    with pytest.raises(ValueError):
        modify_datum(Datum.of(2), [(3, 0)])


def test_fresh_prime_plan_frozen():
    assert fresh_prime_plan({2, 5}, 2, 2) == ((3, 2), (7, 4))
    assert fresh_prime_plan(set(), 3, 1) == ((2, 3),)
    assert fresh_prime_plan(set(), 3, 1, split_modulus=3) == ((7, 3),)


def test_fresh_prime_plan_validates():
    # a composite p once gave multipliers (2, 4), (3, 16); s = 1 restricts
    # nothing, and s < 1 once searched forever or divided by zero
    with pytest.raises(ValueError, match="not prime"):
        fresh_prime_plan(set(), 4, 2)
    assert fresh_prime_plan(set(), 2, 2, split_modulus=1) == \
        fresh_prime_plan(set(), 2, 2)
    for s in (0, -3):
        with pytest.raises(ValueError, match="split modulus"):
            fresh_prime_plan(set(), 2, 2, split_modulus=s)


def test_fresh_prime_plan_avoids_collisions():
    plan = fresh_prime_plan({3, 7, 11}, 2, 4)
    primes = [ell for ell, _ in plan]
    assert len(set(primes)) == 4
    assert not set(primes) & {2, 3, 7, 11}
    assert [e for _, e in plan] == [2, 4, 8, 16]


def test_ramification_profile_frozen():
    tower = KummerTower(1, 2, 2, modify_datum(Datum.of(2), [(3, 2), (5, 4)]))
    assert _tame_entries(tower, 3) == (1, 1, 2)
    assert _v_q(tower.datum, 3) == 2
    assert _tame_entries(tower, 2) == (1, 2, 4)
    assert _tame_entries(tower, 5) == (1, 1, 1)
    assert _tame_entries(tower, 7) == (1, 1, 1)


def test_ramification_entries_grow_by_p_steps():
    tower = KummerTower(1, 3, 3, modify_datum(Datum.of(2), [(5, 3)]),
                        pre_steps=(Datum.of(-1),))
    for q in (2, 5, 7):
        entries = _tame_entries(tower, q)
        for a, b in zip(entries, entries[1:]):
            assert b % a == 0 and b // a in (1, tower.p)


def test_profile_of_unit_datum_unramified():
    F9 = CycloField(9)
    tower = KummerTower(9, 3, 2, Datum(F9.zeta()), base_is_step=True)
    for q in (2, 5, 7, 11):
        assert _tame_entries(tower, q) == (1, 1, 1)


def test_tower_validation():
    with pytest.raises(ValueError):
        KummerTower(4, 4, 1, Datum.of(2, m=4))      # p not prime
    with pytest.raises(ValueError):
        KummerTower(4, 2, -1, Datum.of(2, m=4))     # bad height
    with pytest.raises(ValueError):
        KummerTower(4, 2, 1, Datum.of(2, m=1))      # conductor mismatch
    with pytest.raises(ValueError):
        KummerTower(1, 2, 1, Datum.of(0))           # zero datum
