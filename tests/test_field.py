"""`splitting.Field` against the per-description functions it replaced.

The reference functions below are the earlier implementations, kept
verbatim (bar their imports) as the oracle: `field_bad_primes`,
`tower_shape` and `_profiler` from `splitting`, `_realizable_degrees` and
`_field_doc` from `determination`, the field tag of `IsobaricRep.to_json`
and the support rule of `base_change`.  The one departure: the quartic
towers over Q(i) are traced, since their closed form is gone.
"""

import itertools
import re
from fractions import Fraction

import pytest

from kummerlab import ntheory
from kummerlab.automorphic import (IsobaricRep, character_of_order,
                                   make_isobaric)
from kummerlab.cli import parse_alpha
from kummerlab.cyclotomic import (CycloField, Datum, bad_primes,
                                  cyclo_primes_above, unit_orders)
from kummerlab.determination import build_L
from kummerlab.splitting import Field, trace_prime
from kummerlab.tower import KummerTower


# ---------------------------------------------------------------------------
# the reference: one function per question, each dispatching on the type

def field_bad_primes(field_desc) -> set[int]:
    if field_desc == 1:
        return set()
    if isinstance(field_desc, int):
        return set(ntheory.primefactors(field_desc))
    t: KummerTower = field_desc
    return bad_primes(t.m, t.p, (t.datum, *t.pre_steps))


def tower_shape(t: KummerTower) -> str | None:
    if t.pre_steps:
        return None
    d = t.datum
    if t.base_is_step:
        zeta = t.m == t.p ** 2 and d.rat == 1 and d.cyc == d.cyc.field.zeta()
        return "zeta-chain" if zeta else None
    if t.p != 2 or d.cyc != d.cyc.field.one():
        return None
    return "quadratic" if t.m == 1 and t.r == 1 else None


def _cyclotomic_profiler(m: int):
    orders = unit_orders(m)
    phi = len(orders) - orders.count(0)

    def profile(q):
        f = orders[q % m]
        if not f:
            raise ValueError(f"q = {q} ramifies in conductor {m}")
        return ((f, phi // f),)
    return profile


def _profiler(field_desc):
    if isinstance(field_desc, int):
        return _cyclotomic_profiler(field_desc)
    t: KummerTower = field_desc
    shape = tower_shape(t)
    if shape == "zeta-chain":
        return _cyclotomic_profiler(t.p ** (t.r + 3))
    if shape == "quadratic":
        num = t.datum.rat.numerator * t.datum.rat.denominator

        def profile(q):
            if q == 2 or num % q == 0:
                raise ValueError(f"q={q} meets the tower's ramification")
            inert = pow(num, (q - 1) // 2, q) == q - 1
            return ((2, 1),) if inert else ((1, 2),)
    else:
        def profile(q):
            agg: dict[int, int] = {}
            for P in cyclo_primes_above(t.m, q):
                for e, c in trace_prime(t, P).places(t.r):
                    agg[e] = agg.get(e, 0) + c
            return tuple(sorted(agg.items()))
    return profile


def _realizable_degrees(field_desc) -> set[int] | None:
    if isinstance(field_desc, int):
        return set(unit_orders(field_desc)) - {0}
    t: KummerTower = field_desc
    shape = tower_shape(t)
    if shape == "quadratic":
        return {1, 2}
    if shape == "zeta-chain":
        return _realizable_degrees(t.p ** (t.r + 3))
    return None


def _field_doc(field_desc) -> str:
    return str(field_desc) if isinstance(field_desc, int) else repr(field_desc)


def _json_tag(f):
    return f if isinstance(f, int) else repr(f)


def _base_change_supported(F, M) -> bool:
    supported = (F == 1
                 or (isinstance(F, int) and isinstance(M, int) and M % F == 0)
                 or (isinstance(F, int) and isinstance(M, KummerTower))
                 or (isinstance(F, KummerTower)
                     and isinstance(M, KummerTower)))
    return supported or F == M


# ---------------------------------------------------------------------------

DESCRIPTIONS = {
    "Q": 1, "zeta3": 3, "zeta4": 4, "zeta5": 5, "zeta8": 8, "zeta12": 12,
    "zeta16": 16,
    "sqrt3": KummerTower(1, 2, 1, Datum.of(3)),
    "sqrt-5": KummerTower(1, 2, 1, Datum.of(-5)),
    "quartic3": KummerTower(4, 2, 2, Datum.of(3, m=4)),
    "zeta9-chain": KummerTower(9, 3, 1, Datum(CycloField(9).zeta()),
                               base_is_step=True),
    "traced-pre-step": KummerTower(1, 2, 1, Datum.of(2),
                                   pre_steps=(Datum.of(-1),)),
}


@pytest.mark.parametrize("desc", DESCRIPTIONS.values(), ids=DESCRIPTIONS.keys())
def test_field_matches_reference(desc):
    K = Field(desc)
    bad = field_bad_primes(desc)
    assert K.bad_primes() == bad
    assert K.degrees == _realizable_degrees(desc)
    assert K.tag == _json_tag(desc) and K.doc == _field_doc(desc)
    assert K.tower == (desc if isinstance(desc, KummerTower) else None)
    reference = _profiler(desc)
    for q in ntheory.primerange(2, 2000):
        if q not in bad:
            assert K.profile(q) == reference(q), q


def test_field_of_and_equality():
    K = Field(DESCRIPTIONS["sqrt3"])
    assert Field.of(K) is K
    assert Field.of(DESCRIPTIONS["sqrt3"]) == K
    assert hash(Field(KummerTower(1, 2, 1, Datum.of(3)))) == hash(K)
    assert Field(4) == Field(4) and Field(4) != Field(8) and Field(4) != 4
    assert Field(1) != Field(DESCRIPTIONS["sqrt-5"])


def test_quadratic_D():
    assert [Field(m).D for m in (1, 3, 4, 5, 6, 8)] == [None, -3, -1, None,
                                                         -3, None]
    assert Field(KummerTower(1, 2, 1, Datum.of(Fraction(-12, 5)))).D == -15
    for name in ("quartic3", "zeta9-chain", "traced-pre-step"):
        assert Field(DESCRIPTIONS[name]).D is None
    with pytest.raises(ValueError, match="trivial quadratic datum"):
        Field(KummerTower(1, 2, 1, Datum.of(Fraction(9, 4))))


def test_rational_core_over_q_is_quadratic():
    # the datum 3*z over m = 1 keeps 3 in its cyclotomic core: still Q(sqrt 3)
    K = Field(KummerTower(1, 2, 1, parse_alpha("3*z", 1)))
    plain = Field(DESCRIPTIONS["sqrt3"])
    assert K.D == 3 and K.degrees == {1, 2}
    for q in ntheory.primerange(5, 2000):
        assert K.profile(q) == plain.profile(q), q
    assert build_L(K, 2).kind == "forked"


@pytest.mark.parametrize("desc", [0, -4, "Q", "KummerTower(m=1)", 2.0, None])
def test_field_rejects_other_descriptions(desc):
    with pytest.raises(ValueError, match="unsupported field description"):
        Field(desc)


def test_lies_in_matches_base_change_rule():
    descs = list(DESCRIPTIONS.values())
    for F, M in itertools.product(descs, descs):
        assert Field(F).lies_in(Field(M)) == _base_change_supported(F, M), (F, M)


def test_from_json_of_a_tower_tagged_rep():
    K3 = DESCRIPTIONS["sqrt3"]
    pi = make_isobaric([(character_of_order(5, 4), 1),
                        (character_of_order(8, 2), 2)], Fraction(0), K3)
    doc = pi.to_json()
    assert doc["field"] == repr(K3)
    # the tag names the tower but cannot rebuild it: say so
    with pytest.raises(ValueError, match=re.escape(
            f"unsupported field description {repr(K3)!r}")):
        IsobaricRep.from_json(doc)
    back = IsobaricRep.from_json(doc, field=K3)
    assert back == pi and back.to_json() == doc
