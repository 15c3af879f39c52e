"""Determination pipeline: plans, covers, agreement, descent, verdicts."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kummerlab.automorphic import (
    NormCharacter,
    character_of_order,
    components_match,
    dirichlet_characters,
    make_isobaric,
    satake,
)
from kummerlab.cyclotomic import (CycloField, Datum, cyclo_primes_above,
                                  unit_orders)
from kummerlab.determination import (
    EXIT_CODES,
    AgreementHypothesis,
    AgreementRow,
    _inert_rational_primes,
    _peel,
    build_L,
    check_agreement,
    choose_tower_height,
    cyclotomic_window_certificate,
    descend_chain,
    determination_experiment,
    final_descent,
    hilbert_obstructions,
    hilbert_symbol,
    quadratic_window_certificate,
    run_pipeline,
)
from kummerlab.finitefield import sylow_valuation
from kummerlab.splitting import (
    Field,
    inert_chain_certificate,
    inert_prime_subfield,
    norm_subgroup,
    trace_prime,
)
from kummerlab.tower import KummerTower

TRIV = NormCharacter.trivial()
CHI4 = dirichlet_characters(4)[1]
CHI8 = character_of_order(8, 2)
QI = 4                                    # Q(i) as a conductor tag
K3 = KummerTower(1, 2, 1, Datum.of(3))    # Q(sqrt 3)
K5 = KummerTower(1, 2, 1, Datum.of(5))    # Q(sqrt 5)
RS5 = KummerTower(5, 5, 1, Datum(CycloField(5).zeta()))   # Q(zeta_25)/Q(zeta_5)
RS3 = KummerTower(3, 3, 1, Datum(CycloField(3).zeta()))   # Q(zeta_9)/Q(zeta_3)


def _gauss_pair(chi, delta=None):
    """1 (+) chi over Q(i), optionally twisted through delta on one side."""
    left = [(NormCharacter.trivial(QI), 1), (chi.retag(QI), 1)]
    if delta is None:
        return make_isobaric(left, field=QI)
    d = delta.retag(QI)
    return make_isobaric([(c * d, m) for c, m in left], field=QI)


# ---------------------------------------------------------------------------
# chain height

def test_choose_tower_height_frozen():
    table = {(1, 2): (1, True), (2, 2): (2, False), (3, 2): (3, False),
             (4, 2): (4, False), (2, 3): (1, True), (3, 3): (2, False),
             (2, 5): (1, True)}
    for (n, p), (r, direct) in table.items():
        ht = choose_tower_height(n, p)
        assert (ht.r, ht.direct) == (r, direct)


def test_choose_tower_height_minimality():
    from kummerlab.lseries import tail_threshold
    for n in range(1, 7):
        for p in (2, 3, 5, 7):
            ht = choose_tower_height(n, p)
            assert p ** ht.r >= tail_threshold(n)
            assert ht.r == 1 or p ** (ht.r - 1) < tail_threshold(n)
            assert ht.direct == (ht.r == 1)
    with pytest.raises(ValueError, match=">= 1"):
        choose_tower_height(0, 2)
    with pytest.raises(ValueError, match="not prime"):
        choose_tower_height(2, 4)


# ---------------------------------------------------------------------------
# Hilbert symbols and window certificates

def test_hilbert_symbol_frozen():
    assert hilbert_symbol(3, -1, 2) == -1
    assert hilbert_symbol(3, -1, 3) == -1
    assert hilbert_symbol(3, -1, 0) == 1
    assert hilbert_symbol(-1, -1, 0) == -1
    assert hilbert_symbol(2, -1, 2) == 1
    assert hilbert_obstructions(3, -1) == (2, 3)
    assert hilbert_obstructions(-1, -1) == (0, 2)
    assert hilbert_obstructions(2, -1) == ()
    assert hilbert_obstructions(5, -1) == ()
    with pytest.raises(ValueError, match="neither 0 nor a prime"):
        hilbert_symbol(3, 5, 6)


@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60).filter(bool))
@settings(max_examples=60, deadline=None)
def test_hilbert_symbol_laws(a, b):
    obs = hilbert_obstructions(a, b)
    assert len(obs) % 2 == 0              # product formula
    for v in obs:
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v) == -1
    for v in (0, 2, 3, 5):
        s = hilbert_symbol(a, b, v)
        assert hilbert_symbol(9 * a, b, v) == s      # square-class invariance
        assert hilbert_symbol(a, 4 * b, v) == s


def test_quadratic_window_frozen():
    w = quadratic_window_certificate(-3, 3)
    assert (w.route, w.alpha, w.cyclic) == ("two-squares", 3, True)
    assert w.obstructions == (2, 3)
    assert w.notes == ("2: inert", "3: ramified")
    w5 = quadratic_window_certificate(-5, 5)
    assert w5.cyclic and w5.obstructions == ()
    # a fork over a real subfield cannot absorb the real obstruction
    bad = quadratic_window_certificate(3, -3)
    assert not bad.cyclic
    assert bad.obstructions == (0, 3)
    assert bad.notes == ("oo: real", "3: ramified")


def test_quadratic_window_contains_i():
    w = quadratic_window_certificate(-1, 7)
    assert w.route == "contains-i" and w.cyclic
    assert w.obstructions == () and w.notes == ()


def test_cyclotomic_window_frozen():
    w2 = cyclotomic_window_certificate(2)
    assert not w2.cyclic
    assert w2.notes == ("window group order 4, exponent 2",)
    w3 = cyclotomic_window_certificate(3)
    assert w3.cyclic
    assert w3.notes == ("window group order 9, exponent 9",)
    assert cyclotomic_window_certificate(5).cyclic


# ---------------------------------------------------------------------------
# tower plans

def test_build_single_gaussian():
    plan = build_L(QI, 2)
    assert plan.kind == "single" and plan.p == 2
    assert plan.required_degree == 4
    (ch,) = plan.chains
    assert ch.label == 0 and ch.nestedness is None
    assert ch.tower.base_is_step and ch.tower.m == 4 and ch.tower.r == 1
    # the 2-adic window group is not cyclic; this chain is covered by
    # residue traces instead, and the certificate records the honest no
    assert ch.window.route == "cyclotomic" and not ch.window.cyclic


def test_build_forked_frozen():
    plan = build_L(K3, 2)
    assert plan.kind == "forked" and plan.K.D == 3
    assert plan.lattice is not None
    assert [c.label for c in plan.chains] == [1, 2]
    ch1 = plan.chains[0]
    assert ch1.subfield_kernel == -1
    assert ch1.alpha == 3 and ch1.candidates == (3,)
    assert ch1.tower.r == plan.height.r + 1 == 3
    assert ch1.nestedness is not None
    ch2 = plan.chains[1]
    assert ch2.subfield_kernel == -3
    assert ch2.tower is None and ch2.nestedness is None
    assert ch2.candidates == (3, -1) and ch2.alpha == 3
    assert ch2.window.cyclic


def test_build_forked_candidate_selection():
    plan = build_L(K5, 2)
    ch2 = plan.chains[1]
    assert ch2.subfield_kernel == -5
    assert ch2.candidates == (5, -1) and ch2.alpha == 5
    assert ch2.window.cyclic and ch2.window.obstructions == ()


def test_build_direct_and_root_step():
    direct = build_L(RS5, 2)
    assert direct.kind == "direct" and direct.chains == ()
    assert direct.required_degree == 5
    tall = build_L(RS5, 3)
    assert tall.kind == "single"
    (ch,) = tall.chains
    assert ch.tower.m == 25 and ch.tower.base_is_step
    assert tall.required_degree == 25


def test_build_kummer_step_direct_only():
    ks = KummerTower(15, 5, 1, Datum.of(2, m=15))
    assert build_L(ks, 2).kind == "direct"
    with pytest.raises(ValueError, match="only the direct case"):
        build_L(ks, 3)


def test_build_rejects_unsupported_bases():
    with pytest.raises(ValueError, match="not a quadratic field"):
        build_L(5, 2)
    with pytest.raises(ValueError, match="odd-degree step over Q"):
        build_L(KummerTower(1, 3, 1, Datum.of(2)), 2)
    with pytest.raises(ValueError, match="trivial quadratic datum"):
        build_L(KummerTower(1, 2, 1, Datum.of(4)), 2)
    with pytest.raises(ValueError, match="single Kummer step"):
        build_L(KummerTower(1, 2, 1, Datum.of(3),
                            pre_steps=(Datum.of(-1),)), 2)
    with pytest.raises(ValueError, match="unsupported field description 'Q'"):
        build_L("Q", 2)


# ---------------------------------------------------------------------------
# high-degree cover: every inert place of K lands in a deep place of the
# plan's chains.  The pipeline relies on this argument without running it;
# here it is checked prime by prime on the plans build_L makes.

@dataclasses.dataclass(frozen=True)
class _CoverEntry:
    q: int
    label: int
    route: str            # "direct" | "trace" | "window"
    covered: bool
    degree_bound: int
    detail: str


@dataclasses.dataclass(frozen=True)
class _CoverReport:
    kind: str
    required_degree: int
    entries: tuple

    @property
    def inert_count(self):
        return len(self.entries)

    @property
    def certified(self):
        return sum(e.covered for e in self.entries)

    @property
    def full(self):
        return self.certified == self.inert_count

    def failures(self):
        return tuple(e for e in self.entries if not e.covered)


def _inert_primes(plan, X):
    """Rational primes q <= X whose places of k are inert in K."""
    if plan.K.D is not None:
        return _inert_rational_primes(plan, X)
    if plan.kind == "direct":
        return []
    p = plan.p       # odd root-step: k = Q(zeta_p), K = k(mu_{p^2})
    big, small = unit_orders(p * p), unit_orders(p)
    return [q for q in sympy.primerange(2, X + 1)
            if q != p and big[q % (p * p)] == p * small[q % p]]


def _cover_entry(plan, q):
    """How the plan certifies that the inert places above q are deep."""
    need = plan.required_degree
    if plan.kind == "direct":
        return _CoverEntry(q, 0, "direct", True, plan.p,
                           "inert place of K is already deep")
    if plan.kind == "single":
        chain = plan.chains[0].tower
        P = cyclo_primes_above(chain.m, q)[0]
        f_min = min(e for e, _ in trace_prime(chain, P).places(chain.r))
        return _CoverEntry(q, 0, "trace", f_min >= need, f_min,
                           "all top places deep" if f_min >= need else
                           f"top degree {f_min} < {need}: Frobenius acts "
                           f"like complex conjugation")
    clf = inert_prime_subfield(plan.lattice, q)
    ch = next((c for c in plan.chains if c.label == clf.label), None)
    if ch is None or ch.subfield_datum != clf.datum:
        return _CoverEntry(q, clf.label, "window", False, 0,
                           "label mismatch: plan fork does not serve the "
                           "subfield where q splits")
    if ch.tower is not None:
        cert = inert_chain_certificate(ch.tower, q)
        f_top = cert.prime.f * ch.tower.root_exponent(ch.tower.r)
        return _CoverEntry(q, clf.label, "trace", f_top >= need, f_top,
                           "inert chain certificate")
    if not ch.window.cyclic:
        return _CoverEntry(q, clf.label, "window", False, 0,
                           "no cyclic window above this fork: " +
                           "; ".join(ch.window.notes))
    return _CoverEntry(q, clf.label, "window", True,
                       plan.p ** (plan.height.r + 1),
                       "split in the fork subfield, inert into the "
                       "compositum, cyclic window continues the chain")


def _verify_high_degree_cover(plan, X):
    """One entry per inert prime q <= X.  Places not inert in K lie over
    degree-1 places of the ground field, so only the inert list matters."""
    return _CoverReport(plan.kind, plan.required_degree,
                        tuple(_cover_entry(plan, q)
                              for q in _inert_primes(plan, X)))


def test_cover_forked_sqrt3_full():
    cov = _verify_high_degree_cover(build_L(K3, 2), 1000)
    assert (cov.inert_count, cov.certified) == (88, 88)
    assert cov.full and cov.failures() == ()
    by_label = {}
    for e in cov.entries:
        by_label[e.label] = by_label.get(e.label, 0) + 1
        assert e.covered and e.degree_bound >= cov.required_degree
        assert e.route == ("trace" if e.label == 1 else "window")
    assert by_label == {1: 44, 2: 44}


def test_cover_single_gaussian_is_partial():
    cov = _verify_high_degree_cover(build_L(QI, 2), 100)
    assert (cov.inert_count, cov.certified) == (13, 7)
    assert not cov.full
    assert [e.q for e in cov.failures()] == [7, 23, 31, 47, 71, 79]
    for e in cov.failures():
        assert e.q % 8 == 7
        assert "complex conjugation" in e.detail
    for e in cov.entries:
        if e.covered:
            assert e.q % 8 == 3 and e.degree_bound >= 4


def test_cover_corrupted_plan_fails_loudly():
    plan = build_L(K3, 2)
    ch1, ch2 = plan.chains
    swapped = dataclasses.replace(
        plan, chains=(dataclasses.replace(ch1, label=2),
                      dataclasses.replace(ch2, label=1)))
    cov = _verify_high_degree_cover(swapped, 100)
    assert cov.inert_count == 12 and cov.certified == 0
    assert all("label mismatch" in e.detail for e in cov.entries)


@pytest.mark.parametrize("p", [3, 5])
def test_root_step_inert_primes_match_n_order_rule(p):
    K = KummerTower(p, p, 1, Datum(CycloField(p).zeta()))
    plan = build_L(K, 3 if p == 5 else 4)
    assert plan.kind == "single"
    assert _inert_primes(plan, 2000) == [
        q for q in sympy.primerange(2, 2001)
        if q != p and sympy.n_order(q, p * p) == p * sympy.n_order(q, p)]


@pytest.mark.parametrize("K,D", [(QI, -1), (3, -3), (K3, 3), (K5, 5),
                                 (KummerTower(1, 2, 1, Datum.of(-7)), -7)])
def test_quadratic_inert_primes_match_legendre(K, D):
    plan = build_L(K, 4)
    assert _inert_rational_primes(plan, 2000) == [
        q for q in sympy.primerange(3, 2001)
        if D % q and sympy.legendre_symbol(D % q, q) == -1]


def test_cover_direct_routes():
    cov = _verify_high_degree_cover(build_L(K3, 1), 50)
    assert cov.kind == "direct" and cov.full
    assert [e.q for e in cov.entries] == [5, 7, 17, 19, 29, 31, 41, 43]
    assert all(e.route == "direct" for e in cov.entries)
    assert _verify_high_degree_cover(build_L(RS5, 2), 50).full


# ---------------------------------------------------------------------------
# agreement tables

def test_check_agreement_equal_pair():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    pi2 = make_isobaric([(CHI4, 1), (TRIV, 1)])
    hyp = check_agreement(pi, pi2, 100)
    assert hyp.holds() and hyp.witness() is None
    assert hyp.rows and all(r.degree == 1 for r in hyp.rows)
    assert (2, "ramified") in hyp.exceptions
    assert hyp.summary()["holds"] is True


def test_check_agreement_witness_and_stop():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    chi3 = character_of_order(3, 2)
    pi2 = make_isobaric([(c * chi3, m) for c, m in pi.components])
    hyp = check_agreement(pi, pi2, 100)
    assert not hyp.holds() and hyp.witness() == 5
    assert (3, "ramified") in hyp.exceptions


@pytest.mark.parametrize("agrees,witness", [
    ((True, True, True), None),
    ((True, False, True, False), 5),
    ((), None),
], ids=["agreeing", "disagreeing", "empty"])
def test_hypothesis_holds_iff_no_witness(agrees, witness):
    rows = tuple(AgreementRow(q, q, 1, a)
                 for q, a in zip((3, 5, 7, 11), agrees))
    hyp = AgreementHypothesis("1", 20, (1,), rows, ())
    assert hyp.witness() == witness
    assert hyp.holds() == (hyp.witness() is None) == (witness is None)
    assert hyp.summary()["holds"] == hyp.holds()
    assert hyp.summary()["witness"] == witness


def test_check_agreement_degrees_and_exclusions():
    pi = _gauss_pair(character_of_order(5, 4))
    deg2 = check_agreement(pi, pi, 50, degrees=(2,))
    assert deg2.rows and all(r.degree == 2 for r in deg2.rows)
    assert {r.q for r in deg2.rows} == {3, 7}      # 11^2 is past the cutoff
    both = check_agreement(pi, pi, 50, degrees=(1, 2))
    assert {r.degree for r in both.rows} == {1, 2}
    assert (2, "field") in both.exceptions


def test_check_agreement_guards():
    pi = make_isobaric([(TRIV, 1)])
    with pytest.raises(ValueError, match="one field"):
        check_agreement(pi, make_isobaric([(TRIV.retag(QI), 1)], field=QI), 50)
    with pytest.raises(ValueError, match="positive"):
        check_agreement(pi, pi, 50, degrees=())
    with pytest.raises(ValueError, match="positive"):
        check_agreement(pi, pi, 50, degrees=(0,))


# ---------------------------------------------------------------------------
# the counted place profiles of the towers Q(i, D^(1/2^r)) against residue
# traces and the quartic bookkeeping

def _quartic_profile(D, r, q):
    return Field(KummerTower(4, 2, r, Datum.of(D, m=4))).profile(q)


@pytest.mark.parametrize("D,r", [(3, 1), (3, 2), (3, 3), (5, 2), (-2, 2)])
def test_quartic_exponents_match_trace(D, r):
    tower = KummerTower(4, 2, r, Datum.of(D, m=4))
    for q in sympy.primerange(3, 40):
        if D % q == 0:
            continue
        # the primes above q are conjugate and D is rational: equal traces
        Ps = cyclo_primes_above(4, q)
        assert _quartic_profile(D, r, q) == tuple(
            (f, c * len(Ps)) for f, c in trace_prime(tower, Ps[0]).places(r))
        assert sum(f * c for f, c in _quartic_profile(D, r, q)) == 2 ** (r + 1)


def _quartic_by_n_order(rat, r, q):
    """Places above q of Q(i, rat^(1/2^r)), by the quartic bookkeeping with
    u = v_2(ord d) read from sympy.n_order."""
    rat = Fraction(rat)
    f4 = 1 if q % 4 == 1 else 2
    d = rat.numerator * pow(rat.denominator, -1, q) % q
    s = sylow_valuation(q ** f4 - 1, 2)
    branches = {(0, sylow_valuation(int(sympy.n_order(d, q)), 2)): 1}
    for _ in range(r):
        nxt = {}
        for (k, u), c in branches.items():
            if u == 0:
                moves = (((k, 0), c), ((k, 1), c))
            elif u < s + k:
                moves = (((k, u + 1), 2 * c),)
            else:
                moves = (((k + 1, u + 1), c),)
            for key, n in moves:
                nxt[key] = nxt.get(key, 0) + n
        branches = nxt
    out = {}
    primes_above = 2 if q % 4 == 1 else 1
    for (k, _), c in branches.items():
        out[f4 << k] = out.get(f4 << k, 0) + c * primes_above
    return tuple(sorted(out.items()))


def test_quartic_exponents_match_n_order_rule():
    for q in sympy.primerange(3, 600):
        ds = range(1, q) if q < 200 else range(1, 13)
        for d in ds:
            assert _quartic_profile(d, 3, q) == _quartic_by_n_order(d, 3, q), \
                (d, q)
    assert _quartic_profile(Fraction(3, 7), 2, 13) \
        == _quartic_by_n_order(Fraction(3, 7), 2, 13)


def test_quartic_exponents_refuse_ramified():
    for q in (2, 3):
        with pytest.raises(ValueError, match="ramification"):
            _quartic_profile(3, 2, q)


def _trace_span(tower, N, bound, skip):
    gens = set()
    for q in sympy.primerange(3, bound + 1):
        if q in skip or N % q == 0:
            continue
        for P in cyclo_primes_above(tower.m, q):
            for e, _ in trace_prime(tower, P).places(tower.r):
                gens.add(pow(q, e, N))
    span = {1 % N}
    frontier = [1 % N]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % N
            if y not in span:
                span.add(y)
                frontier.append(y)
    return frozenset(span)


def test_norm_subgroup_chain_fast_path_matches_trace():
    chain = KummerTower(4, 2, 1, Datum(CycloField(4).zeta()),
                        base_is_step=True)
    assert norm_subgroup(chain, 13, bound=60) == _trace_span(chain, 13, 60, ())
    assert norm_subgroup(chain, 21, bound=80) == _trace_span(chain, 21, 80, ())


def test_norm_subgroup_quartic_fast_path_matches_trace():
    tower = KummerTower(4, 2, 2, Datum.of(3, m=4))
    assert norm_subgroup(tower, 35, bound=60) == \
        _trace_span(tower, 35, 60, {3})
    deep = KummerTower(4, 2, 3, Datum.of(5, m=4))
    assert norm_subgroup(deep, 13, bound=60) == \
        _trace_span(deep, 13, 60, {5})


# ---------------------------------------------------------------------------
# the comparison experiment

def test_experiment_isomorphic_frozen():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    pi2 = make_isobaric([(CHI4, 1), (TRIV, 1)])
    exp = determination_experiment(pi, pi2, check_agreement(pi, pi2, 200))
    assert exp.verdict == "ISOMORPHIC" and exp.witness is None
    assert exp.peeled == ((1, 1, (0,)), (4, 2, (0, 1)))
    assert exp.residual == ((), ())
    assert exp.pole_prediction == 0
    assert exp.slope is None and exp.slope_consistent is None


def _peel_reference(pi, pi2):
    """Peel one matched copy at a time, restarting from the least key."""
    left = {chi: m for chi, m in pi.components}
    right = {c2: m for c2, m in pi2.components}
    peeled = []
    while True:
        match = next(((chi, c2) for chi in sorted(left, key=lambda c: c.key())
                      for c2 in right if c2 == chi), None)
        if match is None:
            break
        peeled.append(match[0].key())
        for table, k in zip((left, right), match):
            table[k] -= 1
            if not table[k]:
                del table[k]
    return tuple(peeled), (tuple(sorted((c.key(), m) for c, m in left.items())),
                           tuple(sorted((c.key(), m) for c, m in right.items())))


def test_peel_matches_copy_by_copy_reference():
    # over Q(i) chi and chi * chi4 are one character, so partners may differ
    # as Dirichlet characters; multiplicities differ and both sides keep
    # leftovers
    chi5 = character_of_order(5, 4)
    pool = [TRIV, CHI4, CHI8, CHI8 * CHI4, chi5, chi5 * CHI4,
            character_of_order(3, 2), character_of_order(13, 2)]
    rng = random.Random(5)
    for _ in range(40):
        sides = [make_isobaric([(rng.choice(pool), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 4))], field=QI)
                 for _ in range(2)]
        assert _peel(*sides) == _peel_reference(*sides)
    pi = make_isobaric([(TRIV, 3), (CHI8, 1), (chi5, 2)], field=QI)
    pi2 = make_isobaric([(CHI4, 1), (CHI8 * CHI4, 2),
                         (character_of_order(3, 2), 1)], field=QI)
    assert _peel(pi, pi2) == (
        (TRIV.key(), CHI8.key()),
        (((TRIV.key(), 2), (chi5.key(), 2)),
         (((3, 2, (0, 1)), 1), ((CHI8 * CHI4).key(), 1))))


def test_experiment_not_hypothesis_with_slope():
    pi = make_isobaric([(CHI4, 2)])
    pi2 = make_isobaric([(TRIV, 1), (CHI4, 1)])
    hyp = check_agreement(pi, pi2, 200)
    exp = determination_experiment(pi, pi2, hyp, slope_cutoff=10 ** 5)
    assert exp.verdict == "NOT-HYPOTHESIS" and exp.witness == 3
    assert exp.pole_prediction == 2
    assert exp.peeled == ((4, 2, (0, 1)),)
    assert exp.residual == ((((4, 2, (0, 1)), 1),), (((1, 1, (0,)), 1),))
    assert abs(exp.slope.completed_slope - 2) <= 0.4
    assert exp.slope_consistent


def test_experiment_equal_pair_slope():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    exp = determination_experiment(pi, pi, check_agreement(pi, pi, 200),
                                   slope_cutoff=2 * 10 ** 4)
    assert exp.verdict == "ISOMORPHIC" and exp.pole_prediction == 0
    assert exp.slope_consistent


def test_experiment_incomplete_tables():
    pi = _gauss_pair(character_of_order(5, 4))
    hyp = check_agreement(pi, pi, 100, degrees=(1,))
    with pytest.raises(ValueError, match=r"incomplete: degree 2 of \(1, 2\) "
                                         r"required, rows cover \[1\]"):
        determination_experiment(pi, pi, hyp)


def test_experiment_skips_unrealizable_degrees():
    # over Q every place has degree 1, so the degree-2 table cannot exist
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    exp = determination_experiment(pi, pi, check_agreement(pi, pi, 100))
    assert exp.verdict == "ISOMORPHIC"


def test_experiment_guards():
    from fractions import Fraction
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    shifted = make_isobaric([(TRIV, 1), (CHI4, 1)], Fraction(1, 2))
    with pytest.raises(ValueError, match="unitary"):
        determination_experiment(shifted, shifted,
                                 check_agreement(shifted, shifted, 50))
    with pytest.raises(ValueError, match="equal ambient degree"):
        determination_experiment(pi, make_isobaric([(TRIV, 1)]),
                                 check_agreement(pi, pi, 50))


# ---------------------------------------------------------------------------
# chain descent

def _descend(pi, pi2, plan):
    """`descend_chain` on the pair and its lifts to the plan's chain top."""
    return descend_chain(pi, pi2, plan, plan.lift(pi, 60), plan.lift(pi2, 60))


def test_descend_gaussian_frozen():
    pi = _gauss_pair(character_of_order(5, 4))
    cert = _descend(pi, pi, build_L(QI, 2))
    assert cert.conclusion == "equality descends to K"
    assert cert.fresh_primes() == (3, 7)
    assert [s.level for s in cert.steps] == [2, 1]
    assert [s.multiplier_power for s in cert.steps] == [2, 4]
    assert all(s.exponents == (0, 0) for s in cert.steps)
    assert cert.used == (2, 5)
    assert "21609" in cert.modified_datum    # 3^2 * 7^4 scales the datum
    assert cert.check(pi, pi)


def test_descend_certificate_tamper_detected():
    pi = _gauss_pair(character_of_order(5, 4))
    cert = _descend(pi, pi, build_L(QI, 2))
    bent = dataclasses.replace(
        cert, steps=(dataclasses.replace(cert.steps[0], exponents=(1, 0)),
                     cert.steps[1]))
    assert not bent.check(pi, pi)
    reused = dataclasses.replace(
        cert, steps=(dataclasses.replace(cert.steps[0], fresh_prime=5),
                     cert.steps[1]))
    assert not reused.check(pi, pi)          # 5 divides a conductor in play
    reordered = dataclasses.replace(cert, steps=cert.steps[::-1])
    assert not reordered.check(pi, pi)


def test_descend_premise_negative_control():
    chi5 = character_of_order(5, 4)
    pi = _gauss_pair(chi5)
    pi_tw = _gauss_pair(chi5, delta=character_of_order(3, 2))
    with pytest.raises(ValueError, match="chain top are not equal"):
        _descend(pi, pi_tw, build_L(QI, 2))


def test_descend_cross_paired_leftovers_admit_no_exponent():
    # chi8 dies at the chain top Q(zeta_8) but not over Q(i): the base
    # changes agree, the sums share no component over Q(i), and the
    # leftovers, cross-paired in key order, admit no twist exponent
    chi5 = character_of_order(5, 4)
    pi, pi2 = _gauss_pair(chi5), _gauss_pair(chi5, delta=CHI8)
    with pytest.raises(ValueError, match="no twist exponent matches"):
        _descend(pi, pi2, build_L(QI, 2))


def test_descend_passthrough_direct():
    chi = character_of_order(7, 2).retag(RS5)
    pi = make_isobaric([(NormCharacter.trivial(RS5), 1), (chi, 1)], field=RS5)
    cert = _descend(pi, pi, build_L(RS5, 2))
    assert cert.steps == () and cert.conclusion == "passthrough: input equality"
    assert cert.check(pi, pi)
    other = make_isobaric([(NormCharacter.trivial(RS5), 2)], field=RS5)
    with pytest.raises(ValueError, match="pair is not equal"):
        _descend(pi, other, build_L(RS5, 2))


def test_descend_forked_avoids_plan_primes():
    pi = make_isobaric([(NormCharacter.trivial(K3), 1),
                        (character_of_order(7, 3).retag(K3), 1)], field=K3)
    plan = build_L(K3, 2)
    cert = _descend(pi, pi, plan)
    assert cert.conclusion == "equality descends to the compositum level"
    assert len(cert.steps) == plan.height.r == 2
    fresh = cert.fresh_primes()
    assert fresh == tuple(sorted(fresh))
    assert not set(fresh) & set(cert.used)
    assert {2, 3, 7} <= set(cert.used)
    assert all(j == 0 for s in cert.steps for j in s.exponents)
    assert cert.check(pi, pi)


def test_descend_odd_p_picks_fresh_primes_one_mod_p():
    # an order-3 character mod ell needs ell = 1 mod 3: 2 and 5 never qualify
    chi = character_of_order(7, 3).retag(RS3)
    pi = make_isobaric([(NormCharacter.trivial(RS3), 1), (chi, 1)], field=RS3)
    cert = _descend(pi, pi, build_L(RS3, 3))
    assert cert.used == (3, 7)
    assert cert.fresh_primes() == (13, 19)
    assert all(s.exponents == (0, 0) for s in cert.steps)
    assert cert.check(pi, pi)


# ---------------------------------------------------------------------------
# final descent over K

def test_final_descent_forked_equal():
    pi = make_isobaric([(NormCharacter.trivial(K3), 1),
                        (character_of_order(7, 3).retag(K3), 1)], field=K3)
    plan = build_L(K3, 2)
    hyp = check_agreement(pi, pi, 300)
    fd = final_descent(plan, pi, pi, hyp, 300)
    assert fd.kind == "forked" and fd.verdict == "EQUAL"
    assert fd.note == "degree-1 and inert agreement combine"
    assert len(fd.rows) == 32 and all(r.agree for r in fd.rows)
    assert all(r.q != 7 for r in fd.rows)    # ramified primes carry no row
    assert {r.primes_in_top for r in fd.rows} == {2}
    assert {r.relative_degree for r in fd.rows} == {1}
    assert {r.norm for r in fd.rows} == {r.q ** 2 for r in fd.rows}


def test_final_descent_forked_witness():
    pi = make_isobaric([(NormCharacter.trivial(K3), 1),
                        (character_of_order(7, 3).retag(K3), 1)], field=K3)
    chi5 = character_of_order(5, 2).retag(K3)
    pi2 = make_isobaric([(c * chi5, m) for c, m in pi.components], field=K3)
    plan = build_L(K3, 2)
    hyp = check_agreement(pi, pi2, 300)
    fd = final_descent(plan, pi, pi2, hyp, 300)
    assert fd.verdict == "NOT-HYPOTHESIS"
    assert fd.witness == hyp.witness()
    assert fd.note == "degree-1 agreement fails"


def test_final_descent_single_passthrough_verdicts():
    chi5 = character_of_order(5, 4)
    pi = _gauss_pair(chi5)
    plan = build_L(QI, 2)
    hyp = check_agreement(pi, pi, 200)
    eq = final_descent(plan, pi, pi, hyp, 200)
    assert (eq.kind, eq.verdict, eq.rows) == ("single", "EQUAL", ())
    assert "nothing to transport" in eq.note
    # all rows below X agree, yet the models differ: the honest answer
    # is indecision, with instructions to raise X
    pi8 = _gauss_pair(CHI8)
    pi8d = _gauss_pair(CHI8, delta=character_of_order(13, 2))
    low = check_agreement(pi8, pi8d, 40)
    assert low.holds()
    out = final_descent(plan, pi8, pi8d, low, 40)
    assert out.verdict == "INCONCLUSIVE" and out.witness is None
    bad = check_agreement(pi8, pi8d, 60)
    assert final_descent(plan, pi8, pi8d, bad, 60).verdict == "NOT-HYPOTHESIS"


# ---------------------------------------------------------------------------
# the pipeline

STAGE_NAMES = ["normalize", "reduce", "height", "build", "base-change",
               "low-degree-compare", "chain-descent", "base-descent",
               "twist-class"]


def test_exit_codes_frozen():
    assert EXIT_CODES == {"EQUAL": 0, "NOT-HYPOTHESIS": 2, "INCONCLUSIVE": 3}


def test_pipeline_equal_gaussian():
    pi = _gauss_pair(character_of_order(5, 4))
    rep = run_pipeline(QI, pi, pi, X=2000)
    assert rep.verdict == "EQUAL" and rep.exit_code == 0
    assert [s.name for s in rep.stages] == STAGE_NAMES
    assert rep.corollary == ("p = 2: the twist class over K collapses, "
                             "equality holds on the nose")
    assert rep.stages[5].verdict == "ISOMORPHIC"
    assert rep.stages[7].verdict == "EQUAL"


def test_pipeline_witness_37():
    chi5 = character_of_order(5, 4)
    pi = _gauss_pair(chi5)
    pi2 = _gauss_pair(chi5, delta=character_of_order(13, 2))
    rep = run_pipeline(QI, pi, pi2, X=2000)
    assert rep.verdict == "NOT-HYPOTHESIS" and rep.exit_code == 2
    assert [s.name for s in rep.stages] == STAGE_NAMES[:6]
    assert rep.stages[-1].certificate["witness"] == 37


def test_pipeline_witness_41():
    # at q = 5 the twist only permutes the two parameters ({1,-1} on both
    # sides), so the first separating place needs chi8(q) = 1, delta(q) = -1
    pi = _gauss_pair(CHI8)
    pi2 = _gauss_pair(CHI8, delta=character_of_order(13, 2))
    rep = run_pipeline(QI, pi, pi2, X=2000)
    assert rep.verdict == "NOT-HYPOTHESIS"
    assert rep.stages[-1].certificate["witness"] == 41


def test_pipeline_norm_trivial_twist_collapses():
    pi = _gauss_pair(CHI8)
    pi2 = make_isobaric([(CHI4.retag(QI), 1),
                         ((CHI8 * CHI4).retag(QI), 1)], field=QI)
    rep = run_pipeline(QI, pi, pi2, X=2000)
    assert rep.verdict == "EQUAL" and rep.exit_code == 0
    assert rep.corollary is not None


def test_pipeline_inconclusive_when_window_too_small():
    pi = _gauss_pair(CHI8)
    pi2 = _gauss_pair(CHI8, delta=character_of_order(13, 2))
    rep = run_pipeline(QI, pi, pi2, X=40, compare_X=60)
    assert rep.verdict == "INCONCLUSIVE" and rep.exit_code == 3
    assert [s.name for s in rep.stages] == STAGE_NAMES[:6]


def test_pipeline_forked_equal():
    pi = make_isobaric([(NormCharacter.trivial(K3), 1),
                        (character_of_order(7, 3).retag(K3), 1)], field=K3)
    rep = run_pipeline(K3, pi, pi, X=400)
    assert rep.verdict == "EQUAL" and rep.exit_code == 0
    assert [s.name for s in rep.stages] == STAGE_NAMES


def test_pipeline_normalizes_shifted_input():
    from fractions import Fraction
    chi5 = character_of_order(5, 4).retag(QI)
    pi = make_isobaric([(NormCharacter.trivial(QI), 1), (chi5, 1)],
                       Fraction(1, 2), QI)
    rep = run_pipeline(QI, pi, pi, X=1000)
    assert rep.verdict == "EQUAL"
    assert rep.stages[0].certificate["shifted"] is True
    assert rep.stages[0].certificate["t"] == ["1/2", "1/2"]


def test_pipeline_field_tag_guard():
    pi = make_isobaric([(TRIV, 1), (CHI4, 1)])
    with pytest.raises(ValueError, match="tagged with the given field"):
        run_pipeline(QI, pi, pi)


def test_pipeline_report_json():
    pi = _gauss_pair(character_of_order(5, 4))
    rep = run_pipeline(QI, pi, pi, X=1000)
    doc = rep.to_json()
    assert doc["schema"] == 1 and doc["kind"] == "pipeline-report"
    assert doc["exit_code"] == EXIT_CODES[doc["verdict"]]
    assert [s["name"] for s in doc["stages"]] == STAGE_NAMES
    round_trip = json.loads(json.dumps(doc, sort_keys=True))
    assert round_trip["verdict"] == "EQUAL"


# ---------------------------------------------------------------------------
# soundness across random pairs

_POOL = [NormCharacter.trivial(QI),
         character_of_order(5, 4).retag(QI),
         character_of_order(5, 2).retag(QI),
         CHI8.retag(QI),
         (CHI8 * character_of_order(3, 2)).retag(QI)]


@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.data())
@settings(max_examples=12, deadline=None)
def test_pipeline_verdicts_are_sound(idx, data):
    pi = make_isobaric([(_POOL[i], 1) for i in idx], field=QI)
    idx2 = data.draw(st.lists(st.integers(0, 4), min_size=len(idx),
                              max_size=len(idx)))
    pi2 = make_isobaric([(_POOL[i], 1) for i in idx2], field=QI)
    rep = run_pipeline(QI, pi, pi2, X=3000)
    assert rep.exit_code == EXIT_CODES[rep.verdict]
    if rep.verdict == "EQUAL":
        assert components_match(pi, pi2)
    elif rep.verdict == "NOT-HYPOTHESIS":
        assert not components_match(pi, pi2)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.data())
@settings(max_examples=10, deadline=None)
def test_pipeline_never_rejects_equal_pairs(idx, data):
    perm = data.draw(st.permutations(idx))
    pi = make_isobaric([(_POOL[i], 1) for i in idx], field=QI)
    pi2 = make_isobaric([(_POOL[i], 1) for i in perm], field=QI)
    rep = run_pipeline(QI, pi, pi2, X=3000)
    assert rep.verdict == "EQUAL" and rep.exit_code == 0
    assert satake(pi, 13) == satake(pi2, 13)
