"""End-to-end determination machinery over the character model.

The pieces mirror the shape of the argument they mechanize: pick a chain
height r from the ambient degree, build certified root-chains over the
given quadratic (or cyclotomic) base so inert primes land in high-degree
places, compare two isobaric sums place by place below the tail threshold,
descend a top-level equality step by step with fresh-prime twist
elimination, and close over the base field by the split-in-the-compositum
transport.  The twist class then follows from equality: the twisting
character is the trivial one, so no twist search runs.  Verdicts are exact
-- the character model decides equality -- and slope measurements
corroborate them numerically.

Two honest limitations are surfaced rather than papered over.  For p = 2 a
quadratic step above a field containing i can never stay inert at primes
whose Frobenius acts like complex conjugation, so the root-of-unity chain
over Q(i) (and the mirrored fork over an imaginary quadratic base) covers
only part of the inert primes; the cover check in
`tests/test_determination.py` lists exactly which residue classes fail.
Over a real quadratic field the forked cover is complete: one fork is
certified prime by prime by residue traces, the other by a sum-of-two-
squares (Hilbert symbol) window certificate that licenses the cyclic
continuation above the compositum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ntheory
from .automorphic import (
    IsobaricRep,
    NormCharacter,
    base_change,
    central_char_and_t,
    character_of_order,
    components_match,
    digest,
    make_isobaric,
    pair_components,
    ramified_primes,
    satake_agreement,
    twist_eliminate,
)
from .cyclotomic import (
    CycloField,
    Datum,
    PPSubfieldLattice,
    pp_lattice,
    unit_orders,
)
from .lseries import PrimeSelector, pole_book, slope_experiment, tail_threshold
from .splitting import Field, inert_splits_in_top
from .tower import (
    KummerTower,
    NestednessCertificate,
    fresh_prime_plan,
    modify_datum,
    verify_nested,
)

__all__ = [
    "TowerHeight", "choose_tower_height",
    "hilbert_symbol", "hilbert_obstructions",
    "WindowCertificate", "quadratic_window_certificate",
    "cyclotomic_window_certificate",
    "ChainPlan", "TowerPlan", "build_L",
    "AgreementRow", "AgreementHypothesis", "check_agreement",
    "DeterminationReport", "determination_experiment",
    "DescentStep", "DescentCertificate", "descend_chain",
    "TransportRow", "FinalDescentReport", "final_descent",
    "PipelineStage", "PipelineReport", "run_pipeline",
    "EXIT_CODES",
]


# ---------------------------------------------------------------------------
# chain height

@dataclass(frozen=True)
class TowerHeight:
    n: int
    p: int
    r: int
    direct: bool    # p alone beats the bound: no chain needed above K


def choose_tower_height(n: int, p: int) -> TowerHeight:
    """Least r >= 1 with p^r at least the tail threshold for degree n.

    In the direct case (r = 1) inert places of the degree-p extension are
    already too deep to matter, so no chain is built at all.
    """
    if n < 1:
        raise ValueError("ambient degree must be >= 1")
    if not ntheory.isprime(p):
        raise ValueError(f"p = {p} is not prime")
    need = tail_threshold(n)
    r = 1
    while p ** r < need:
        r += 1
    return TowerHeight(n, p, r, direct=(r == 1))


# ---------------------------------------------------------------------------
# rational Hilbert symbols and the quartic window criterion

def _eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a, b, place: int) -> int:
    """(a, b) at a rational place: a prime, or 0 for the real place."""
    a = ntheory.squarefree_kernel(a)
    b = ntheory.squarefree_kernel(b)
    if place == 0:
        return -1 if (a < 0 and b < 0) else 1
    q = place
    if not ntheory.isprime(q):
        raise ValueError(f"place {q} is neither 0 nor a prime")
    alpha, u = (1, a // q) if a % q == 0 else (0, a)
    beta, w = (1, b // q) if b % q == 0 else (0, b)
    if q != 2:
        s = 1
        if beta:
            s *= ntheory.jacobi(u, q)
        if alpha:
            s *= ntheory.jacobi(w, q)
        if alpha and beta and ((q - 1) // 2) % 2:
            s = -s
        return s
    e = (_eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)) % 2
    return -1 if e else 1


def hilbert_obstructions(a, b) -> tuple[int, ...]:
    """Places where (a, b) = -1; 0 stands for the real place."""
    cand = {0, 2}
    cand.update(ntheory.primefactors(abs(ntheory.squarefree_kernel(a))))
    cand.update(ntheory.primefactors(abs(ntheory.squarefree_kernel(b))))
    out = tuple(v for v in sorted(cand) if hilbert_symbol(a, b, v) == -1)
    if len(out) % 2:
        raise AssertionError("product formula violated")
    return out


def _quadratic_local_note(d: int, place: int) -> tuple[bool, str]:
    """(nonsplit?, reason) for a rational place in Q(sqrt d)."""
    if place == 0:
        return (d < 0, "complex" if d < 0 else "real")
    q = place
    if q == 2:
        if d % 4 != 1:
            return (True, "ramified")
        return (True, "inert") if d % 8 == 5 else (False, "split")
    if d % q == 0:
        return (True, "ramified")
    return (True, "inert") if ntheory.jacobi(d, q) == -1 else (False, "split")


@dataclass(frozen=True)
class WindowCertificate:
    """Whether the first double-step of a chain embeds in a cyclic layer.

    route "contains-i": the base already holds mu_4, nothing to check.
    route "two-squares": alpha must be a sum of two squares in Q(sqrt d) --
    equivalently, every rational place obstructing the symbol (alpha, -1)
    must stay nonsplit there.  route "cyclotomic": the window is a slice
    of a root-of-unity field and cyclicity is read off unit groups.
    """

    base: str
    route: str
    alpha: int | None
    obstructions: tuple[int, ...]
    notes: tuple[str, ...]
    cyclic: bool


def quadratic_window_certificate(d, alpha) -> WindowCertificate:
    d = ntheory.squarefree_kernel(d)
    a = ntheory.squarefree_kernel(alpha)
    base = f"Q(sqrt {d})"
    if d == -1:
        return WindowCertificate(base, "contains-i", a, (), (), True)
    obs = hilbert_obstructions(a, -1)
    notes = []
    ok = True
    for v in obs:
        nonsplit, why = _quadratic_local_note(d, v)
        notes.append(f"{'oo' if v == 0 else v}: {why}")
        ok = ok and nonsplit
    return WindowCertificate(base, "two-squares", a, obs, tuple(notes), ok)


def cyclotomic_window_certificate(p: int) -> WindowCertificate:
    """First window of the root-of-unity chain over its ground field."""
    c = 1 if p == 2 else p
    # the orders of the window group's elements: units = 1 mod c, mod p^3
    orders = [f for a, f in enumerate(unit_orders(p ** 3))
              if f and a % c == 1 % c]
    size = len(orders)
    exponent = max(orders)
    base = "Q" if c == 1 else f"Q(zeta_{c})"
    return WindowCertificate(
        base, "cyclotomic", None, (),
        (f"window group order {size}, exponent {exponent}",),
        cyclic=(exponent == size))


# ---------------------------------------------------------------------------
# tower plans

@dataclass(frozen=True)
class ChainPlan:
    """One fork: the lattice subfield it serves and how its cover is argued.

    `tower` is the residue-traceable chain model when one exists (the fork
    through the field containing i); the complementary fork carries no
    faithful rational chain -- its modified continuation exists whenever
    the window certificate is cyclic, and that certificate plus the
    classifier's residue checks carry the whole per-prime burden.
    """

    label: int
    subfield_kernel: int | None
    subfield_datum: Datum | None
    alpha: int | None
    candidates: tuple[int, ...]
    window: WindowCertificate
    tower: KummerTower | None
    nestedness: NestednessCertificate | None


@dataclass(frozen=True)
class TowerPlan:
    kind: str                    # "direct" | "single" | "forked"
    K: Field
    p: int
    n: int
    height: TowerHeight
    field_class: str             # "quadratic" | "root-step" | "kummer-step"
    lattice: PPSubfieldLattice | None
    chains: tuple[ChainPlan, ...]

    @property
    def required_degree(self) -> int:
        return self.p ** self.height.r

    @property
    def top(self) -> KummerTower | None:
        """The chain top the pair is compared over; None on a direct plan."""
        return next((ch.tower for ch in self.chains if ch.tower), None)

    def lift(self, rep: IsobaricRep, verify_upto: int) -> IsobaricRep:
        """`rep` base-changed to the chain top, or `rep` itself without one."""
        top = self.top
        return rep if top is None else base_change(rep, top, verify_upto)


def _field_profile(K: Field):
    """(p, class) for the supported base fields.

    Classes: "quadratic" (K = Q(sqrt D), D = `K.D`), "root-step"
    (K = k(mu_{p^2}) over k = Q(zeta_p)), "kummer-step" (odd-p Kummer step
    over Q(zeta_m) with mu_p present; only the direct case is buildable).
    """
    if K.D is not None:
        return 2, "quadratic"
    t = K.tower
    if t is None:
        raise ValueError(f"unsupported base field class: conductor "
                         f"{K.tag} is not a quadratic field")
    if t.pre_steps or t.base_is_step or t.r != 1:
        raise ValueError("unsupported base field class: need a single "
                         "Kummer step description")
    if t.m == 1:    # p = 2 over Q is quadratic
        raise ValueError("unsupported base field class: odd-degree step "
                         "over Q lacks the needed roots of unity")
    if t.m == t.p and t.datum.is_signed_root_of_unity(t.p):
        return t.p, "root-step"
    if t.m % t.p == 0:
        return t.p, "kummer-step"
    raise ValueError(f"unsupported base field class: {K.doc}")


def build_L(K_desc, n: int) -> TowerPlan:
    """Tower plan for determining degree-n objects over the given base.

    Direct case: no chain.  K holding mu_{p^2} over the ground field (Q(i),
    or k(zeta_{p^2}) for odd p): one root-of-unity chain.  Other quadratic
    K: two forks over the index-2 subfields of the compositum with Q(i),
    each carrying its own cover argument.
    """
    K = Field.of(K_desc)
    p, cls = _field_profile(K)
    ht = choose_tower_height(n, p)
    if ht.direct:
        return TowerPlan("direct", K, p, n, ht, cls, None, ())
    if cls == "kummer-step":
        raise ValueError("unsupported base field class: only the direct "
                         "case is available for this step description")
    D = K.D
    if cls == "root-step" or D == -1:
        m2 = p * p
        chain = KummerTower(m2, p, ht.r - 1,
                            Datum(CycloField(m2).zeta()), base_is_step=True)
        plan_chain = ChainPlan(0, None, None, None, (),
                               cyclotomic_window_certificate(p), chain, None)
        return TowerPlan("single", K, p, n, ht, cls, None, (plan_chain,))
    # forked quadratic case
    lattice = pp_lattice(Datum.of(D), Datum.of(-1))
    chains = []
    for tag in lattice.subfields:
        if tag.label == 0:
            continue
        kernel = ntheory.squarefree_kernel(tag.datum.rat)
        if kernel == -1:
            tower = KummerTower(4, 2, ht.r + 1, Datum.of(D, m=4))
            chains.append(ChainPlan(
                tag.label, kernel, tag.datum, D, (D,),
                quadratic_window_certificate(-1, D),
                tower, verify_nested(tower)))
            continue
        candidates = tuple(dict.fromkeys(
            ntheory.squarefree_kernel(D * kernel ** j) for j in range(2)))
        chosen = None
        window = None
        for a in candidates:
            window = quadratic_window_certificate(kernel, a)
            if window.cyclic:
                chosen = a
                break
        if chosen is None:
            # no candidate clears the criterion: keep the first, flag it
            window = quadratic_window_certificate(kernel, candidates[0])
            chosen = candidates[0]
        chains.append(ChainPlan(tag.label, kernel, tag.datum, chosen,
                                candidates, window, None, None))
    return TowerPlan("forked", K, p, n, ht, cls, lattice, tuple(chains))


# ---------------------------------------------------------------------------
# agreement hypotheses

@dataclass(frozen=True)
class AgreementRow:
    q: int
    norm: int
    degree: int
    agree: bool


@dataclass(frozen=True)
class AgreementHypothesis:
    """Computed (never assumed) place-by-place agreement below a cutoff."""

    field_doc: str
    X: int
    degrees: tuple[int, ...]
    rows: tuple[AgreementRow, ...]
    exceptions: tuple[tuple[int, str], ...]

    def holds(self) -> bool:
        return all(r.agree for r in self.rows)

    def witness(self) -> int | None:
        for r in self.rows:
            if not r.agree:
                return r.q
        return None

    def summary(self) -> dict:
        return {"field": self.field_doc, "X": self.X,
                "degrees": list(self.degrees), "rows": len(self.rows),
                "holds": self.holds(), "witness": self.witness(),
                "exceptions": len(self.exceptions)}


def check_agreement(pi: IsobaricRep, pi2: IsobaricRep, X: int,
                    degrees=(1,)) -> AgreementHypothesis:
    """Compare Satake classes at every place of degree in `degrees` up to X.

    Ramified places land in the exception list: agreement statements are
    about all but finitely many places, and the exceptions name the finite
    set left out -- the field's `bad_primes()` and the pair's
    `ramified_primes`, the two exclusion rules every claim shares.
    """
    if pi.field != pi2.field:
        raise ValueError("the pair must live over one field")
    degrees = tuple(sorted({int(d) for d in degrees}))
    if not degrees or degrees[0] < 1:
        raise ValueError("degrees must be positive")
    field = pi.field
    bad = field.bad_primes()
    ram = ramified_primes(pi, pi2)
    exceptions = tuple((q, "field" if q in bad else "ramified")
                       for q in sorted(bad | ram)
                       if q <= X and ntheory.isprime(q))
    agree = satake_agreement(pi, pi2)
    rows = tuple(AgreementRow(q, q ** f, f, agree(q ** f))
                 for q, f, _ in field.places(X)
                 if f in degrees and q ** f <= X and q not in ram)
    return AgreementHypothesis(field.doc, X, degrees, rows, exceptions)


# ---------------------------------------------------------------------------
# the comparison experiment

@dataclass(frozen=True)
class DeterminationReport:
    verdict: str                       # "ISOMORPHIC" | "NOT-HYPOTHESIS"
    witness: int | None
    peeled: tuple[tuple, ...]          # component keys in peel order
    residual: tuple[tuple, ...]        # leftover (key, mult) per side
    pole_prediction: int
    slope: object | None
    slope_consistent: bool | None


def _peel(pi: IsobaricRep, pi2: IsobaricRep):
    """Peel min(m, m2) copies of each matched pair, in canonical key order."""
    pairs, left, right = pair_components(pi, pi2)
    peeled = []
    res_l = [(chi.key(), m) for chi, m in left]
    res_r = [(chi2.key(), m2) for chi2, m2 in right]
    for chi, m, chi2, m2 in pairs:
        k = min(m, m2)
        peeled.extend([chi.key()] * k)
        if m > k:
            res_l.append((chi.key(), m - k))
        if m2 > k:
            res_r.append((chi2.key(), m2 - k))
    return tuple(peeled), (tuple(sorted(res_l)), tuple(sorted(res_r)))


def determination_experiment(pi: IsobaricRep, pi2: IsobaricRep,
                             hypothesis: AgreementHypothesis,
                             slope_cutoff: int | None = None
                             ) -> DeterminationReport:
    """Exact verdict for the pair, with optional numerical corroboration.

    The model's strong multiplicity one decides isomorphism outright; the
    hypothesis tables supply the witness when the pair disagrees; when a
    cutoff is given, the measured slope of the pair's log-ratio series is
    compared against the pole book's prediction.
    """
    missing = _missing_degree(pi, pi2, hypothesis)
    if missing is not None:
        raise ValueError(missing)
    matched = components_match(pi, pi2)
    peeled, residual = _peel(pi, pi2)
    book = pole_book(pi, pi2)
    slope = None
    consistent = None
    if slope_cutoff is not None:
        selector = PrimeSelector(pi.field, slope_cutoff,
                                 exclude=frozenset(ramified_primes(pi, pi2)))
        slope = slope_experiment(pi, pi2, selector)
        tol = max(0.2 * book.neg_ord, 0.2)
        consistent = (abs(slope.completed_slope - book.neg_ord) <= tol
                      or abs(slope.compensated_slope - book.neg_ord) <= tol)
    return DeterminationReport(
        verdict="ISOMORPHIC" if matched else "NOT-HYPOTHESIS",
        witness=hypothesis.witness(),
        peeled=peeled,
        residual=residual,
        pole_prediction=book.neg_ord,
        slope=slope,
        slope_consistent=consistent)


def _missing_degree(pi: IsobaricRep, pi2: IsobaricRep,
                    hypothesis: AgreementHypothesis) -> str | None:
    """Why the tables cannot decide the pair, or None when they can.

    Every degree below the tail threshold that the field realizes needs a
    row.  A pair the experiment does not compare raises ValueError.
    """
    if not (pi.is_unitary and pi2.is_unitary):
        raise ValueError("the experiment needs the unitary model (t = 0)")
    if pi.n != pi2.n:
        raise ValueError("the pair must have equal ambient degree")
    need = tuple(range(1, tail_threshold(pi.n)))
    present = {r.degree for r in hypothesis.rows}
    realizable = pi.field.degrees
    for d in need:
        if d in present:
            continue
        if realizable is not None and d not in realizable:
            continue     # the field has no places of this degree at all
        return (f"hypothesis tables incomplete: degree {d} of {need} "
                f"required, rows cover {sorted(present)}")
    return None


# ---------------------------------------------------------------------------
# chain descent

@dataclass(frozen=True)
class DescentStep:
    level: int
    fresh_prime: int
    multiplier_power: int         # planned datum multiplier is l^this
    delta_key: tuple
    pairs: tuple[tuple[tuple, tuple], ...]
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class DescentCertificate:
    """Replayable record of the fresh-prime eliminations down a chain.

    check() re-runs every elimination from the recorded data alone.  The
    fresh primes strictly increase and avoid every conductor on both
    sides -- that support disjointness is what forces the exponents to 0.
    """

    steps: tuple[DescentStep, ...]
    used: tuple[int, ...]
    modified_datum: str | None
    conclusion: str

    def fresh_primes(self) -> tuple[int, ...]:
        return tuple(s.fresh_prime for s in self.steps)

    def check(self, pi: IsobaricRep, pi2: IsobaricRep) -> bool:
        last = 0
        for step in self.steps:
            if step.fresh_prime <= last or step.fresh_prime in self.used:
                return False
            last = step.fresh_prime
            delta = character_of_order(step.fresh_prime, step.delta_key[1],
                                       pi.field)
            if delta.key() != step.delta_key:
                return False
            for (k1, k2), j in zip(step.pairs, step.exponents):
                eta = _component_by_key(pi, k1)
                eta2 = _component_by_key(pi2, k2)
                if eta is None or eta2 is None:
                    return False
                if twist_eliminate(eta, eta2, delta, step.fresh_prime) != j:
                    return False
        return True


def _component_by_key(pi: IsobaricRep, key) -> NormCharacter | None:
    for chi, _ in pi.components:
        if chi.key() == key:
            return chi
    return None


def descend_chain(pi: IsobaricRep, pi2: IsobaricRep, plan: TowerPlan,
                  pi_L: IsobaricRep, pi2_L: IsobaricRep) -> DescentCertificate:
    """Walk the chain top-down, eliminating twists with fresh primes.

    Premise: the pair's lifts to the chain top, `pi_L` and `pi2_L` (from
    `plan.lift`), are equal.  The planned fresh primes scale the chain
    datum (recorded in the certificate), so each scaled step's character
    ramifies at a prime where neither side does -- per matched pair the
    twist exponent must come out 0, one level at a time.  A direct plan has
    no top: its lifts are the pair, and the input equality passes through.
    """
    if pi.field != pi2.field:
        raise ValueError("the pair must live over one field")
    top = plan.top
    if not components_match(pi_L, pi2_L):
        raise ValueError("descent premise fails: " + (
            "the pair is not equal" if top is None else
            "base changes to the chain top are not equal"))
    if top is None:
        return DescentCertificate((), (), None, "passthrough: input equality")
    # pair matching components over K first; cross-pair any leftovers in
    # canonical key order
    pairs, left, right = pair_components(pi, pi2)
    pairing = [(chi, chi2) for chi, _, chi2, _ in pairs]
    pairing += [(chi, chi2) for (chi, _), (chi2, _) in zip(left, right)]
    used = {plan.p}
    for rep in (pi, pi2):
        for chi, _ in rep.components:
            used.update(ntheory.primefactors(chi.conductor()))
    if plan.lattice is not None:
        used |= plan.lattice.bad_primes()
    used |= Field(top).bad_primes()
    r = plan.height.r
    # delta needs order p mod ell, so ell = 1 mod p (2 is always used at p = 2)
    fresh = fresh_prime_plan(used, plan.p, r, split_modulus=plan.p)
    modified = repr(modify_datum(top.datum, fresh))
    steps = []
    for i, (ell, power) in enumerate(fresh):
        delta = character_of_order(ell, plan.p, pi.field)
        steps.append(DescentStep(
            level=r - i, fresh_prime=ell, multiplier_power=power,
            delta_key=delta.key(),
            pairs=tuple((eta.key(), eta2.key()) for eta, eta2 in pairing),
            exponents=tuple(twist_eliminate(eta, eta2, delta, ell)
                            for eta, eta2 in pairing)))
    conclusion = ("equality descends to the compositum level"
                  if plan.kind == "forked"
                  else "equality descends to K")
    return DescentCertificate(tuple(steps), tuple(sorted(used)), modified,
                              conclusion)


# ---------------------------------------------------------------------------
# final descent over K

@dataclass(frozen=True)
class TransportRow:
    q: int
    norm: int
    primes_in_top: int
    relative_degree: int
    agree: bool


@dataclass(frozen=True)
class FinalDescentReport:
    kind: str
    verdict: str         # "EQUAL" | "NOT-HYPOTHESIS" | "INCONCLUSIVE"
    witness: int | None
    rows: tuple[TransportRow, ...]
    note: str


def _inert_rational_primes(plan: TowerPlan, X: int) -> list[int]:
    """Rational primes q <= X inert in K = Q(sqrt D), D = `plan.K.D`.

    These are the degree-2 rows of K's place table.  The primes that table
    leaves out -- 2 and the divisors of D -- ramify somewhere in the
    construction and stay excluded, matching the unramified-only scope of
    every claim here.
    """
    base = Field(KummerTower(1, 2, 1, Datum.of(plan.K.D)))
    return [q for q, f, _ in base.places(X) if f == 2]


def final_descent(plan: TowerPlan, pi: IsobaricRep, pi2: IsobaricRep,
                  hypothesis: AgreementHypothesis, X: int
                  ) -> FinalDescentReport:
    """Close over K: inert places agree because they split in the compositum.

    For forked plans every inert prime up to X gets a transport row backed
    by a split certificate (the inert place splits into relative-degree-1
    places of the compositum, where agreement is inherited); combined with
    the degree-1 hypothesis this yields the model equality.  When K
    already holds mu_{p^2} the chain bottom *is* K and the step passes
    through.
    """
    matched = components_match(pi, pi2)
    if plan.kind != "forked":
        if hypothesis.holds() and matched:
            verdict, witness = "EQUAL", None
        elif not hypothesis.holds():
            verdict, witness = "NOT-HYPOTHESIS", hypothesis.witness()
        else:
            verdict, witness = "INCONCLUSIVE", None
        return FinalDescentReport(plan.kind, verdict, witness, (),
                                  "K holds mu_{p^2}: nothing to transport")
    ram = ramified_primes(pi, pi2)
    agrees = satake_agreement(pi, pi2)
    rows = []
    sigma_witness = None
    for q in _inert_rational_primes(plan, X):
        if q in ram:
            continue
        cert = inert_splits_in_top(plan.lattice, q)
        Nv = q ** plan.p
        agree = agrees(Nv)
        rows.append(TransportRow(q, Nv, cert.primes_in_top,
                                 cert.relative_degree, agree))
        if not agree and sigma_witness is None:
            sigma_witness = q
    if not hypothesis.holds():
        return FinalDescentReport(plan.kind, "NOT-HYPOTHESIS",
                                  hypothesis.witness(), tuple(rows),
                                  "degree-1 agreement fails")
    if sigma_witness is not None:
        return FinalDescentReport(plan.kind, "NOT-HYPOTHESIS", sigma_witness,
                                  tuple(rows),
                                  "inert-place agreement fails")
    if matched:
        return FinalDescentReport(plan.kind, "EQUAL", None, tuple(rows),
                                  "degree-1 and inert agreement combine")
    return FinalDescentReport(plan.kind, "INCONCLUSIVE", None, tuple(rows),
                              "agreement holds below X yet the model "
                              "objects differ: raise X")


# ---------------------------------------------------------------------------
# the pipeline

EXIT_CODES = {"EQUAL": 0, "NOT-HYPOTHESIS": 2, "INCONCLUSIVE": 3}


@dataclass(frozen=True)
class PipelineStage:
    name: str
    inputs: str
    verdict: str
    certificate: object   # in JSON form: run_pipeline's emit converts it

    def to_json(self) -> dict:
        return {"name": self.name, "inputs": self.inputs,
                "verdict": self.verdict, "certificate": self.certificate}


@dataclass(frozen=True)
class PipelineReport:
    K_doc: str
    n: int
    p: int
    verdict: str
    exit_code: int
    corollary: str | None
    stages: tuple[PipelineStage, ...]

    def to_json(self) -> dict:
        return {"schema": 1, "kind": "pipeline-report", "K": self.K_doc,
                "n": self.n, "p": self.p, "verdict": self.verdict,
                "exit_code": self.exit_code, "corollary": self.corollary,
                "stages": [s.to_json() for s in self.stages]}


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "__dataclass_fields__"):
        return {f: _jsonable(getattr(obj, f))
                for f in obj.__dataclass_fields__}
    return repr(obj)


def run_pipeline(K_desc, pi: IsobaricRep, pi2: IsobaricRep, X: int = 10 ** 4,
                 compare_X: int | None = None, final_X: int | None = None,
                 slope_cutoff: int | None = None) -> PipelineReport:
    """Normalize, plan, compare, descend, and classify the pair over K.

    Verdicts: EQUAL (exit 0), NOT-HYPOTHESIS with a witness prime (exit 2),
    INCONCLUSIVE (exit 3).  Every executed stage leaves an immutable
    certificate in the report; a failed hypothesis truncates the stage list
    at the comparison.  The closing twist-class stage follows from equality:
    base descent ends EQUAL only when the components match, so it records
    the trivial character.
    """
    K = Field.of(K_desc)
    if pi.field != K or pi2.field != K:
        raise ValueError("the pair must be tagged with the given field")
    if slope_cutoff is not None and slope_cutoff < 2:
        raise ValueError("slope cutoff must be >= 2")
    compare_X = min(X, 3000) if compare_X is None else compare_X
    final_X = min(X, 2000) if final_X is None else final_X
    stages = []

    def emit(name, inputs, verdict, certificate):
        stages.append(PipelineStage(name, digest(_jsonable(inputs)),
                                    verdict, _jsonable(certificate)))

    def report(verdict, corollary=None):
        return PipelineReport(K.doc, pi.n, plan.p,
                              verdict, EXIT_CODES[verdict], corollary,
                              tuple(stages))

    docs = [pi.to_json(), pi2.to_json()]
    omega, t = central_char_and_t(pi)
    omega2, t2 = central_char_and_t(pi2)
    if t != 0 or t2 != 0:
        pi = make_isobaric(pi.components, 0, pi.field)
        pi2 = make_isobaric(pi2.components, 0, pi2.field)
    emit("normalize", docs, "ok",
         {"t": [str(t), str(t2)], "omega_equal": omega == omega2,
          "shifted": t != 0 or t2 != 0})

    plan = build_L(K, pi.n)
    p, ht = plan.p, plan.height
    emit("reduce", K.doc, "ok",
         {"p": p, "class": plan.field_class,
          "mu_p_in_k": True if p == 2 else f"zeta_{p} adjoined"})
    emit("height", [pi.n, p], "direct" if ht.direct else f"r={ht.r}",
         {"n": ht.n, "p": ht.p, "r": ht.r, "direct": ht.direct})
    emit("build", K.doc, plan.kind,
         {"kind": plan.kind, "required_degree": plan.required_degree,
          "chains": [{"label": c.label, "alpha": c.alpha,
                      "window_route": c.window.route,
                      "window_cyclic": c.window.cyclic,
                      "tower": None if c.tower is None else repr(c.tower)}
                     for c in plan.chains]})

    pi_L, pi2_L = plan.lift(pi, 60), plan.lift(pi2, 60)
    if plan.top is None:
        emit("base-change", K.doc, "identity",
             {"note": "direct plan: no chain to climb"})
    else:
        emit("base-change", repr(plan.top), "ok",
             {"pi_L": digest(pi_L.to_json()),
              "pi2_L": digest(pi2_L.to_json())})

    hyp = check_agreement(pi, pi2, X, degrees=(1,))
    if not hyp.holds():
        emit("low-degree-compare", hyp.summary(), "NOT-HYPOTHESIS",
             {"hypothesis": hyp.summary(), "witness": hyp.witness()})
        return report("NOT-HYPOTHESIS")
    need = tuple(range(1, tail_threshold(pi.n)))
    hyp_L = check_agreement(pi_L, pi2_L, compare_X, degrees=need)
    missing = _missing_degree(pi_L, pi2_L, hyp_L)
    if missing is not None:
        # the compare window is too small to populate a required degree
        emit("low-degree-compare", hyp.summary(), "INCONCLUSIVE",
             {"hypothesis": hyp.summary(), "over_L": hyp_L.summary(),
              "error": missing})
        return report("INCONCLUSIVE")
    exp = determination_experiment(pi_L, pi2_L, hyp_L,
                                   slope_cutoff=slope_cutoff)
    emit("low-degree-compare", hyp.summary(), exp.verdict,
         {"hypothesis": hyp.summary(), "over_L": hyp_L.summary(),
          "experiment": exp})
    if exp.verdict != "ISOMORPHIC":
        return report("NOT-HYPOTHESIS" if exp.witness is not None
                      else "INCONCLUSIVE")

    cert = descend_chain(pi, pi2, plan, pi_L, pi2_L)
    emit("chain-descent", [pi.to_json(), pi2.to_json()],
         "passthrough" if not cert.steps else f"{len(cert.steps)} steps",
         cert)

    fin = final_descent(plan, pi, pi2, hyp, final_X)
    emit("base-descent", hyp.summary(), fin.verdict, fin)
    if fin.verdict != "EQUAL":
        return report(fin.verdict)

    # base descent said EQUAL, so the components match: chi is trivial
    emit("twist-class", None, "EQUAL",
         {"chi": {"modulus": 1, "order": 1, "trivial": True}})
    corollary = ("p = 2: the twist class over K collapses, equality holds "
                 "on the nose") if p == 2 else None
    return report("EQUAL", corollary)
