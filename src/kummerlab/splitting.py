"""Residue traces of primes up Kummer chains, and splitting classifiers.

Decisions ride on residue arithmetic, not ideal arithmetic: with mu_p in
the residue field, a degree-p Kummer step is split at an unramified prime
exactly when the datum's image is a p-th power there (Kummer's criterion,
decided by Euler's criterion in `_splits`).  Splitting keeps the residue
field (all p roots are rational over it); an inert step is modelled as the
relative extension F[t]/(t^p - a), which makes the adjoined root available
with no embedding work.  Once a step is inert with the p-part of the residue
group of size >= p^2 (automatic for p odd), every later step stays inert, so
deep chains cost one power test.

Wild primes (q = p) are refused: the residue criterion does not apply.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import ntheory
from .cyclotomic import (
    CycloPrime,
    Datum,
    PPSubfieldLattice,
    bad_primes,
    bad_product,
    cyclo_primes_above,
    unit_orders,
)
from .finitefield import (
    first_nonresidue,
    is_pth_power,
    make_ext_field,
    order_p_valuation,
    pth_roots,
    sylow_valuation,
)
from .tower import KummerTower

DEFAULT_NORM_BOUND = 500


class DegreeClass(enum.Enum):
    DEGREE1 = "DEGREE1"
    DEGREEP = "DEGREEP"
    RAMIFIED = "RAMIFIED"


def kummer_step(m: int, p: int, datum: Datum) -> KummerTower:
    """A single degree-p step as a height-1 tower."""
    return KummerTower(m, p, 1, datum)


def _splits(img, p: int) -> bool:
    """Kummer's criterion: the step splits at the prime iff img is a p-th power.

    img lives in the residue field, which must hold mu_p.
    """
    if (img.field.size - 1) % p:
        raise ValueError("mu_p missing from the residue field")
    return is_pth_power(img, p)


# ---------------------------------------------------------------------------
# relative extensions for inert growth

class RelField:
    """parent[t]/(t^p - a) for a not a p-th power in the parent.

    Elements are length-p vectors of parent elements; reduction is the single
    relation t^p = a, so no modulus search and no embedding problem: the
    parent sits inside as constant vectors and the root of the datum is the
    class of t.
    """

    __slots__ = ("parent", "a", "p", "size")

    def __init__(self, parent, a, p):
        if _splits(a, p):
            raise ValueError("adjoined datum is a p-th power already")
        self.parent = parent
        self.a = a
        self.p = p
        self.size = parent.size ** p

    def zero(self):
        return RElement(self, (self.parent.zero(),) * self.p)

    def one(self):
        return RElement(self, (self.parent.one(),)
                        + (self.parent.zero(),) * (self.p - 1))

    def gen(self):
        """The adjoined p-th root of a."""
        z, o = self.parent.zero(), self.parent.one()
        return RElement(self, (z, o) + (z,) * (self.p - 2))

    def embed(self, x):
        return RElement(self, (x,) + (self.parent.zero(),) * (self.p - 1))

    def from_index(self, n: int) -> "RElement":
        """The element whose coefficients are the base-|parent| digits of n."""
        size = self.parent.size
        return RElement(self, tuple(self.parent.from_index(n // size ** i % size)
                                    for i in range(self.p)))

    def nonresidue(self, p: int) -> "RElement":
        """The first non-p-th power from t^(p-1) on (`first_nonresidue`).

        Seeds `finitefield.pth_roots`, whose root set does not depend on it.
        """
        return first_nonresidue(self, p, self.parent.size ** (self.p - 1))

    def __eq__(self, other):
        return (isinstance(other, RelField) and self.p == other.p
                and self.parent == other.parent and self.a == other.a)

    def __hash__(self):
        return hash((self.parent, self.a.key() if hasattr(self.a, "key")
                     else self.a, self.p))

    def __repr__(self):
        return f"RelField({self.parent!r}, p={self.p})"


class RElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def key(self):
        return tuple(c.key() for c in self.coeffs)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        return RElement(self.field, tuple(a + b for a, b in
                                          zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        p = f.p
        conv = [f.parent.zero() for _ in range(2 * p - 1)]
        for i, ai in enumerate(self.coeffs):
            if not ai.is_zero():
                for j, bj in enumerate(other.coeffs):
                    if not bj.is_zero():
                        conv[i + j] = conv[i + j] + ai * bj
        out = conv[:p]
        for j in range(p, 2 * p - 1):
            if not conv[j].is_zero():
                out[j - p] = out[j - p] + conv[j] * f.a
        return RElement(f, tuple(out))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            raise ValueError("negative powers not supported")
        if self.is_zero():
            return f.one() if e == 0 else f.zero()
        e %= f.size - 1
        out = f.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, RElement) and self.field == other.field
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.field, self.key()))

    def __repr__(self):
        return f"RElement({self.key()})"


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class BranchNode:
    """One prime (possibly with collapsed multiplicity) at some level."""

    exp: int                 # residue field F_{q^exp}
    image: object | None     # chain-root image; None once on an inert tail
    count: int = 1


@dataclass(frozen=True)
class PrimeTrace:
    tower: KummerTower
    prime: CycloPrime
    ramified: bool
    branches: tuple[tuple[BranchNode, ...], ...]  # per level 0..r

    def places(self, level: int) -> tuple[tuple[int, int], ...]:
        """Sorted (norm-exponent, count) pairs at a level."""
        if self.ramified:
            raise ValueError(f"q = {self.prime.q} ramifies in the tower; "
                             "a ramified trace has no place data")
        agg: dict[int, int] = {}
        for b in self.branches[level]:
            agg[b.exp] = agg.get(b.exp, 0) + b.count
        return tuple(sorted(agg.items()))


def _rich_enough(field_size: int, p: int) -> bool:
    # inert persistence: for p = 2 the group needs a mu_4 above the step
    return p != 2 or (field_size - 1) % 4 == 0


def _step_branch(node: BranchNode, p: int) -> list[BranchNode]:
    if node.image is None:
        return [BranchNode(node.exp * p, None, node.count)]
    img = node.image
    if _splits(img, p):
        roots = pth_roots(img, p)
        if len(roots) != p:
            raise AssertionError(f"{len(roots)} p-th roots of a split datum, "
                                 f"expected {p}")
        return [BranchNode(node.exp, rt, node.count) for rt in roots]
    if _rich_enough(img.field.size, p):
        return [BranchNode(node.exp * p, None, node.count)]
    nxt = RelField(img.field, img, p)
    return [BranchNode(node.exp * p, nxt.gen(), node.count)]


def _enter(tower: KummerTower, prime: CycloPrime, root: int) -> tuple | None:
    """How a base prime enters the tower, as (image, count, growth).

    `root` is the largest root of the datum the caller adjoins, p^s for s
    stacked steps: alpha^(1/p^s) is unramified at P only when p^s | v_P(alpha).
    None if the prime ramifies in the datum or a pre-step.  Else the datum's
    image where the chain starts, the primes above `prime` there (a split
    pre-step multiplies them by p) and the relative fields of inert pre-steps.
    """
    p, q = tower.p, prime.q
    if q == p:
        raise ValueError(f"q = {p} is wild: the residue criterion does not apply")
    if prime.m != tower.m:
        raise ValueError("prime lives over a different conductor")
    (v, image), *pre_images = [d.reading(prime)
                               for d in (tower.datum, *tower.pre_steps)]
    if v % root or any(w % p for w, _ in pre_images):
        return None
    count = 1
    growth: list[RelField] = []
    for _, c in pre_images:
        for g in growth:
            c = g.embed(c)
        if _splits(c, p):
            count *= p
        else:
            growth.append(RelField(image.field, c, p))
            image = growth[-1].embed(image)
    return image, count, tuple(growth)


def trace_prime(tower: KummerTower, prime: CycloPrime) -> PrimeTrace:
    """Follow one base prime through every level; exact place data per level."""
    entry = _enter(tower, prime, tower.p ** tower.stacked_steps)
    if entry is None:
        return PrimeTrace(tower, prime, True, ())
    image, count, growth = entry
    nodes = [BranchNode(prime.f * tower.p ** len(growth), image, count)]
    levels = [] if tower.base_is_step else [tuple(nodes)]
    for _ in range(tower.r + (1 if tower.base_is_step else 0)):
        nodes = [b for node in nodes for b in _step_branch(node, tower.p)]
        levels.append(tuple(nodes))
    trace = PrimeTrace(tower, prime, False, tuple(levels))
    for j in range(tower.r + 1):
        total = sum(e * c for e, c in trace.places(j))
        if total != prime.f * tower.level_degree(j):
            raise AssertionError("degree sum mismatch")
    return trace


# ---------------------------------------------------------------------------
# classification and densities

def classify_prime(step: KummerTower, prime: CycloPrime) -> DegreeClass:
    """Class of a base prime in the first datum step of `step`."""
    if step.pre_steps:
        raise ValueError("classification is for bare steps; trace instead")
    entry = _enter(step, prime, step.p)
    if entry is None:
        return DegreeClass.RAMIFIED
    return DegreeClass.DEGREE1 if _splits(entry[0], step.p) else DegreeClass.DEGREEP


def classify_rational(step: KummerTower, q: int):
    """(prime, class) for every base prime above q."""
    return tuple((P, classify_prime(step, P))
                 for P in cyclo_primes_above(step.m, q))


@dataclass(frozen=True)
class DensityReport:
    degree1: int
    total: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.degree1, self.total) if self.total else Fraction(0)


def degree1_density(step: KummerTower, X: int) -> DensityReport:
    """Count unramified degree-1 places vs all unramified places, norm <= X.

    Degree 1 is over the rationals.  The places are those of `Field(step)`
    above each prime q off its `bad_primes()` with q^f0 <= X, f0 the degree
    of q in Q(zeta_m).  The step needs mu_p in its base: p = 2 or p | m.
    A square datum over Q gives no quadratic step: building `Field` raises.
    """
    p, m = step.p, step.m
    if p != 2 and m % p:
        raise ValueError(f"mu_{p} not contained in Q(zeta_{m})")
    K = Field(step)
    skip, profile = K.bad_primes(), K.profile
    orders = unit_orders(m)
    deg1 = total = 0
    for q in ntheory.primerange(2, X + 1):
        if q in skip or q ** orders[q % m] > X:
            continue
        for f, c in profile(q):
            if q ** f <= X:
                total += c
                if f == 1:
                    deg1 += c
    return DensityReport(deg1, total)


# ---------------------------------------------------------------------------
# fields and their places

def _cyclotomic_places(m: int):
    orders = unit_orders(m)
    phi = len(orders) - orders.count(0)

    def profile(q):
        f = orders[q % m]
        if not f:
            raise ValueError(f"q = {q} ramifies in conductor {m}")
        return ((f, phi // f),)
    return profile, frozenset(orders) - {0}, m


def _int_phi_roots(m: int, q: int, ells) -> list[int]:
    """Roots of Phi_m mod a split q as ints; m > 2 has the primes `ells`."""
    for y in range(2, q):
        z = pow(y, (q - 1) // m, q)
        if all(pow(z, m // ell, q) != 1 for ell in ells):
            return [pow(z, a, q) for a in range(1, m) if math.gcd(a, m) == 1]
    raise AssertionError("no element of full order found")


def _int_image(datum: Datum, q: int, zbar: int) -> int:
    cyc, rat = datum.cyc, datum.rat
    acc = 0
    for c in reversed(cyc.num):
        acc = (acc * zbar + c) % q
    return acc * rat.numerator * pow(cyc.den * rat.denominator, -1, q) % q


def _counted_places(t: KummerTower):
    """The profile of the top level of t: the algebra over Q(zeta_m) of
    x^P = a, P = `root_exponent(r)`, and y_i^p = b_i, a the datum and the
    b_i its k pre-steps.  Above a prime of residue field F_Q, Q = q^f0,
    holding mu_p, its homomorphisms into F_{Q^(p^j)} number R_j = g * p^k,
    g = gcd(P, Q^(p^j) - 1), when a is a g-th power there and the b_i p-th
    powers, else 0; it has (R_j - R_(j-1)) / p^j places of degree f0 p^j
    (Lidl and Niederreiter, Finite Fields, Thm 3.25), and all split from
    p^j >= P (>= p with pre-steps) on.  Like the trace it counts the
    algebra, so entangled data (3 over Q(zeta_12)) need no premise.
    Rational data read ints mod q, alike above q; other data read ints at
    the roots of Phi_m mod a split q, else `Datum.unit_part_image`.  A bad
    q is refused by division (`bad_product`): nothing is factored.
    """
    m, p, P = t.m, t.p, t.root_exponent(t.r)
    datum, pre = t.datum, t.pre_steps
    orders = unit_orders(m)
    phi = len(orders) - orders.count(0)
    spread = p ** len(pre)
    top, last = P * spread, max(P, p if pre else 1)
    bad = bad_product(m, p, (datum, *pre))

    def enter(q):
        if bad % q == 0:
            raise ValueError(f"q={q} meets the tower's ramification")
        f0 = orders[q % m]
        if top > 1 and p != 2 and (q ** f0 - 1) % p:    # odd q hold mu_2
            raise ValueError(f"mu_p missing from the residue field "
                             f"above q = {q}")
        return f0

    def count(out, weight, f0, Q, a, bs, mod):
        # `weight` primes of residue field F_Q; ints mod q or elements (mod None)
        order, one = (mod - 1, 1) if mod else (Q - 1, a.field.one())
        fix, e = 0, 1
        while fix < top:
            new = top
            if e < last:
                n = Q ** e - 1
                g = math.gcd(P, n)
                new = 0
                if g * spread > fix and pow(a, n // g % order, mod) == one:
                    new = g * spread
                    if bs and any(pow(b, n // p % order, mod) != one
                                  for b in bs):
                        new = 0
            if new > fix:
                out.append((f0 * e, weight * (new - fix) // e))
                fix = new
            e *= p
        return out

    values = [d.value() for d in (datum, *pre)]
    if all(v.is_rational() for v in values):
        (n0, d0), *fracs = [(v.num[0], v.den) for v in values]

        def profile(q):
            f0 = enter(q)
            a = n0 * pow(d0, -1, q) % q if d0 > 1 else n0 % q
            bs = [n * pow(d, -1, q) % q for n, d in fracs] if pre else ()
            return tuple(count([], phi // f0, f0, q ** f0, a, bs, q))
        return profile

    ells = ntheory.primefactors(m)

    def profile(q):
        f0, out, places = enter(q), [], {}
        if f0 == 1:
            for z in _int_phi_roots(m, q, ells):
                count(out, 1, 1, q, _int_image(datum, q, z),
                      [_int_image(b, q, z) for b in pre] if pre else (), q)
        else:
            for B in cyclo_primes_above(m, q):
                count(out, 1, f0, q ** f0, datum.unit_part_image(B),
                      [b.unit_part_image(B) for b in pre] if pre else (), None)
        for f, c in out:
            places[f] = places.get(f, 0) + c
        return tuple(sorted(places.items()))
    return profile


def _tower_places(t: KummerTower):
    """(profile, degrees, D, period) for the top level of a tower: counted
    (`_counted_places`), but for the chain of roots of zeta_{p^2} over
    Q(zeta_{p^2}), whose top is Q(zeta_{p^(r+3)}), of period p^(r+3).
    Only Q(sqrt D), a bare height-1 quadratic step over Q, knows its
    degrees, {1, 2}, and D, the squarefree kernel of the datum (a square
    datum raises); its profile is the Kronecker symbol of D, of period
    4|D|.  Other towers get None for each: a chain top such as
    Q(i, 3^(1/8)) is not abelian, so no modulus decides its places."""
    d, bare = t.datum, not t.pre_steps
    if (bare and t.base_is_step and t.m == t.p ** 2 and d.rat == 1
            and d.cyc == d.cyc.field.zeta()):
        profile, degrees, period = _cyclotomic_places(t.p ** (t.r + 3))
        return profile, degrees, None, period
    if bare and not t.base_is_step and (t.m, t.p, t.r) == (1, 2, 1):
        a = d.value().as_fraction()
        D = ntheory.squarefree_kernel(a)
        if D == 1:
            raise ValueError(f"trivial quadratic datum {a}: a square in Q")
        return _counted_places(t), frozenset({1, 2}), D, 4 * abs(D)
    return _counted_places(t), None, None, None


@dataclass(frozen=True)
class Field:
    """A base field: 1 (the rationals), a conductor m (Q(zeta_m)) or a
    `KummerTower` (its top level).  The only code that reads which.

    `profile(q)`: sorted (degree, count) pairs over Q above a prime q off
    `bad_primes()`, from `unit_orders` or, for a tower, one count and no
    trace (`_tower_places`); `degrees`: the residue degrees the field has,
    or None when unknown; `D`: squarefree when the field is Q(sqrt D), else
    None; `period`: for an abelian field a modulus n such that `profile(q)`
    depends only on q mod n off `bad_primes()` (m for Q(zeta_m), p^(r+3)
    for the zeta_{p^2} chain, 4|D| for the quadratic step Q(sqrt D)), else
    None.  The shape is decided once, here; `places(X)` then pays one
    `profile` call per residue class, or per prime when `period` is None.
    `tag` names the field in a report: the conductor, or the tower's repr.
    """

    desc: object
    tower: KummerTower | None = dfield(init=False, repr=False, compare=False)
    D: int | None = dfield(init=False, repr=False, compare=False)
    profile: object = dfield(init=False, repr=False, compare=False)
    degrees: frozenset | None = dfield(init=False, repr=False, compare=False)
    period: int | None = dfield(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.desc, KummerTower):
            object.__setattr__(self, "tower", self.desc)
            profile, degrees, D, period = _tower_places(self.desc)
        elif type(self.desc) is int and self.desc >= 1:
            object.__setattr__(self, "tower", None)
            D = {3: -3, 4: -1, 6: -3}.get(self.desc)
            profile, degrees, period = _cyclotomic_places(self.desc)
        else:
            raise ValueError(f"unsupported field description {self.desc!r}: "
                             "need 1, a conductor m >= 1 or a KummerTower")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "period", period)

    @staticmethod
    def of(desc) -> "Field":
        return desc if isinstance(desc, Field) else Field(desc)

    @property
    def tag(self):
        return self.desc if self.tower is None else repr(self.tower)

    @property
    def doc(self) -> str:
        return str(self.tag)

    def bad_primes(self) -> set[int]:
        """The primes of the conductor, or for a tower the single datum
        rule `cyclotomic.bad_primes` over its datum and pre-steps."""
        t = self.tower
        if t is None:
            return set(ntheory.primefactors(self.desc))
        return bad_primes(t.m, t.p, (t.datum, *t.pre_steps))

    def places(self, X: int) -> tuple[tuple[int, int, int], ...]:
        """(q, degree, count) rows, by q then degree, for every prime q <= X
        off the bad primes; norms q^degree are not cut at X.  With a
        `period` n, `profile` is called once per class of q mod n and the
        class's profile is read for every later q in it (a dict local to
        the call: no memo outlives it); else once per prime."""
        bad, profile, n = self.bad_primes(), self.profile, self.period
        if n is not None:
            classes: dict[int, tuple] = {}

            def profile(q):
                r = q % n
                if r not in classes:
                    classes[r] = self.profile(q)
                return classes[r]
        return tuple((q, f, c) for q in ntheory.primerange(2, X + 1)
                     if q not in bad for f, c in profile(q))

    def lies_in(self, other: "Field") -> bool:
        """Whether base change to `other` is supported: Q(zeta_m) into
        Q(zeta_M) for m | M, and any field into a tower."""
        return other.tower is not None or (
            self.tower is None and other.desc % self.desc == 0)


def place_profile(field_desc, q: int):
    """`Field.of(field_desc).profile(q)`: the sorted (degree, count) pairs
    over Q above q, which must lie outside the field's `bad_primes()`."""
    return Field.of(field_desc).profile(q)


def norm_subgroup(field_desc, N: int, bound: int = DEFAULT_NORM_BOUND) -> frozenset:
    """Subgroup of (Z/N)^* generated by place norms up to `bound`.

    `field_desc` is a `Field` or its description.  The cutoff is operational:
    generators are collected from the place table's primes <= bound.
    """
    gens = {pow(q, f, N) for q, f, _ in Field.of(field_desc).places(bound)
            if N % q}
    group = {1 % N}
    for g in gens:
        if g in group:
            continue
        # <H, g> is the union of the cosets H g^k up to the first g^k in H
        h, grown = g, set(group)
        while h not in group:
            grown.update(x * h % N for x in group)
            h = h * g % N
        group = grown
    return frozenset(group)


# ---------------------------------------------------------------------------
# chain certificates

@dataclass(frozen=True)
class InertChainCertificate:
    """One prime staying inert at every level, with doubling norms.

    order_valuation = sylow_valuation certifies the level-0 step is inert;
    persistence up the chain follows from the p-part richness recorded here.
    """

    tower: KummerTower
    prime: CycloPrime
    norms: tuple[int, ...]
    order_valuation: int
    sylow_valuation: int
    branch_count: int

    @property
    def unique_lift(self) -> bool:
        return self.branch_count == 1


def _inert_cert_at(tower: KummerTower, P: CycloPrime) -> InertChainCertificate:
    p = tower.p
    entry = _enter(tower, P, p ** tower.stacked_steps)
    if entry is None:
        raise ValueError(f"q = {P.q} ramifies in the tower")
    a0, count, growth = entry
    if growth:
        raise ValueError("inert pre-step forces a split higher up")
    if _splits(a0, p):
        raise ValueError(f"datum image is a {p}-th power at this prime")
    v = order_p_valuation(a0, p)
    s = sylow_valuation(a0.field.size - 1, p)
    if tower.stacked_steps >= 2 and not _rich_enough(a0.field.size, p):
        raise ValueError("p-part of the residue group too small to persist")
    Q = P.norm
    norms = tuple(Q ** tower.root_exponent(j) for j in range(tower.r + 1))
    return InertChainCertificate(tower, P, norms, v, s, count)


def inert_chain_certificate(tower: KummerTower, at) -> InertChainCertificate:
    """Certify an inert chain at `at` (a base prime or a rational prime)."""
    if isinstance(at, CycloPrime):
        return _inert_cert_at(tower, at)
    reasons = []
    for P in cyclo_primes_above(tower.m, at):
        try:
            return _inert_cert_at(tower, P)
        except ValueError as e:
            reasons.append(f"zbar={P.zbar}: {e}")
    raise ValueError(f"no prime above {at} certifies an inert chain: "
                     + "; ".join(reasons))


def fold_degree_multisets(A, B):
    """Residue degrees of a compositum place set from two unramified sets.

    Entries are (degree, count), each at least 1; F_{q^a} (x) F_{q^b} is
    gcd(a, b) copies of F_{q^lcm(a, b)}.
    """
    if any(x < 1 for entry in (*A, *B) for x in entry):
        raise ValueError("degrees and counts must be >= 1")
    agg: dict[int, int] = {}
    for a, ca in A:
        for b, cb in B:
            g = math.gcd(a, b)
            d = a * b // g
            agg[d] = agg.get(d, 0) + ca * cb * g
    return tuple(sorted(agg.items()))


@dataclass(frozen=True)
class CompositumBound:
    certificate: InertChainCertificate
    min_norm: int
    folded: tuple | None


def compositum_min_norm(tower: KummerTower, q: int,
                        other_degrees=None) -> CompositumBound:
    """Lower bound for norms above q in the top level joined with anything.

    Any place of a compositum has degree divisible by the inert chain's top
    degree, so the chain's final norm bounds the compositum's from below;
    with a second degree multiset given, the exact fold is returned too.
    """
    cert = inert_chain_certificate(tower, q)
    top_exp = cert.prime.f * tower.root_exponent(tower.r)
    folded = None
    if other_degrees is not None:
        folded = fold_degree_multisets(((top_exp, cert.branch_count),),
                                       tuple(other_degrees))
        if any(d % top_exp for d, _ in folded):
            raise AssertionError(f"folded degrees {folded} not all divisible "
                                 f"by the chain's top degree {top_exp}")
    return CompositumBound(cert, cert.norms[-1], folded)


# ---------------------------------------------------------------------------
# lattice classification

@dataclass(frozen=True)
class SubfieldClassification:
    q: int
    coords: tuple[int, int]
    label: int
    datum: Datum


def inert_prime_subfield(lattice: PPSubfieldLattice, q: int) -> SubfieldClassification:
    """For q inert in K: the unique lattice subfield where q splits."""
    if q in lattice.bad_primes():
        raise ValueError(f"q = {q} is excluded for this lattice")
    x, y = lattice.frobenius_coordinates(q)
    if x == 0 and y == 0:
        raise ValueError(f"q = {q} splits completely in the compositum")
    if x == 0:
        raise ValueError(f"q = {q} splits in K; inert hypothesis fails")
    hit = None
    for tag in lattice.subfields:
        if (x, y) in tag.subgroup:
            hit = tag
            break
    if hit is None or hit.label < 1:
        raise AssertionError(f"no subfield other than K holds Frobenius "
                             f"coordinates {(x, y)}")
    # cross-check by direct residue tests
    if lattice.kummer_exponent(hit.datum, q) != 0:
        raise AssertionError(f"q = {q} does not split in subfield {hit.label}")
    if lattice.kummer_exponent(lattice.K_datum, q) == 0:
        raise AssertionError(f"q = {q} splits in K")
    return SubfieldClassification(q, (x, y), hit.label, hit.datum)


@dataclass(frozen=True)
class TopSplitCertificate:
    q: int
    coords: tuple[int, int]
    k_class: DegreeClass
    primes_in_top: int
    relative_degree: int


def inert_splits_in_top(lattice: PPSubfieldLattice, q: int) -> TopSplitCertificate:
    """A prime inert in K splits into 2 primes of the full compositum.

    The Galois group of the compositum has exponent 2, so no Frobenius has
    order 4; an order check confirms the F-datum image cannot stay a
    non-square over the quadratic residue extension F_{q^2}.
    """
    if q in lattice.bad_primes():
        raise ValueError(f"q = {q} is excluded for this lattice")
    x, y = lattice.frobenius_coordinates(q)
    if x == 0:
        raise ValueError(f"q = {q} is not inert in K")
    # over F_{q^2} the group's 2-part strictly grows, so the F-datum image
    # (order unchanged under embedding) must become a square
    a = lattice.rational[lattice.F_datum]
    imgF = make_ext_field(q, 1).element(a.numerator * pow(a.denominator, -1, q))
    vF = order_p_valuation(imgF, 2)
    sF = sylow_valuation(q - 1, 2)
    s_up = sylow_valuation(q * q - 1, 2)
    if not vF <= sF < s_up:
        raise AssertionError(f"vF <= sF < s_up fails: {vF}, {sF}, {s_up}")
    return TopSplitCertificate(q, (x, y), DegreeClass.DEGREEP, 2, 1)
