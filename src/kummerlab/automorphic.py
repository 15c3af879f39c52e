"""Isobaric sums of norm-composed Dirichlet characters, exactly.

The GL(1) desk model: a "representation" over a field K is a formal sum of
Dirichlet characters evaluated through the norm, chi(Nv), with integer
multiplicities and a rational unitarity shift t.  All character values are
exact roots of unity stored as exponents; complex floats never appear here.

Two distinct Dirichlet characters can induce the same character of K: chi
and chi' agree on all place norms iff chi/chi' kills the subgroup of (Z/N)^*
generated by those norms.  Equality and normalization are therefore always
taken relative to the field, through norm_subgroup.  Characters read
(Z/N)^* from the one table in `cyclotomic`, as residue degrees do.
Two sums' components are matched in one place, `pair_components`; equality
of sums, the pole book and the determination's peeling and descent read it.

A field is a `splitting.Field`: the rationals, the m-th cyclotomic field or
the top of a Kummer tower, with its place norms from the splitting
machinery.  Every function here also takes the raw description (1, m or a
tower) and builds the `Field` itself; a report names the field by its tag.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import ntheory
from .cyclotomic import _unit_logs, _units, unit_group_structure
from .splitting import Field, norm_subgroup


# ---------------------------------------------------------------------------
# characters

class NormCharacter:
    """A Dirichlet character chi mod N, read at places v through Nv.

    Values are exact: chi(a) = zeta_order^exps[a] with int exponents, and
    the constructor reduces them by gcd(order, *exps), so `order` is the
    exact order of chi.  The field is the base field whose places it
    evaluates; it changes equality (see norm_equal) but never the table.
    """

    __slots__ = ("modulus", "order", "exps", "field", "_key")

    def __init__(self, modulus: int, order: int, exps: dict, field=1):
        units = _units(modulus)
        if set(exps) != set(units):
            raise ValueError("table must cover exactly the units of the modulus")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        g = math.gcd(order, *exps.values())
        self.modulus = modulus
        self.order = order // g
        self.exps = {a: exps[a] // g % self.order for a in units}
        self.field = Field.of(field)
        self._key = None
        self._check_multiplicative()

    def _check_multiplicative(self):
        gens = unit_group_structure(self.modulus)
        logs = _unit_logs(self.modulus)
        o = self.order
        for a, ea in logs.items():
            want = sum(self.exps[g] * ea[i] for i, (g, _) in enumerate(gens))
            if (want - self.exps[a]) % o:
                raise ValueError("table is not multiplicative")
        for g, d in gens:
            if (self.exps[g] * d) % o:
                raise ValueError("generator image order does not divide "
                                 "the generator order")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def trivial(field=1) -> "NormCharacter":
        return NormCharacter(1, 1, {0: 0}, field)

    # -- values --------------------------------------------------------------

    def angle(self, a: int) -> Fraction:
        """chi(a) as a fraction of a full turn, in [0, 1)."""
        a %= self.modulus
        if a not in self.exps:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        return Fraction(self.exps[a], self.order)

    # -- structure -----------------------------------------------------------

    def conductor(self) -> int:
        for d in ntheory.divisors(self.modulus):
            if all(self.exps[a] == 0 for a in _units(self.modulus)
                   if a % d == 1 % d):
                return d
        raise AssertionError("unreachable: N itself always works")

    def primitive(self) -> "NormCharacter":
        """The inducing character mod the conductor c.

        chi is constant on the units above each unit mod c, and every unit
        mod c has one above it, so reading the table mod c covers it.
        """
        c = self.conductor()
        if c == self.modulus:
            return self
        return NormCharacter(c, self.order,
                             {a % c: e for a, e in self.exps.items()},
                             self.field)

    def key(self):
        """Canonical identity as a Dirichlet character (field-independent)."""
        if self._key is None:
            prim = self.primitive()
            self._key = (prim.modulus, prim.order,
                         tuple(prim.exps[a] for a in _units(prim.modulus)))
        return self._key

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __mul__(self, other: "NormCharacter") -> "NormCharacter":
        if self.field != other.field:
            raise ValueError("cannot multiply characters over different fields")
        M = math.lcm(self.modulus, other.modulus)
        o = math.lcm(self.order, other.order)
        s, t = o // self.order, o // other.order
        table = {a: s * self.exps[a % self.modulus]
                 + t * other.exps[a % other.modulus] for a in _units(M)}
        return NormCharacter(M, o, table, self.field).primitive()

    def inverse(self) -> "NormCharacter":
        return NormCharacter(self.modulus, self.order,
                             {a: -e for a, e in self.exps.items()}, self.field)

    def __pow__(self, k: int) -> "NormCharacter":
        return NormCharacter(self.modulus, self.order,
                             {a: k * e for a, e in self.exps.items()},
                             self.field).primitive()

    def retag(self, field) -> "NormCharacter":
        return NormCharacter(self.modulus, self.order, self.exps, field)

    def __eq__(self, other):
        return (isinstance(other, NormCharacter)
                and self.field == other.field and norm_equal(self, other))

    def __hash__(self):
        # norm-equal characters over one field must collide; hash the field
        # only (tiny buckets in practice)
        return hash(("NormCharacter", self.field))

    def __repr__(self):
        if self.is_trivial:
            return "chi(1)"
        return f"chi({self.modulus};{self.exps}/{self.order})"

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "order": self.order,
                "table": {str(a): e for a, e in sorted(self.exps.items())}}

    @staticmethod
    def from_json(doc: dict, field=1) -> "NormCharacter":
        return NormCharacter(int(doc["modulus"]), int(doc["order"]),
                             {int(a): int(e) for a, e in doc["table"].items()},
                             field)


def dirichlet_characters(N: int, field=1) -> list[NormCharacter]:
    """All phi(N) characters mod N, trivial first, deterministic order.

    The i-th generator (g_i, d_i) goes to zeta_{d_i}^{k_i}, written over
    o = lcm(d_i) as exponent k_i * o / d_i; the k run in product order.
    """
    gens = unit_group_structure(N)
    o = math.lcm(*(d for _, d in gens))
    logs = _unit_logs(N)
    field = Field.of(field)
    out = []
    for ks in itertools.product(*(range(d) for _, d in gens)):
        w = [k * (o // d) for k, (_, d) in zip(ks, gens)]
        out.append(NormCharacter(
            N, o, {a: sum(x * y for x, y in zip(w, ea))
                   for a, ea in logs.items()}, field))
    return out


def character_of_order(N: int, p: int, field=1) -> NormCharacter:
    """The first character mod N of exact order p, in enumeration order."""
    for chi in dirichlet_characters(N, field):
        if chi.order == p:
            return chi
    raise ValueError(f"no character of order {p} mod {N}")


_H_CACHE: dict = {}


def _norm_classes(field: Field, M: int):
    key = (field, M)
    if key not in _H_CACHE:
        _H_CACHE[key] = norm_subgroup(field, M, bound=max(500, 4 * M))
    return _H_CACHE[key]


def norm_equal(chi: NormCharacter, psi: NormCharacter) -> bool:
    """Equality as characters of their field (almost all places)."""
    if chi.field != psi.field:
        return False
    xi = chi * psi.inverse()
    if xi.is_trivial:
        return True
    if chi.field.desc == 1:
        return False
    M = xi.modulus
    return all(xi.exps[h % M] == 0 for h in _norm_classes(chi.field, M))


# ---------------------------------------------------------------------------
# isobaric sums

@dataclass(frozen=True)
class IsobaricRep:
    """Normalized multiset of (character, multiplicity) with a |.|^t shift."""

    components: tuple           # ((NormCharacter, int), ...) canonical order
    t: Fraction
    field: Field

    @property
    def n(self) -> int:
        return sum(m for _, m in self.components)

    @property
    def is_unitary(self) -> bool:
        return self.t == 0

    def __eq__(self, other):
        if not (isinstance(other, IsobaricRep) and self.field == other.field
                and self.t == other.t
                and len(self.components) == len(other.components)):
            return False
        pairs, left, right = pair_components(self, other)
        return not (left or right) and all(m == m2 for _, m, _, m2 in pairs)

    def __hash__(self):
        # equality is norm-relative, so hash only what it preserves
        return hash((self.field, self.t, self.n, len(self.components)))

    def to_json(self) -> dict:
        return {"field": self.field.tag,
                "components": [dict(ch.to_json(), multiplicity=m)
                               for ch, m in self.components],
                "t": str(self.t)}

    @staticmethod
    def from_json(doc: dict, field=None) -> "IsobaricRep":
        f = Field.of(doc.get("field", 1) if field is None else field)
        comps = [(NormCharacter.from_json(c, f), int(c.get("multiplicity", 1)))
                 for c in doc["components"]]
        return make_isobaric(comps, Fraction(doc.get("t", 0)), f)


def make_isobaric(components, t=0, field=None) -> IsobaricRep:
    """Normalize: group field-equal characters, add multiplicities, sort.

    The grouping is relative to the field, so 1 boxplus chi collapses to
    the double of the trivial character whenever chi kills the norms.
    """
    comps = list(components)
    if not comps:
        raise ValueError("an isobaric sum needs at least one component")
    field = comps[0][0].field if field is None else Field.of(field)
    merged: list[list] = []
    for chi, m in comps:
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
        chi = chi if chi.field == field else chi.retag(field)
        chi = chi.primitive()
        for slot in merged:
            if norm_equal(slot[0], chi):
                slot[1] += m
                if chi.key() < slot[0].key():
                    slot[0] = chi          # keep the least representative
                break
        else:
            merged.append([chi, m])
    merged.sort(key=lambda s: s[0].key())
    return IsobaricRep(tuple((c, m) for c, m in merged), Fraction(t), field)


def pair_components(pi: IsobaricRep, pi2: IsobaricRep):
    """Match the components of two sums over one field: (pairs, left, right).

    A normalized sum's components are pairwise unequal over its field, so
    each component has at most one partner on the other side.  `pairs` holds
    (chi, m, chi2, m2) in pi's order; `left` and `right` hold each side's
    unpaired (chi, m) in its own order, which is canonical key order.
    """
    if pi.field != pi2.field:
        raise ValueError("the pair must live over one field")
    right = list(pi2.components)
    pairs, left = [], []
    for chi, m in pi.components:
        j = next((j for j, (chi2, _) in enumerate(right)
                  if norm_equal(chi, chi2)), None)
        if j is None:
            left.append((chi, m))
        else:
            pairs.append((chi, m) + right.pop(j))
    return tuple(pairs), tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# Satake data

@dataclass(frozen=True)
class SatakeClass:
    """Unordered eigenvalues at one place: (turn angle, power of Nv) pairs."""

    norm: int
    eigenvalues: tuple          # sorted ((Fraction angle, Fraction tpow), ...)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def power(self, r: int) -> "SatakeClass":
        """Eigenvalue-wise r-th power (the class at a degree-r extension)."""
        return SatakeClass(self.norm ** r, tuple(sorted(
            ((a * r) % 1, tp) for a, tp in self.eigenvalues)))


def satake(pi: IsobaricRep, Nv: int) -> SatakeClass:
    """The class at an unramified place of norm Nv."""
    eig = []
    for chi, m in pi.components:
        if math.gcd(chi.modulus, Nv) != 1:
            q = ntheory.primefactors(Nv)[0]
            raise ValueError(f"place above {q} is ramified for a component")
        eig.extend([(chi.angle(Nv), pi.t)] * m)
    return SatakeClass(Nv, tuple(sorted(eig)))


def moduli_lcm(*reps: IsobaricRep) -> int:
    """The lcm of the reps' component moduli: their Satake data read Nv mod it."""
    return math.lcm(*(chi.modulus for rep in reps for chi, _ in rep.components))


def satake_agreement(pi: IsobaricRep, pi2: IsobaricRep):
    """agree(Nv): whether pi and pi2 have one Satake class at norm Nv.

    The answer depends only on Nv mod `moduli_lcm(pi, pi2)`: `satake` is
    compared once per residue class, and the answers are kept for the life
    of the returned function.
    """
    N = moduli_lcm(pi, pi2)
    seen = {}

    def agree(Nv: int) -> bool:
        r = Nv % N
        if r not in seen:
            seen[r] = satake(pi, Nv) == satake(pi2, Nv)
        return seen[r]

    return agree


def ramified_primes(*reps: IsobaricRep) -> set[int]:
    """Rational primes dividing the modulus of some component of the reps.

    Together with the field's `bad_primes()` this is the finite set a
    claim about a pair's places leaves out.
    """
    return {ell for rep in reps for chi, _ in rep.components
            for ell in ntheory.primefactors(chi.modulus)}


# ---------------------------------------------------------------------------
# base change

def base_change(pi: IsobaricRep, M, verify_upto: int = 100) -> IsobaricRep:
    """pi over M: same norm-composed characters, re-normalized over M.

    The Satake rule (eigenvalues to the f-th power at a degree-f place) holds
    by norm transitivity; it is still verified pointwise at unramified primes
    up to the bound, so a wrong field description fails loudly.
    """
    F, M = pi.field, Field.of(M)
    if not F.lies_in(M):
        raise ValueError("unsupported extension description")
    out = make_isobaric([(chi, m) for chi, m in pi.components], pi.t, M)
    bad = F.bad_primes() | ramified_primes(pi)
    below: dict[int, list[int]] = {}
    for q, f, _ in F.places(verify_upto):
        below.setdefault(q, []).append(f)
    for q, fw, _ in M.places(verify_upto):
        if q in bad:
            continue
        Nw = q ** fw
        if not any(fw % fv == 0 and
                   satake(pi, q ** fv).power(fw // fv).eigenvalues ==
                   satake(out, Nw).eigenvalues for fv in below[q]):
            raise AssertionError(
                f"base change incoherent above q = {q}: {Nw} vs "
                f"{tuple(q ** fv for fv in below[q])}")
    return out


# ---------------------------------------------------------------------------
# invariants and comparisons

def central_char_and_t(pi: IsobaricRep):
    """(omega, t): the determinant character and the unitarity shift."""
    omega = NormCharacter.trivial(pi.field)
    for chi, m in pi.components:
        omega = omega * chi ** m
    return omega, pi.t


def twist_eliminate(eta: NormCharacter, eta2: NormCharacter,
                    delta: NormCharacter, fresh: int) -> int:
    """The exponent j with eta2 = eta * delta^j; conductor support forces 0.

    delta must have prime order p and conductor divisible by fresh, while
    neither eta nor eta2 may ramify at fresh: any j != 0 would then leave
    eta * delta^j ramified at fresh, so only j = 0 can hold.
    """
    p = delta.order
    if not ntheory.isprime(p):
        raise ValueError("delta must have prime order")
    if delta.conductor() % fresh:
        raise ValueError("fresh prime must divide the conductor of delta")
    if eta.conductor() % fresh == 0 or eta2.conductor() % fresh == 0:
        raise ValueError(f"inconsistent premise: a side is ramified "
                         f"at the fresh prime {fresh}")
    for j in range(p):
        if norm_equal(eta * delta ** j, eta2):
            if j != 0:
                raise ValueError("delta is norm-trivial at the fresh prime; "
                                 "pick a fresh prime split in the field")
            return j
    raise ValueError("no twist exponent matches: premise inconsistent")


def components_match(pi: IsobaricRep, pi2: IsobaricRep) -> bool:
    """Model strong multiplicity one: multiset equality over the field."""
    return pi == pi2


def digest(obj) -> str:
    """Stable sha256 over a JSON-serializable description."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
