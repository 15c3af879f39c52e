"""Nested chains of degree-p Kummer steps over a cyclotomic base.

A tower is described by a base conductor m, an odd-or-even prime p, a height
r, and a single datum alpha: level j adjoins alpha^(1/p^j) (or 1/p^(j+1)
when the base itself is already counted as the first step).  Optional
pre-steps adjoin p-th roots of auxiliary constants before the chain starts,
which is how bases like Q(i) or k(mu_{p^2}) are reached from a smaller
conductor.

Certification is by witnesses, never by assumption: a chain is nested (each
step degree p, consecutive double-steps cyclic of degree p^2) exactly when
mu_{p^2} sits below the stacked part and the datum stays out of the p-th
powers of the base, and the latter is certified by a residue witness prime
or an exact factorisation, with InconclusiveError when neither lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import ntheory
from .cyclotomic import (
    DEFAULT_WITNESS_BOUND,
    CycloPrime,
    Datum,
    PowerCertificate,
    _fraction_is_pth_power,
    require_not_pth_power,
)

__all__ = [
    "KummerTower", "ChainLevel", "NestednessCertificate",
    "build_nested_chain", "verify_nested", "modify_datum", "fresh_prime_plan",
]


@dataclass(frozen=True)
class KummerTower:
    """Chain data: levels j = 0..r over Q(zeta_m) with pre-adjoined roots."""

    m: int
    p: int
    r: int
    datum: Datum
    base_is_step: bool = False
    pre_steps: tuple[Datum, ...] = ()

    def __post_init__(self):
        if not ntheory.isprime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 0:
            raise ValueError("height must be >= 0")
        if self.datum.m != self.m:
            raise ValueError("datum conductor differs from base conductor")
        if self.datum.is_zero():
            raise ValueError("zero datum")
        for d in self.pre_steps:
            if d.m != self.m or d.is_zero():
                raise ValueError("bad pre-step datum")

    @property
    def stacked_steps(self) -> int:
        """Number of datum-root steps piled on top of each other."""
        return self.r + (1 if self.base_is_step else 0)

    def root_exponent(self, j: int) -> int:
        """P_j with level j = base field joined with datum^(1/P_j)."""
        if not 0 <= j <= self.r:
            raise ValueError(f"level {j} outside 0..{self.r}")
        return self.p ** (j + 1) if self.base_is_step else self.p ** j

    def level_degree(self, j: int) -> int:
        """Degree of level j over Q(zeta_m)."""
        return self.p ** len(self.pre_steps) * self.root_exponent(j)


@dataclass(frozen=True)
class ChainLevel:
    index: int
    root_exponent: int
    rel_degree: int  # over Q(zeta_m)


def build_nested_chain(tower: KummerTower) -> tuple[ChainLevel, ...]:
    return tuple(ChainLevel(j, tower.root_exponent(j), tower.level_degree(j))
                 for j in range(tower.r + 1))


def _pre_step_gives_mu(d: Datum, p: int) -> bool:
    """Does adjoining d^(1/p) supply mu_{p^2} over the base?"""
    if p == 2:
        # need sqrt(-1): value = -(square) up to rational squares
        val = d.value()
        return (val.is_rational()
                and _fraction_is_pth_power(-val.as_fraction(), 2))
    return d.is_signed_root_of_unity(p)


def _mu_p2_source(tower: KummerTower) -> str:
    p, m = tower.p, tower.m
    if tower.stacked_steps < 2:
        return "not-needed"
    if p == 2:
        if m % 4 == 0:
            return "conductor"
    elif m % (p * p) == 0:
        return "conductor"
    if any(_pre_step_gives_mu(d, p) for d in tower.pre_steps):
        return "pre-step"
    raise ValueError(
        f"chain not cyclic at step 2: mu_{p * p} unavailable over the base "
        f"(conductor {m}, no suitable pre-step)")


def _kummer_lines(tower: KummerTower):
    """One datum per line of the Kummer subgroup spanned by datum and pre-steps.

    Each must avoid the p-th powers of Q(zeta_m) for the composite chain to
    have full degree; the line through the datum alone (index 0) certifies
    irreducibility of the main chain over the enlarged base.
    """
    p = tower.p
    gens = (tower.datum,) + tower.pre_steps
    k = len(gens)
    lines = []
    seen = set()
    for idx in range(1, p ** k):
        vec = []
        t = idx
        for _ in range(k):
            vec.append(t % p)
            t //= p
        lead = next(v for v in vec if v)
        inv = pow(lead, -1, p)
        canon = tuple((v * inv) % p for v in vec)
        if canon in seen:
            continue
        seen.add(canon)
        cyc = gens[0].cyc.field.one()
        rat = Fraction(1)
        for g, e in zip(gens, canon):
            if e:
                cyc = cyc * g.cyc ** e
                rat *= g.rat ** e
        lines.append((canon, Datum(cyc, rat)))
    return lines


@dataclass(frozen=True)
class NestednessCertificate:
    tower: KummerTower
    chain: tuple[ChainLevel, ...]
    mu_source: str
    witness_q: int | None
    witness_prime: CycloPrime | None
    line_witnesses: tuple[tuple[tuple[int, ...], int | None], ...] = field(
        default=())

    @property
    def chain_degrees(self) -> tuple[int, ...]:
        return tuple(level.rel_degree for level in self.chain)


def verify_nested(tower: KummerTower,
                  bound: int = DEFAULT_WITNESS_BOUND) -> NestednessCertificate:
    """Certify the chain is nested with full degree, or fail loudly.

    Raises ValueError for structural failures (missing mu_{p^2}, a datum or
    datum/pre-step combination that is a p-th power) and InconclusiveError
    when a certificate search exhausts its bound.  With mu_4 in the base the
    p = 2 quartic caveat is vacuous (-4 is already a fourth power there).
    """
    mu_source = _mu_p2_source(tower)
    main_cert: PowerCertificate | None = None
    line_log = []
    for canon, d in _kummer_lines(tower):
        cert = require_not_pth_power(d, tower.p, bound)
        line_log.append((canon, cert.witness_q))
        if canon == (1,) + (0,) * len(tower.pre_steps):
            main_cert = cert
    if main_cert is None:
        raise AssertionError("no Kummer line certifies the main datum")
    return NestednessCertificate(
        tower=tower,
        chain=build_nested_chain(tower),
        mu_source=mu_source,
        witness_q=main_cert.witness_q,
        witness_prime=main_cert.witness_prime,
        line_witnesses=tuple(line_log),
    )


def modify_datum(datum: Datum, multipliers) -> Datum:
    """Scale the datum by prod(l^e) for (l, e) pairs, keeping the core."""
    out = datum
    for ell, e in multipliers:
        if not ntheory.isprime(ell):
            raise ValueError(f"multiplier base {ell} is not prime")
        if e < 1:
            raise ValueError("multiplier exponents must be >= 1")
        out = out.scale(Fraction(ell) ** e)
    return out


def fresh_prime_plan(used: set[int], p: int, r: int,
                     split_modulus: int | None = None):
    """Multipliers ((l_1, p^1), ..., (l_r, p^r)) with fresh least primes.

    Each l_i is the least prime avoiding `used`, p, and earlier choices;
    with split_modulus s set, only l = 1 mod s are tried, stepping by s (used
    to keep the auxiliary primes split in a designated cyclotomic layer).
    """
    if not ntheory.isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if split_modulus is not None and split_modulus < 1:
        raise ValueError(f"split modulus {split_modulus} must be >= 1")
    step = split_modulus or 1
    taken = set(used) | {p}
    plan = []
    for i in range(1, r + 1):
        ell = 1 + step
        while ell in taken or not ntheory.isprime(ell):
            ell += step
        taken.add(ell)
        plan.append((ell, p ** i))
    return tuple(plan)
